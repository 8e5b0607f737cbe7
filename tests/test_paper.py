"""paper.py is the one module that holds a transcription. The engines below
it compute with any matrix, recurrence or series: they import nothing from
the chain builders, the oracle, the transcriptions or the layers above, and
never name a family."""

import ast
import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import cactusids
from cactusids.chains import LINEAR_FAMILIES
from cactusids.paper import paper_gf_system
from cactusids.polynomials import Polynomial

PACKAGE = Path(cactusids.__file__).resolve().parent
ENGINES = ("polynomials", "recurrences", "genfunc")
ABOVE_THE_ENGINES = {"chains", "graphs", "paper", "verify", "cli"}
TABLES = (
    "_SYSTEM_DATA", "_RECURRENCE_DATA", "_PAPER_GF", "_PAPER_STATE_GF", "_PAPER_GF_SYSTEM"
)


def _package_imports(tree):
    """The package modules a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cactusids"):
                continue
            path = node.module.split(".")[node.level == 0:] if node.module else []
            yield from path[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "cactusids" and rest:
                    yield rest.split(".")[0]


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_stand_below_the_transcriptions(engine):
    tree = ast.parse((PACKAGE / f"{engine}.py").read_text())
    imported = set(_package_imports(tree))
    assert not imported & ABOVE_THE_ENGINES, imported & ABOVE_THE_ENGINES
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "Family" not in names


def test_the_import_reader_sees_every_form():
    tree = ast.parse(
        "from .chains import Family\nfrom . import graphs\n"
        "from cactusids.paper import paper_gf\nimport cactusids.verify\nimport json\n"
    )
    assert list(_package_imports(tree)) == ["chains", "graphs", "paper", "verify"]


def test_the_tables_live_only_in_paper():
    modules = [
        importlib.import_module(f"cactusids.{info.name}")
        for info in pkgutil.iter_modules([str(PACKAGE)])
    ]
    for table in TABLES:
        holders = [module.__name__ for module in modules if hasattr(module, table)]
        assert holders == ["cactusids.paper"], (table, holders)


# the families whose section prints a linear system for its per-state series
PRINTED_GF_SYSTEMS = [f for f in LINEAR_FAMILIES if paper_gf_system(f) is not None]


def test_printed_gf_systems_keep_their_coefficients():
    # sha256 over every printed system's matrix, right-hand side and unknowns,
    # taken while the tables were still written as Polynomial expressions
    def coeffs(entry):
        return Polynomial(entry).coeffs

    records = []
    for family in PRINTED_GF_SYSTEMS:
        rows, rhs, unknowns = paper_gf_system(family)
        matrix = tuple(tuple(map(coeffs, row)) for row in rows)
        records.append((family.value, (matrix, tuple(map(coeffs, rhs)), unknowns)))
    records = tuple(records)
    assert len(records) == 5
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "e341ecfd7f9261627cca4f212395870450f1f3b6d5eff1f7402d0fdf5b136acd"
    )


@pytest.mark.parametrize("family", PRINTED_GF_SYSTEMS, ids=lambda f: f.value)
def test_printed_gf_systems_are_square_with_one_name_per_row(family):
    # the solver checks the shape of the system it is given; this checks the
    # transcription itself, unknown names included, which no solver reads
    rows, rhs, unknowns = paper_gf_system(family)
    assert all(len(row) == len(rows) for row in rows)
    assert len(rhs) == len(unknowns) == len(rows)
