"""The benchmark in perfbench/ finds package functions by name: run.py's
CACHES names lru_caches, tracing.py's TRACED names the functions it wraps,
and workloads.py's ops and WARM_UP call names on the package. Every name is
read from the source, without running the benchmark."""

import ast
import importlib
import re
import sys
from pathlib import Path

import cactusids
import cactusids.cli  # noqa: F401  (imports every module the benchmark reads)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assignment(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise LookupError(f"{name} is not assigned")


def _assigned(path: Path, name: str):
    return ast.literal_eval(_assignment(ast.parse(path.read_text()), name))


def test_cache_names_are_package_lru_caches():
    caches = {
        attr
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("cactusids.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and hasattr(value, "cache_clear")
    }
    names = set(_assigned(BENCH / "run.py", "CACHES").values())
    assert names <= caches, names - caches


def test_traced_names_resolve():
    for module_name, attr, _ in _assigned(BENCH / "tracing.py", "TRACED"):
        module = importlib.import_module(f"cactusids.{module_name}")
        assert callable(getattr(module, attr, None)), f"cactusids.{module_name}.{attr}"


def test_workload_names_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    # ops call pkg.<name>, where pkg is the package
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "pkg"
    }
    for node in ast.walk(_assignment(tree, "WARM_UP")):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\bcactusids\.(\w+)", node.value))
    assert {"run_transfer", "eval_recurrence", "derived_recurrence", "cli"} <= names
    missing = {name for name in names if not hasattr(cactusids, name)}
    assert not missing, missing
