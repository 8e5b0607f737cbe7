"""The benchmark in perfbench/ finds package functions by name: run.py's
CACHES names lru_caches and tracing.py's TRACED names the functions it wraps.
Both tables are read from the source, without running the benchmark."""

import ast
import importlib
import sys
from pathlib import Path

import cactusids.cli  # noqa: F401  (imports every module the benchmark reads)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


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
