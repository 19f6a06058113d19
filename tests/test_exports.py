import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fhmerge

MODULES = sorted(m.name for m in pkgutil.iter_modules(fhmerge.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"
# the fhmerge modules bench/child.py imports by name
BENCH_MODULES = {"asympt", "experiments", "painleve", "symbol", "toeplitz"}


def test_package_exports_resolve():
    missing = [name for name in fhmerge.__all__ if not hasattr(fhmerge, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"fhmerge.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def _bench_names():
    """(module, name) for every module.name and from-import in bench/child.py."""
    tree = ast.parse((BENCH / "child.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in BENCH_MODULES
        ):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fhmerge."):
            yield from ((node.module.split(".", 1)[1], alias.name) for alias in node.names)


def test_benchmark_names_resolve():
    names = set(_bench_names())
    assert ("painleve", "degenerate_sigma") in names
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sorted(names)
        if not hasattr(importlib.import_module(f"fhmerge.{mod}"), attr)
    ]
    assert not missing


def test_benchmark_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.Tracer()._targets()
    assert targets and all(callable(fn) for _, fns, _, _ in targets for fn in fns)
