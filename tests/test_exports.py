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


# (importing module, sibling module, private name) crossings the package allows
PRIVATE_CROSSINGS = {
    ("experiments", "asympt", "_transition_terms"),
    ("cli", "experiments", "_csv_text"),
    ("asympt", "painleve", "_check_trajectory"),
}


def _private_crossings():
    """(module, sibling, name) for every `from .sibling import _name` and every
    `sibling._name` on a sibling module bound by `from . import sibling`."""
    for path in sorted(Path(fhmerge.__file__).parent.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        siblings = {}  # local name -> sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update((a.asname or a.name, a.name) for a in node.names)
                else:
                    yield from (
                        (mod, node.module, alias.name)
                        for alias in node.names
                        if alias.name.startswith("_")
                    )
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                yield mod, siblings[node.value.id], node.attr


def test_private_names_stay_in_their_module():
    assert set(_private_crossings()) == PRIVATE_CROSSINGS


# exported names nothing in the package or the benchmark calls, kept on purpose:
# heine_det is the oracle log_det is tested against
UNCALLED_EXPORTS = {"heine_det"}


def _exports():
    """Every name in fhmerge.__all__ and in each module's __all__."""
    names = set(fhmerge.__all__)
    for name in MODULES:
        names.update(getattr(importlib.import_module(f"fhmerge.{name}"), "__all__", ()))
    return names


def _referenced_names():
    """Every name read (Name or Attribute) or imported in src/fhmerge
    outside __init__.py and in bench/."""
    package = Path(fhmerge.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    out = set()
    for path in paths + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return out


def test_every_export_has_a_caller():
    assert sorted(_exports() - _referenced_names()) == sorted(UNCALLED_EXPORTS)
