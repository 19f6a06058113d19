import importlib
import pkgutil

import pytest

import fhmerge

MODULES = sorted(m.name for m in pkgutil.iter_modules(fhmerge.__path__))


def test_package_exports_resolve():
    missing = [name for name in fhmerge.__all__ if not hasattr(fhmerge, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"fhmerge.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing
