import importlib
import pkgutil

import pytest

import qflat

# every module of the package but the console entry point, which has no API
MODULES = sorted(m.name for m in pkgutil.iter_modules(qflat.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"qflat.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    exec(f"from qflat.{name} import *", {})
