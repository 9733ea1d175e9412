import importlib
import pkgutil

import pytest

import meshecon

MODULES = sorted(m.name for m in pkgutil.iter_modules(meshecon.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"meshecon.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
