import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meshecon

MODULES = sorted(m.name for m in pkgutil.iter_modules(meshecon.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"meshecon.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_oracles_import_nothing_from_the_package():
    # the oracles, the reference router among them, must stay independent
    source = Path(__file__).with_name("oracles.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [m for m in imported if m.split(".")[0] in ("meshecon", "")] == []
