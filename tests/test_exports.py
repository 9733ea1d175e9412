import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import meshecon

MODULES = sorted(m.name for m in pkgutil.iter_modules(meshecon.__path__))


SIMULATOR_NAMES = (
    "ComparisonRecord", "ConnectionEvent", "Lattice", "SimConfig", "SimOutcome",
    "build_lattice", "estimate_vs_analytic", "lattice_exact_means", "run_instant",
)


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("meshecon" if module is None else f"meshecon.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_the_package_gives_the_simulator_names_it_loads_on_first_use():
    from meshecon import simulator

    assert meshecon.SimConfig is simulator.SimConfig
    namespace = {}
    exec("from meshecon import *", namespace)
    for name in SIMULATOR_NAMES:
        assert namespace[name] is getattr(simulator, name)
    assert set(SIMULATOR_NAMES) <= set(dir(meshecon))
    with pytest.raises(AttributeError, match="has no attribute 'simulate'"):
        meshecon.simulate


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


def _package_sites(match) -> list:
    """Where in the package's modules a node match(node) accepts appears, as
    "module.function" ("module.<module>" at top level), in source order."""
    sites = []

    class Sites(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def generic_visit(self, node):
            if match(node):
                sites.append(f"{self.module}.{self.scope[-1]}")
            super().generic_visit(node)

    for path in sorted(Path(meshecon.__file__).parent.glob("*.py")):
        Sites(path.stem).visit(ast.parse(path.read_text()))
    return sites


def test_only_the_combination_helper_takes_power_of_2_units():
    # model._combine decides the units in which every role is summed; a
    # second site that takes them would let the roles disagree on it
    users = _package_sites(lambda node: isinstance(node, ast.Name) and node.id == "_unit"
                           or isinstance(node, ast.Attribute) and node.attr == "_unit")
    assert users == ["model._combine"]


def test_only_regimes_reads_the_value_rows():
    # regimes._value_row decides the value row a, whose zero signs the
    # closed forms' roles and the simulator's lattice roles take; a module
    # that reads _VALUE or _NO_PEERING_VALUE itself would decide it again
    names = {"_VALUE", "_NO_PEERING_VALUE"}
    sites = _package_sites(lambda node: isinstance(node, ast.Name) and node.id in names
                           or isinstance(node, ast.Attribute) and node.attr in names
                           or isinstance(node, ast.alias) and node.name in names)
    assert set(sites) == {"regimes.<module>", "regimes._value_row"}


def test_one_json_writer_in_the_package():
    # model._json_text writes every JSON text the package prints, with the
    # bytes of json.dumps(obj, indent=2, sort_keys=True); an indented
    # json.dump(s) beside it would be a second writer, and a slower one
    def called(node):
        func = getattr(node, "func", None)
        return getattr(func, "attr", None) or getattr(func, "id", None)

    def indented_dump(node):
        return (isinstance(node, ast.Call) and called(node) in ("dump", "dumps")
                and any(keyword.arg == "indent" for keyword in node.keywords))

    assert "model.params_from_json" in _package_sites(lambda node: called(node) == "loads")
    assert _package_sites(indented_dump) == []


def test_output_files_get_their_mode_from_the_kernel():
    # cli creates each temporary output file itself with mode 0o666, which
    # the kernel cuts by the umask; mkstemp would create it 0600, and reading
    # the umask to correct that means setting it
    names = {"mkstemp", "umask", "fchmod"}

    def named(node):
        return (isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.alias) and node.name in names)

    assert _package_sites(named) == []
