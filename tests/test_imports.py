"""What the package imports.

Every name a module imports is read somewhere in that module.  This covers
the package modules and the test files.  ``__init__.py`` files are skipped:
their imports are the package's re-exports.  ``from __future__`` imports
are compiler directives, not names, and an import statement marked
``# noqa: F401`` is imported on purpose for its side effects or as a check.

Importing the CLI loads no process pool, and no package module imports
``scipy.sparse`` or ``scipy.optimize.milp``: the compiled matrix is a numpy
CSC record that both HiGHS paths take as it is.

The package is layered: each module imports only the package modules below
it (``LAYERS``), and verification imports a fixed list of names
(``VERIFY_IMPORTS``), so that it never reads what the build decided.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iesdispatch"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
MODULES += [p for p in sorted(TESTS.glob("*.py")) if p.name != "__init__.py"]


def _module_id(path: Path) -> str:
    """Package modules relative to the package, test files as ``tests/<name>``."""
    return str(path.relative_to(PACKAGE if path.is_relative_to(PACKAGE) else TESTS.parent))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unread_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b as c\n"
              "import json  # noqa: F401\nfrom y import (  # noqa: F401\n    d,\n)\nc(os)\n")
    assert unused_imports(source) == ["line 2: math", "line 4: a"]


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a package module imports, and of the names it imports from them."""
    package = ["iesdispatch", *path.relative_to(PACKAGE).parent.parts]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package[:len(package) + 1 - node.level] if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_package_module_imports_the_reference_simplex():
    # the reference simplex is a test oracle that lives with the tests
    assert not list(PACKAGE.rglob("simplex.py"))
    importers = [_module_id(p) for p in sorted(PACKAGE.rglob("*.py"))
                 if any("simplex" in name for name in _imported_modules(p))]
    assert importers == []


# the package modules each package module may import (the package's own
# __init__ is "__init__" as an importer and "" as what is imported), layered model_core/milp_ir <- carbon/demand_response <- verify
# <- dispatch <- cli; solver takes the compiled model from milp_ir and writes
# it with lp_format for the external backend, and its modules import one another
LAYERS = {
    "__init__": set(),
    "model_core": set(),
    "milp_ir": set(),
    "lp_format": {"milp_ir"},
    "carbon": {"milp_ir"},
    "demand_response": {"milp_ir", "model_core"},
    "verify": {"carbon", "demand_response", "milp_ir", "model_core"},
    "solver": {"solver", "milp_ir", "lp_format"},
    "dispatch": {"carbon", "demand_response", "milp_ir", "model_core", "solver", "verify"},
    "cli": {"", "dispatch", "model_core", "solver"},
}

# every name verify.py imports from the package.  Each helper on the list has
# an oracle test of its own against hand-worked numbers: chp_params and
# gas_unit_reach in test_model_core.py (test_chp_params_by_hand,
# test_gas_unit_reach_by_hand), tangent_envelope and quad_value in
# test_milp_ir.py (test_tangent_envelope_by_hand, test_quad_value),
# emission_account and carbon_cost in test_carbon.py
# (test_emission_account_by_hand, test_carbon_cost_dispatch and the tier-cost
# spot values), decompose_loads and satisfaction_index in
# test_demand_response.py (test_decompose_splits_by_fraction,
# test_satisfaction_fixture_055).  as_scenario and _policy look the scenario
# up; the rest are the case's data types and names.
VERIFY_IMPORTS = {
    "carbon": {"FlowSchedule", "carbon_cost", "emission_account"},
    "demand_response": {"SHIFT", "SUBSTITUTE", "decompose_loads", "satisfaction_index"},
    "milp_ir": {"TangentEnvelope", "quad_value", "tangent_envelope"},
    "model_core": {"CARRIERS", "CaseData", "_policy", "as_scenario", "chp_params", "gas_unit_reach"},
}


def _package_imports(source: str, package: list[str]) -> dict[str, set[str]]:
    """The names a module imports from each package module, anywhere in it, keyed by the module under the package.

    ``package`` is the module's package (``["iesdispatch", "solver"]``).  A
    module inside a subpackage counts as the subpackage, and the package's
    own ``__init__`` as "".  A module imported whole imports the name "*".
    """
    found: dict[str, set[str]] = {}

    def add(parts: list[str], name: str):
        if len(parts) > 1:
            found.setdefault(parts[1], set()).add(name)
        elif (PACKAGE / f"{name}.py").exists() or (PACKAGE / name).is_dir():
            found.setdefault(name, set()).add("*")
        else:
            found.setdefault("", set()).add(name)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "iesdispatch":
                    add(parts, "*")
        elif isinstance(node, ast.ImportFrom):
            parts = package[:len(package) + 1 - node.level] if node.level else []
            parts += node.module.split(".") if node.module else []
            if parts[:1] == ["iesdispatch"]:
                for alias in node.names:
                    add(parts, alias.name)
    return found


def _package(path: Path) -> list[str]:
    return ["iesdispatch", *path.relative_to(PACKAGE).parent.parts]


def _layer(path: Path) -> str:
    """The package module a file belongs to: its own name, or its subpackage's."""
    return path.relative_to(PACKAGE).parts[0].removesuffix(".py")


PACKAGE_MODULES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=_module_id)
def test_module_imports_only_the_layers_below_it(path):
    imported = set(_package_imports(path.read_text(), _package(path)))
    assert imported <= LAYERS[_layer(path)], sorted(imported - LAYERS[_layer(path)])


def test_verify_imports_only_its_allow_list():
    path = PACKAGE / "verify.py"
    assert _package_imports(path.read_text(), _package(path)) == VERIFY_IMPORTS


def test_layering_checker_reads_every_kind_of_import():
    source = ("from . import __version__\nfrom . import carbon as c\nfrom .model_core import CARRIERS\n"
              "import iesdispatch.dispatch\ndef f():\n    from .solver.branch_bound import MilpOptions\n"
              "from .solver import get_backend\nimport numpy\n")
    assert _package_imports(source, ["iesdispatch"]) == {
        "": {"__version__"}, "carbon": {"*"}, "model_core": {"CARRIERS"}, "dispatch": {"*"},
        "solver": {"MilpOptions", "get_backend"}}
    source = "from ..milp_ir import MilpModel\nfrom .branch_bound import highs_milp\n"
    assert _package_imports(source, ["iesdispatch", "solver"]) == {"milp_ir": {"MilpModel"}, "solver": {"highs_milp"}}


def test_verify_import_leaves_out_the_build_and_scipy():
    # verification stands alone: importing it loads no build, solver or scipy
    code = ("import sys, iesdispatch.verify; print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'iesdispatch.dispatch', 'iesdispatch.solver', 'iesdispatch.cli'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


# the names that moved below dispatch and that callers read from it, by their new module
MOVED = {"verify": ("verify_solution", "VerificationReport", "_CheckPlan", "_storage_overlaps"),
         "model_core": ("as_scenario", "SCENARIO_IDS", "SCENARIOS", "ScenarioSpec")}


def _top_level_names(path: Path) -> set[str]:
    """The names a module defines at its top level: functions, classes and assigned names."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_dispatch_defines_no_verification_code_and_re_exports_what_moved():
    from iesdispatch import dispatch

    shared = {"ELECTRIC", "GAS"}  # the carrier names both unpack from CARRIERS
    assert _top_level_names(PACKAGE / "dispatch.py") & _top_level_names(PACKAGE / "verify.py") == shared
    for module, names in MOVED.items():
        home = importlib.import_module(f"iesdispatch.{module}")
        assert all(getattr(dispatch, name) is getattr(home, name) for name in names), module


def test_cli_import_leaves_out_the_process_pool():
    # only --jobs > 1 needs multiprocessing, which a fresh process would
    # otherwise pay for on every run
    code = ("import sys, iesdispatch.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


# scipy.sparse and its submodules, and milp with the argument classes it alone needs
SCIPY_LEFT_OUT = ("scipy.sparse", "scipy.optimize.milp", "scipy.optimize.LinearConstraint", "scipy.optimize.Bounds")


def _left_out_importers(source: str) -> list[str]:
    """The functions of a module that import a name in ``SCIPY_LEFT_OUT``, "<module>" for an import outside any."""
    tree = ast.parse(source)
    scopes = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                scopes.setdefault(id(inner), node.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == left or name.startswith(f"{left}.") for name in names for left in SCIPY_LEFT_OUT):
            found.append(scopes.get(id(node), "<module>"))
    return found


def test_no_package_module_imports_scipy_sparse_or_milp():
    importers = {_module_id(p): _left_out_importers(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {module: names for module, names in importers.items() if names} == {}
    # the check itself
    source = ("import scipy.sparse\ndef f():\n    from scipy.sparse import csc_array\nimport scipy\n"
              "def g():\n    from scipy.optimize import linprog, milp\n"
              "def h():\n    from scipy.optimize import Bounds\nfrom scipy.optimize._highspy import _core\n")
    assert _left_out_importers(source) == ["<module>", "f", "g", "h"]
