"""What the package imports.

Every name a module imports is read somewhere in that module.  This covers
the package modules and the test files.  ``__init__.py`` files are skipped:
their imports are the package's re-exports.  ``from __future__`` imports
are compiler directives, not names, and an import statement marked
``# noqa: F401`` is imported on purpose for its side effects or as a check.

Importing the CLI loads no process pool, and no package module imports
``scipy.sparse`` or ``scipy.optimize.milp``: the compiled matrix is a numpy
CSC record that both HiGHS paths take as it is.
"""

import ast
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
