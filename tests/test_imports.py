"""Every name a package module imports is read somewhere in that module.

``__init__.py`` files are skipped: their imports are the package's
re-exports.  ``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iesdispatch"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unread_import():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["line 2: math", "line 4: a"]
