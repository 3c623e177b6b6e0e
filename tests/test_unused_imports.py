"""Every name a module of the package imports is used in that module or
re-exported through its ``__all__``.  ``__init__.py`` is left out: its
imports are the package's public names.  No linter is a dependency, so
the modules are read with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgroupoid"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The (line, name) of every imported name that ``source`` never reads
    and does not list in ``__all__``; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_finds_an_unused_import():
    source = "from fractions import Fraction\nimport math, os.path\nfrom .x import a, b\n"
    assert unused_imports(source + "__all__ = ['b']\nprint(a, os.sep)\n") == [
        (1, "Fraction"), (2, "math")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
