"""Every private function of the package, at module level or as a method
of a class, and every method of a private class, is referenced somewhere
in ``src/qgroupoid``: a helper that no code reads is dead.  As in ``test_unused_imports.py``, the modules are read
with the standard library's ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgroupoid"


def unreferenced_private(sources):
    """The (module, line, name) of every private module-level function,
    private method and method of a private class in ``sources`` (module
    name -> source text) whose name no module reads, as a name or as an
    attribute.  Dunder methods are exempt."""
    defined, used = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        # (body, whether its public functions count too): the module's, then each class's
        bodies = [(tree.body, False)] + [(node.body, node.name.startswith("_"))
                                         for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [(module, node.lineno, node.name) for body, private in bodies for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (private or node.name.startswith("_")) and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [entry for entry in defined if entry[2] not in used]


def test_the_guard_finds_an_unused_helper():
    helpers = ("def _used():\n    return 1\n\n\n"
               "def _dead():\n    return 2\n\n\n"
               "class K:\n"
               "    def __init__(self):\n        self._kept = _used()\n\n"
               "    def _orphan(self):\n        return 3\n\n"
               "    def shown(self):\n        return 4\n\n\n"
               "class _Hidden:\n"
               "    def __init__(self):\n        self.kept = K()\n\n"
               "    def unread(self):\n        return 5\n")
    # a public method counts only in a private class
    assert unreferenced_private({"helpers": helpers}) == [
        ("helpers", 5, "_dead"), ("helpers", 13, "_orphan"), ("helpers", 24, "unread")]
    # a read from another module, as a name or an attribute, is a reference
    caller = "from .helpers import _dead\n\nprint(_dead(), K()._orphan, _Hidden().unread)\n"
    assert unreferenced_private({"helpers": helpers, "caller": caller}) == []


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private(sources) == []
