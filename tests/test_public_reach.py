"""Every public function and class of the package, at module level, and
every public method of a public class, is reached: code of
``src/qgroupoid`` outside the definition's own body reads its name, or
the golden recorder, the ladder or the benchmark does, or ``ALLOWED``
says why it stays.  A public name that only unit tests read is surface
that no command and no recorded report runs.  Methods of private classes
are left to ``test_dead_private_code.py``.  As there, the modules are read
with the standard library's ``ast``, and a name is read as a name or as an
attribute; an import or an ``__all__`` entry is no reading."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgroupoid"
READERS = [ROOT / "tests" / "golden" / "record.py", ROOT / "bench" / "ladder.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# name -> why it stays although no code above reads it
ALLOWED = {}


def _names_read(tree):
    """The names read anywhere in tree, as names or attributes, with repeats."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _public(body):
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unreached_public(sources, readers=(), allowed=()):
    """The (module, line, name) of every public module-level function or
    class, and every public method of a public class, in ``sources``
    (module name -> source text) whose name no module reads outside the
    definition's own body, no reader source (text) reads and ``allowed``
    does not hold."""
    defined, read = [], Counter()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        read += _names_read(tree)
        for node in _public(tree.body):
            defined.append((module, node))
            if isinstance(node, ast.ClassDef):
                defined += [(module, method) for method in _public(node.body)
                            if isinstance(method, ast.FunctionDef)]
    outside = set()
    for source in readers:
        outside.update(_names_read(ast.parse(source)))
    return [(module, node.lineno, node.name) for module, node in defined
            if read[node.name] == _names_read(node)[node.name]
            and node.name not in outside and node.name not in allowed]


def test_the_guard_finds_an_unreached_public_name():
    planted = ("def used():\n    return 1\n\n\n"
               "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
               "class Box:\n"
               "    def __init__(self):\n        self.value = used()\n\n"
               "    def opened(self):\n        return Box()\n\n"
               "    def _hidden(self):\n        return 2\n\n\n"
               "class _Private:\n"
               "    def unread(self):\n        return 3\n")
    # a read inside the definition's own body is no reach; private names,
    # dunders and the methods of a private class are not asked about
    assert unreached_public({"planted": planted}) == [
        ("planted", 5, "recursive"), ("planted", 9, "Box"), ("planted", 13, "opened")]
    # a read from another module or from a reader is a reach, and an
    # allowed name stays
    caller = "from .planted import Box\n\nprint(Box().opened)\n"
    assert unreached_public({"planted": planted, "caller": caller}) == [
        ("planted", 5, "recursive")]
    assert unreached_public({"planted": planted}, readers=["planted.recursive(2)\n"],
                            allowed={"Box": "why", "opened": "why"}) == []
    # an import alone is no reach
    importer = "from .planted import recursive, Box\n__all__ = ['opened']\n"
    assert len(unreached_public({"planted": planted, "importer": importer})) == 3


def test_every_public_name_is_reached():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    readers = [path.read_text() for path in READERS]
    assert unreached_public(sources, readers, ALLOWED) == []
