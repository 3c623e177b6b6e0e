"""Every field of a dataclass of ``src/qgroupoid`` is read as an attribute,
``x.field``, somewhere in ``src/qgroupoid``, ``tests`` or ``perfbench``: a
field that no code reads is a value its makers compute for nobody.  As in
``test_unused_parameters.py``, the sources are read with the standard
library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(decorator):
    """@dataclass, @dataclass(...) or @dataclasses.dataclass."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def unread_fields(package, readers):
    """The (module, line, "Class.field") of every field of a dataclass in
    ``package`` (module name -> source) whose name no source in ``readers``
    (a list of sources) loads as an attribute.  A field is an annotated
    name in the class body; fields are matched by name alone, whatever
    the object read."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(module, item.lineno, "%s.%s" % (node.name, item.target.id))
            for module, source in sorted(package.items())
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_the_guard_finds_an_unread_field():
    module = ("import dataclasses\nfrom dataclasses import dataclass, field\n\n\n"
              "@dataclass\nclass P:\n    x: int\n    y: int = 0\n\n\n"
              "@dataclass(frozen=True)\nclass Q:\n    z: list = field(default_factory=list)\n\n\n"
              "@dataclasses.dataclass\nclass R:\n    w: str\n\n\n"
              "class Plain:\n    v: int = 1\n\n\n"
              "def make():\n    p = P(1)\n    p.y = 2\n    return p.x\n")
    # a stored attribute is not read; a plain class's annotations are not fields
    assert unread_fields({"module": module}, [module]) == [
        ("module", 8, "P.y"), ("module", 13, "Q.z"), ("module", 18, "R.w")]
    caller = "def use(p, q, r):\n    return p.y, q.z, r.w\n"
    assert unread_fields({"module": module}, [module, caller]) == []


def test_every_dataclass_field_is_read_somewhere():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "qgroupoid").glob("*.py")}
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_fields(package, readers) == []
