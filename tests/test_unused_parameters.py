"""Every parameter with a default, of a function or method of
``src/qgroupoid``, is passed by some call in ``src/qgroupoid``, ``tests``
or ``perfbench``, by keyword or by position: a default that no caller
overrides is a knob nobody turns.  As in ``test_dead_private_code.py``,
the sources are read with the standard library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defaulted(tree):
    """(line, call name, name, position) of every parameter with a default
    of the functions in tree.  A method's position leaves out self or cls,
    a keyword-only parameter has position None, and ``__init__`` is called
    by its class's name."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                called = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                out.extend((node.lineno, called, a.arg, k - skip)
                           for k, a in enumerate(positional) if k >= first)
                out.extend((node.lineno, called, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return out


def unpassed_defaults(package, callers):
    """The (module, line, parameter) of every parameter with a default in
    ``package`` (module name -> source) that no call in ``callers`` (a list
    of sources) passes.  Calls are matched by name, f(...) or x.f(...); a
    call passes a parameter by keyword, or by position when it has more
    positional arguments than the parameters before it, and one with
    *args or **kwargs passes every parameter."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, param, position):
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        return position is not None and len(call.args) > position

    return [(module, line, param)
            for module, source in sorted(package.items())
            for line, called, param, position in _defaulted(ast.parse(source))
            if not any(passes(c, param, position) for c in calls.get(called, ()))]


def test_the_guard_finds_an_unpassed_default():
    module = ("def f(a, b=1, *, c=2):\n    return a + b + c\n\n\n"
              "class K:\n"
              "    def __init__(self, x, y=0):\n        self.x = x + y\n\n"
              "    def m(self, z=None):\n        return z\n\n"
              "    @staticmethod\n"
              "    def s(w=3):\n        return w\n")
    assert unpassed_defaults({"module": module}, [module]) == [
        ("module", 1, "b"), ("module", 1, "c"), ("module", 6, "y"),
        ("module", 9, "z"), ("module", 13, "w")]
    # a keyword, a position past self, the class name and *args all pass
    caller = "f(0, c=1)\nf(0, 5)\nK(1, 2).m(None)\nK.s(*[4])\n"
    assert unpassed_defaults({"module": module}, [module, caller]) == []


def test_every_default_is_passed_somewhere():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "qgroupoid").glob("*.py")}
    callers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unpassed_defaults(package, callers) == []
