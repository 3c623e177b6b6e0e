"""No code of ``src/qgroupoid`` asks ``is_associative()`` inline for a
shortcut: a gate reads the named predicate of its hypothesis, which
``tests/test_verify_gates.py::_GATES`` can decline.  Only that predicate
and the two laws that report associativity call it.  As in
``test_unread_fields.py``, the sources are read with the standard
library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (function, receiver) of each call allowed: the predicate every
# associativity gate reads, and the laws algebra:associative and
# dual-associative
_ALLOWED = {("_absorbed_descend", "A"), ("_algebra_report", "algebra"), ("dual_algebra", "hat")}


def _asks(node, function=None):
    """(call, innermost enclosing function name or None) of every
    ``.is_associative()`` call under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "is_associative"):
            yield child, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else function
        yield from _asks(child, inner)


def inline_asks(package):
    """The (module, line, function) of every ``x.is_associative()`` call in
    ``package`` (module name -> source) whose innermost enclosing function
    and receiver x, a name, are not a pair of ``_ALLOWED``."""
    return [(module, call.lineno, function)
            for module, source in sorted(package.items())
            for call, function in _asks(ast.parse(source))
            if (function, getattr(call.func.value, "id", None)) not in _ALLOWED]


def test_the_guard_finds_a_planted_inline_ask():
    module = ("def _absorbed_descend(A):\n    return A.is_associative()[0]\n\n\n"
              "def dual_algebra(X):\n    hat = X.hat\n    ok, wit = hat.is_associative()\n"
              "    gated = X.M.A.is_associative()[0]\n    return ok and gated\n\n\n"
              "def law(M):\n    if M.A.unit() is not None and M.A.is_associative()[0]:\n"
              "        return True\n\n\n"
              "def _absorbed_descend_twice(A):\n    def _absorbed_descend(B):\n"
              "        return B.is_associative()\n    return A.is_associative()\n\n\n"
              "ASSOCIATIVE = law.A.is_associative()\n")
    # the predicate and the dual law are allowed; an ask of another
    # receiver inside dual_algebra is not, nor one in any other function,
    # nested or at module level
    assert inline_asks({"module": module}) == [
        ("module", 8, "dual_algebra"), ("module", 13, "law"),
        ("module", 19, "_absorbed_descend"), ("module", 20, "_absorbed_descend_twice"),
        ("module", 23, None)]


def test_no_gate_asks_associativity_inline():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "qgroupoid").glob("*.py")}
    assert inline_asks(package) == []
