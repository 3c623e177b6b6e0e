"""The {"at", "lhs", "rhs"} witness of a law of two vectors is written by
``report.witness`` alone: no other module of ``src/qgroupoid`` builds a
dict display with an "lhs" or "rhs" key, so every such witness has one
form and every scan reports through ``report.first_failure``.  As in
``test_inline_gates.py``, the sources are read with the standard
library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the one module that writes the form
_ALLOWED = {"report"}


def hand_built(package):
    """The (module, line) of every dict display with a constant "lhs" or
    "rhs" key in ``package`` (module name -> source), outside
    ``_ALLOWED``."""
    return sorted((module, node.lineno)
                  for module, source in package.items() if module not in _ALLOWED
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Dict)
                  and any(isinstance(key, ast.Constant) and key.value in ("lhs", "rhs")
                          for key in node.keys))


def test_the_guard_finds_a_planted_witness():
    module = ("def law(at, u, v):\n"
              "    return {'at': at, 'lhs': u, 'rhs': v}\n\n\n"
              "def half(at, u):\n"
              "    if u:\n"
              "        return [{'at': at, 'rhs': u}]\n"
              "    return {'at': at, 'outside-orbit': u, **{}}\n\n\n"
              "LHS = {'lhs': None}\n")
    report = "def witness(at, lhs, rhs):\n    return {'at': at, 'lhs': lhs, 'rhs': rhs}\n"
    # each dict with either key is found, nested or at module level, and
    # the same dict in report is allowed; other keys are not the form
    assert hand_built({"module": module, "report": report}) == [
        ("module", 2), ("module", 7), ("module", 11)]


def test_every_witness_of_two_sides_is_written_by_report():
    package = {p.stem: p.read_text() for p in (ROOT / "src" / "qgroupoid").glob("*.py")}
    assert hand_built(package) == []
