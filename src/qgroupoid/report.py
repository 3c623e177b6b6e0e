"""Verification reports.

Every axiom check appends one entry: the check's name, the registry
label of the law it tests, pass/fail, and on failure a witness (the
offending basis tuple and both evaluated sides, in canonical
coordinates).  Reports serialize to JSON lines so runs are diffable.

The witness of a law of two vectors has one form, {"at", "lhs", "rhs"},
written by ``witness`` alone; ``first_failure`` returns it for the first
(at, lhs, rhs) of a scan whose sides differ.  A scan is a generator of
such cases that keeps its own gate and order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .exact_linear import vec_items

__all__ = ["Entry", "Report", "Rejected", "first_failure", "witness"]

# the one encoder of report lines; witnesses may carry exact scalars and
# label tuples, which it renders with repr
JSON_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def witness(at, lhs, rhs):
    """The witness of a law that fails at ``at``, with both sides."""
    return {"at": at, "lhs": vec_items(lhs), "rhs": vec_items(rhs)}


def first_failure(cases):
    """The ``witness`` of the first (at, lhs, rhs) of cases with lhs != rhs;
    None if all are equal."""
    for at, lhs, rhs in cases:
        if lhs != rhs:
            return witness(at, lhs, rhs)
    return None


@dataclass
class Entry:
    axiom: str
    eq: str
    status: str  # "pass" | "fail"
    witness: object = None

    def to_json(self):
        d = {"axiom": self.axiom, "eq": self.eq, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    entries: list = field(default_factory=list)

    def check(self, ok, axiom, eq, witness=None):
        self.entries.append(
            Entry(axiom, eq, "pass" if ok else "fail", None if ok else witness)
        )
        return ok

    def note(self, axiom, eq, status, witness=None):
        self.entries.append(Entry(axiom, eq, status, witness))

    def merge(self, other, prefix=None):
        for e in other.entries:
            axiom = e.axiom if prefix is None else "%s:%s" % (prefix, e.axiom)
            self.entries.append(Entry(axiom, e.eq, e.status, e.witness))
        return self

    @property
    def ok(self):
        return all(e.status == "pass" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def status_of(self, axiom):
        for e in self.entries:
            if e.axiom == axiom:
                return e.status
        return None

    def to_json_lines(self):
        encode = JSON_ENCODER.encode
        return [encode(e.to_json()) for e in self.entries]


class Rejected(Exception):
    """A mathematically well-posed input fails a required condition."""

    def __init__(self, eq, message, report=None, hint=None):
        self.eq = eq
        self.hint = hint
        self.report = report
        super().__init__("%s [%s]%s" % (message, eq, " -- " + hint if hint else ""))
