"""Every golden report is reproduced byte for byte, with its exit codes.

The recorded files and their recorder are described in ``record.py``.
"""

import json
import os

import pytest

from record import HERE, cases

with open(os.path.join(HERE, "exits.json")) as fh:
    EXITS = json.load(fh)


@pytest.mark.parametrize("name", sorted(EXITS))
def test_golden_report(name, tmp_path):
    steps = cases(str(tmp_path))[name]()
    with open(os.path.join(HERE, name + ".jsonl")) as fh:
        expected = fh.read()
    assert [code for code, _ in steps] == EXITS[name]
    assert "".join(text for _, text in steps) == expected


def test_every_case_is_recorded(tmp_path):
    assert sorted(cases(str(tmp_path))) == sorted(EXITS)


def test_galois_compatibility_is_the_left_coassociativity_entry():
    # in every verify block of the corpus, prefixed copies included, the
    # galois-compatibility entry has the status and witness of the block's
    # left-coassociativity entry, or of its left-tensor-nondegenerate
    # failure where the left suite ended there.  The sweep records failing
    # entries only, so each galois line is compared with the last of those
    # entries before it in its step, and a failing left-coassociativity
    # line must be followed by one.  A step of one bialgebroid half suite
    # alone reports no galois-compatibility, and is passed over
    compared, failed = 0, set()
    halves = ("verify_left_bialgebroid", "verify_right_bialgebroid")
    for name in sorted(EXITS):
        with open(os.path.join(HERE, name + ".jsonl")) as fh:
            # the text lines of the ``report`` pretty-printer are no entries
            entries = [json.loads(line) for line in fh if line.startswith("{")]
        source, unread, half = {}, set(), False
        for entry in entries + [{}]:
            if "axiom" not in entry:  # a step's head line, or the end of the file
                assert not unread, (name, unread)
                source, half = {}, entry.get("api") in halves
                continue
            if half:
                continue
            prefix, _, law = entry["axiom"].rpartition(":")
            if law in ("left-tensor-nondegenerate", "left-coassociativity"):
                source[prefix] = entry
                if law == "left-coassociativity" and entry["status"] == "fail":
                    unread.add(prefix)
            elif law == "galois-compatibility":
                expected = source.pop(prefix)
                assert ((entry["status"], entry.get("witness"))
                        == (expected["status"], expected.get("witness"))), (name, entry)
                unread.discard(prefix)
                compared += 1
                if entry["status"] == "fail":
                    failed.add(name)
    assert compared == 33
    assert failed == {"mutant-convolution-delta_B-col1", "mutant-convolution-delta_B-term",
                      "mutant-delta_B-col0", "mutant-sweep-p2", "nonassociative-functions-p2"}
