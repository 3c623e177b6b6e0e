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
