"""The verify laws decided from the unit and the base weights report what
their scans report.

``_legs_descend_by_weights`` decides ``-tensor-nondegenerate`` with no
leg operator, ``canonical_maps`` skips the ``*-welldefined`` relation
scan of a half whose Delta-bimodule law the weights decided, and
``_counits_by_weights`` decides ``counits-multiplicative`` with no
product in A.  The dual's bimodule identities are decided on the weights
of diagonal operators.  Each gate is shown declining or failing on a
fixture whose entry is pinned as the full scan names it, and with every
gate forced to decline the mutants of the golden corpus's recorder, and
the corpus itself, keep their reports byte for byte.
"""

import importlib.util
import json
import os

import pytest

from qgroupoid import bialgebroid, structure_theory
from qgroupoid.algebra_core import ModuleStructure
from qgroupoid.balanced_tensor import BalancedTensor
from qgroupoid.bialgebroid import _bimodule_by_weights, verify_regular_mha
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
)

HERE = os.path.dirname(__file__)


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_record = _load("golden_record", "golden", "record.py")


def _lines(M, *laws):
    """The report lines of ``verify_regular_mha`` on M for the given axioms."""
    return [line for line in verify_regular_mha(M).to_json_lines()
            if json.loads(line)["axiom"] in laws]


def _leg_ops_spy(monkeypatch):
    built = []
    real = BalancedTensor.leg_op

    def spy(self, *args):
        built.append((self.flavor, args))
        return real(self, *args)

    monkeypatch.setattr(BalancedTensor, "leg_op", spy)
    return built


@pytest.mark.parametrize("build", [build_function_algebroid, build_convolution_algebroid])
def test_a_passing_coordinate_bundle_builds_no_leg_operator_in_verify(monkeypatch, build):
    M = build(pair_groupoid([1, 2, 3]))
    built = _leg_ops_spy(monkeypatch)
    assert verify_regular_mha(M).ok
    assert built == []


def test_the_leg_gate_declines_on_an_echelon_quotient(monkeypatch):
    # the M2 base has no weights: both halves build their 2n leg operators
    M = golden_record.matrix_tensor_algebroid()
    built = _leg_ops_spy(monkeypatch)
    assert not any(bialgebroid._legs_descend_by_weights(h) for h in bialgebroid._halves(M))
    assert verify_regular_mha(M).ok
    assert {flavor for flavor, _ in built} == {bialgebroid.FLAVOR_QB, bialgebroid.FLAVOR_QC}


def test_the_leg_gate_declines_where_a_multiplication_does_not_descend():
    # e_0 e_1 := e_0 on convolution p2: A is not associative, the legs are
    # built, and the first that does not descend is the witness
    M = golden_record.nonassociative_bundle(build_convolution_algebroid)
    assert not any(bialgebroid._legs_descend_by_weights(h) for h in bialgebroid._halves(M))
    text = "%s-multiplication on leg 1 does not descend between flavors '%s' -> '%s'; " \
           "witness relation (0, 1, 0)"
    assert _lines(M, "left-tensor-nondegenerate", "right-tensor-nondegenerate") == [
        json.dumps({"axiom": side + "-tensor-nondegenerate", "eq": side + "-bialgebroid-modules",
                    "status": "fail", "witness": text % (hand, flavor, flavor)}, sort_keys=True)
        for side, hand, flavor in (("left", "r", bialgebroid.FLAVOR_QB),
                                   ("right", "l", bialgebroid.FLAVOR_QC))]


@pytest.mark.parametrize("build, kind, col, add_col, declined, expected", [
    (build_function_algebroid, "delta_B", 0, 1, "B",
     {"T_rho-welldefined": [0, 0, 1]}),
    (build_convolution_algebroid, "delta_C", 1, 2, "C",
     {"lambda_T-welldefined": [0, 1, 1], "rho_T-welldefined": [0, 1, 1]}),
])
def test_the_welldefined_scan_runs_where_delta_breaks_the_weights(
        build, kind, col, add_col, declined, expected):
    # a Delta column with the next one added lands off its weight: that
    # half's bimodule law is not decided on the weights, so its two maps
    # are scanned, and the first surviving relation is the witness
    M = golden_record.mutant_bundle(kind, col, build, add_col)
    assert [h.letter for h in bialgebroid._halves(M) if not _bimodule_by_weights(h)] == [declined]
    lines = [json.loads(line) for line in _lines(M, *(which + "-welldefined"
                                                      for which in M._DOMAINS))]
    assert {e["axiom"]: e["witness"]["relation"] for e in lines if e["status"] == "fail"} \
        == expected


@pytest.mark.parametrize("build, kind, col, add_col, witness", [
    (build_function_algebroid, "eps_B", 0, None,
     {"at": ["eps_B(ab)=eps_B(a eps_B(b))", 0, 0], "lhs": [[0, "2"]], "rhs": [[0, "4"]]}),
    (build_convolution_algebroid, "eps_C", 3, 0,
     {"at": ["eps_C(ab)=eps_C(eps_C(a) b)", 1, 3], "lhs": [[1, "1"]],
      "rhs": [[0, "1"], [1, "1"]]}),
])
def test_a_counit_mutant_fails_the_weight_gate_and_the_scan_names_the_witness(
        build, kind, col, add_col, witness):
    M = golden_record.mutant_bundle(kind, col, build, add_col)
    assert all(h.struct(e, first=False).weights is not None
               for h in bialgebroid._halves(M) for e in "st")
    assert not bialgebroid._counits_by_weights(M)
    [line] = _lines(M, "counits-multiplicative")
    assert json.loads(line) == {"axiom": "counits-multiplicative", "eq": "counits-multiplicative",
                                "status": "fail", "witness": witness}


def test_the_counit_gate_declines_without_weights():
    M = golden_record.matrix_tensor_algebroid()
    assert not bialgebroid._counits_by_weights(M)
    [line] = _lines(M, "counits-multiplicative")
    assert json.loads(line)["status"] == "pass"


class _Unweighted(ModuleStructure):
    weights = None


def _gates_off(monkeypatch):
    """Every gate of this file declined: the leg and counit gates, the
    welldefined gate by no weighted half, and the dual's weights."""
    canonical_maps = bialgebroid.canonical_maps
    monkeypatch.setattr(bialgebroid, "_legs_descend_by_weights", lambda h: False)
    monkeypatch.setattr(bialgebroid, "canonical_maps",
                        lambda M, report=None, weighted=(): canonical_maps(M, report))
    monkeypatch.setattr(bialgebroid, "_counits_by_weights", lambda M: False)
    monkeypatch.setattr(structure_theory, "ModuleStructure", _Unweighted)


def test_every_mutant_reports_the_same_with_the_gates_declined(monkeypatch):
    bundles = ([M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants()
               + [M for _, M in golden_record.single_product_changes()]
               + [golden_record.nonassociative_bundle(build)
                  for build in (build_function_algebroid, build_convolution_algebroid)])
    expected = [verify_regular_mha(M).to_json_lines() for M in bundles]
    failing = {json.loads(line)["axiom"] for lines in expected for line in lines
               if '"fail"' in line}
    assert {"left-tensor-nondegenerate", "T_rho-welldefined",
            "counits-multiplicative"} <= failing
    _gates_off(monkeypatch)
    assert [verify_regular_mha(M).to_json_lines() for M in bundles] == expected


def test_every_golden_case_reports_the_same_with_the_gates_declined(monkeypatch, tmp_path):
    with open(os.path.join(HERE, "golden", "exits.json")) as fh:
        exits = json.load(fh)
    _gates_off(monkeypatch)
    cases = golden_record.cases(str(tmp_path))
    for name in sorted(exits):
        steps = cases[name]()
        with open(os.path.join(HERE, "golden", name + ".jsonl")) as fh:
            assert "".join(text for _, text in steps) == fh.read(), name
        assert [code for code, _ in steps] == exits[name], name
