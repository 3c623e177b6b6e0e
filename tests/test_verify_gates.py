"""The verify laws decided from the unit, associativity and the base
weights report what their scans report.

On an associative A every multiplication that Delta absorbs descends
(``_absorbed_descend``), on coordinate and echelon quotients alike, so
``-tensor-nondegenerate`` builds no leg operator on a unital A.
``canonical_maps`` skips the ``*-welldefined`` relation scan of a half
whose Delta-bimodule law the weights decided, and ``_counits_by_weights``
decides ``counits-multiplicative`` with no product in A.  The
base-module laws are read from the bases' own weights: ``_hom_values``
solves no kernel, and ``keeps_actions`` decides the counit and antipode
bimodule laws.  The dual's bimodule identities are decided on the
weights of diagonal operators.  ``check_algebra`` reads non-degeneracy
and idempotency from the unit, associativity and the involution law are
decided on the monomial tables of the structure constants, and ``_galois_diagrams`` decides each
Galois diagram at the unit, with no descent built.  Each gate is shown
declining or failing on a fixture whose entry is pinned as the full
scan names it, and with every gate of ``_GATES`` declined the mutants
of the golden corpus's recorder, and the corpus itself, keep their
reports byte for byte, while each scan that the unit, associativity and
slice-identity gates skip runs in the corpus's replay.
"""

import importlib.util
import json
import os
import sys

import pytest

from qgroupoid import (
    algebra_core,
    balanced_tensor,
    bialgebroid,
    exact_linear,
    integration,
    structure_theory,
)
from qgroupoid.algebra_core import ModuleStructure
from qgroupoid.balanced_tensor import BalancedTensor
from qgroupoid.bialgebroid import _bimodule_by_weights, verify_regular_mha
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.examples import (
    HopfAction,
    build_convolution_algebroid,
    build_function_algebroid,
    build_tensor_algebroid,
    build_two_sided,
    function_algebra_z2,
    pair_groupoid,
    swap_action,
)
from qgroupoid.exact_linear import LinearMap

HERE = os.path.dirname(__file__)


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_record = _load("golden_record", "golden", "record.py")
_REGULAR_1 = ["regular-subspace-" + name for name in ("SB(IB)A", "IBA", "ASC(IC)", "AIC")]


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


def _nondegenerate_legs_spy(monkeypatch):
    """The (flavor, leg, side, u) of each leg operator that
    ``_verify_bialgebroid`` itself asks for, the legs of
    ``-tensor-nondegenerate``; the other laws ask through helpers."""
    built = []
    real = BalancedTensor.leg_op

    def spy(self, *args):
        caller = sys._getframe(1)
        while caller.f_code.co_name == "<listcomp>":
            caller = caller.f_back
        if caller.f_code is bialgebroid._verify_bialgebroid.__code__:
            built.append((self.flavor, *args))
        return real(self, *args)

    monkeypatch.setattr(BalancedTensor, "leg_op", spy)
    return built


def test_the_leg_gate_takes_an_echelon_quotient(monkeypatch):
    # the M2 base has no weights and its quotients are echelon ones, yet A
    # is associative and unital: -tensor-nondegenerate builds none of its
    # 2n leg operators per half, and the report is the one with the gate
    # declined, where both halves build them
    M = golden_record.matrix_tensor_algebroid()
    assert not (M.qb.coordinate or M.qc.coordinate) and bialgebroid._absorbed_descend(M.A)
    built = _nondegenerate_legs_spy(monkeypatch)
    rep = verify_regular_mha(M)
    lines = rep.to_json_lines()
    assert built == [] and rep.ok
    with monkeypatch.context() as declined:
        declined.setattr(bialgebroid, "_absorbed_descend", lambda A: False)
        assert verify_regular_mha(golden_record.matrix_tensor_algebroid()).to_json_lines() == lines
    n = M.A.dim
    assert sorted(built) == sorted((flavor, leg, side, j)
                                   for flavor, side in ((bialgebroid.FLAVOR_QB, "r"),
                                                        (bialgebroid.FLAVOR_QC, "l"))
                                   for leg in (1, 2) for j in range(n))


def test_the_leg_gate_declines_where_a_multiplication_does_not_descend():
    # e_0 e_1 := e_0 on convolution p2: A is not associative, the legs are
    # built, and the first that does not descend is the witness
    M = golden_record.nonassociative_bundle(build_convolution_algebroid)
    assert not bialgebroid._absorbed_descend(M.A)
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


def test_the_hom_value_gate_declines_on_the_m2_base(monkeypatch):
    # neither the M2 base nor its action on A is diagonal: each Hom space
    # is solved, and regular-1 passes
    M = golden_record.matrix_tensor_algebroid()
    for h in bialgebroid._halves(M):
        for e in "st":
            assert h.own(e).weights is None and h.struct(e).weights is None
    solved, real = [], bialgebroid._hom_space
    monkeypatch.setattr(bialgebroid, "_hom_space",
                        lambda h, e: solved.append((h.letter, e)) or real(h, e))
    assert _lines(M, *_REGULAR_1) == [
        json.dumps({"axiom": axiom, "eq": "regular-1", "status": "pass"}, sort_keys=True)
        for axiom in _REGULAR_1]
    assert solved == [("B", "s"), ("B", "t"), ("C", "s"), ("C", "t")]


def test_a_product_mutant_fails_regular_1_on_the_weights():
    # e_(1,1) e_(1,1) := 0 on functions p2: every base element acts on
    # e_(1,1) by 0, so no product of a Hom value with A reaches it; the
    # Hom values are read from the weights
    M = golden_record.product_changed(build_function_algebroid, 0, 0, {})
    assert all(h.struct(e).weights is not None and h.own(e).weights
               for h in bialgebroid._halves(M) for e in "st")
    assert _lines(M, *_REGULAR_1) == [
        json.dumps({"axiom": axiom, "eq": "regular-1", "status": "fail"}, sort_keys=True)
        for axiom in _REGULAR_1]


def _counit_gate(M):
    """Whether ``_counit_checks`` decides both bimodule laws of each half
    from the weights."""
    return [all(balanced_tensor.keeps_actions(h.eps, h.struct(e), h.own(e)) for e in "st")
            for h in bialgebroid._halves(M)]


def _antipode_gate(M):
    return all(balanced_tensor.keeps_actions(M.S, s, t)
               for h in bialgebroid._halves(M) for s, t in bialgebroid._bimodule_acts(h))


@pytest.mark.parametrize("name, axioms", [
    ("mutant-eps_B-unit", ["left-counit-bimodule", "right-counit-bimodule"]),
    ("mutant-S-col1", ["antipode-base-bimodule"]),
])
def test_a_scaled_column_keeps_the_weights_and_the_bimodule_gates_pass(name, axioms):
    # the golden mutants scale one column by 2, which keeps its support:
    # both bimodule gates are taken, and the entries are the golden file's
    kind, col = ("eps_B", golden_record._unit_arrow_index()) if "eps" in name else ("S", 1)
    M = golden_record.mutant_bundle(kind, col)
    assert _counit_gate(M) == [True, True] and _antipode_gate(M)
    with open(os.path.join(HERE, "golden", name + ".jsonl")) as fh:
        golden = [line.rstrip("\n") for line in fh if json.loads(line).get("axiom") in axioms]
    assert _lines(M, *axioms) == golden and len(golden) == len(axioms)


@pytest.mark.parametrize("build, kind, col, add_col, axiom, eq, witness", [
    (build_function_algebroid, "eps_B", 3, 0, "left-counit-bimodule", "left-counit-bimodule",
     {"at": ["eps(s(x)a)", 0, 3], "lhs": [], "rhs": [[0, "1"]]}),
    (build_convolution_algebroid, "eps_C", 2, 3, "right-counit-bimodule", "rt-counit-bimodule",
     {"at": ["eps(as(y))", 0, 2], "lhs": [[0, "1"], [1, "1"]], "rhs": [[0, "1"]]}),
    (build_function_algebroid, "S", 3, 0, "antipode-base-bimodule", "hopf-characterization-1",
     {"at": ["S(xa)", 0, 3], "lhs": [], "rhs": [[0, "1"]]}),
    (build_convolution_algebroid, "S", 0, 1, "antipode-base-bimodule", "hopf-characterization-1",
     {"at": ["S(ax)", 0, 0], "lhs": [[0, "1"], [2, "1"]], "rhs": [[0, "1"]]}),
])
def test_a_bimodule_mutant_fails_the_weight_gate_and_the_scan_names_the_witness(
        build, kind, col, add_col, axiom, eq, witness):
    # a column with the next one added lands off its weight
    M = golden_record.mutant_bundle(kind, col, build, add_col)
    assert all(s.weights is not None for h in bialgebroid._halves(M)
               for s in (h.own("s"), h.own("t"), h.struct("s"), h.struct("t"))
               + tuple(t for pair in bialgebroid._bimodule_acts(h) for t in pair))
    gate = _antipode_gate(M) if kind == "S" else _counit_gate(M)["BC".index(kind[-1])]
    assert not gate
    [line] = _lines(M, axiom)
    assert json.loads(line) == {"axiom": axiom, "eq": eq, "status": "fail", "witness": witness}


class _Unweighted(ModuleStructure):
    weights = None


def _unweighted(struct):
    return _Unweighted(struct.base, struct.total, struct.acts, struct.side)


_OWN_STRUCT = bialgebroid.RegularMHA._own_struct

# Every gate that decides a law without its scan, as (owner, name, a
# stand-in that declines it).  _permutation_hits sends every map to the
# echelon.  Each predicate also declines the gates that read it:
#   - algebra_core._unital: the joint kernels of -tensor-nondegenerate;
#   - algebra_core._monomial_tables: associativity and the involution
#     law of check_algebra, scanned on whole vectors;
#   - _absorbed_descend: the dual's translate operators, the welldefined
#     gate of canonical_maps, and _exact_lifts, _unital_associative and
#     _slice_identity;
#   - _exact_lifts: _coassociativity's per-b comparison and
#     _slice_laws_at_one;
#   - _unital_associative: -tensor-nondegenerate, the generator form of
#     -delta-operator, delta-star-compatibility, both diagram gates of
#     _antipode_checks (the Galois one through _galois_at_unit),
#     _homomorphism_on_generators and _antipode_through_inverse;
#   - _slice_identity: the counit slice laws, (a)/(b) and the product
#     forms;
#   - _bimodule_by_weights: the welldefined gate of canonical_maps, which
#     reads the halves where it held.
# The weighted branches of _hom_values and _intertwines decline on bases
# without weights.
_GATES = [
    (algebra_core, "_unital", lambda algebra: False),
    (algebra_core, "_monomial_tables", lambda algebra: None),
    (exact_linear, "_permutation_hits", lambda f: None),
    (bialgebroid, "_absorbed_descend", lambda A: False),
    (bialgebroid, "_unital_associative", lambda A: False),
    (bialgebroid, "_slice_identity", lambda A: False),
    (bialgebroid, "_exact_lifts", lambda h: False),
    (bialgebroid, "_bimodule_by_weights", lambda h: False),
    (bialgebroid, "_homomorphism_on_generators", lambda h, generators: False),
    (bialgebroid, "_counits_by_weights", lambda M: False),
    (bialgebroid, "_antipode_through_inverse", lambda M, canon, passed: None),
    (bialgebroid.RegularMHA, "_own_struct",
     lambda M, kind, letter: _unweighted(_OWN_STRUCT(M, kind, letter))),
    (balanced_tensor, "keeps_actions", lambda op, src, dst: False),
    (BalancedTensor, "_slice_by_weights", lambda tensor, weights, mapping, leg: None),
    (integration, "_stability_moves",
     lambda left, right: [x.compose(x2) for x2 in right.acts for x in left.acts]),
    (structure_theory, "_identities_on_generators", lambda hat, rho_lambda: False),
    (structure_theory, "ModuleStructure", _Unweighted),  # the dual's operators
]


def _gates_off(monkeypatch):
    """Every gate of ``_GATES`` declined; returns the set of the names of
    the gates asked since, filled as they are asked."""
    asked = set()
    for owner, name, declined in _GATES:
        def stand_in(*args, name=name, declined=declined):
            asked.add(name)
            return declined(*args)

        assert hasattr(owner, name), name
        monkeypatch.setattr(owner, name, stand_in)
    return asked


def _mutants():
    """The bundles of the golden corpus's recorder: its sweep, single-term
    and single-product mutants and both non-associative bundles."""
    return ([M for _, M in golden_record.sweep_bundles()]
            + golden_record.single_term_mutants()
            + [M for _, M in golden_record.single_product_changes()]
            + [golden_record.nonassociative_bundle(build)
               for build in (build_function_algebroid, build_convolution_algebroid)])


def test_the_single_product_mutants_are_monomial_and_mostly_not_associative():
    # so with the gates declined their associativity is scanned, and
    # where the tables find a failing triple the scan names it; only
    # e_i e_i := 0 on functions keeps the law, A being functions on the
    # other points beside a null element
    changes = list(golden_record.single_product_changes())
    assert all(algebra_core._monomial_tables(M.A) is not None for _, M in changes)
    assert [key for key, M in changes if M.A.is_associative()[0]] == [
        ("build_function_algebroid", i, i, None) for i in range(4)]


def test_every_mutant_reports_the_same_with_the_gates_declined(monkeypatch):
    expected = [verify_regular_mha(M).to_json_lines() for M in _mutants()]
    failing = {json.loads(line)["axiom"] for lines in expected for line in lines
               if '"fail"' in line}
    assert {"left-tensor-nondegenerate", "T_rho-welldefined", "counits-multiplicative",
            "left-counit-bimodule", "antipode-base-bimodule", "regular-subspace-IBA",
            "galois-inverse-left", "galois-antipode-right"} <= failing
    # the bundles are built again, so that the algebra laws, decided once
    # per algebra, are decided with the gates declined too
    _gates_off(monkeypatch)
    assert [verify_regular_mha(M).to_json_lines() for M in _mutants()] == expected


_GALOIS = ["galois-%s-%s" % (law, side) for law in ("inverse", "antipode")
           for side in ("left", "right")]


def test_the_galois_gate_decides_passing_and_failing_diagrams(monkeypatch):
    # over the corpus's mutants each Galois diagram passes and fails with
    # the gate deciding it; the entry a gated diagram writes is the next
    # one of its report
    decided, real = [], bialgebroid._galois_at_unit

    def spy(M, rep, descents):
        held = real(M, rep, descents)
        if held:
            decided.append((rep, len(rep.entries)))
        return held

    monkeypatch.setattr(bialgebroid, "_galois_at_unit", spy)
    for M in _mutants():
        verify_regular_mha(M)
    statuses = {(rep.entries[k].axiom, rep.entries[k].status) for rep, k in decided}
    assert statuses == {(axiom, status) for axiom in _GALOIS for status in ("pass", "fail")}


@pytest.mark.parametrize("build", [
    lambda: build_function_algebroid(pair_groupoid([1, 2, 3])),
    lambda: build_convolution_algebroid(pair_groupoid([1, 2, 3])),
    lambda: dict(golden_record._antipode_bundles())["two-sided"],
])
def test_a_gated_bundle_builds_no_galois_descent(monkeypatch, build):
    # the Galois diagrams are decided at the unit: no id (x) S, S (x) id or
    # flip o (S (x) S) is descended, while with the gate declined the eight
    # are, and the report is the same
    M = build()
    descended, real = [], BalancedTensor.descend

    def spy(self, op1, op2, *args, **kwargs):
        if op1 is M.S or op2 is M.S:
            descended.append((op1, op2))
        return real(self, op1, op2, *args, **kwargs)

    monkeypatch.setattr(BalancedTensor, "descend", spy)
    lines = _lines(M, *_GALOIS)
    assert descended == [] and len(lines) == 4 and all('"pass"' in line for line in lines)
    monkeypatch.setattr(bialgebroid, "_galois_at_unit", lambda M, rep, descents: False)
    assert _lines(M, *_GALOIS) == lines and len(descended) == 8


def test_every_golden_case_reports_the_same_with_the_gates_declined(monkeypatch, tmp_path):
    with open(os.path.join(HERE, "golden", "exits.json")) as fh:
        exits = json.load(fh)
    asked = _gates_off(monkeypatch)
    cases = golden_record.cases(str(tmp_path))
    for name in sorted(exits):
        steps = cases[name]()
        with open(os.path.join(HERE, "golden", name + ".jsonl")) as fh:
            assert "".join(text for _, text in steps) == fh.read(), name
        assert [code for code, _ in steps] == exits[name], name
    assert asked == {name for _, name, _ in _GATES}


def _reach_spy(monkeypatch, reached, owner, name, fallbacks):
    """owner.name, adding to ``reached`` each fallback of ``fallbacks``
    (fallback -> callers) whose callers begin the functions a call was
    made from, innermost first, comprehensions skipped."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        names, frame = [], sys._getframe(1)
        while frame is not None and len(names) < 3:
            if not frame.f_code.co_name.startswith("<"):
                names.append(frame.f_code.co_name)
            frame = frame.f_back
        reached.update(fallback for fallback, callers in fallbacks.items()
                       if tuple(names[:len(callers)]) == callers)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_the_golden_replay_reaches_every_scan_an_associativity_gate_skips(
        monkeypatch, tmp_path):
    # with the gates declined, each path that the slice, unit and
    # associativity gates skip runs at least once in the golden replay:
    # the dual's operators by convolution, the product-form and counit
    # slice scans, the relation rows of -delta-operator, the delta-star
    # scan and the joint kernels of -tensor-nondegenerate
    reached = set()
    for owner, name, fallbacks in [
        (structure_theory, "convolution", {"dual operators": ("rho_lambda",)}),
        (bialgebroid._Half, "absorbed",
         {"product forms": ("slice_cases", "first_failure", "convolution"),
          "counit slices": ("slice_cases", "first_failure", "_counit_checks")}),
        (exact_linear.QuotientSpace, "relation_rows",
         {"delta-operator rows": ("_verify_bialgebroid",)}),
        (bialgebroid, "_block_sides", {"delta-star": ("sides", "first_failure", "verify_star")}),
        (bialgebroid, "joint_kernel", {"joint kernels": ("_verify_bialgebroid",)}),
    ]:
        _reach_spy(monkeypatch, reached, owner, name, fallbacks)
    _gates_off(monkeypatch)
    for _, replay in sorted(golden_record.cases(str(tmp_path)).items()):
        replay()
    assert reached == {"dual operators", "product forms", "counit slices",
                       "delta-operator rows", "delta-star", "joint kernels"}


def test_the_counit_solves_state_2n_slice_laws_per_half_on_a_coordinate_quotient(
        monkeypatch, hopf_z2):
    # the tensor and two-sided builds derive their counits from 2n slice
    # laws per half, the M2 tensor algebroid, whose quotients are not
    # coordinate ones, from 2n^2; with the gates declined each half states
    # 2n^2 laws and the full (x, a) module rows, and solves to the same counits
    laws, stacked = [], bialgebroid.stack_equations

    def spy(groups, unknowns):
        groups = [(width, list(equations)) for width, equations in groups]
        laws.append(len(groups[0][1]))
        return stacked(groups, unknowns)

    monkeypatch.setattr(bialgebroid, "stack_equations", spy)
    ident = LinearMap.identity(2)
    pointwise = [FiniteAlgebra.pointwise([k + "1", k + "2"], involution=ident) for k in "uv"]
    right = HopfAction(hopf_z2, function_algebra_z2(),
                       [ident, LinearMap.from_rows([[0, 1], [1, 0]])], side="right")
    c = function_algebra_z2()
    builds = [
        lambda: build_tensor_algebroid(*pointwise, ident, ident),
        lambda: build_two_sided(c, hopf_z2, right.total, swap_action(hopf_z2, c), right,
                                ident, ident),
        golden_record.matrix_tensor_algebroid,
    ]
    for k, build in enumerate(builds):
        laws.clear()
        M = build()
        n = M.A.dim
        assert laws == ([2 * n, 2 * n] if k < 2 else [2 * n * n, 2 * n * n]), M.name
        with monkeypatch.context() as declined:
            _gates_off(declined)
            laws.clear()
            assert bialgebroid.derive_counits(M) == (M.eps_B, M.eps_C), M.name
            assert laws == [2 * n * n, 2 * n * n], M.name


def test_the_weighted_module_laws_give_the_partial_integral_basis_of_the_forced_decline(
        request, monkeypatch):
    # the same basis maps in the same order, with the module laws stated in
    # the full (x, a) form on the bases acting on themselves without
    # weights; on the M2 base the gate declines by itself
    forms, real = [], integration.module_map_laws

    def spy(src, dst):
        if src.weights is None or dst.weights is None:
            forms.append((src, dst))
        return real(src, dst)

    monkeypatch.setattr(integration, "module_map_laws", spy)
    m2 = golden_record.matrix_tensor_algebroid()
    names = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided", "m_conv_mod"]
    for M in [request.getfixturevalue(name) for name in names] + [m2]:
        for side in ("left", "right"):
            forms.clear()
            got = integration._partial_integral_basis(M, side)
            assert bool(forms) == (M is m2), (M.name, side)
            with monkeypatch.context() as declined:
                own = M._own_struct
                declined.setattr(M, "_own_struct",
                                 lambda kind, letter: _unweighted(own(kind, letter)))
                forms.clear()
                assert integration._partial_integral_basis(M, side) == got, (M.name, side)
                assert forms, (M.name, side)
