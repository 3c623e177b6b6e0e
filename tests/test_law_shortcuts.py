"""The multiplier-law shortcuts report what the general paths report.

``_coassociativity`` decides each law from Lambda(b) and P(b) alone when
both tensors are coordinate quotients and A is associative;
``_counit_checks``, ``integration._invariance`` and the product forms of
``structure_theory.convolution`` skip their multiplier scans through the
slice identity when A is associative.  Each is run here as it is and
with A taken for non-associative during the call, which sends it down
its general path, on the fixtures and on the mutants of the golden
corpus; both runs must give the same report.  So are the gates that
decide a law from the unit or the base weights: the antipode diagrams
and ``delta-star-compatibility`` once per multiplied element,
``-tensor-nondegenerate`` with no joint kernel, and ``regular-1`` from
the bases' own weights.  ``canonical_tilde`` is compared with the leg
multiplication descended one basis tensor at a time, applied to Delta.  The bialgebroid suites' module laws and
``-delta-bimodule``, decided from the base weights, and
``-delta-homomorphism``, decided on generators, are compared with their
scans.
"""

import importlib.util
import os
import sys

import pytest

from qgroupoid import bialgebroid, integration, structure_theory
from qgroupoid.algebra_core import ModuleStructure
from qgroupoid.balanced_tensor import NotBalanced
from qgroupoid.bialgebroid import (
    _ONE_SIDED,
    RegularMHA,
    _Half,
    _hom_space,
    _hom_values,
    verify_regular_mha,
    verify_star,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, Rref
from qgroupoid.integration import check_partial_integral


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(os.path.dirname(__file__), *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_record = _load("golden_record", "golden", "record.py")
sparse_descent = _load("sparse_descent", "test_sparse_descent.py")

_FIXTURES = ("m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided",
             "m_h4_crossed", "m_conv_mod")


def _named_bundles(request):
    """The fixtures, functions and convolution of p3, and functions on Z2."""
    p3 = pair_groupoid([1, 2, 3])
    return ([request.getfixturevalue(name) for name in _FIXTURES]
            + [build_function_algebroid(p3), build_convolution_algebroid(p3),
               build_function_algebroid(request.getfixturevalue("z2"))])


def _declined(monkeypatch, module, name, target, attr, value):
    """module.name with the attribute attr of target(first argument) set to
    value during each call: its gate declines."""
    real = getattr(module, name)

    def declined(first, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(target(first, *args), attr, value)
            return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, declined)


def _non_associative(monkeypatch, module, name, algebra_of):
    """module.name with A, read by algebra_of from its first argument,
    taken for non-associative during each call: its gate declines."""
    _declined(monkeypatch, module, name, lambda first, *_: algebra_of(first),
              "is_associative", lambda: (False, None))


# the entries of the two shortcuts
_LAWS = {"delta-coassociative", "right-delta-co-associative", "compatible",
         "left-counit", "right-counit"}


@pytest.mark.parametrize("bundles", ["named", "sweep", "single-term"])
def test_coassociativity_and_counit_shortcuts_report_what_the_scans_do(
        request, monkeypatch, bundles):
    if bundles == "named":
        bundles = _named_bundles(request) + [golden_record.nonassociative_bundle()]
    elif bundles == "sweep":
        bundles = [M for _, M in golden_record.sweep_bundles()]
    else:
        bundles = golden_record.single_term_mutants()
    failing = set()
    for M in bundles:
        rep = verify_regular_mha(M)
        with monkeypatch.context() as declined:
            _non_associative(declined, bialgebroid, "_coassociativity", lambda M: M.A)
            _non_associative(declined, bialgebroid, "_counit_checks", lambda h: h.A)
            assert verify_regular_mha(M).to_json_lines() == rep.to_json_lines(), M.name
        failing |= {e.eq for e in rep.failures()}
    assert _LAWS <= failing  # the general paths are compared on failing laws too


def test_integral_shortcuts_report_what_the_scans_do(request, monkeypatch):
    # every characterization of the standard integrals and of their
    # copies with e_x added to one column (as in the golden corpus), and
    # every convolution operator of the measured fixtures
    cases = []
    for name, kind in (("m_fun", "groupoid-functions"), ("m_conv", "groupoid-convolution")):
        M = request.getfixturevalue(name)
        for integral in standard_integrals(kind, M, groupoid=request.getfixturevalue("p2")):
            f = integral.mapping
            cases.append((M, f, integral.side))
            for a in range(f.cols):
                for x in range(f.rows):
                    cols = [dict(f.col(j)) for j in range(f.cols)]
                    cols[a][x] = cols[a].get(x, 0) + ONE
                    cases.append((M, LinearMap(f.rows, f.cols, cols), integral.side))
    measured = [request.getfixturevalue(name)
                for name in ("x_fun_14", "x_conv_uniform", "x_conv_mod", "x_group", "x_tensor")]

    def reports():
        out = [check_partial_integral(M, f, side).to_json_lines() for M, f, side in cases]
        for X in measured:
            for f in (X.phi, X.psi):
                for kind in ("lambda", "rho"):
                    out.append(structure_theory.convolution(X, f, kind).report.to_json_lines())
        return out

    expected = reports()
    # some perturbed copies fail only at a multiplier, found by the scan
    assert any('["deltab"' in line for lines in expected for line in lines)
    assert any('["deltac"' in line for lines in expected for line in lines)
    with monkeypatch.context() as declined:
        _non_associative(declined, integration, "_invariance", lambda M: M.A)
        _non_associative(declined, structure_theory, "convolution", lambda X: X.M.A)
        assert reports() == expected


def _outcome(call):
    try:
        return call(), None
    except NotBalanced as e:
        return None, (str(e), e.witness)


def _basis_changed():
    """Functions and convolution of p2 moved by the shift change of basis:
    their tensors are echelon quotients."""
    out = []
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2]))
        out.append(sparse_descent._transport(M, sparse_descent._CHANGES["shift"](M.A.dim)))
    return out


def test_canonical_tilde_is_the_descended_operator_on_delta(request, leg_op_by_components):
    # the oracle descends the multiplication by e_u on the canonical map's
    # leg, one basis tensor at a time, and applies it to Delta(d)
    bundles = (_named_bundles(request) + [golden_record.matrix_tensor_algebroid()]
               + _basis_changed()
               + [golden_record.nonassociative_bundle(build)
                  for build in (build_function_algebroid, build_convolution_algebroid)]
               + [M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants())
    raised = 0
    for M in bundles:
        for which, (letter, leg, side) in RegularMHA._TILDES.items():
            q, delta = (M.qb, M.delta_B) if letter == "B" else (M.qc, M.delta_C)
            for u in range(M.A.dim):
                op, error = _outcome(lambda: leg_op_by_components(q, leg, side, {u: ONE}))
                for d in range(M.A.dim):
                    a, b = (u, d) if leg == 1 else (d, u)
                    got = _outcome(lambda: M.canonical_tilde(which, a, b))
                    expected = (None, error) if op is None else (op.apply(delta.col(d)), None)
                    assert got == expected, (M.name, which, a, b)
                    raised += got[1] is not None
    assert raised  # on non-associative convolution some do not descend


def test_descent_into_a_coordinate_target_is_its_projected_image(request, monkeypatch):
    # the columns written straight into a coordinate target's free
    # positions equal the images projected by the target, the path an
    # echelon target takes: flips and flip o (S (x) S) between every pair
    # of flavors, and every leg multiplication of each flavor
    bundles = _named_bundles(request) + [golden_record.nonassociative_bundle(build)
                                        for build in (build_function_algebroid,
                                                      build_convolution_algebroid)]
    message = "{src!r} -> {dst!r}"
    for M in bundles:
        A, tensors = M.A, [M.tensor(flavor) for flavor in RegularMHA._RECIPES]
        legs = [(f(k), None) for f in (A.lmul, A.rmul) for k in range(A.dim)]
        legs += [(None, op) for op, _ in legs]
        calls = [(src, dst, ops, True) for src in tensors for dst in tensors
                 for ops in ((None, None), (M.S, M.S))]
        calls += [(q, q, ops, False) for q in tensors for ops in legs]
        for src, dst, ops, swap in calls:
            direct = _outcome(lambda: src.descend(*ops, message, dst, swap=swap))
            with monkeypatch.context() as echelon:
                echelon.setattr(dst, "coordinate", False)
                assert _outcome(lambda: src.descend(*ops, message, dst, swap=swap)) == direct, \
                    (M.name, src.flavor, dst.flavor)


def _blocks_spy(monkeypatch):
    """The multiplied elements b each ``_coassociativity_blocks`` call scans."""
    scanned = []
    blocks = bialgebroid._coassociativity_blocks

    def spy(M, kind, bs):
        scanned.append(list(bs))
        return blocks(M, kind, bs)

    monkeypatch.setattr(bialgebroid, "_coassociativity_blocks", spy)
    return scanned


def test_a_passing_coordinate_bundle_scans_no_coassociativity_block(monkeypatch):
    scanned = _blocks_spy(monkeypatch)
    M = build_convolution_algebroid(pair_groupoid([1, 2, 3]))
    assert verify_regular_mha(M).ok
    assert scanned == []


def test_the_coordinate_gate_declines_on_echelon_quotients(monkeypatch):
    # the M2 base and the basis-changed bundles are associative but not
    # diagonal, so every b of all four laws is scanned
    scanned = _blocks_spy(monkeypatch)
    for M in [golden_record.matrix_tensor_algebroid(), *_basis_changed()]:
        scanned.clear()
        assert not (M.qb.coordinate or M.qc.coordinate) and M.A.is_associative()[0]
        assert verify_regular_mha(M).ok
        assert scanned == [list(range(M.A.dim))] * 4, M.name


def _gate_bundles(request, kind):
    """The bundles on which a gate is compared with its general path."""
    if kind == "named":
        return (_named_bundles(request)
                + [golden_record.imaginary_term_mutant(),
                   golden_record.matrix_tensor_algebroid(),
                   golden_record.mutant_bundle("S", 4, points=[1, 2, 3]),
                   golden_record.mutant_bundle("delta_B", 0),
                   golden_record.mutant_bundle("delta_C", 1),
                   *(golden_record.nonassociative_bundle(build)
                     for build in (build_function_algebroid, build_convolution_algebroid))])
    if kind == "sweep":
        return [M for _, M in golden_record.sweep_bundles()]
    if kind == "single-term":
        return golden_record.single_term_mutants()
    return [M for _, M in golden_record.single_product_changes()]


def _verified(M):
    """Both suites, read from the module so that a patched verify_star runs."""
    return (bialgebroid.verify_regular_mha(M).to_json_lines()
            + bialgebroid.verify_star(M).to_json_lines())


@pytest.mark.parametrize("kind", ["named", "sweep", "single-term", "single-product"])
def test_unit_and_weight_gates_report_what_the_general_paths_do(request, monkeypatch, kind):
    # each gate forced off during its call: the antipode diagrams with A
    # taken for non-associative, delta-star and tensor-nondegenerate with
    # no unit, regular-1 with the Hom structure's weights None.  The first
    # run has stored check_algebra's report, so the algebra entries do not
    # see the patches
    failing, bimodule_failed = set(), False
    for M in _gate_bundles(request, kind):
        lines = _verified(M)
        with monkeypatch.context() as declined:
            _non_associative(declined, bialgebroid, "_antipode_checks", lambda M: M.A)
            _declined(declined, bialgebroid, "verify_star", lambda M: M.A, "unit", lambda: None)
            _declined(declined, bialgebroid, "_verify_bialgebroid", lambda M, *_: M.A,
                      "unit", lambda: None)
            _declined(declined, bialgebroid, "_hom_values", lambda h, e: h.struct(e),
                      "weights", None)
            assert _verified(M) == lines, M.name
        rep = verify_regular_mha(M)
        failing |= {e.eq for e in rep.failures() + verify_star(M).failures()}
        bimodule_failed |= rep.status_of("antipode-base-bimodule") == "fail"
    # the general paths are compared on failing laws too: on an S that
    # fails antipode-base-bimodule, and where a multiplication does not descend
    if kind == "sweep":
        assert {"dg-antipode", "involution-3"} <= failing and bimodule_failed
    if kind == "single-product":
        assert {"left-bialgebroid-modules", "right-bialgebroid-modules"} <= failing


def _hom_space_echelon(h, e):
    vals = Rref()
    for f in _hom_space(h, e):
        for a in range(h.A.dim):
            vals.add(f.col(a))
    return vals.basis()


def test_weighted_hom_values_span_what_the_hom_space_solve_spans(request):
    bundles = (_named_bundles(request) + [M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants()
               + [M for _, M in golden_record.single_product_changes()]
               + [golden_record.matrix_tensor_algebroid()])
    weighted = set()
    for M in bundles:
        for module, (letter, e) in _ONE_SIDED.items():
            h = _Half(M, letter)
            assert _hom_values(h, e).basis() == _hom_space_echelon(h, e), (M.name, module)
            weighted.add(h.struct(e).weights is not None)
    assert weighted == {True, False}  # the M2 base has no weights


def test_a_passing_convolution_p3_solves_no_hom_space_or_nondegeneracy_kernel(monkeypatch):
    calls = []
    for name in ("_hom_space", "joint_kernel"):
        def spy(*args, real=getattr(bialgebroid, name), name=name):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)
        monkeypatch.setattr(bialgebroid, name, spy)
    M = build_convolution_algebroid(pair_groupoid([1, 2, 3]))
    assert verify_regular_mha(M).ok and verify_star(M).ok
    assert calls == []


def _scanned(monkeypatch):
    """The bialgebroid suites with their weight and generator gates off
    during each call: every module structure's weights None, so the
    Delta-bimodule law and the module laws take their operator scans,
    and the Delta-homomorphism law on generators declined."""
    real = bialgebroid._verify_bialgebroid

    def scanned(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ModuleStructure, "weights", property(lambda self: None))
            patch.setattr(bialgebroid, "_homomorphism_on_generators", lambda h, generators: False)
            return real(*args)

    monkeypatch.setattr(bialgebroid, "_verify_bialgebroid", scanned)


@pytest.mark.parametrize("kind", ["named", "sweep", "single-term", "single-product"])
def test_bialgebroid_weight_and_generator_gates_report_what_the_scans_do(
        request, monkeypatch, kind):
    failing, gate_failed = set(), set()
    for M in _gate_bundles(request, kind):
        rep = verify_regular_mha(M)
        with monkeypatch.context() as off:
            _scanned(off)
            assert verify_regular_mha(M).to_json_lines() == rep.to_json_lines(), M.name
        failing |= {e.eq for e in rep.failures()}
        gate_failed |= {side for side in ("left", "right")
                        if rep.status_of(side + "-delta-homomorphism") == "fail"
                        and rep.status_of(side + "-delta-bimodule") == "pass"}
    assert {side + law for side in ("left", "right")
            for law in ("-delta-homomorphism", "-delta-bimodule")} <= failing
    if kind in ("named", "single-product"):
        assert {"left-bialgebroid-modules", "right-bialgebroid-modules"} <= failing
    if kind == "named":
        # the Delta mutants of the golden corpus: the generator gate is
        # tried, fails, and the scan names the witness
        assert gate_failed == {"left", "right"}
