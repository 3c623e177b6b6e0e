"""Partial integrals, base weights, factorization, measured assembly."""

import importlib.util
import json
import os
import random

import pytest

from qgroupoid import integration
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.balanced_tensor import NotBalanced
from qgroupoid.bialgebroid import RegularMHA
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, Rref, Scalar, axpy, inverse, sc
from qgroupoid.integration import (
    BaseWeight,
    assemble_measured,
    check_base_weight,
    check_partial_integral,
    ev,
    expectation_identity,
    factorize,
    functional_of_map,
    gram_map,
    orbit_algebra,
    solve_partial_integrals,
)
from qgroupoid.report import Rejected, Report

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


def test_counting_integrals_pass_all_three_conditions(m_fun, p2):
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    for pi, side in ((phi, "left"), (psi, "right")):
        rep = check_partial_integral(m_fun, pi, side)
        assert rep.ok, rep.to_json_lines()


def test_weighted_fiber_integrals(m_fun, p2):
    # each basis weight h on the unit space gives a valid family member
    for u in range(2):
        phi, psi = standard_integrals(
            "groupoid-functions", m_fun, groupoid=p2, h={u: ONE}
        )
        assert check_partial_integral(m_fun, phi, "left").ok
        assert check_partial_integral(m_fun, psi, "right").ok


def test_zero_map_is_flagged_degenerate(m_fun):
    zero = LinearMap.zero(2, 4)
    rep = check_partial_integral(m_fun, zero, "left")
    assert rep.ok
    assert rep.status_of("degenerate") == "pass"


def test_perturbed_integral_fails_all_conditions_identically(m_fun, p2):
    phi, _ = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    cols = [dict(phi.mapping.col(a)) for a in range(4)]
    cols[2] = {k: v * sc(3) for k, v in cols[2].items()}  # one fiber reweighted
    bad = LinearMap(2, 4, cols)
    rep = check_partial_integral(m_fun, bad, "left")
    assert not rep.ok
    verdicts = [rep.status_of("invariance-(%s)" % t) for t in "abc"]
    assert verdicts == ["fail", "fail", "fail"]
    assert rep.status_of("characterizations-agree") == "pass"


def test_codomain_mismatch_is_usage_error(m_fun):
    with pytest.raises(ValueError):
        check_partial_integral(m_fun, LinearMap.zero(3, 4), "left")


def test_solution_space_dimensions(m_fun, m_group):
    basis, rep = solve_partial_integrals(m_fun, "left")
    assert len(basis) == 2 and rep.ok
    basis, rep = solve_partial_integrals(m_group, "left")
    assert len(basis) == 1 and rep.ok


def test_tensor_integral_space_is_dual_of_base(m_tensor):
    basis, rep = solve_partial_integrals(m_tensor, "left")
    assert len(basis) == 2 and rep.ok  # one per functional on the 2-dim base
    # each slice id (x) upsilon lies in the space
    phi, _ = standard_integrals(
        "tensor", m_tensor, base_b_dim=2, upsilon={0: sc(1), 1: sc(7)},
        omega={0: sc(1), 1: sc(1)},
    )
    assert check_partial_integral(m_tensor, phi, "left").ok


def test_orbit_algebra_states(m_fun, m_group):
    orbit, rep = orbit_algebra(m_fun)
    assert len(orbit) == 1 and rep.status_of("ergodic") == "pass"
    orbit, rep = orbit_algebra(m_group)
    assert len(orbit) == 1 and rep.status_of("ergodic") == "pass"
    labels, table = cyclic_group_table(2)
    two_copies = disjoint_union(
        group_groupoid(labels, table), group_groupoid(labels, table)
    )
    m2 = build_function_algebroid(two_copies)
    orbit, rep = orbit_algebra(m2)
    assert len(orbit) == 2
    assert rep.status_of("ergodic") == "fail"
    assert rep.status_of("antipode-trivial-on-orbit") == "pass"


def test_expectation_identity(m_fun, p2, m_group, z2, m_twosided, hopf_z2):
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    assert expectation_identity(m_fun, phi, psi).ok
    phi, psi = standard_integrals("groupoid-convolution", m_group, groupoid=z2)
    assert expectation_identity(m_group, phi, psi).ok
    phi, psi = standard_integrals(
        "two-sided", m_twosided, hopf=hopf_z2, base_b_dim=2,
        upsilon={0: sc(1), 1: sc(1)}, omega={0: sc(1), 1: sc(1)},
    )
    assert expectation_identity(m_twosided, phi, psi).ok


def test_factorize_p2_weights(m_fun, p2, weight_14):
    phi_C, _ = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    phi = functional_of_map(weight_14.mu_C, phi_C.mapping)
    fact, side = factorize(m_fun, weight_14, phi)
    assert fact is not None
    # B-factor formula: (B phi)(f)(u) = sum over s(gamma)=u of
    # f(gamma) mu(t(gamma)) / mu(u)
    mu = {0: sc(1), 1: sc(4)}
    uidx = p2.unit_index
    for k, gamma in enumerate(p2.arrows):
        u = uidx[p2.source[gamma]]
        t = uidx[p2.target[gamma]]
        expected = {u: mu[t] * inverse(mu[u])}
        assert fact.factor_Bl.col(k) == expected


def test_counit_functional_factors(x_fun_14):
    # the factors of the counit functional are the counits decorated by
    # the base anti-isomorphisms
    M = x_fun_14.M
    eps_func = functional_of_map(x_fun_14.weight.mu_B, M.eps_B)
    fact, _ = factorize(M, x_fun_14.weight, eps_func)
    assert fact.factor_Bl == M.eps_B
    assert fact.factor_Br == M.S_C.compose(M.eps_C)
    assert fact.factor_Cl == M.S_B.compose(M.eps_B)
    assert fact.factor_Cr == M.eps_C


def test_factorize_with_singular_weight_returns_side(m_fun):
    degenerate = BaseWeight(mu_B={0: sc(1)}, mu_C={0: sc(1), 1: sc(1)})
    omega = {0: sc(1), 1: sc(1), 2: sc(1), 3: sc(1)}
    fact, side = factorize(m_fun, degenerate, omega)
    assert fact is None and side is not None


def test_base_weight_flags(m_fun, m_conv, weight_14, weight_uniform):
    rep = check_base_weight(m_fun, weight_14)
    assert rep.ok
    for axiom in ("faithful", "antipodal", "modular", "counital", "positive"):
        assert rep.status_of(axiom) == "pass"
    rep = check_base_weight(m_conv, weight_14)
    assert rep.status_of("counital") == "fail"
    rep = check_base_weight(m_conv, weight_uniform)
    assert rep.status_of("counital") == "pass"


def test_imaginary_weight_is_not_positive(m_fun):
    i = Scalar.rational(0, 1)
    w = BaseWeight(mu_B={0: sc(1), 1: i}, mu_C={0: sc(1), 1: i})
    rep = check_base_weight(m_fun, w)
    assert rep.status_of("positive") == "fail"


def test_assemble_accept_and_reject(m_fun, m_conv, p2, weight_14, x_tensor):
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    x = assemble_measured(m_fun, weight_14, phi, psi)
    assert x.report.ok
    phic, psic = standard_integrals("groupoid-convolution", m_conv, groupoid=p2)
    with pytest.raises(Rejected) as exc:
        assemble_measured(m_conv, weight_14, phic, psic)
    assert exc.value.eq == "base-weight-counital"
    assert x_tensor.report.ok  # tensor instance with a modular weight


def test_zero_integral_rejected(m_fun, weight_14, p2):
    _, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    with pytest.raises(Rejected):
        assemble_measured(m_fun, weight_14, LinearMap.zero(2, 4), psi)


def test_translated_functionals_factor_when_weight_modular(x_fun_14):
    # omega translated by base elements stays factorizable with twisted factors
    M, W = x_fun_14.M, x_fun_14.weight
    phi = x_fun_14.phi.omega
    from qgroupoid.integration import translate_left, translate_right

    for x in range(2):
        bx = M.B.embed.col(x)
        for f in (translate_left(M.A, bx, phi), translate_right(M.A, phi, bx)):
            fact, _ = factorize(M, W, f)
            assert fact is not None


def test_antipode_composite_factors(x_fun_14):
    # factors of omega o S are the S-conjugated factors of omega
    M = x_fun_14.M
    phi = x_fun_14.phi
    omega_s = {a: v for a in range(M.A.dim)
               for v in (ev(phi.omega, M.S.col(a)),) if v}
    fact, _ = factorize(M, x_fun_14.weight, omega_s)
    assert fact.factor_Bl == M.S_B.inverse().compose(phi.factor_Cr).compose(M.S)
    assert fact.factor_Cr == M.S_C.inverse().compose(phi.factor_Bl).compose(M.S)


def test_domination_with_modular_automorphism(x_fun_14):
    # any functional is dominated by faithful phi; the two translating
    # elements are related by the modular automorphism
    M = x_fun_14.M
    phi = x_fun_14.phi.omega
    g = gram_map(M.A, phi)
    sigma = g.inverse().compose(g.transpose())
    rng = random.Random(13)
    for _ in range(5):
        upsilon = {a: sc(rng.randint(-3, 3)) for a in range(M.A.dim)}
        upsilon = {a: v for a, v in upsilon.items() if v}
        delta = g.solve(upsilon)  # phi(x delta) = upsilon(x)
        delta_p = g.transpose().solve(upsilon)  # phi(delta' x) = upsilon(x)
        assert delta is not None and delta_p is not None
        assert sigma.apply(delta_p) == delta


# -- laws decided once per comultiplied element --------------------------------


def _scanned_module_witness(M, mapping, side, h):
    """Oracle for ``_module_witness``: every (x, a), with no weight gate
    first."""
    n, target = M.A.dim, integration._target(M, side)
    base = target.base
    for x in range(base.dim):
        ex = target.s.col(x)
        for a in range(n):
            law = base.mul(*h.ordered({x: ONE}, mapping.col(a)))
            if mapping.apply(h.mul(ex, {a: ONE})) != law:
                return x, a
    return None


def _scanned_invariance(M, mapping, side, h, module):
    """Oracle for ``_invariance``: the module law scanned again, whatever
    ``module`` holds, and the slice law at every (d, e).  It hands over no
    slice, so ``_strong_invariance`` asks both again."""
    wit = _scanned_module_witness(M, mapping, side, h)
    if wit is not None:
        return False, ("module", *wit), None
    letter = "a" if h.letter == "B" else "b"
    try:
        sl = integration._integral_slice(
            h, 2 if side == "left" else 1, mapping, "partial-%s slice (%s)" % (side, letter))
    except NotBalanced as e:
        return False, str(e), None
    n, embed = M.A.dim, integration._target(M, side).s
    leg = 1 if side == "left" else 2
    for d in range(n):
        head = embed.apply(mapping.col(d))
        for e in range(n):
            if sl.apply(h.absorbed(leg, d, e)) != h.mul(head, {e: ONE}):
                return False, ("delta" + h.letter.lower(), d, e), None
    return True, None, None


_STRONG_INVARIANCE = integration._strong_invariance


def _scanned_strong_invariance(M, mapping, side, module, slices):
    """Oracle for ``_strong_invariance``: both halves' module laws scanned
    together at every (x, a), whatever ``module`` holds, then the diagram
    on slices asked again, whatever ``slices`` holds."""
    n, target = M.A.dim, integration._target(M, side)
    laws = list(zip(integration._halves(M), ("left-module", "right-module")))
    for x in range(target.base.dim):
        ex = target.s.col(x)
        for a in range(n):
            for h, tag in laws:
                law = target.base.mul(*h.ordered({x: ONE}, mapping.col(a)))
                if mapping.apply(h.mul(ex, {a: ONE})) != law:
                    return False, (tag, x, a)
    return _STRONG_INVARIANCE(M, mapping, side, (None, None), (None, None))


@pytest.mark.parametrize("build", [build_function_algebroid, build_convolution_algebroid],
                         ids=["functions", "convolution"])
@pytest.mark.parametrize("points", [[1, 2], [1, 2, 3]], ids=["p2", "p3"])
def test_perturbed_solutions_report_what_a_full_scan_reports(build, points, monkeypatch):
    # every solution of both sides, with 1 added at each position (x, a)
    M = build(pair_groupoid(points))
    cases = []
    for side in ("left", "right"):
        basis, rep = solve_partial_integrals(M, side)
        assert rep.ok and basis
        for f in basis:
            for a in range(f.cols):
                for x in range(f.rows):
                    cols = [dict(f.col(j)) for j in range(f.cols)]
                    axpy(cols[a], ONE, {x: ONE})
                    cases.append((LinearMap(f.rows, f.cols, cols), side))
    fast = [check_partial_integral(M, f, side).to_json_lines() for f, side in cases]
    monkeypatch.setattr(integration, "_module_witness", _scanned_module_witness)
    monkeypatch.setattr(integration, "_invariance", _scanned_invariance)
    monkeypatch.setattr(integration, "_strong_invariance", _scanned_strong_invariance)
    scanned = [check_partial_integral(M, f, side).to_json_lines() for f, side in cases]
    assert fast == scanned
    # both the module and the slice laws fail somewhere, past a first pair;
    # (c)'s module witness comes from either half, except on a commutative
    # A, where the two halves' laws are one and a tie goes to the B half
    text = "\n".join(line for lines in fast for line in lines)
    kinds = ['"module"', '"deltab"', '"deltac"', '"left-module"']
    if build is build_convolution_algebroid:
        kinds.append('"right-module"')
    for kind in kinds:
        assert kind in text, kind
    assert not all('"module", 0, 0]' in lines[0] for lines in fast)


def test_partial_integral_solve_makes_no_more_products_than_recorded(monkeypatch):
    # FiniteAlgebra.mul, canonical_tilde and check_partial_integral calls of
    # solve_partial_integrals on both sides of a fresh functions-p3 bundle
    # whose canonical maps are already built.  Counted after the slice and
    # module laws were decided per comultiplied element (9,612 and 3,078
    # before), the bimodule stability maps were composed once per base pair
    # (2,160 products before) and each side's basis was checked once per
    # bundle, its antipode images decided by the other side's span (18
    # checks before); a scan over every (d, e) or (x, a) of a passing
    # solution, a product per solution and base pair, or a check per
    # antipode image coming back shows here
    M = build_function_algebroid(pair_groupoid([1, 2, 3]))
    M.canonical()
    muls, tildes, checks = [], [], []
    mul, tilde = FiniteAlgebra.mul, RegularMHA.canonical_tilde
    check = integration.check_partial_integral

    def counted_mul(self, u, v):
        muls.append(None)
        return mul(self, u, v)

    def counted_tilde(self, which, a, b):
        tildes.append(None)
        return tilde(self, which, a, b)

    def counted_check(*args):
        checks.append(None)
        return check(*args)

    monkeypatch.setattr(FiniteAlgebra, "mul", counted_mul)
    monkeypatch.setattr(RegularMHA, "canonical_tilde", counted_tilde)
    monkeypatch.setattr(integration, "check_partial_integral", counted_check)
    for side in ("left", "right"):
        basis, rep = solve_partial_integrals(M, side)
        assert len(basis) == 3 and rep.ok
    monkeypatch.undo()
    assert len(muls) <= 486 and len(tildes) <= 162 and len(checks) <= 6


# -- each partial-integral space checked once per bundle -----------------------


def _solved_in_full(M, side):
    """Oracle for ``solve_partial_integrals``: no memo, and every antipode
    image checked by ``check_partial_integral``."""
    basis = integration._partial_integral_basis(M, side)
    rep = Report()
    for k, mapping in enumerate(basis):
        sub = check_partial_integral(M, mapping, side)
        rep.check(sub.ok, "solution-%d-invariant" % k, "partial-integrals",
                  [e.axiom for e in sub.failures()])
    span = Rref()
    for mapping in basis:
        span.add(mapping.flat())
    other = integration._Half(M, "B" if side == "left" else "C")
    lefts, rights = (M._struct(kind, other.letter).acts for kind in ("l", "r"))
    ok = all(span.contains(mapping.compose(left).compose(right).flat())
             for mapping in basis for left in lefts for right in rights)
    rep.check(ok, "bimodule-stability", "partial-integrals-bimodule-antipode")
    h, other_side = integration._target(M, side), "right" if side == "left" else "left"
    images = [f for m in basis for f in (h.anti.compose(m).compose(M.S.inverse()),
                                         other.anti.inverse().compose(m).compose(M.S))]
    ok = all(check_partial_integral(M, f, other_side).ok for f in images)
    rep.check(ok, "antipode-swaps-sides", "partial-integrals-bimodule-antipode")
    return basis, rep


def _named_integral_bundles():
    bundles = [build(pair_groupoid(points))
               for build in (build_function_algebroid, build_convolution_algebroid)
               for points in ([1, 2], [1, 2, 3])]
    return bundles + [M for _, M in golden_record._antipode_bundles()]


@pytest.mark.parametrize("bundles", ["named", "sweep"])
def test_solved_spaces_report_what_full_checks_report(monkeypatch, bundles):
    # "sweep" holds every single-column mutant of functions and convolution
    # p2, the antipode mutants among them
    named = bundles == "named"
    bundles = (_named_integral_bundles() if named
               else [M for _, M in golden_record.sweep_bundles()])
    check = integration.check_partial_integral
    checks = []
    full_checks = {}  # whether the other side's basis passed -> images checked in full

    def counted_check(*args):
        checks.append(None)
        return check(*args)

    monkeypatch.setattr(integration, "check_partial_integral", counted_check)
    for M in bundles:
        full = {side: _solved_in_full(M, side) for side in ("left", "right")}
        # the first solve also checks both bases, once
        extra = sum(len(basis) for basis, _ in full.values())
        for side, other in (("left", "right"), ("right", "left")):
            del checks[:]
            basis, rep = solve_partial_integrals(M, side)
            assert (basis, rep.to_json_lines()) == (full[side][0], full[side][1].to_json_lines())
            other_basis, other_rep = full[other]
            passed = bool(other_basis) and all(
                other_rep.status_of("solution-%d-invariant" % k) == "pass"
                for k in range(len(other_basis)))
            full_checks[passed] = full_checks.get(passed, 0) + len(checks) - extra
            extra = 0
    if named:
        # on bundles whose spaces pass, no antipode image is checked in full
        assert full_checks == {True: 0}
    else:
        # images outside the other side's span, and where its basis failed
        assert full_checks[True] > 0 and full_checks[False] > 0


# -- a multiplication Delta absorbs that does not descend ----------------------

_NOT_DESCENDING = "multiplication on leg %d does not descend between flavors"


def test_check_partial_integral_reports_a_product_that_does_not_descend():
    # on the non-associative convolution p2, e_0 e_1 := e_0, the zero map
    # passes the module laws, and the slice laws then meet products of
    # Delta that do not descend: each condition fails with the text
    M = golden_record.nonassociative_bundle(build_convolution_algebroid)
    for side in ("left", "right"):
        zero = LinearMap.zero(integration._target(M, side).base.dim, M.A.dim)
        rep = check_partial_integral(M, zero, side)
        witnesses = [e.witness for e in rep.failures()]
        assert [e.axiom for e in rep.failures()] == [
            "invariance-(a)", "invariance-(b)", "invariance-(c)"]
        assert all(isinstance(w, str) and "does not descend" in w for w in witnesses)


def test_integrals_reports_an_unsolvable_space_and_exits_1(monkeypatch, capsys):
    # the same bundle: the system of condition (b) or (a) reads a product
    # that does not descend, and `integrals` fails that entry with its text
    # instead of ending in a traceback
    from qgroupoid import cli

    M = golden_record.nonassociative_bundle(build_convolution_algebroid)
    for side, leg in (("left", 1), ("right", 2)):
        basis, rep = solve_partial_integrals(M, side)
        (entry,) = rep.failures()
        assert basis == [] and entry.axiom == "solution-space"
        assert _NOT_DESCENDING % leg in entry.witness
    monkeypatch.setattr(cli, "_build_instance", lambda example, groupoid: (M, None))
    assert cli.main(["integrals", "--pair-groupoid", "1,2"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(e["axiom"], e["status"]) for e in lines if "axiom" in e] == [
        ("left:solution-space", "fail"), ("right:solution-space", "fail")]
    assert lines[-1]["summary"]["left_space_dim"] == 0


def _doubled(f, a):
    """f with column a doubled: still a module map, since the column keeps
    its base element."""
    cols = [dict(col) for col in f.data]
    cols[a] = {x: 2 * s for x, s in cols[a].items()}
    return LinearMap(f.rows, f.cols, cols)


@pytest.mark.parametrize("which", ["phi_C", "psi_B"])
def test_assemble_measured_rejects_a_map_that_is_not_a_partial_integral(
        m_fun, p2, weight_14, which):
    # functions p2 with the standard phi_C or psi_B doubled on the arrow
    # (1, 2): the module laws hold and every invariance fails, (a) and (b)
    # at their first failing (Delta's argument, multiplier), (c) at its
    # first basis tensor; the other integral's entries all pass
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    if which == "phi_C":
        phi, side, other, (d, e) = _doubled(phi.mapping, 1), "left", "right", (1, 1)
        at, lhs, rhs = ["(1, 2)", "(2, 2)"], [[2, "1"]], [[2, "2"]]
    else:
        psi, side, other, (d, e) = _doubled(psi.mapping, 1), "right", "left", (0, 2)
        at, lhs, rhs = ["(1, 1)", "(1, 2)"], [[2, "2"]], [[2, "1"]]
    with pytest.raises(Rejected) as exc:
        assemble_measured(m_fun, weight_14, phi, psi)
    assert exc.value.eq == "partial-integrals"
    assert str(exc.value) == "%s is not a partial %s integral [partial-integrals]" % (which, side)
    lines = [json.loads(line) for line in exc.value.report.to_json_lines()]
    failed = [(e["axiom"], e["eq"], e["witness"]) for e in lines if e["status"] == "fail"]
    assert failed == [
        (which + ":invariance-(a)", "partial-%s-deltab" % other, ["deltab", d, e]),
        (which + ":invariance-(b)", "partial-%s-deltac" % other, ["deltac", d, e]),
        (which + ":invariance-(c)", "dg-strong-invariance-" + side,
         {"at": at, "lhs": lhs, "rhs": rhs}),
    ]
    assert [e["axiom"] for e in lines if not e["axiom"].startswith(which)] == (
        [] if which == "phi_C" else ["phi_C:invariance-(%s)" % t for t in "abc"]
        + ["phi_C:characterizations-agree"])


# -- the module laws read from the base weights ----------------------------------


def test_the_module_witness_is_the_first_of_a_full_scan(request):
    # every solution of both sides, and each with 1 added at its first
    # position, against the scan of every (x, a), through both halves; the
    # M2 base has no weights, the others do
    names = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided", "m_conv_mod"]
    bundles = [request.getfixturevalue(name) for name in names]
    witnesses = set()
    for M in bundles + [golden_record.matrix_tensor_algebroid()]:
        for side in ("left", "right"):
            for f in integration._partial_integral_basis(M, side):
                cols = [dict(f.col(j)) for j in range(f.cols)]
                axpy(cols[0], ONE, {0: ONE})
                for mapping in (f, LinearMap(f.rows, f.cols, cols)):
                    for h in integration._halves(M):
                        wit = integration._module_witness(M, mapping, side, h)
                        assert wit == _scanned_module_witness(M, mapping, side, h), M.name
                        witnesses.add(wit is None)
    assert witnesses == {True, False}
