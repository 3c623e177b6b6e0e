"""Acceptance criteria.

Each test is one criterion, checked exactly (no tolerances: all scalar
arithmetic is exact) and printing a single pass/fail line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random

import pytest

from qgroupoid.bialgebroid import derive_antipode, verify_regular_mha, verify_star
from qgroupoid.examples import (
    build_crossed_product,
    build_function_algebroid,
    cyclic_group_table,
    disjoint_union,
    function_algebra_z2,
    group_groupoid,
    standard_integrals,
    swap_action,
)
from qgroupoid.exact_linear import ONE, LinearMap, Rref, axpy, inverse, sc
from qgroupoid.integration import (
    BaseWeight,
    assemble_measured,
    check_partial_integral,
    ev,
    solve_partial_integrals,
)
from qgroupoid.modification import (
    crossed_rn_modifier,
    modify,
    twosided_rn_modifier,
)
from qgroupoid.report import Rejected
from qgroupoid.structure_theory import (
    dual_algebra,
    modular_automorphism,
    modular_element,
    uniqueness_check,
)


def outcome(number, label, ok):
    print("criterion %2d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, label)


@pytest.fixture(scope="module")
def x_crossed_mod(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    mu = {0: sc(1), 1: sc(4)}
    mod, coc = crossed_rn_modifier(c, hopf_z2, act, mu)
    m = build_crossed_product(c, hopf_z2, act)
    mt = modify(m, mod)
    phi, psi = standard_integrals("crossed", mt, hopf=hopf_z2)
    w = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    return assemble_measured(mt, w, phi, psi), coc


@pytest.fixture(scope="module")
def x_twosided_mod(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    bundle = twosided_rn_modifier(c, hopf_z2, act, {0: sc(1), 1: sc(4)},
                                  LinearMap.identity(2))
    mt = modify(bundle["M"], bundle["modifier"])
    return assemble_measured(mt, bundle["weight"], bundle["phi_C"], bundle["psi_B"])


def all_assembled(x_fun_14, x_conv_uniform, x_conv_mod, x_tensor, x_group,
                  x_crossed_mod, x_twosided_mod):
    return [
        ("functions-p2-w14", x_fun_14),
        ("convolution-p2-uniform", x_conv_uniform),
        ("convolution-p2-modified-w14", x_conv_mod),
        ("tensor-w14", x_tensor),
        ("group-z2", x_group),
        ("crossed-modified-w14", x_crossed_mod[0]),
        ("twosided-modified-w14", x_twosided_mod),
    ]


def test_criterion_01_axiom_suites(m_fun, m_conv, m_tensor, m_crossed, m_twosided):
    ok = True
    for m in (m_fun, m_conv, m_tensor, m_crossed, m_twosided):
        rep = verify_regular_mha(m)
        ok = ok and rep.ok
        if m.A.involution is not None:
            ok = ok and verify_star(m).ok
    outcome(1, "all five constructions pass every axiom exactly", ok)


def test_criterion_02_partial_integral_equivalence(
    m_fun, m_conv, m_tensor, m_crossed, m_twosided
):
    rng = random.Random(42)
    ok = True
    for m in (m_fun, m_conv, m_tensor, m_crossed, m_twosided):
        for side in ("left", "right"):
            basis, _ = solve_partial_integrals(m, side)
            dim_b = m.C.base.dim if side == "left" else m.B.base.dim
            n = m.A.dim
            candidates = list(basis)
            while len(candidates) < 20:
                if basis and rng.random() < 0.4:
                    combo = LinearMap.combination(
                        dim_b, n, [(sc(rng.randint(-3, 3)), b) for b in basis])
                    if rng.random() < 0.7:  # perturb off the solution space
                        cols = [dict(combo.col(a)) for a in range(n)]
                        cols[rng.randrange(n)][rng.randrange(dim_b)] = sc(
                            rng.randint(1, 5)
                        )
                        combo = LinearMap(dim_b, n, cols)
                    candidates.append(combo)
                else:
                    candidates.append(
                        LinearMap.from_rows(
                            [[rng.randint(-2, 2) for _ in range(n)]
                             for _ in range(dim_b)]
                        )
                    )
            assert len(candidates) >= 20
            for cand in candidates:
                rep = check_partial_integral(m, cand, side)
                verdicts = {rep.status_of("invariance-(%s)" % tag) for tag in "abc"}
                if len(verdicts) != 1:
                    ok = False
    outcome(2, "three invariance characterizations agree on 20+ candidates", ok)


def test_criterion_03_uniqueness(x_fun_14):
    rep = uniqueness_check(x_fun_14)
    basis, _ = solve_partial_integrals(x_fun_14.M, "left")
    outcome(3, "left integrals = M(B).phi on P2 functions, dimension 2",
            rep.ok and len(basis) == 2)


def test_criterion_04_modular_automorphism(
    x_fun_14, x_conv_uniform, x_conv_mod, x_tensor, x_group,
    x_crossed_mod, x_twosided_mod, rn_cocycle, p2
):
    ok = True
    for name, x in all_assembled(x_fun_14, x_conv_uniform, x_conv_mod, x_tensor,
                                 x_group, x_crossed_mod, x_twosided_mod):
        sig = modular_automorphism(x, "left")
        ok = ok and sig.report.ok
        for axiom in ("sigma-restricts-to-S2-on-C", "delta-B-intertwined"):
            ok = ok and sig.report.status_of(axiom) == "pass"
        sig_r = modular_automorphism(x, "right")
        ok = ok and sig_r.report.ok
        ok = ok and sig_r.report.status_of("sigma-restricts-to-Sminus2-on-B") == "pass"
    _, coc = rn_cocycle
    sig = modular_automorphism(x_conv_mod, "left")
    n = x_conv_mod.M.A.dim
    ok = ok and all(sig.mapping.col(k) == {k: coc.values[k]} for k in range(n))
    ok = ok and coc.values[p2.index[(2, 1)]] == sc(4)
    outcome(4, "modular automorphisms exist, intertwine, and equal the derivative", ok)


def test_criterion_05_modular_element(x_fun_14, p2):
    me = modular_element(x_fun_14)
    expected = {p2.index[(1, 1)]: sc(1), p2.index[(1, 2)]: sc(4),
                p2.index[(2, 1)]: sc("1/4"), p2.index[(2, 2)]: sc(1)}
    ok = me.report.ok and me.delta_plus == expected
    for axiom in ("delta-B-grouplike-plus", "S-of-delta-plus",
                  "eps-absorbs-delta-minus", "delta-star"):
        ok = ok and me.report.status_of(axiom) == "pass"
    outcome(5, "modular element (1, 4, 1/4, 1) with all stated relations", ok)


def test_criterion_06_faithfulness(
    x_fun_14, x_conv_uniform, x_conv_mod, x_tensor, x_group,
    x_crossed_mod, x_twosided_mod
):
    from qgroupoid.integration import gram_map
    from qgroupoid.structure_theory import faithfulness_check

    ok = True
    for name, x in all_assembled(x_fun_14, x_conv_uniform, x_conv_mod, x_tensor,
                                 x_group, x_crossed_mod, x_twosided_mod):
        ok = ok and gram_map(x.M.A, x.phi.omega).is_bijective()
        ok = ok and gram_map(x.M.A, x.psi.omega).is_bijective()
    ok = ok and faithfulness_check(x_fun_14).ok
    # a non-full integral escapes the hypotheses and is reported as such
    labels, table = cyclic_group_table(2)
    g2 = disjoint_union(group_groupoid(labels, table), group_groupoid(labels, table))
    m2 = build_function_algebroid(g2)
    phi, psi = standard_integrals("groupoid-functions", m2, groupoid=g2, h={0: ONE})
    w = BaseWeight(mu_B={0: sc(1), 1: sc(1)}, mu_C={0: sc(1), 1: sc(1)})
    try:
        assemble_measured(m2, w, phi, psi)
        escaped = False
    except Rejected as e:
        escaped = e.eq in ("full", "integrals-faithful")
    outcome(6, "Gram matrices invertible; non-full integral escapes", ok and escaped)


def test_criterion_07_dual_algebra(x_group, x_fun_14, m_conv):
    da_group = dual_algebra(x_group)
    e, g = {0: ONE}, {1: ONE}
    hat = da_group.algebra
    pointwise = (
        hat.mul(e, e) == e and hat.mul(g, g) == g
        and hat.mul(e, g) == {} and hat.mul(g, e) == {}
    )
    da_p2 = dual_algebra(x_fun_14)
    matrix_units = da_p2.algebra.table == m_conv.A.table
    ok = (da_group.report.ok and da_p2.report.ok and pointwise and matrix_units
          and da_p2.algebra.dim == x_fun_14.M.A.dim)
    outcome(7, "dual of Z/2 is pointwise functions; dual of P2 functions is M2", ok)


def test_criterion_08_modification(m_conv, m_conv_mod, x_conv_mod, p2, weight_14):
    ok = verify_regular_mha(m_conv_mod).ok and verify_star(m_conv_mod).ok
    k = p2.index[(2, 1)]
    lhs = ev(weight_14.mu_B, m_conv_mod.eps_B.col(k))
    rhs = ev(weight_14.mu_C, m_conv_mod.eps_C.col(k))
    ok = ok and lhs == rhs == sc(2)
    ok = ok and m_conv_mod.eps_B.col(k) == {1: sc("1/2")}
    ok = ok and m_conv_mod.eps_C.col(k) == {0: sc(2)}

    def span(maps):
        rr = Rref()
        for mp in maps:
            v = {}
            for a in range(mp.cols):
                for x, s in mp.col(a).items():
                    v[a * mp.rows + x] = s
            rr.add(v)
        return rr

    for side in ("left", "right"):
        before, _ = solve_partial_integrals(m_conv, side)
        after, _ = solve_partial_integrals(m_conv_mod, side)
        sb, sa = span(before), span(after)
        ok = ok and sb.rank == sa.rank and all(sb.contains(r) for r in sa.basis())
    outcome(8, "derivative modification verifies; counit witness 4*(1/2) = 1*2;"
               " integral spaces unchanged", ok)


def test_criterion_09_crossed_pipeline(x_crossed_mod, hopf_z2):
    x, coc = x_crossed_mod
    d = coc.values
    ok = coc.report.ok
    ok = ok and d.col(1) == {0: sc(4), 1: sc("1/4")}
    ok = ok and x.report.ok
    sig = modular_automorphism(x, "left")
    ok = ok and sig.report.ok
    mt = x.M
    c = mt.C.base
    mh = hopf_z2.dim

    def h_embed(hvec):
        one_c = c.unit()
        out = {}
        for h, s in hvec.items():
            for y, t in one_c.items():
                out[y * mh + h] = s * t
        return out

    def expected_col(k):
        y, h = divmod(k, mh)
        out = {}
        for idx, s in hopf_z2.delta.col(h).items():
            h1, h2 = divmod(idx, mh)
            d_part = {}
            for hh, t in hopf_z2.S.inverse().col(h1).items():
                axpy(d_part, t, d.col(hh))
            term = mt.A.mul(
                mt.C.embed.apply({y: ONE}),
                mt.A.mul(h_embed(hopf_z2.sigma_mod.col(h2)), mt.C.embed.apply(d_part)),
            )
            axpy(out, s, term)
        return out

    expected = LinearMap.from_function(mt.A.dim, mt.A.dim, expected_col)
    ok = ok and sig.mapping == expected
    outcome(9, "crossed pipeline: derivative (4, 1/4), cocycle law, measured,"
               " displayed automorphism", ok)


def test_criterion_10_meta_consistency(m_fun, m_conv, m_tensor, m_crossed,
                                       m_twosided, m_conv_mod):
    ok = True
    for m in (m_fun, m_conv, m_tensor, m_crossed, m_twosided, m_conv_mod):
        derived, err = derive_antipode(m)
        ok = ok and err is None and derived == m.S
        rep = verify_regular_mha(m)
        for e in rep.entries:
            if e.eq == "dg-galois-antipode":
                ok = ok and e.status == "pass"
    outcome(10, "antipodes re-derived; flip intertwining exact on all instances", ok)


def test_scale_three_point_pair_groupoid():
    # not a numbered criterion: the same exact machinery at 9 dimensions
    from qgroupoid.examples import build_function_algebroid, pair_groupoid

    g3 = pair_groupoid([1, 2, 3])
    m = build_function_algebroid(g3)
    assert verify_regular_mha(m).ok
    mu = {0: sc(1), 1: sc(4), 2: sc(9)}
    w = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    phi, psi = standard_integrals("groupoid-functions", m, groupoid=g3)
    x = assemble_measured(m, w, phi, psi)
    me = modular_element(x)
    assert me.report.ok
    uidx = g3.unit_index
    expected = {}
    for k, a in enumerate(g3.arrows):
        val = mu[uidx[(a[1], a[1])]] * inverse(mu[uidx[(a[0], a[0])]])
        if val:
            expected[k] = val
    assert me.delta_plus == expected
