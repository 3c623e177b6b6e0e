"""Instance constructors: groupoids, Hopf data, rejection paths, cross-family identities."""

import importlib.util
import os

import pytest

from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.bialgebroid import verify_regular_mha
from qgroupoid.examples import (
    FiniteGroupoid,
    FiniteHopf,
    HopfAction,
    build_crossed_product,
    build_function_algebroid,
    build_group_hopf,
    build_tensor_algebroid,
    build_two_sided,
    cyclic_group_table,
    function_algebra_z2,
    groupoid_from_json,
    groupoid_to_json,
    pair_groupoid,
    standard_integrals,
    swap_action,
)
from qgroupoid.exact_linear import ONE, LinearMap, inverse, kron, kron_vec, sc
from qgroupoid.integration import check_partial_integral
from qgroupoid.report import Rejected

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


def test_groupoid_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        # broken composition: (1,1)(1,1) pointing at the wrong arrow
        FiniteGroupoid(
            arrows=[(1, 1), (1, 2), (2, 1), (2, 2)],
            units=[(1, 1), (2, 2)],
            source={(i, j): (j, j) for i in (1, 2) for j in (1, 2)},
            target={(i, j): (i, i) for i in (1, 2) for j in (1, 2)},
            compose={
                ((i, j), (j, k)): ((2, 2) if (i, j, k) == (1, 1, 1) else (i, k))
                for i in (1, 2)
                for j in (1, 2)
                for k in (1, 2)
            },
            inverse={(i, j): (j, i) for i in (1, 2) for j in (1, 2)},
        )


def test_groupoid_json_round_trip(p2):
    g = groupoid_from_json(groupoid_to_json(p2))
    assert g.arrows == p2.arrows
    assert g.compose == p2.compose
    assert g.inverse == p2.inverse


def test_one_point_groupoid_is_trivial():
    g = pair_groupoid([1])
    m = build_function_algebroid(g)
    assert m.A.dim == 1
    assert verify_regular_mha(m).ok


def test_z2_function_algebroid_is_function_hopf_algebra(z2, hopf_z2_fun):
    m = build_function_algebroid(z2)
    assert m.B.base.dim == 1  # base collapses to scalars
    assert verify_regular_mha(m).ok
    # comultiplications agree with the function Hopf algebra of Z/2
    n = m.A.dim
    for k in range(n):
        assert m.qb.lift(m.delta_B.col(k)) == dict(hopf_z2_fun.delta.col(k))


def test_group_hopf_integral_space(hopf_z2, hopf_z2_fun):
    space = hopf_z2.left_integral_space()
    assert len(space) == 1
    # the stored integral is the canonical basis vector of that space
    (w,) = space
    ratio = None
    for k, v in hopf_z2.phi.items():
        ratio = v * inverse(w[k])
    assert all(w[k] * ratio == v for k, v in hopf_z2.phi.items())
    assert hopf_z2.delta_mod == {0: ONE}
    assert hopf_z2.sigma_mod == LinearMap.identity(2)
    assert len(hopf_z2_fun.left_integral_space()) == 1


def test_sweedler_h4_integrals_pin_the_leg_order(sweedler_h4):
    # worked by hand: (id (x) phi) Delta(gx) = phi(g) gx + phi(gx) 1 and
    # (phi (x) id) Delta(x) = phi(x) 1 + phi(g) x, so the left integral is
    # (gx)* and the right one x*; H4 is not cocommutative, so the two
    # differ and a swap of the legs in the integral laws shows
    h = sweedler_h4
    assert h.verify().ok
    assert h.S.compose(h.S) != LinearMap.identity(4)
    assert [set(w) for w in h.left_integral_space()] == [{3}]
    assert [set(w) for w in h._integral_system("right").kernel_basis()] == [{2}]
    assert h.is_right_integral({2: ONE}) and not h.is_right_integral({3: ONE})


def test_integral_laws_without_a_unit_name_it():
    # the laws multiply Delta(a) by b (x) 1; with no unit there is nothing
    # to stand for it, and no identity leg may stand in
    algebra = FiniteAlgebra([[{}]])
    hopf = FiniteHopf(algebra, LinearMap(1, 1, [{0: ONE}]), LinearMap(1, 1, [{0: ONE}]),
                      LinearMap.identity(1))
    for check in (hopf.left_integral_space, lambda: hopf.is_right_integral({0: ONE})):
        with pytest.raises(ValueError, match="no unit"):
            check()


def test_module_algebra_law_splits_h_by_delta_not_tau_delta(sweedler_h4):
    # H4 acts on M2 = End(V), V the module g -> diag(1, -1), x -> E12, by
    # h . T = rho(h1) T rho(S(h2)).  That is a module algebra for Delta but
    # not for tau Delta, so the law pins the leg order; the adjoint action
    # of H4 on itself satisfies the law under both.
    h = sweedler_h4
    e12 = LinearMap.from_rows([[0, 1], [0, 0]])
    rho = [LinearMap.identity(2), LinearMap.from_rows([[1, 0], [0, -1]]), e12, e12]

    def rep(v):
        return LinearMap.combination(2, 2, ((c, rho[m]) for m, c in v.items()))

    # T -> A T B is kron(A, B^T) on the row-major matrix units E11, E12, E21, E22
    acts = [LinearMap.combination(4, 4, (
                (c, rep({k // 4: ONE}).kron(rep(h.S.col(k % 4)).transpose()))
                for k, c in h.delta.col(b).items()))
            for b in range(4)]
    m2 = FiniteAlgebra.from_mul(
        4, lambda i, j: {2 * (i // 2) + j % 2: ONE} if i % 2 == j // 2 else {},
        labels=["E11", "E12", "E21", "E22"])
    assert HopfAction(h, m2, acts).verify().ok
    cop = FiniteHopf(h.H, LinearMap.flip(4, 4).compose(h.delta), h.eps, h.S)
    assert [e.axiom for e in HopfAction(cop, m2, acts).verify().failures()] == ["module-algebra"]


def test_h4_crossed_product_over_a_point_passes_every_law(m_h4_crossed):
    # the trivial action h . 1 = eps(h) over a one-point base makes C # H4
    # the Hopf algebra H4 as a bundle: the first fixture whose Delta is not
    # cocommutative and whose antipode squares to no identity
    M = m_h4_crossed
    rep = verify_regular_mha(M)
    assert rep.ok, rep.to_json_lines()
    assert len(rep.entries) == 62
    assert M.S.compose(M.S) != LinearMap.identity(M.A.dim)
    assert M._db_lift != LinearMap.flip(4, 4).compose(M._db_lift)


def test_two_sided_h4_over_a_point_takes_its_right_integral_from_psi_h(sweedler_h4):
    # H4 is not unimodular: its left integral phi_H = (gx)* is no right
    # integral, so the right partial integral psi_B = omega (x) psi_H (x) id
    # of the two-sided family must read psi_H = x*, not phi_H
    h = sweedler_h4
    point = FiniteAlgebra.pointwise(["pt"])
    trivial = [LinearMap(1, 1, [h.eps.col(k)]) for k in range(h.dim)]
    ident = LinearMap.identity(1)
    M = build_two_sided(point, h, point, HopfAction(h, point, trivial),
                        HopfAction(h, point, trivial, side="right"), ident, ident)
    assert verify_regular_mha(M).ok

    def psi_b(psi_h):
        hopf = FiniteHopf(h.H, h.delta, h.eps, h.S, phi={3: ONE}, psi=psi_h)
        _, psi = standard_integrals("two-sided", M, hopf=hopf, base_b_dim=1,
                                    upsilon={0: ONE}, omega={0: ONE})
        return check_partial_integral(M, psi, "right")

    assert psi_b({2: ONE}).ok
    failing = {e.eq for e in psi_b({3: ONE}).failures()}
    assert failing == {"partial-left-deltab", "partial-left-deltac", "dg-strong-invariance-right"}


def test_z3_group_hopf_over_plain_field():
    labels, table = cyclic_group_table(3)
    h = build_group_hopf(labels, table, "group")
    assert h.verify().ok
    assert h.phi == {0: ONE}
    assert len(h.left_integral_space()) == 1


def _witness(rep, axiom):
    (entry,) = [e for e in rep.entries if e.axiom == axiom]
    return entry.status, entry.witness


def test_hopf_witness_names_the_side_of_counit_and_antipode_that_fails(hopf_z2):
    """Copies of the Z2 group algebra (e = 0, g = 1, S(g) = g) that fail
    only the second form of a law, worked by hand."""
    # Delta(g) = g (x) g + g (x) e - e (x) e: (eps (x) id) Delta(g) = g + e - e = g,
    # but (id (x) eps) Delta(g) = g + g - e
    delta = LinearMap(4, 2, [{0: ONE}, {3: ONE, 2: ONE, 0: -ONE}])
    rep = FiniteHopf(hopf_z2.H, delta, hopf_z2.eps, hopf_z2.S).verify()
    assert _witness(rep, "counit") == ("fail", {
        "at": ("(id (x) eps) Delta", "g1"), "lhs": [(0, "-1"), (1, "2")], "rhs": [(1, "1")]})
    # S(g) = 2g and Delta(g) = g (x) g - e (x) e - 2 e (x) g + g (x) e:
    # m (S (x) id) Delta(g) = 2e - e - 2g + 2g = e = eps(g) 1,
    # but m (id (x) S) Delta(g) = 2e - e - 4g + g = e - 3g
    delta = LinearMap(4, 2, [{0: ONE}, {3: ONE, 0: -ONE, 1: -2 * ONE, 2: ONE}])
    S = LinearMap.from_rows([[1, 0], [0, 2]])
    rep = FiniteHopf(hopf_z2.H, delta, hopf_z2.eps, S).verify()
    assert _witness(rep, "antipode") == ("fail", {
        "at": ("m (id (x) S) Delta", "g1"), "lhs": [(0, "1"), (1, "-3")], "rhs": [(0, "1")]})


def test_crossed_product_isomorphic_to_pair_convolution(m_crossed, m_conv, p2, hopf_z2):
    # delta_x # g -> indicator of the arrow (x, g^-1 x); an algebra
    # isomorphism matching the coproducts under the identification
    c_points = [1, 2]
    mh = hopf_z2.dim
    group = [0, 1]  # e, g acting by identity / swap

    def act(g, x):
        return x if g == 0 else (3 - x)

    aidx = p2.index
    cols = []
    for y in range(2):
        for h in range(mh):
            x_pt = c_points[y]
            arrow = (x_pt, act(h, x_pt))
            cols.append({aidx[arrow]: ONE})
    t = LinearMap(4, 4, cols)
    assert t.is_bijective()
    a_cr, a_cv = m_crossed.A, m_conv.A
    for i in range(4):
        for j in range(4):
            assert t.apply(a_cr.mul({i: ONE}, {j: ONE})) == a_cv.mul(t.col(i), t.col(j))
    # coproducts match: (T (x) T) Delta_crossed = Delta_conv T
    from qgroupoid.balanced_tensor import descend_componentwise

    tt = descend_componentwise(
        m_crossed.qb, m_conv.qb,
        lambda i, j: kron_vec(t.col(i), t.col(j), 4),
        "T (x) T does not descend {src!r} -> {dst!r}",
    )
    assert tt.compose(m_crossed.delta_B) == m_conv.delta_B.compose(t)


def test_trivial_action_crossed_product_is_tensor_product(hopf_z2):
    c = function_algebra_z2()
    trivial = HopfAction(
        hopf_z2, c, [LinearMap.identity(2), LinearMap.identity(2)]
    )
    m = build_crossed_product(c, hopf_z2, trivial)
    # products are componentwise: exactly the tensor product C (x) H
    a = m.A
    for i in range(4):
        y1, h1 = divmod(i, 2)
        for j in range(4):
            y2, h2 = divmod(j, 2)
            expected = kron_vec(
                c.mul({y1: ONE}, {y2: ONE}), hopf_z2.H.mul({h1: ONE}, {h2: ONE}), 2
            )
            assert a.mul({i: ONE}, {j: ONE}) == expected


def test_nonsymmetric_action_rejected():
    # functions on S3 acting on a two-element algebra graded by a
    # transposition: the grading is not central, so symmetry fails
    elems = ["e", "r", "rr", "t", "tr", "trr"]

    def mul_s3(a, b):
        # permutation composition on {0,1,2}: r = (012), t = (01)
        perms = {
            "e": (0, 1, 2), "r": (1, 2, 0), "rr": (2, 0, 1),
            "t": (1, 0, 2), "tr": (0, 2, 1), "trr": (2, 1, 0),
        }
        pa, pb = perms[a], perms[b]
        comp = tuple(pa[pb[i]] for i in range(3))
        return next(k for k, v in perms.items() if v == comp)

    table = [[elems.index(mul_s3(a, b)) for b in elems] for a in elems]
    h = build_group_hopf(elems, table, "function")
    c = FiniteAlgebra(
        [[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE}]], labels=["1", "x"]
    )  # F[x]/(x^2-1), graded by the transposition t
    tdx = elems.index("t")
    acts = []
    for g in range(6):
        if g == 0:
            acts.append(LinearMap.from_rows([[1, 0], [0, 0]]))
        elif g == tdx:
            acts.append(LinearMap.from_rows([[0, 0], [0, 1]]))
        else:
            acts.append(LinearMap.zero(2, 2))
    action = HopfAction(h, c, acts)
    assert action.verify().ok
    assert not action.is_symmetric()
    with pytest.raises(Rejected) as exc:
        build_crossed_product(c, h, action)
    assert exc.value.eq == "ch-symmetric"


def test_noncommutative_base_rejected(hopf_z2, m_conv):
    with pytest.raises(Rejected):
        build_crossed_product(m_conv.A, hopf_z2, HopfAction(
            hopf_z2, m_conv.A, [LinearMap.identity(4), LinearMap.identity(4)]
        ))


def _tensor_by_hand(base_b, base_c, s_b, s_c):
    """The maps of C (x) B written out: the product y y' (x) x x', the
    embeddings y -> y (x) 1 and x -> 1 (x) x, Delta_B = Delta_C = emb_C (x)
    emb_B, eps_B(y x) = x S_B^-1(y), eps_C(y x) = S_C^-1(x) y and
    S(y x) = S_B(x) (x) S_C(y)."""
    mb, mc = base_b.dim, base_c.dim
    ident_b, ident_c = LinearMap.identity(mb), LinearMap.identity(mc)
    flip = LinearMap.flip(mc, mb)
    emb_b, emb_c = kron(base_c.unit_map(), ident_b), kron(ident_c, base_b.unit_map())
    return {
        "product": kron(base_c.mul_map(), base_b.mul_map()).compose(
            kron(ident_c, LinearMap.flip(mb, mc), ident_b)),
        "emb_B": emb_b,
        "emb_C": emb_c,
        "delta": kron(emb_c, emb_b),
        "eps_B": base_b.mul_map().compose(kron(ident_b, s_b.inverse())).compose(flip),
        "eps_C": base_c.mul_map().compose(kron(s_c.inverse(), ident_c)).compose(flip),
        "S": kron(s_b, s_c).compose(flip),
    }


def test_two_sided_with_trivial_hopf_reduces_to_tensor():
    # build_tensor_algebroid is the two-sided product over the trivial Hopf
    # algebra; each of its maps is the tensor product's own formula, on the
    # functions on Z2 with S_B the identity or the swap and on M2 with both
    # anti-isomorphisms the transpose
    ident, swap = LinearMap.identity(2), LinearMap.from_rows([[0, 1], [1, 0]])
    z2 = function_algebra_z2
    for M in (build_tensor_algebroid(z2(), z2(), ident, ident),
              build_tensor_algebroid(z2(), z2(), swap, ident),
              golden_record.matrix_tensor_algebroid()):
        b, c = M.B.base, M.C.base
        hand = _tensor_by_hand(b, c, M.S_B, M.S_C)
        n = M.A.dim
        assert n == b.dim * c.dim
        assert M.A.mul_map() == hand["product"]
        assert (M.B.embed, M.C.embed) == (hand["emb_B"], hand["emb_C"])
        for delta, q in ((M.delta_B, M.qb), (M.delta_C, M.qc)):
            assert all(delta.col(j) == q.project(hand["delta"].col(j)) for j in range(n))
        assert (M.eps_B, M.eps_C, M.S) == (hand["eps_B"], hand["eps_C"], hand["S"])
        assert M.name == "tensor-algebroid"
        assert M.A.labels == ["%s(x)%s" % (y, x) for y in c.labels for x in b.labels]
        assert verify_regular_mha(M).ok


def test_tensor_of_a_base_without_unit_is_rejected():
    no_unit, z2 = FiniteAlgebra([[{}]]), function_algebra_z2()
    for b, c in ((no_unit, z2), (z2, no_unit)):
        with pytest.raises(Rejected) as exc:
            build_tensor_algebroid(b, c, LinearMap.zero(c.dim, b.dim), LinearMap.zero(b.dim, c.dim))
        assert exc.value.eq == "algebra-local-units"


def test_two_sided_broken_antipode_compatibility_rejected(hopf_z2):
    c = function_algebra_z2()
    b = function_algebra_z2()
    left = swap_action(hopf_z2, c)
    trivial_right = HopfAction(
        hopf_z2, b, [LinearMap.identity(2), LinearMap.identity(2)], side="right"
    )
    with pytest.raises(Rejected) as exc:
        build_two_sided(c, hopf_z2, b, left, trivial_right,
                        LinearMap.identity(2), LinearMap.identity(2))
    assert exc.value.eq == "chb-action-antipode"


def test_standard_integrals_families(m_fun, m_conv, m_tensor, m_crossed, m_twosided,
                                     p2, hopf_z2):
    cases = [
        (m_fun, standard_integrals("groupoid-functions", m_fun, groupoid=p2)),
        (m_conv, standard_integrals("groupoid-convolution", m_conv, groupoid=p2)),
        (m_tensor, standard_integrals(
            "tensor", m_tensor, base_b_dim=2,
            upsilon={0: sc(1), 1: sc(2)}, omega={0: sc(3), 1: sc(1)})),
        (m_crossed, standard_integrals("crossed", m_crossed, hopf=hopf_z2)),
        (m_twosided, standard_integrals(
            "two-sided", m_twosided, hopf=hopf_z2, base_b_dim=2,
            upsilon={0: sc(1), 1: sc(1)}, omega={0: sc(1), 1: sc(2)})),
    ]
    for m, (phi, psi) in cases:
        assert check_partial_integral(m, phi, "left").ok, m.name
        assert check_partial_integral(m, psi, "right").ok, m.name


def test_quasi_invariance_collapse_on_tensor(m_tensor, weight_14):
    # with a faithful weight every slice functional factorizes, matching
    # the preorder characterization which is automatic at finite dimension
    from qgroupoid.integration import factorize, functional_of_map

    for upsilon in ({0: sc(1)}, {1: sc(5)}, {0: sc(2), 1: sc(-1)}):
        phi, _ = standard_integrals(
            "tensor", m_tensor, base_b_dim=2, upsilon=upsilon,
            omega={0: sc(1), 1: sc(1)},
        )
        total = functional_of_map(weight_14.mu_C, phi.mapping)
        fact, _ = factorize(m_tensor, weight_14, total)
        assert fact is not None


def test_groupoid_validation_rejects_a_non_associative_loop():
    # one unit e, and a a = a, b b = b, a b = b a = e: a unit, inverses and
    # the right ends everywhere, but (a a) b = e and a (a b) = a
    arrows = ["e", "a", "b"]
    table = {("a", "a"): "a", ("b", "b"): "b", ("a", "b"): "e", ("b", "a"): "e"}
    compose = {(x, y): table.get((x, y), y if x == "e" else x) for x in arrows for y in arrows}
    with pytest.raises(ValueError, match="composition is not associative"):
        FiniteGroupoid(arrows, ["e"], {x: "e" for x in arrows}, {x: "e" for x in arrows},
                       compose, {"e": "e", "a": "b", "b": "a"})


def _pair_groupoid_parts(points):
    g = pair_groupoid(points)
    return dict(arrows=g.arrows, units=g.units, source=g.source, target=g.target,
                compose=dict(g.compose), inverse=g.inverse)


def test_groupoid_composes_exactly_the_pairs_ending_at_each_source():
    g = pair_groupoid([1, 2, 3])
    ending = {u: [a for a in g.arrows if g.target[a] == u] for u in g.units}
    assert len(g.compose) == sum(len(ending[g.source[a]]) for a in g.arrows) == 27
    assert g._composes_exactly(ending)


@pytest.mark.parametrize("change, message", [
    # a composite of a pair that does not compose
    (lambda c: c.update({((1, 2), (1, 1)): (1, 1)}), "composability of (1, 2), (1, 1) mismatched"),
    # a composable pair without its composite
    (lambda c: c.pop(((2, 1), (1, 3))), "composability of (2, 1), (1, 3) mismatched"),
    # a composite from the wrong source
    (lambda c: c.update({((1, 1), (1, 2)): (1, 1)}), "composite (1, 1) has wrong ends"),
    # a wrong end late in the scan and an extra key early: the extra key is named
    (lambda c: c.update({((3, 3), (3, 1)): (3, 3), ((1, 1), (2, 2)): (1, 2)}),
     "composability of (1, 1), (2, 2) mismatched"),
])
def test_groupoid_validation_names_the_first_failing_pair(change, message):
    parts = _pair_groupoid_parts([1, 2, 3])
    change(parts["compose"])
    with pytest.raises(ValueError) as caught:
        FiniteGroupoid(**parts)
    assert str(caught.value) == message


def test_groupoid_validation_ignores_a_key_that_is_no_pair_of_arrows():
    # the pair-by-pair scan never meets such a key, so it is kept as before
    parts = _pair_groupoid_parts([1, 2])
    parts["compose"][("x", "y")] = (1, 1)
    assert FiniteGroupoid(**parts).compose[("x", "y")] == (1, 1)
