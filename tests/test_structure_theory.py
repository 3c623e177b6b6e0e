"""Modular theory, uniqueness, faithfulness, dual algebra, Haar rescaling."""

import dataclasses
from fractions import Fraction

import pytest

from qgroupoid import integration
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.balanced_tensor import NotBalanced
from qgroupoid.examples import (
    build_function_algebroid,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, Rref, axpy, conj, inverse, kron_vec, sc
from qgroupoid.integration import (
    BaseWeight,
    PartialIntegral,
    assemble_measured,
    ev,
    functional_of_map,
    gram_map,
)
from qgroupoid.report import Rejected
from qgroupoid.structure_theory import (
    convolution,
    convolution_counit_identity,
    dual_algebra,
    faithfulness_check,
    haar_analysis,
    local_projectivity,
    modular_automorphism,
    modular_element,
    uniqueness_check,
)


def test_sigma_identity_on_commutative_instance(x_fun_14):
    sig = modular_automorphism(x_fun_14, "left")
    assert sig.report.ok, str(sig.report)
    assert sig.mapping == LinearMap.identity(4)
    sig_r = modular_automorphism(x_fun_14, "right")
    assert sig_r.report.ok
    assert sig_r.mapping == LinearMap.identity(4)


@pytest.fixture
def x_fun_14_br_off_weight(x_fun_14):
    """x_fun_14 with column (1,1) of phi's factor Br, e_u for the unit u
    that acts on (1,1) by 1, given a term at the other unit as well: Br
    leaves its weight, so phi_B(x a) = (S^2 sigma)(x) phi_B(a) fails."""
    phi = x_fun_14.phi
    br = phi.factor_Br
    assert br.col(0) == {0: ONE}
    moved = LinearMap(br.rows, br.cols, [{0: ONE, 1: ONE}, *br.data[1:]])
    return dataclasses.replace(x_fun_14, phi=dataclasses.replace(phi, factor_Br=moved))


def _factor_twists_by_scan(X, sigma):
    """Oracle of the ``bphi-phib`` statuses: each x's twist solved back
    into B, and the law at every (x, a) compared by base products."""
    M = X.M
    emb, base, s2 = M.B.embed, M.B.base, M.S.compose(M.S)
    statuses = []
    for factor, twist, kind in ((X.phi.factor_Br, s2.compose(sigma), "l"),
                                (X.phi.factor_Bl, sigma.compose(s2).inverse(), "r")):
        acts, ok = M._struct(kind, "B").acts, True
        for x in range(base.dim):
            pre = emb.solve(twist.apply(emb.col(x)))
            ok = ok and pre is not None and all(
                factor.apply(acts[x].col(a))
                == base.mul(*((pre, factor.col(a)) if kind == "l" else (factor.col(a), pre)))
                for a in range(M.A.dim))
        statuses.append("pass" if ok else "fail")
    return statuses


def test_a_factor_off_its_weight_fails_bphi_phib(x_fun_14, x_fun_14_br_off_weight):
    for X, want in ((x_fun_14, ["pass", "pass"]), (x_fun_14_br_off_weight, ["fail", "pass"])):
        sig = modular_automorphism(X, "left")
        entries = [(e.axiom, e.status) for e in sig.report.entries if e.eq == "bphi-phib"]
        assert entries == list(zip(["phi-B-factor-twist", "B-phi-factor-twist"], want))
        assert _factor_twists_by_scan(X, sig.mapping) == want
        assert all(e.status == "pass" for e in sig.report.entries if e.eq != "bphi-phib")


def test_sigma_on_tensor_instance_is_antipode_square_composite(x_tensor):
    # sigma = S^2 (x) S^-2 legwise; S^2 restricted to either base gives the
    # leg maps, and the kron of those two restrictions must equal sigma
    sig = modular_automorphism(x_tensor, "left")
    assert sig.report.ok
    M = x_tensor.M
    n = M.A.dim
    s2 = M.S.compose(M.S)
    s2_on_c = LinearMap.from_function(
        2, 2, lambda y: M.C.embed.solve(s2.apply(M.C.embed.col(y)))
    )
    s2_on_b = LinearMap.from_function(
        2, 2, lambda x: M.B.embed.solve(s2.apply(M.B.embed.col(x)))
    )
    s_minus2_on_b = s2_on_b.inverse()
    expected = LinearMap.from_function(
        n, n, lambda k: kron_vec(s2_on_c.col(k // 2), s_minus2_on_b.col(k % 2), 2)
    )
    assert sig.mapping == expected


def test_modular_element_p2_weights(x_fun_14, p2):
    me = modular_element(x_fun_14)
    assert me.report.ok, str(me.report)
    # delta(i, j) = mu(j) / mu(i) on the arrows
    mu = {1: sc(1), 2: sc(4)}
    expected = {
        k: mu[a[1]] * inverse(mu[a[0]]) for k, a in enumerate(p2.arrows)
    }
    expected = {k: v for k, v in expected.items() if v}
    assert me.delta_plus == expected
    assert [str(expected[k]) for k in range(4)] == ["1", "4", "1/4", "1"]


def test_modular_element_trivial_for_invariant_weight(x_conv_uniform):
    me = modular_element(x_conv_uniform)
    assert me.report.ok
    one = x_conv_uniform.M.A.unit()
    assert me.delta_plus == one
    assert me.delta_minus == one


def test_modular_element_group_case(x_group):
    me = modular_element(x_group)
    assert me.report.ok
    assert me.delta_plus == x_group.M.A.unit()  # delta_H = 1 for Z/2


def test_uniqueness_p2(x_fun_14):
    rep = uniqueness_check(x_fun_14)
    assert rep.ok, rep.to_json_lines()


def test_uniqueness_group(x_group):
    rep = uniqueness_check(x_group)
    assert rep.ok


def test_uniqueness_check_solves_the_basis_without_checking_it(monkeypatch):
    # the partial-integral bases are solved for their span only, so none of
    # their maps is run through the three invariance characterizations
    g = pair_groupoid([1, 2, 3])
    M = build_function_algebroid(g)
    weight = BaseWeight({0: ONE, 1: sc(4), 2: sc(9)}, {0: ONE, 1: sc(4), 2: sc(9)})
    X = assemble_measured(M, weight, *standard_integrals("groupoid-functions", M, groupoid=g))
    calls = []
    checked = integration.check_partial_integral
    monkeypatch.setattr(integration, "check_partial_integral",
                        lambda *args: calls.append(args) or checked(*args))
    assert uniqueness_check(X).ok
    assert calls == []


def test_out_of_family_integral_detected(x_fun_14):
    # the total integral built from a different unit weight is an integral
    # for another base weight, not a member of M(B) . phi
    M = x_fun_14.M
    phi_C = x_fun_14.phi_C.mapping
    other = functional_of_map({0: sc(1), 1: sc(1)}, phi_C)
    from qgroupoid.integration import translate_left

    span = Rref()
    for x in range(2):
        bx = M.B.embed.col(x)
        span.add(translate_left(M.A, bx, x_fun_14.phi.omega))
    assert not span.contains(other)


def test_local_projectivity(m_fun, m_group):
    out, rep = local_projectivity(m_fun)
    assert all(out.values()) and rep.ok
    out, rep = local_projectivity(m_group)
    assert all(out.values())


def test_dual_basis_fails_for_degenerate_action():
    # independent feasibility oracle: a rank-deficient action admits no
    # dual bases because every composite has the same kernel
    algebra = FiniteAlgebra.pointwise(["u", "v"])
    proj = LinearMap.from_rows([[1, 0], [0, 0]])  # not injective on the module
    span = Rref()
    comp = proj.compose(proj)
    v = {}
    for j in range(2):
        for i, s in comp.col(j).items():
            v[j * 2 + i] = s
    span.add(v)
    ident = {0: ONE, 3: ONE}
    assert not span.contains(ident)


def test_faithfulness_on_assembled_instances(x_fun_14, x_conv_uniform, x_tensor):
    for x in (x_fun_14, x_conv_uniform, x_tensor):
        rep = faithfulness_check(x)
        assert rep.ok, rep.to_json_lines()


def test_zero_functional_not_faithful(m_fun):
    g = gram_map(m_fun.A, {})
    assert not g.is_bijective()


def test_non_full_integral_escapes_hypotheses():
    # on a two-component groupoid, a one-component fiber integral is
    # invariant but not full: the assembly gate reports exactly that
    labels, table = cyclic_group_table(2)
    g2 = disjoint_union(group_groupoid(labels, table), group_groupoid(labels, table))
    m = build_function_algebroid(g2)
    from qgroupoid.integration import check_partial_integral

    phi, psi = standard_integrals(
        "groupoid-functions", m, groupoid=g2, h={0: ONE}
    )
    assert check_partial_integral(m, phi, "left").ok
    w = BaseWeight(
        mu_B={0: sc(1), 1: sc(1)}, mu_C={0: sc(1), 1: sc(1)}
    )
    with pytest.raises(Rejected) as exc:
        assemble_measured(m, w, phi, psi)
    assert exc.value.eq in ("full", "integrals-faithful")


def test_dual_algebra_of_group_is_pointwise(x_group):
    da = dual_algebra(x_group)
    assert da.report.ok, str(da.report)
    hat = da.algebra
    assert hat.dim == 2
    e, g = {0: ONE}, {1: ONE}
    assert hat.mul(e, e) == e
    assert hat.mul(g, g) == g
    assert hat.mul(e, g) == {}
    assert hat.mul(g, e) == {}


def test_dual_algebra_of_p2_functions_is_matrix_algebra(x_fun_14, m_conv):
    da = dual_algebra(x_fun_14)
    assert da.report.ok, str(da.report)
    # the dual table coincides with the convolution algebra of the same
    # groupoid under the identity identification of bases
    assert da.algebra.table == m_conv.A.table
    assert da.algebra.dim == x_fun_14.M.A.dim  # dim A^ = dim A always


def test_dual_of_p2_convolution_is_functions_on_the_arrows(x_conv_uniform):
    # the dual product multiplies the other leg by phi_C's value from the
    # right; from the left, the slice does not descend on convolution p2
    da = dual_algebra(x_conv_uniform)
    assert da.report.ok, str(da.report)
    assert [list(row) for row in da.algebra.table] == [
        [{i: ONE} if i == j else {} for j in range(4)] for i in range(4)]
    M = x_conv_uniform.M
    _, dom = M.canonical_map("T_lambda")
    phi_c = x_conv_uniform.phi_C.mapping
    with pytest.raises(NotBalanced):
        dom.slice(M._struct("l", "C"), phi_c, 1)
    dom.slice(M._struct("r", "C"), phi_c, 1)


def test_dual_of_rn_modified_p2_convolution_scales_each_arrow_by_root_delta(
        x_conv_mod, rn_cocycle):
    """On convolution p2 after ``groupoid_rn`` with mu = (1, 4), the dual
    is diagonal: e_g . e_g = c_g e_g with c_g = delta(g)^(1/2), where
    delta(g) = mu(s(g)) / mu(t(g)).

    By hand.  The modifier's derivative is D(g) = mu(t(g)) / mu(s(g)), and
    the modified Delta_B(e_g) = d_g e_g (x) e_g with d_g = D(g)^(1/2).
    phi(e_g) is mu(g) on a unit g and 0 elsewhere, so the translate e_b.phi,
    (e_b.phi)(e_y) = phi(e_y e_b), is mu(s(b)) times the dual basis
    functional at b^-1.  The factor Cl of a functional f solves
    f(e_u e_x) = mu_C(u . Cl(e_x)) over the units u, so Cl(e_x) is
    f(e_x) / mu(t(x)) at the unit t(x).  rho(f) slices Cl on leg 2 of
    Delta_B and multiplies leg 1 from the left:
        rho(f)(e_x) = d_x f(e_x) / mu(t(x)) e_x.
    The dual product is (a.phi)(b.phi) = (a.phi) o rho(b.phi).  At e_x it
    is d_x (e_a.phi)(e_x) (e_b.phi)(e_x) / mu(t(x)).  That is non-zero only
    for a = b = g and x = g^-1, where it is
        d_(g^-1) mu(s(g))^2 / mu(s(g)) = d_(g^-1) (e_g.phi)(e_(g^-1)).
    So c_g = d_(g^-1) = D(g)^(-1/2) = delta(g)^(1/2).  The arrows (1,1),
    (1,2), (2,1), (2,2) have sources 1, 2, 1, 2 and targets 1, 1, 2, 2:
    delta = (1, 4, 1/4, 1) and c = (1, 2, 1/2, 1).
    """
    _, cocycle = rn_cocycle
    quarter = Fraction(1, 4)
    assert cocycle.values == {0: 1, 1: quarter, 2: 4, 3: 1}  # D = 1 / delta
    half = Fraction(1, 2)
    assert list(x_conv_mod.M._db_lift.data) == [{0: 1}, {5: half}, {10: 2}, {15: 1}]
    da = dual_algebra(x_conv_mod)
    assert da.report.ok, str(da.report)
    c = [1, 2, half, 1]
    assert [list(row) for row in da.algebra.table] == [
        [{i: c[i]} if i == j else {} for j in range(4)] for i in range(4)]


def test_dual_checks_report_their_first_failing_pair(x_fun_14):
    # doubling phi_C doubles every product computed through T_lambda, but
    # not the composition of functionals through phi itself
    X = dataclasses.replace(
        x_fun_14, phi_C=PartialIntegral("left", x_fun_14.phi_C.mapping.scale(sc(2))))
    da = dual_algebra(X)
    entries = {e.axiom: e for e in da.report.entries}
    labels = X.M.A.labels
    first = next((i, j) for i in range(4) for j in range(4) if da.algebra.table[i][j])
    at = [labels[first[0]], labels[first[1]]]
    wit = entries["dual-product-matches-composition"].witness
    assert wit["at"] == at
    # witness values are the strings the JSON report carries
    lhs, rhs = dict(wit["lhs"]), dict(wit["rhs"])
    assert all(type(v) is str for v in (*lhs.values(), *rhs.values()))
    assert lhs and {k: sc(v) for k, v in rhs.items()} == {k: sc(v) * 2 for k, v in lhs.items()}
    assert entries["bimodule-identities"].witness == {"at": at, "identity": "rho"}
    assert entries["multiplier-extension-consistent"].status == "pass"
    # a psi with zero Gram pairing has no c with a.phi = c.psi
    X = dataclasses.replace(x_fun_14, psi=dataclasses.replace(x_fun_14.psi, omega={}))
    entries = {e.axiom: e for e in dual_algebra(X).report.entries}
    assert entries["multiplier-extension-consistent"].witness == {"at": labels[0]}


def test_convolution_operators(x_fun_14):
    rep = convolution_counit_identity(x_fun_14)
    assert rep.ok, rep.to_json_lines()
    lam = convolution(x_fun_14, x_fun_14.phi, "lambda")
    rho = convolution(x_fun_14, x_fun_14.psi, "rho")
    assert lam.report.ok and rho.report.ok
    # operators of integrals commute (they live on opposite legs)
    assert lam.operator.compose(rho.operator) == rho.operator.compose(lam.operator)


def _scanned_product_forms(X, ups, kind):
    """Oracle for the product forms of ``convolution``: every (a, b)."""
    M = X.M
    A, n = M.A, M.A.dim
    if kind == "lambda":
        sl_b = M.qb.slice(M._struct("l", "SB"), ups.factor_Bl, 1)
        sl_c = M.qc.slice(M._struct("r", "C"), M.S_C.inverse().compose(ups.factor_Br), 1)

        def absorbed(a, b):
            return M.canonical_tilde("T_rho", a, b), M.canonical_tilde("rho_T", a, b)
    else:
        sl_b = M.qb.slice(M._struct("l", "B"), M.S_B.inverse().compose(ups.factor_Cl), 2)
        sl_c = M.qc.slice(M._struct("r", "SC"), ups.factor_Cr, 2)

        def absorbed(a, b):
            return M.canonical_tilde("T_lambda", b, a), M.canonical_tilde("lambda_T", b, a)
    op = sl_b.compose(M.delta_B)
    return all(
        A.mul(op.col(a), {b: ONE}) == sl_b.apply(on_b)
        and A.mul({b: ONE}, op.col(a)) == sl_c.apply(on_c)
        for a in range(n)
        for b in range(n)
        for on_b, on_c in (absorbed(a, b),)
    )


def test_product_forms_match_a_full_scan(x_fun_14, x_conv_uniform):
    # the integrals and the counit, and each with its C-side factor
    # doubled, so that the two one-sided operators no longer agree
    from qgroupoid.integration import factorize

    outcomes = set()
    for X in (x_fun_14, x_conv_uniform):
        eps_func = functional_of_map(X.weight.mu_B, X.M.eps_B)
        counit, _ = factorize(X.M, X.weight, eps_func)
        for ups in (X.phi, X.psi, counit):
            for kind, factor in (("lambda", "factor_Br"), ("rho", "factor_Cr")):
                doubled = dataclasses.replace(ups, **{factor: getattr(ups, factor).scale(2)})
                for u in (ups, doubled):
                    rep = convolution(X, u, kind).report
                    agree = rep.status_of("two-sided-agreement")
                    forms = rep.status_of("product-forms")
                    assert forms == ("pass" if _scanned_product_forms(X, u, kind) else "fail")
                    assert agree == ("pass" if u is ups else "fail")
                    outcomes.add((agree, forms))
    assert outcomes == {("pass", "pass"), ("fail", "fail")}


def test_convolution_antipode_exchange(x_fun_14):
    # rho(upsilon) o S = S o lambda(upsilon o S)
    M = x_fun_14.M
    from qgroupoid.integration import factorize

    ups = x_fun_14.phi
    ups_s = {a: v for a in range(M.A.dim)
             for v in (ev(ups.omega, M.S.col(a)),) if v}
    fact_s, _ = factorize(M, x_fun_14.weight, ups_s)
    rho_u = convolution(x_fun_14, ups, "rho").operator
    lam_us = convolution(x_fun_14, fact_s, "lambda").operator
    assert rho_u.compose(M.S) == M.S.compose(lam_us)


def test_convolution_star_compatibility(x_fun_14):
    # rho(* o upsilon o *) = * o rho(upsilon) o *
    M = x_fun_14.M
    from qgroupoid.integration import factorize
    from qgroupoid.exact_linear import vec_conj

    ups = x_fun_14.phi
    star_ups = {}
    for a in range(M.A.dim):
        val = conj(ev(ups.omega, M.A.star({a: ONE})))
        if val:
            star_ups[a] = val
    fact, _ = factorize(M, x_fun_14.weight, star_ups)
    rho_star = convolution(x_fun_14, fact, "rho").operator
    rho = convolution(x_fun_14, ups, "rho").operator
    n = M.A.dim
    conj_rho = LinearMap.from_function(
        n, n, lambda j: vec_conj(M.A.star(rho.apply(vec_conj(M.A.star({j: ONE})))))
    )
    assert rho_star == conj_rho


def test_haar_rescaling_p2_uniform(m_fun, p2, weight_uniform):
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    x = assemble_measured(m_fun, weight_uniform, phi, psi)
    h, rep = haar_analysis(x)
    assert rep.ok, rep.to_json_lines()
    hs = {c: v for c in range(4) for v in (ev(h, m_fun.S.col(c)),) if v}
    assert hs == h


def test_haar_group_case(x_group):
    h, rep = haar_analysis(x_group)
    assert rep.ok
    # normalized: h(e) = 1, h(g) = 0
    assert h == {0: ONE}


def test_haar_gate_needs_unit():
    class FakeM:
        A = FiniteAlgebra([[{}]])

    class FakeX:
        M = FakeM()

    with pytest.raises(Rejected):
        haar_analysis(FakeX())


def test_uniqueness_phi_psi_subspace_identity(x_fun_14):
    # (A . Bphi(A)) . psi = (A . Cpsi(A)) . phi as subspaces of the dual
    M = x_fun_14.M
    A, n = M.A, M.A.dim
    from qgroupoid.integration import translate_left

    lhs, rhs = Rref(), Rref()
    for a in range(n):
        for b in range(n):
            u = A.mul({a: ONE}, M.B.embed.apply(x_fun_14.phi.factor_Bl.col(b)))
            lhs.add(translate_left(A, u, x_fun_14.psi.omega))
            v = A.mul({a: ONE}, M.C.embed.apply(x_fun_14.psi.factor_Cl.col(b)))
            rhs.add(translate_left(A, v, x_fun_14.phi.omega))
    assert lhs.rank == rhs.rank
    assert all(lhs.contains(r) for r in rhs.basis())


def test_convolution_base_translation_laws(x_fun_14):
    # translating the functional by base elements moves them into the
    # operator's argument or across it through the anti-isomorphisms
    M = x_fun_14.M
    A, n = M.A, M.A.dim
    from qgroupoid.integration import factorize, translate_left, translate_right

    ups = x_fun_14.phi
    rho_u = convolution(x_fun_14, ups, "rho").operator
    lam_u = convolution(x_fun_14, ups, "lambda").operator

    def op_of(f, kind):
        fact, _ = factorize(M, x_fun_14.weight, f)
        return convolution(x_fun_14, fact, kind).operator

    for k in range(2):
        bx, sbx = M.B.embed.col(k), M.emb_SB().col(k)
        cy, scy = M.C.embed.col(k), M.emb_SC().col(k)
        r1 = op_of(translate_left(A, bx, ups.omega), "rho")
        r2 = op_of(translate_right(A, ups.omega, bx), "rho")
        r3 = op_of(translate_left(A, sbx, ups.omega), "rho")
        r4 = op_of(translate_right(A, ups.omega, cy), "rho")
        for b in range(n):
            assert r1.col(b) == rho_u.apply(A.mul(bx, {b: ONE}))
            assert r2.col(b) == rho_u.apply(A.mul({b: ONE}, bx))
            assert r3.col(b) == A.mul(rho_u.col(b), bx)
            assert r4.col(b) == A.mul(scy, rho_u.col(b))
        l1 = op_of(translate_left(A, cy, ups.omega), "lambda")
        l2 = op_of(translate_right(A, ups.omega, cy), "lambda")
        l3 = op_of(translate_left(A, bx, ups.omega), "lambda")
        l4 = op_of(translate_right(A, ups.omega, scy), "lambda")
        for b in range(n):
            assert l1.col(b) == lam_u.apply(A.mul({b: ONE}, cy))
            assert l2.col(b) == lam_u.apply(A.mul(cy, {b: ONE}))
            assert l3.col(b) == A.mul(lam_u.col(b), sbx)
            assert l4.col(b) == A.mul(cy, lam_u.col(b))


def test_dual_rejects_a_phi_c_whose_slice_does_not_descend(x_fun_14):
    # phi_C with e_1 added at the arrow (1, 1): its value there no longer
    # lies over the arrow's target, so e_a (x) e_b -> e_b C(phi_C(e_a)) is
    # not balanced on T_lambda's domain.  The witness is the first
    # generator, in order, whose image is not zero
    M = x_fun_14.M
    cols = [dict(col) for col in x_fun_14.phi_C.mapping.data]
    cols[0][1] = ONE
    phi_c = LinearMap(len(M.C.base.labels), M.A.dim, cols)
    _, dom = M.canonical_map("T_lambda")

    def image(rel):
        out = {}
        for idx, s in rel.items():
            i, j = divmod(idx, M.A.dim)
            axpy(out, s, M.A.mul({j: ONE}, M.C.embed.apply(phi_c.col(i))))
        return out

    witness = next(gen for gen, rel in zip(dom.generators, dom.relation_vectors())
                   if image(rel))
    assert witness == (0, 0, 2)
    X = dataclasses.replace(x_fun_14, phi_C=PartialIntegral("left", phi_c))
    with pytest.raises(Rejected) as exc:
        dual_algebra(X)
    assert exc.value.eq == "dual-product"
    assert str(exc.value) == (
        "phi_C slice is not balanced: dual product slice is not balanced for flavor %r; "
        "witness relation %s [dual-product]" % (dom.flavor, witness))
