"""Modifiers, the modified structures, and the derivative recipes."""

import json
import re

import pytest

from qgroupoid import balanced_tensor, exact_linear, modification
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.bialgebroid import (
    FLAVOR_LT,
    FLAVOR_QB,
    FLAVOR_QC,
    FLAVOR_RT,
    FLAVOR_TL,
    FLAVOR_TR,
    RegularMHA,
    verify_regular_mha,
    verify_star,
)
from qgroupoid.cli import main
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    build_tensor_algebroid,
    function_algebra_z2,
    groupoid_to_json,
    pair_groupoid,
    standard_integrals,
    swap_action,
)
from qgroupoid.exact_linear import (
    ONE,
    FieldExtensionNeeded,
    LinearMap,
    QuotientSpace,
    Rref,
    Scalar,
    ScalarField,
    apply_legs,
    axpy,
    kron,
    kron_vec,
    sc,
    vscale,
)
from qgroupoid.integration import (
    BaseWeight,
    assemble_measured,
    check_base_weight,
    ev,
    solve_partial_integrals,
)
from qgroupoid.modification import (
    Modifier,
    check_modifier,
    compose_modifiers,
    crossed_rn_modifier,
    groupoid_rn_modifier,
    identity_modifier,
    inner_modifier,
    modify,
    twosided_rn_modifier,
)
from qgroupoid.report import Rejected
from qgroupoid.structure_theory import modular_automorphism, modular_element


def test_identity_modifier_round_trip(m_conv):
    mod = identity_modifier(m_conv)
    assert check_modifier(m_conv, mod).ok
    out = modify(m_conv, mod)
    assert out.delta_B == m_conv.delta_B
    assert out.delta_C == m_conv.delta_C
    assert out.S == m_conv.S
    assert out.eps_B == m_conv.eps_B


def test_inner_modifier_on_crossed_product(m_crossed):
    u = {0: sc(1), 1: sc(2)}
    v = {0: sc(1), 1: sc(3)}
    mod = inner_modifier(m_crossed, u, v)
    rep = check_modifier(m_crossed, mod)
    assert rep.ok, rep.to_json_lines()
    out = modify(m_crossed, mod)
    assert verify_regular_mha(out).ok


def test_base_violating_map_rejected(m_conv):
    # conjugation by a matrix that does not normalize the diagonal base
    from qgroupoid.structure_theory import _algebra_inverse

    u = {0: ONE, 1: ONE, 2: ONE}  # 1 + e12 + e21 in the matrix picture
    ui = _algebra_inverse(m_conv.A, u)
    assert ui is not None
    conj = LinearMap.from_function(
        4, 4, lambda j: m_conv.A.mul(m_conv.A.mul(u, {j: ONE}), ui)
    )
    ident = LinearMap.identity(4)
    mod = Modifier(conj, conj, ident, ident)
    rep = check_modifier(m_conv, mod)
    assert rep.status_of("theta_l-preserves-B") == "fail"
    with pytest.raises(Rejected):
        modify(m_conv, mod)


def test_rn_cocycle_values(p2, rn_cocycle):
    _, coc = rn_cocycle
    values = {p2.arrows[k]: v for k, v in coc.values.items()}
    assert values[(2, 1)] == sc(4)
    assert values[(1, 2)] == sc("1/4")
    assert values[(1, 1)] == ONE and values[(2, 2)] == ONE
    assert coc.report.ok


def test_rn_modifier_flags_and_verification(m_conv, rn_cocycle, m_conv_mod):
    mod, _ = rn_cocycle
    rep = check_modifier(m_conv, mod)
    assert rep.ok, rep.to_json_lines()
    assert rep.status_of("trivial-on-base") == "pass"
    assert rep.status_of("self-adjoint") == "pass"
    assert verify_regular_mha(m_conv_mod).ok
    assert verify_star(m_conv_mod).ok


def test_modified_coproduct_matches_displayed_formula(m_conv, m_conv_mod, rn_cocycle, p2):
    # the square-root twist multiplies the diagonal coproduct by D^(1/2)
    _, coc = rn_cocycle
    field = ScalarField()
    n = m_conv.A.dim
    for k in range(n):
        root = field.sqrt(coc.values[k])
        expected = vscale(root, m_conv.delta_B.col(k))
        assert m_conv_mod.delta_B.col(k) == {
            q: v for q, v in expected.items()
        }


def test_counitality_witness_on_arrow_21(m_conv_mod, p2, weight_14):
    # mu(eps_B(f)) = 4 * (1/2) = 2 = 1 * 2 = mu(eps_C(f)) for the
    # indicator of the arrow (2, 1)
    k = p2.index[(2, 1)]
    lhs = ev(weight_14.mu_B, m_conv_mod.eps_B.col(k))
    rhs = ev(weight_14.mu_C, m_conv_mod.eps_C.col(k))
    assert lhs == rhs == sc(2)
    assert m_conv_mod.eps_B.col(k) == {p2.unit_index[(2, 2)]: sc("1/2")}
    assert m_conv_mod.eps_C.col(k) == {p2.unit_index[(1, 1)]: sc(2)}
    rep = check_base_weight(m_conv_mod, weight_14)
    assert rep.status_of("counital") == "pass"


def test_uniform_weight_gives_identity_modifier(m_conv, p2):
    mod, coc = groupoid_rn_modifier(p2, {0: sc(1), 1: sc(1)})
    ident = LinearMap.identity(4)
    assert mod.maps() == (ident, ident, ident, ident)
    assert all(v == ONE for v in coc.values.values())


def test_field_extension_gate(m_conv, p2):
    with pytest.raises(FieldExtensionNeeded) as exc:
        groupoid_rn_modifier(p2, {0: sc(1), 1: sc(2)})
    assert exc.value.missing == [2]
    mod, _ = groupoid_rn_modifier(p2, {0: sc(1), 1: sc(2)}, ScalarField([2]))
    out = modify(m_conv, mod)
    assert verify_regular_mha(out).ok


def test_nonpositive_weight_rejected(p2):
    with pytest.raises(Rejected):
        groupoid_rn_modifier(p2, {0: sc(1), 1: sc(-4)})


def test_modifier_group_law(m_conv, p2, rn_cocycle, m_conv_mod):
    half, _ = rn_cocycle
    once = compose_modifiers(half, half)
    # sigma_(1/2) twice is sigma_1, the derivative multiplier itself
    double = modify(m_conv, once)
    stepwise = modify(m_conv_mod, half)
    assert double.delta_B == stepwise.delta_B
    assert double.delta_C == stepwise.delta_C
    assert double.S == stepwise.S
    assert double.eps_B == stepwise.eps_B
    assert double.eps_C == stepwise.eps_C


def test_integral_spaces_unchanged_by_base_trivial_modifier(m_conv, m_conv_mod):
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
        assert sb.rank == sa.rank
        assert all(sb.contains(r) for r in sa.basis())


def test_modified_convolution_modular_identity(x_conv_mod, rn_cocycle):
    # phi(f * g) = phi(g * sigma_1(f)) where sigma_1 multiplies by the
    # derivative -- the modular automorphism is exactly that multiplier
    _, coc = rn_cocycle
    sig = modular_automorphism(x_conv_mod, "left")
    assert sig.report.ok
    n = x_conv_mod.M.A.dim
    assert all(sig.mapping.col(k) == {k: coc.values[k]} for k in range(n))
    me = modular_element(x_conv_mod)
    assert me.report.ok
    assert me.delta_plus == x_conv_mod.M.A.unit()


def test_full_case_isomorphism(m_conv, m_conv_mod, rn_cocycle):
    # theta_l is an algebra automorphism intertwining the coproducts
    from qgroupoid.balanced_tensor import descend_componentwise
    from qgroupoid.exact_linear import kron_vec

    mod, _ = rn_cocycle
    n = m_conv.A.dim
    tw = descend_componentwise(
        m_conv.qb, m_conv_mod.qb,
        lambda i, j: kron_vec(mod.theta_l.col(i), mod.theta_l.col(j), n),
        "theta_l (x) theta_l does not descend {src!r} -> {dst!r}",
    )
    assert m_conv_mod.delta_B.compose(mod.theta_l) == tw.compose(m_conv.delta_B)


def test_crossed_rn_pipeline(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    mu = {0: sc(1), 1: sc(4)}
    mod, coc = crossed_rn_modifier(c, hopf_z2, act, mu)
    d = coc.values
    assert d.col(0) == {0: ONE, 1: ONE}
    assert d.col(1) == {0: sc(4), 1: sc("1/4")}
    assert coc.report.ok
    m = build_crossed_product(c, hopf_z2, act)
    assert check_modifier(m, mod).ok
    mt = modify(m, mod)
    phi, psi = standard_integrals("crossed", mt, hopf=hopf_z2)
    w = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    x = assemble_measured(mt, w, phi, psi)
    sig = modular_automorphism(x, "left")
    assert sig.report.ok
    # displayed formula: sigma(y h) = y sigma_H(h2) D_{S^-1(h1)}
    A = mt.A
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
            term = A.mul(
                mt.C.embed.apply({y: ONE}),
                A.mul(h_embed(hopf_z2.sigma_mod.col(h2)), mt.C.embed.apply(d_part)),
            )
            axpy(out, s, term)
        return out

    expected = LinearMap.from_function(A.dim, A.dim, expected_col)
    assert sig.mapping == expected


def test_crossed_rn_invariant_weight_trivial(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    mod, coc = crossed_rn_modifier(c, hopf_z2, act, {0: sc(1), 1: sc(1)})
    n = 4
    assert mod.maps() == tuple([LinearMap.identity(n)] * 4)
    # D_h = eps_H(h) 1
    assert coc.values.col(1) == c.unit()


def test_crossed_rn_rejects_singular_weight(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    with pytest.raises(Rejected) as exc:
        crossed_rn_modifier(c, hopf_z2, act, {0: sc(1)})
    assert exc.value.eq == "base-weight-faithful"


def test_twosided_rn_pipeline(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    mu = {0: sc(1), 1: sc(4)}
    bundle = twosided_rn_modifier(c, hopf_z2, act, mu, LinearMap.identity(2))
    assert bundle["report"].ok
    m = bundle["M"]
    assert check_modifier(m, bundle["modifier"]).ok
    mt = modify(m, bundle["modifier"])
    x = assemble_measured(mt, bundle["weight"], bundle["phi_C"], bundle["psi_B"])
    sig = modular_automorphism(x, "left")
    assert sig.report.ok
    # item-by-item formulas: sigma fixes C pointwise (sigma = id on the base),
    # inverts on the opposite side, and on H multiplies by both derivatives
    A = mt.A
    mh = hopf_z2.dim
    d = bundle["D"]
    for y in range(2):
        cy = mt.C.embed.col(y)
        assert sig.mapping.apply(cy) == cy
        by = mt.B.embed.col(y)
        assert sig.mapping.apply(by) == by
    # sigma(h) = sigma_H(h2) D_{S(h1)} (D_{S^-1(h3)})^op for the group-likes
    for h in range(mh):
        hvec = {}
        one_c, one_b = mt.C.base.unit(), mt.B.base.unit()
        for yy, s in one_c.items():
            for xx, t in one_b.items():
                hvec[(yy * mh + h) * 2 + xx] = s * t
        expected = A.mul(
            A.mul(hvec, mt.C.embed.apply(d.col(h))),
            mt.B.embed.apply(d.col(h)),
        )
        # group-like: sigma_H = id and S = id, so sigma(h) = h D_h D_h^op
        assert sig.mapping.apply(hvec) == expected


def test_twosided_rejects_incompatible_sigma(hopf_z2):
    c = function_algebra_z2()
    act = swap_action(hopf_z2, c)
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    with pytest.raises(Rejected) as exc:
        twosided_rn_modifier(c, hopf_z2, act, {0: sc(1), 1: sc(4)}, swap)
    assert exc.value.eq == "chb-modular"


def test_modified_counit_expressions(m_conv, rn_cocycle):
    mod, _ = rn_cocycle
    out = modify(m_conv, mod)
    rep = out.modification_report
    for axiom in ("modified-left-counit", "modified-right-counit", "modified-antipode",
                  "canonical-T-lambda-twist", "canonical-T-rho-twist"):
        assert rep.status_of(axiom) == "pass"


FLAVORS = (FLAVOR_QB, FLAVOR_QC, FLAVOR_TL, FLAVOR_TR, FLAVOR_LT, FLAVOR_RT)


def test_a_modifier_trivial_on_the_bases_shares_every_tensor():
    g = pair_groupoid([1, 2, 3])
    M = build_convolution_algebroid(g)
    mod, _ = groupoid_rn_modifier(g, {0: sc(1), 1: sc(4), 2: sc(9)})
    out = modify(M, mod)
    assert out.modification_report.ok
    assert all(out.tensor(f) is M.tensor(f) for f in FLAVORS)


def test_other_base_anti_isomorphisms_share_only_the_flavors_without_them():
    # the tensor algebroid over functions on two points, rebuilt on the
    # same A with S_B = S_C the swap: TR and LT act through B and C alone
    # and are shared; QB, QC, TL and RT act through S_B or S_C and are
    # built anew, and the report is that of a bundle that shares nothing
    points = FiniteAlgebra.pointwise(["u1", "u2"])
    ident, swap = LinearMap.identity(2), LinearMap.from_rows([[0, 1], [1, 0]])
    M = build_tensor_algebroid(points, points, ident, ident)
    M.canonical()
    alone = build_tensor_algebroid(points, points, swap, swap)
    n = M.A.dim
    raw = LinearMap.from_function(
        n * n, n, lambda k: kron_vec(M.C.embed.col(k // 2), M.B.embed.col(k % 2), n))
    N = RegularMHA(M.A, M.B, M.C, swap, swap, raw, raw, eps_B=alone.eps_B,
                   eps_C=alone.eps_C, S=alone.S, name=alone.name, _shared_tensors=M._tensors)
    rep = verify_regular_mha(N)
    assert rep.ok and rep.to_json_lines() == verify_regular_mha(alone).to_json_lines()
    shared = {f for f in FLAVORS if N.tensor(f) is M.tensor(f)}
    assert shared == {FLAVOR_TR, FLAVOR_LT}


def test_modify_on_convolution_p4_makes_no_more_work_than_recorded(tmp_path, monkeypatch, capsys):
    # counted on `modify --recipe groupoid_rn` of convolution p4 after the
    # modified bundle took its source's tensors, the modifier was checked
    # once and the Delta-operator law was decided on the ideal generators
    # (16 tensors, 2 modifier checks and 17,472 relation tests before), and
    # after check_modifier took M's QB and QC for an identity theta (8
    # tensors before), and after generalized permutation maps were solved
    # and inverted from their entries (37 solver echelons before), and
    # after each distinct map was checked to be an automorphism once (4
    # checks before) and each one-leg twist descended once per tensor (8
    # twist descents before)
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(groupoid_to_json(pair_groupoid([1, 2, 3, 4]))))
    counts = {"tensors": 0, "modifier checks": 0, "relation tests": 0, "solver echelons": 0,
              "automorphism checks": 0, "twist descents": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    tensor = balanced_tensor.BalancedTensor
    monkeypatch.setattr(tensor, "__init__", counted(tensor.__init__, "tensors"))
    monkeypatch.setattr(modification, "check_modifier",
                        counted(modification.check_modifier, "modifier checks"))
    monkeypatch.setattr(QuotientSpace, "contains_relation",
                        counted(QuotientSpace.contains_relation, "relation tests"))
    monkeypatch.setattr(modification, "automorphism_check",
                        counted(modification.automorphism_check, "automorphism checks"))
    descend = tensor.descend

    def descend_counted(self, op1, op2, message, *args, **kwargs):
        # the one-leg twists of the modifier's maps, by their failure text
        counts["twist descents"] += bool(re.match(r"(id \(x\) )?(theta_[lr]|[lr]_theta) ", message))
        return descend(self, op1, op2, message, *args, **kwargs)

    monkeypatch.setattr(tensor, "descend", descend_counted)

    class Echelon(Rref):
        def __init__(self, tags_from=None):
            # a LinearMap's solver is the one echelon built with tag columns
            counts["solver echelons"] += tags_from is not None
            super().__init__(tags_from)

    monkeypatch.setattr(exact_linear, "Rref", Echelon)
    code = main(["modify", "--example", "convolution", "--groupoid", str(path),
                 "--mu", "1,4,9,16", "--recipe", "groupoid_rn"])
    monkeypatch.undo()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    assert code == 0 and summary["status"] == "pass"
    assert counts["tensors"] <= 6
    assert counts["modifier checks"] == 1
    assert counts["relation tests"] <= 7232
    assert counts["solver echelons"] <= 23
    assert counts["automorphism checks"] == 2  # sigma^(1/2) and sigma^(-1/2)
    assert counts["twist descents"] == 4


@pytest.mark.parametrize("twist, expected", [
    (("theta_r", [2, 1, 0, 3]), ("left-twists-agree",
     "id (x) theta_r does not descend 'bsA\u2297btA' -> 'bsA\u2297btA~'; witness relation (0, 0, 2)")),
    (("l_theta", [1, 0, 2, 3]), ("right-twists-agree",
     "l_theta (x) id does not descend 'cAt\u2297cAs' -> 'cAt\u2297cAs~'; witness relation (0, 0, 2)")),
])
def test_check_modifier_with_identity_theta_builds_no_tensor(m_fun, monkeypatch, twist, expected):
    # theta_l and r_theta are the identity, so theta and theta_c are, and
    # the twists descend into M's own QB and QC; a twist that does not
    # descend still names the "~" flavor, as when a tensor was built for it
    name, perm = twist
    ident = LinearMap.identity(4)
    maps = dict(theta_l=ident, theta_r=ident, l_theta=ident, r_theta=ident)
    maps[name] = LinearMap.from_function(4, 4, lambda k: {perm[k]: ONE})
    built = []
    init = balanced_tensor.BalancedTensor.__init__
    monkeypatch.setattr(balanced_tensor.BalancedTensor, "__init__",
                        lambda self, *args: built.append(args[-1]) or init(self, *args))
    rep = modification.check_modifier(m_fun, modification.Modifier(**maps))
    assert built == []
    axiom, witness = expected
    (entry,) = [e for e in rep.entries if e.axiom == axiom]
    assert (entry.status, entry.witness) == ("fail", witness)


def test_a_twist_that_fails_again_raises_with_its_own_message(p2, monkeypatch):
    # the second failing call reads its memo: it descends nothing and names
    # its own twist and target
    M = build_function_algebroid(p2)
    perm = LinearMap.from_function(4, 4, lambda k: {[2, 1, 0, 3][k]: ONE})
    descents = []
    descend = balanced_tensor.BalancedTensor.descend
    monkeypatch.setattr(balanced_tensor.BalancedTensor, "descend",
                        lambda *args, **kwargs: descents.append(args) or descend(*args, **kwargs))
    with pytest.raises(balanced_tensor.NotBalanced) as first:
        modification._leg_twist(M.qb, "theta_r", perm, 2, M.qb, repr(M.qb.flavor + "~"))
    with pytest.raises(balanced_tensor.NotBalanced) as second:
        modification._leg_twist(M.qb, "r_theta", perm, 2)
    assert len(descents) == 1
    assert str(first.value) == ("id (x) theta_r does not descend 'bsA\u2297btA' -> "
                                "'bsA\u2297btA~'; witness relation (0, 0, 2)")
    assert str(second.value) == ("id (x) r_theta does not descend 'bsA\u2297btA' -> "
                                 "'bsA\u2297btA'; witness relation (0, 0, 2)")


@pytest.mark.parametrize("recipe", ["crossed", "two-sided"])
def test_check_modifier_then_modify_evaluates_the_modifier_laws_once(hopf_z2, monkeypatch, recipe):
    # a caller that checks the modifier and then modifies with it, as the
    # crossed and two-sided pipelines do, has the laws evaluated once; each
    # call gets its own copy of the report, and both reports read as they
    # do where modify alone evaluates the laws
    def build():
        c = function_algebra_z2()
        act = swap_action(hopf_z2, c)
        mu = {0: sc(1), 1: sc(4)}
        if recipe == "crossed":
            mod, _ = crossed_rn_modifier(c, hopf_z2, act, mu)
            return build_crossed_product(c, hopf_z2, act), mod
        bundle = twosided_rn_modifier(c, hopf_z2, act, mu, LinearMap.identity(2))
        return bundle["M"], bundle["modifier"]

    alone = modify(*build())
    M, mod = build()
    evaluated, report = [], modification._modifier_report
    monkeypatch.setattr(modification, "_modifier_report",
                        lambda *args: evaluated.append(args) or report(*args))
    checked = check_modifier(M, mod)
    lines = checked.to_json_lines()
    checked.entries.clear()  # the caller's own copy
    Mt = modify(M, mod)
    assert len(evaluated) == 1
    assert lines == alone.modifier_report.to_json_lines() == Mt.modifier_report.to_json_lines()
    assert check_modifier(M, mod).to_json_lines() == lines
    assert Mt.modification_report.to_json_lines() == alone.modification_report.to_json_lines()
    assert len(evaluated) == 1


def test_a_modifier_that_moves_the_bases_twists_their_tensors(m_conv, p2, monkeypatch):
    """alpha relabels the arrows of p2 by the swap of its two points, on all
    four legs.  It moves both bases, so each half's twists are compared in
    a new "~" tensor that balances the moved actions.  They disagree:
    Delta(gamma) = gamma (x) gamma goes to alpha(gamma) (x) gamma by the
    twist of leg 1 and to gamma (x) alpha(gamma) by that of leg 2, two
    different classes.  alpha fixes no base element, and every other law
    holds."""
    swap = {1: 2, 2: 1}
    alpha = LinearMap.from_function(
        4, 4, lambda k: {p2.index[tuple(swap[x] for x in p2.arrows[k])]: ONE})
    built = []
    make = modification._modified_tensor
    monkeypatch.setattr(modification, "_modified_tensor",
                        lambda *args: built.append(make(*args)) or built[-1])
    rep = check_modifier(m_conv, Modifier(alpha, alpha, alpha, alpha))
    assert [(q.flavor, q.dim) for q in built] == [("bsA\u2297btA~", 8), ("cAt\u2297cAs~", 8)]
    assert not any(q is m_conv.qb or q is m_conv.qc for q in built)
    assert len(rep.entries) == 15
    assert {e.axiom for e in rep.entries if e.status != "pass"} == {
        "left-twists-agree", "right-twists-agree", "full-case-base-fixing", "trivial-on-base"}


def test_twist_on_the_first_leg_is_twist_tensor_identity(m_conv, p2):
    # modify twists leg 1 of each lifted Delta column, and coassociativity
    # expands one leg by the lifted Delta, an n -> n^2 map; apply_legs
    # builds only the columns of f (x) g the vector reads.  sqrt(2) twists
    # on either leg or both, the lifted Delta on either leg, and a dense
    # vector with a radical coefficient besides the lifted columns
    mod, _ = groupoid_rn_modifier(p2, {0: 1, 1: 2}, ScalarField((2,)))
    n, ident = m_conv.A.dim, LinearMap.identity(m_conv.A.dim)
    lifts = (m_conv._db_lift, m_conv._dc_lift)
    lifted = [lift.col(j) for lift in lifts for j in range(n)]
    dense = {ij: Scalar.root_term(2) if ij % 3 else ONE for ij in range(n * n)}
    twists = mod.maps()
    legs = ([(twist, None) for twist in twists] + [(None, twist) for twist in twists]
            + [(twists[0], twists[1]), (lifts[0], None), (None, lifts[1]), (twists[1], lifts[0])])
    for f, g in legs:
        full = kron(f or ident, g or ident)
        for w in lifted + [dense]:
            assert apply_legs(f, g, w, n) == full.apply(w)
