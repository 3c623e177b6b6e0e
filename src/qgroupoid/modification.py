"""Comultiplication modifiers and the derived constructions that repair
non-counital base weights.

A modifier is a quadruple of algebra automorphisms twisting the left and
right comultiplications independently; applying one produces a new
quantum groupoid which is re-verified from scratch, never trusted.  The
concrete recipes solve for a multiplicative derivative relating a weight
to its translate and use its square root to symmetrize the counits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra_core import automorphism_check
from .balanced_tensor import BalancedTensor, NotBalanced, descend_componentwise
from .bialgebroid import (
    FLAVOR_QB,
    FLAVOR_QC,
    RegularMHA,
    verify_regular_mha,
    verify_star,
)
from .exact_linear import (
    ONE,
    ZERO,
    FieldExtensionNeeded,
    LinearMap,
    ScalarField,
    axpy,
    ev,
    inverse,
    is_positive,
    kron_vec,
    vscale,
)
from .integration import BaseWeight, PartialIntegral, gram_map
from .report import Rejected, Report

__all__ = [
    "Modifier",
    "Cocycle",
    "identity_modifier",
    "inner_modifier",
    "compose_modifiers",
    "check_modifier",
    "modify",
    "groupoid_rn_modifier",
    "crossed_rn_modifier",
    "twosided_rn_modifier",
]


@dataclass
class Modifier:
    theta_l: LinearMap  # twists the left leg of the left comultiplication
    theta_r: LinearMap  # its right-leg companion
    l_theta: LinearMap  # twists the left leg of the right comultiplication
    r_theta: LinearMap  # its companion
    trivial_on_base: bool = False
    self_adjoint: bool = False

    def maps(self):
        return (self.theta_l, self.theta_r, self.l_theta, self.r_theta)


@dataclass
class Cocycle:
    """A multiplicative derivative: per-arrow scalars or a map H -> C."""

    kind: str  # "groupoid" | "hopf"
    values: object
    report: Report = field(default_factory=Report)


def identity_modifier(M):
    ident = LinearMap.identity(M.A.dim)
    return Modifier(ident, ident, ident, ident, trivial_on_base=True,
                    self_adjoint=M.A.involution is not None)


def inner_modifier(M, u, v):
    """Conjugation modifier by invertible u, v in the left base."""
    A = M.A
    ub, vb = M.B.embed.apply(u), M.B.embed.apply(v)
    from .structure_theory import _algebra_inverse

    ubi, vbi = _algebra_inverse(A, ub), _algebra_inverse(A, vb)
    if ubi is None or vbi is None:
        raise Rejected("left-modifier", "inner modifier needs invertible elements")
    sbv = M.emb_SB().apply(v)
    sbvi = _algebra_inverse(A, sbv)
    scu = M.C.embed.apply(M.S_C.inverse().apply(u))
    scui = _algebra_inverse(A, scu)
    n = A.dim

    def conj(left, right):
        return LinearMap.from_function(
            n, n, lambda j: A.mul(A.mul(left, {j: ONE}), right)
        )

    return Modifier(
        conj(vbi, vb),
        conj(sbvi, sbv),
        conj(ub, ubi),
        conj(scu, scui),
    )


def compose_modifiers(m1, m2):
    """Group law: twists of the same leg compose, companions reverse."""
    return Modifier(
        m1.theta_l.compose(m2.theta_l),
        m2.theta_r.compose(m1.theta_r),
        m2.l_theta.compose(m1.l_theta),
        m1.r_theta.compose(m2.r_theta),
        trivial_on_base=m1.trivial_on_base and m2.trivial_on_base,
        self_adjoint=m1.self_adjoint and m2.self_adjoint,
    )


def _base_automorphism(emb, total_map):
    """The restriction of a total automorphism to an embedded base, or None."""
    img = emb.image_rref()
    cols = []
    for x in range(emb.base.dim):
        moved = total_map.apply(emb.embed.col(x))
        if not img.contains(moved):
            return None
        cols.append(emb.embed.solve(moved))
    return LinearMap(emb.base.dim, emb.base.dim, cols)


def _modified_tensor(M, flavor, acts1, acts2):
    """The tensor of flavor + "~" balancing acts1 against acts2, or M's
    tensor of flavor if that has these action maps, as it has when theta
    is the identity."""
    q = M.tensor(flavor)
    if q.struct1.acts == acts1 and q.struct2.acts == acts2:
        return q
    from .algebra_core import ModuleStructure

    s1 = ModuleStructure(q.struct1.base, M.A, acts1, "left")
    s2 = ModuleStructure(q.struct2.base, M.A, acts2, "right")
    return BalancedTensor(M.A, s1, s2, flavor + "~")


def _modified_qb(M, theta):
    """QB-type tensor with the twisted target anti-isomorphism."""
    emb_sb_new = M.C.embed.compose(M.S_B.compose(theta.inverse()))
    acts1 = [M.A.lmul(M.B.embed.col(x)) for x in range(M.B.base.dim)]
    acts2 = [M.A.lmul(emb_sb_new.col(x)) for x in range(M.B.base.dim)]
    return _modified_tensor(M, FLAVOR_QB, acts1, acts2)


def _modified_qc(M, theta_c):
    emb_sc_new = M.B.embed.compose(M.S_C.compose(theta_c.inverse()))
    acts1 = [M.A.rmul(emb_sc_new.col(y)) for y in range(M.C.base.dim)]
    acts2 = [M.A.rmul(M.C.embed.col(y)) for y in range(M.C.base.dim)]
    return _modified_tensor(M, FLAVOR_QC, acts1, acts2)


def check_modifier(M, mod):
    """All modifier axioms; in the regular case the full-case conclusions too."""
    rep = Report()
    A, n = M.A, M.A.dim
    for name, mp in zip(("theta_l", "theta_r", "l_theta", "r_theta"), mod.maps()):
        ok, wit = automorphism_check(A, mp)
        rep.check(ok, "%s-automorphism" % name, "left-modifier", wit)
    if not rep.ok:
        return rep
    theta = _base_automorphism(M.B, mod.theta_l)
    rep.check(theta is not None, "theta_l-preserves-B", "theta-base")
    theta_c = _base_automorphism(M.C, mod.r_theta)
    rep.check(theta_c is not None, "r_theta-preserves-C", "theta-base")
    if theta is None or theta_c is None:
        return rep
    # theta_r o t = t o theta^{-1} on the embedded image of S_B
    theta_inv = theta.inverse()
    ok = all(
        mod.theta_r.apply(M.emb_SB().col(x))
        == M.emb_SB().apply(theta_inv.col(x))
        for x in range(M.B.base.dim)
    )
    rep.check(ok, "theta_r-twists-t", "theta-base")
    theta_c_inv = theta_c.inverse()
    ok = all(
        mod.l_theta.apply(M.emb_SC().col(y))
        == M.emb_SC().apply(theta_c_inv.col(y))
        for y in range(M.C.base.dim)
    )
    rep.check(ok, "l_theta-twists-t", "theta-base")
    # the two twists of each comultiplication agree
    try:
        # a failure names the "~" flavor, also where qb_new is M.qb itself
        qb_new, into = _modified_qb(M, theta), "{src!r} -> %r" % (FLAVOR_QB + "~")
        tw1 = descend_componentwise(
            M.qb, qb_new, lambda i, j: kron_vec(mod.theta_l.col(i), {j: ONE}, n),
            "theta_l (x) id does not descend " + into,
        )
        tw2 = descend_componentwise(
            M.qb, qb_new, lambda i, j: kron_vec({i: ONE}, mod.theta_r.col(j), n),
            "id (x) theta_r does not descend " + into,
        )
        ok = tw1.compose(M.delta_B) == tw2.compose(M.delta_B)
        rep.check(ok, "left-twists-agree", "theta-comultiplication")
    except NotBalanced as e:
        rep.check(False, "left-twists-agree", "theta-comultiplication", str(e))
    try:
        qc_new, into = _modified_qc(M, theta_c), "{src!r} -> %r" % (FLAVOR_QC + "~")
        tw1 = descend_componentwise(
            M.qc, qc_new, lambda i, j: kron_vec(mod.l_theta.col(i), {j: ONE}, n),
            "l_theta (x) id does not descend " + into,
        )
        tw2 = descend_componentwise(
            M.qc, qc_new, lambda i, j: kron_vec({i: ONE}, mod.r_theta.col(j), n),
            "id (x) r_theta does not descend " + into,
        )
        ok = tw1.compose(M.delta_C) == tw2.compose(M.delta_C)
        rep.check(ok, "right-twists-agree", "theta-comultiplication")
    except NotBalanced as e:
        rep.check(False, "right-twists-agree", "theta-comultiplication", str(e))
    # theta_r o S_B o theta_l = S_B and the mirror, on the bases
    ok = all(
        mod.theta_r.apply(M.emb_SB().apply(theta.col(x))) == M.emb_SB().col(x)
        for x in range(M.B.base.dim)
    )
    rep.check(ok, "antipode-base-left", "modifier-antipode-base")
    ok = all(
        mod.l_theta.apply(M.emb_SC().apply(theta_c.col(y))) == M.emb_SC().col(y)
        for y in range(M.C.base.dim)
    )
    rep.check(ok, "antipode-base-right", "modifier-antipode-base")
    # full-case conclusions (meta-test on regular instances)
    ok = all(
        mod.theta_l.apply(M.emb_SB().col(x)) == M.emb_SB().col(x)
        for x in range(M.B.base.dim)
    ) and all(
        mod.theta_r.apply(M.B.embed.col(x)) == M.B.embed.col(x)
        for x in range(M.B.base.dim)
    )
    rep.check(ok, "full-case-base-fixing", "modified-full")
    if ok:
        try:
            tw = descend_componentwise(
                M.qb, M.qb, lambda i, j: kron_vec({i: ONE}, mod.theta_l.col(j), n),
                "id (x) theta_l does not descend {src!r} -> {dst!r}",
            )
            rep.check(
                M.delta_B.compose(mod.theta_l) == tw.compose(M.delta_B),
                "full-case-delta-theta_l", "modified-full",
            )
            tw = descend_componentwise(
                M.qb, M.qb, lambda i, j: kron_vec(mod.theta_r.col(i), {j: ONE}, n),
                "theta_r (x) id does not descend {src!r} -> {dst!r}",
            )
            rep.check(
                M.delta_B.compose(mod.theta_r) == tw.compose(M.delta_B),
                "full-case-delta-theta_r", "modified-full",
            )
        except NotBalanced as e:
            rep.check(False, "full-case-delta-twists", "modified-full", str(e))
    # flags
    trivial = all(
        mp.apply(M.B.embed.col(x)) == M.B.embed.col(x)
        for mp in mod.maps()
        for x in range(M.B.base.dim)
    ) and all(
        mp.apply(M.C.embed.col(y)) == M.C.embed.col(y)
        for mp in mod.maps()
        for y in range(M.C.base.dim)
    )
    rep.note("trivial-on-base", "left-modifier", "pass" if trivial else "fail")
    mod.trivial_on_base = trivial
    if M.A.involution is not None:
        star = M.A.star
        sa = all(
            star(mod.theta_l.apply({j: ONE})) == mod.l_theta.apply(star({j: ONE}))
            for j in range(n)
        ) and all(
            star(mod.theta_r.apply({j: ONE})) == mod.r_theta.apply(star({j: ONE}))
            for j in range(n)
        )
        mod.self_adjoint = sa
        rep.note("self-adjoint", "left-modifier", "pass" if sa else "fail")
    return rep


def modify(M, mod, verify=True):
    """Apply a modifier; the result is a new bundle, re-verified from scratch.

    The result shares A, B and C with M.  It takes M's balanced tensor of a
    flavor, with its echelon and memoized descents, whenever both module
    structures of that flavor have the same action maps in both bundles,
    as every flavor has for a modifier trivial on the bases; it builds the
    others itself.  Its comultiplications, counits and antipode are its
    own, and every axiom is checked on them again.  The ``check_modifier``
    report of mod is kept as ``modifier_report``, the checks made here and
    the re-verification as ``modification_report``.
    """
    pre = check_modifier(M, mod)
    failures = [e for e in pre.failures() if e.axiom not in ("trivial-on-base", "self-adjoint")]
    if failures:
        raise Rejected(failures[0].eq, "modifier axioms fail: %s" % failures[0].axiom, pre)
    A, n = M.A, M.A.dim
    theta = _base_automorphism(M.B, mod.theta_l)
    theta_c = _base_automorphism(M.C, mod.r_theta)
    s_b_new = M.S_B.compose(theta.inverse())
    s_c_new = M.S_C.compose(theta_c.inverse())

    def twist_raw(delta_lift, twist):
        def col(a):
            out = {}
            for idx, s in delta_lift[a].items():
                i, j = divmod(idx, n)
                axpy(out, s, kron_vec(twist.col(i), {j: ONE}, n))
            return out

        return LinearMap.from_function(n * n, n, col)

    delta_b_raw = twist_raw(M._db_lift, mod.theta_l)
    delta_c_raw = twist_raw(M._dc_lift, mod.l_theta)
    eps_b_new = M.eps_B.compose(mod.theta_r.inverse())
    eps_c_new = M.eps_C.compose(mod.l_theta.inverse())
    s_new = mod.theta_r.compose(M.S).compose(mod.r_theta.inverse())
    out = RegularMHA(
        A, M.B, M.C, s_b_new, s_c_new, delta_b_raw, delta_c_raw,
        eps_B=eps_b_new, eps_C=eps_c_new, S=s_new,
        name=M.name + "~", _shared_tensors=M._tensors,
    )
    rep = Report()
    # alternative expressions for the modified counits and antipode
    alt_eps_b = theta.compose(M.eps_B).compose(mod.theta_l.inverse())
    rep.check(alt_eps_b == eps_b_new, "modified-left-counit", "modified-lt-counit")
    alt_eps_c = theta_c.compose(M.eps_C).compose(mod.r_theta.inverse())
    rep.check(alt_eps_c == eps_c_new, "modified-right-counit", "modified-rt-counit")
    alt_s = mod.l_theta.compose(M.S).compose(mod.theta_l.inverse())
    rep.check(alt_s == s_new, "modified-antipode", "modified-antipode")
    # canonical maps transform by one-leg twists
    canon_old, canon_new = M.canonical(), out.canonical()
    try:
        tw = descend_componentwise(
            M.qb, out.qb, lambda i, j: kron_vec({i: ONE}, mod.theta_r.col(j), n),
            "id (x) theta_r does not descend {src!r} -> {dst!r}",
        )
        rep.check(
            canon_new["T_lambda"][0] == tw.compose(canon_old["T_lambda"][0]),
            "canonical-T-lambda-twist", "theta-tl",
        )
        tw = descend_componentwise(
            M.qb, out.qb, lambda i, j: kron_vec(mod.theta_l.col(i), {j: ONE}, n),
            "theta_l (x) id does not descend {src!r} -> {dst!r}",
        )
        rep.check(
            canon_new["T_rho"][0] == tw.compose(canon_old["T_rho"][0]),
            "canonical-T-rho-twist", "theta-tr",
        )
    except NotBalanced as e:
        rep.check(False, "canonical-map-twists", "theta-tl", str(e))
    if verify:
        suite = verify_regular_mha(out)
        rep.merge(suite, prefix="modified")
        if not suite.ok:
            raise Rejected(
                "modification",
                "modified structure failed verification: %s"
                % [e.axiom for e in suite.failures()],
                rep,
            )
        if M.A.involution is not None and mod.self_adjoint:
            srep = verify_star(out)
            rep.merge(srep, prefix="modified-star")
            if not srep.ok:
                raise Rejected("modification", "modified star structure failed", rep)
    out.modifier_report = pre
    out.modification_report = rep
    return out


# -- concrete recipes -----------------------------------------------------------


def groupoid_rn_modifier(g, mu, scalar_field=None):
    """Square-root derivative modifier for a convolution-type instance.

    mu: strictly positive rational weights on the unit space (dict
    unit-index -> int or Fraction).  D(gamma) = mu(t)/mu(s); the modifier
    multiplies by D^(1/2) on both left legs and by D^(-1/2) on both right
    legs.
    """
    scalar_field = scalar_field or ScalarField()
    m = len(g.units)
    uidx = g.unit_index
    for u in range(m):
        val = mu.get(u, ZERO)
        if not val or not is_positive(val):
            raise Rejected("quasi-invariant", "weight must be strictly positive on units")
    d_vals, half, neg_half = {}, {}, {}
    missing = set()
    for k, a in enumerate(g.arrows):
        ratio = mu[uidx[g.target[a]]] * inverse(mu[uidx[g.source[a]]])
        d_vals[k] = ratio
        try:
            root = scalar_field.sqrt(ratio)
            half[k] = root
            neg_half[k] = inverse(root)
        except FieldExtensionNeeded as e:
            missing.update(e.missing)
    if missing:
        raise FieldExtensionNeeded(missing)
    rep = Report()
    ok = all(
        d_vals[g.index[ab]] == d_vals[g.index[a]] * d_vals[g.index[b]]
        for (a, b) in g.composable_pairs()
        for ab in (g.compose[(a, b)],)
    )
    rep.check(ok, "multiplicative-cocycle", "one-cocycle")
    ok = all(d_vals[g.index[u]] == ONE for u in g.units)
    rep.check(ok, "unital-cocycle", "one-cocycle")
    n = g.n_arrows
    sigma_half = LinearMap.from_function(n, n, lambda k: {k: half[k]})
    sigma_neg = LinearMap.from_function(n, n, lambda k: {k: neg_half[k]})
    mod = Modifier(sigma_half, sigma_half, sigma_neg, sigma_neg,
                   trivial_on_base=True, self_adjoint=True)
    return mod, Cocycle("groupoid", d_vals, rep)


def crossed_rn_modifier(base_c, hopf, action, mu):
    """Derivative modifier for a crossed product from a quasi-invariant weight.

    Solves mu(S(h) . y) = mu(D_h y) for D: H -> C, verifies the cocycle
    law and the symmetry compatibility, and twists through the
    homomorphism y # h -> y D_(h1) # h2.
    """
    H, C = hopf, base_c
    mh, mc = H.dim, C.dim
    gram = gram_map(C, mu)
    if not gram.is_bijective():
        raise Rejected("base-weight-faithful", "weight on the module algebra is not faithful")
    d_cols = []
    for h in range(mh):
        target = {}
        for y in range(mc):
            moved = {}
            for hh, s in H.S.col(h).items():
                axpy(moved, s, action.acts[hh].apply({y: ONE}))
            val = ev(mu, moved)
            if val:
                target[y] = val
        sol = gram.transpose().solve(target)
        if sol is None:
            raise Rejected("quasi-invariant", "weight is not quasi-invariant under the action")
        d_cols.append(sol)
    D = LinearMap(mc, mh, d_cols)
    rep = Report()
    one_h = H.H.unit()
    d_one = {}
    for h, s in one_h.items():
        axpy(d_one, s, D.col(h))
    rep.check(d_one == C.unit(), "cocycle-unital", "one-cocycle")
    ok = True
    for h in range(mh):
        for g_ in range(mh):
            prod = H.H.mul({h: ONE}, {g_: ONE})
            lhs = {}
            for k, s in prod.items():
                axpy(lhs, s, D.col(k))
            rhs = {}
            for h1, h2, s in H.sweedler(h):
                acted = action.acts[h2].apply(D.col(g_))
                axpy(rhs, s, C.mul(D.col(h1), acted))
            if lhs != rhs:
                ok = False
    rep.check(ok, "cocycle-law", "one-cocycle")
    ok = True
    for h in range(mh):
        sw = H.sweedler(h)
        for y in range(mc):
            lhs, rhs = {}, {}
            for h1, h2, s in sw:
                axpy(lhs, s, C.mul(D.col(h1), action.acts[h2].apply({y: ONE})))
                axpy(rhs, s, C.mul(action.acts[h1].apply({y: ONE}), D.col(h2)))
            if lhs != rhs:
                ok = False
    rep.check(ok, "symmetry-compatibility", "ch-symmetric")
    if not rep.ok:
        raise Rejected("one-cocycle", "derivative is not a unital one-cocycle", rep)
    n = mc * mh

    def beta_col(k):
        y, h = divmod(k, mh)
        out = {}
        for h1, h2, s in H.sweedler(h):
            axpy(out, s, kron_vec(C.mul({y: ONE}, D.col(h1)), {h2: ONE}, mh))
        return out

    def beta_dag_col(k):
        y, h = divmod(k, mh)
        out = {}
        for h1, h2, s in H.sweedler(h):
            axpy(out, s, kron_vec(C.mul(D.col(h2), {y: ONE}), {h1: ONE}, mh))
        return out

    beta = LinearMap.from_function(n, n, beta_col)
    beta_dag = LinearMap.from_function(n, n, beta_dag_col)
    ident = LinearMap.identity(n)
    mod = Modifier(beta_dag.inverse(), beta.inverse(), ident, ident)
    return mod, Cocycle("hopf", D, rep)


def twosided_rn_modifier(base_c, hopf, left_action, mu, sigma):
    """Bundle for the two-sided construction from a quasi-invariant weight.

    Returns a dict with the algebroid, modifier, counital weight and the
    stated partial integrals.  sigma must be a modular automorphism of mu
    compatible with the action through the square of the antipode; the
    left base is the opposite algebra carrying the antipode-transported
    right action.
    """
    from .examples import HopfAction, build_two_sided

    H, C = hopf, base_c
    mh, mc = H.dim, C.dim
    rep = Report()
    ok = all(
        ev(mu, C.mul({x: ONE}, {y: ONE})) == ev(mu, C.mul({y: ONE}, sigma.col(x)))
        for x in range(mc)
        for y in range(mc)
    )
    rep.check(ok, "sigma-modular", "chb-modular")
    s2 = H.S.compose(H.S)
    ok = True
    for h in range(mh):
        lhs = sigma.compose(left_action.acts[h])
        rhs = LinearMap.combination(
            mc, mc, ((s, left_action.acts[hh].compose(sigma)) for hh, s in s2.col(h).items())
        )
        if lhs != rhs:
            ok = False
    rep.check(ok, "sigma-action-compatibility", "chb-modular")
    if not rep.ok:
        raise Rejected("chb-modular", "modular automorphism incompatible with the action", rep)
    # derivative of mu
    _, cocycle = crossed_rn_modifier(C, H, left_action, mu)
    D = cocycle.values
    # sigma(D_h) = D_{S^2(h)} (consequence, checked)
    ok = True
    for h in range(mh):
        lhs = sigma.apply(D.col(h))
        rhs = {}
        for hh, s in s2.col(h).items():
            axpy(rhs, s, D.col(hh))
        if lhs != rhs:
            ok = False
    rep.check(ok, "sigma-of-D", "chb-modular")
    # base B = C^op with the antipode-transported right action
    base_b = C.opposite()
    s_h = H.S

    def right_act(h):
        return LinearMap.combination(
            mc, mc, ((s, left_action.acts[hh]) for hh, s in s_h.col(h).items())
        )

    right_action = HopfAction(H, base_b, [right_act(h) for h in range(mh)], side="right")
    s_b = LinearMap.identity(mc)  # y^op -> y
    s_c = sigma  # y -> sigma(y)^op
    M = build_two_sided(C, H, base_b, left_action, right_action, s_b, s_c)
    n = M.A.dim

    def theta_l_col(k):
        y, r = divmod(k, mh * mc)
        h, x = divmod(r, mc)
        out = {}
        for h1, h2, s in H.sweedler(h):
            # y (D_{h2})^op h1 x, multiplied out in A
            elem = M.A.mul(
                M.A.mul(M.C.embed.apply({y: ONE}), M.B.embed.apply(D.col(h2))),
                _h_elem(M, mh, mc, h1),
            )
            elem = M.A.mul(elem, M.B.embed.apply({x: ONE}))
            axpy(out, s, elem)
        return out

    def theta_r_col(k):
        y, r = divmod(k, mh * mc)
        h, x = divmod(r, mc)
        out = {}
        for h1, h2, s in H.sweedler(h):
            elem = M.A.mul(
                M.A.mul(
                    M.C.embed.apply(C.mul({y: ONE}, D.col(h1))),
                    _h_elem(M, mh, mc, h2),
                ),
                M.B.embed.apply({x: ONE}),
            )
            axpy(out, s, elem)
        return out

    theta_l = LinearMap.from_function(n, n, theta_l_col)
    theta_r = LinearMap.from_function(n, n, theta_r_col)
    ident = LinearMap.identity(n)
    mod = Modifier(theta_l.inverse(), theta_r.inverse(), ident, ident)
    mu_op = dict(mu)  # the opposite algebra shares coordinates
    weight = BaseWeight(mu_B=mu_op, mu_C=dict(mu))
    phi_h = hopf.phi

    def phi_col(k):
        y, r = divmod(k, mh * mc)
        h, x = divmod(r, mc)
        return vscale(phi_h.get(h, ZERO) * mu_op.get(x, ZERO), {y: ONE})

    def psi_col(k):
        y, r = divmod(k, mh * mc)
        h, x = divmod(r, mc)
        return vscale(phi_h.get(h, ZERO) * mu.get(y, ZERO), {x: ONE})

    phi_C = PartialIntegral("left", LinearMap.from_function(mc, n, phi_col))
    psi_B = PartialIntegral("right", LinearMap.from_function(mc, n, psi_col))
    return {
        "M": M,
        "modifier": mod,
        "weight": weight,
        "phi_C": phi_C,
        "psi_B": psi_B,
        "D": D,
        "report": rep,
    }


def _h_elem(M, mh, mc, h):
    """The element 1 (x) h (x) 1 of the two-sided product."""
    one_c = M.C.base.unit()
    one_b = M.B.base.unit()
    out = {}
    for y, s in one_c.items():
        for x, t in one_b.items():
            out[(y * mh + h) * mc + x] = s * t
    return out
