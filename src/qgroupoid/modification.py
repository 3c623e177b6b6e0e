"""Comultiplication modifiers and the derived constructions that repair
non-counital base weights.

A modifier is a quadruple of algebra automorphisms twisting the left and
right comultiplications independently; applying one produces a new
quantum groupoid which is re-verified from scratch, never trusted.  The
concrete recipes solve for a multiplicative derivative relating a weight
to its translate and use its square root to symmetrize the counits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra_core import automorphism_check
from .balanced_tensor import BalancedTensor, NotBalanced
from .bialgebroid import RegularMHA, _halves, verify_regular_mha, verify_star
from .exact_linear import (
    ONE,
    ZERO,
    FieldExtensionNeeded,
    LinearMap,
    ScalarField,
    apply_legs,
    inverse,
    is_positive,
    kron,
)
from .integration import (
    BaseWeight,
    functional_of_map,
    gram_map,
    gram_transpose,
    satisfies_modular_law,
)
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

    def maps(self):
        return (self.theta_l, self.theta_r, self.l_theta, self.r_theta)


@dataclass
class Cocycle:
    """A multiplicative derivative: per-arrow scalars or a map H -> C."""

    values: object
    report: Report


def identity_modifier(M):
    ident = LinearMap.identity(M.A.dim)
    return Modifier(ident, ident, ident, ident)


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


def _modified_q(M, h, theta):
    """h's tensor with the twisted target anti-isomorphism: s(x) against
    t(theta^-1(x)), each acting by multiplication in h's order."""
    acts = (h.struct("s").acts, [h.struct("t").operator(v) for v in theta.inverse().data])
    return _modified_tensor(M, h.q.flavor, *h.ordered(*acts))


def _twists(mod, h):
    """The modifier's twists of h's comultiplication on legs 1 and 2, named."""
    if h.letter == "B":
        return ("theta_l", mod.theta_l), ("theta_r", mod.theta_r)
    return ("l_theta", mod.l_theta), ("r_theta", mod.r_theta)


def _leg_twist(q, name, twist, leg, target=None, dst="{dst!r}"):
    """twist on ``leg`` and the identity on the other, descended from q to
    target (default q) by ``BalancedTensor.descend_leg``, once per tensor.
    A failure reads "name (x) id does not descend {src!r} -> dst", or
    "id (x) name ..." for leg 2."""
    word = "%s (x) id" if leg == 1 else "id (x) %s"
    return q.descend_leg(twist, leg, word % name + " does not descend {src!r} -> " + dst, target)


def check_modifier(M, mod):
    """All modifier axioms; in the regular case the full-case conclusions too.

    Each half h's laws are written once: the twist on h's t leg (theta_l on
    B, r_theta on C) restricts to a base automorphism theta of h's base,
    the twist on the s leg (theta_r, l_theta) moves t by theta^-1, the two
    twists agree on Delta, and the s-leg twist undoes theta on t.

    Decided once per bundle and modifier, as ``check_algebra`` is per
    algebra: the report and each half's theta are kept on M
    (``_checked_modifier``), and each call returns a copy of the report.
    """
    return Report().merge(_checked_modifier(M, mod)[0])


def _checked_modifier(M, mod):
    """(report, thetas) of ``_modifier_report``, memoized per bundle in
    ``M._modifier_checks`` under the identities of mod's four maps.  The
    entry holds the maps, so the identities stay theirs; a modifier's maps
    are not mutated.  Callers must not mutate the report."""
    maps = mod.maps()
    key = tuple(map(id, maps))
    if M._modifier_checks is None:
        M._modifier_checks = {}
    if key not in M._modifier_checks:
        M._modifier_checks[key] = (maps, *_modifier_report(M, mod))
    return M._modifier_checks[key][1:]


def _modifier_report(M, mod):
    """(report, thetas): ``check_modifier``'s report and the base
    automorphism theta of each half, B then C, or None where the report
    stops before the thetas are decided.  A map passed for more than one
    of the four is checked to be an automorphism once."""
    rep = Report()
    A, n = M.A, M.A.dim
    automorphisms = {}  # id of a map -> automorphism_check of it
    for name, mp in zip(("theta_l", "theta_r", "l_theta", "r_theta"), mod.maps()):
        if id(mp) not in automorphisms:
            automorphisms[id(mp)] = automorphism_check(A, mp)
        ok, wit = automorphisms[id(mp)]
        rep.check(ok, "%s-automorphism" % name, "left-modifier", wit)
    if not rep.ok:
        return rep, None
    halves = []
    for h in _halves(M):
        twists = _twists(mod, h)
        (t_name, t_twist), (s_name, s_twist) = h.ordered(*twists)
        theta = _base_automorphism(h.embedding, t_twist)
        rep.check(theta is not None, "%s-preserves-%s" % (t_name, h.letter), "theta-base")
        halves.append((h, twists, s_name, s_twist, theta))
    thetas = tuple(theta for *_, theta in halves)
    if any(theta is None for theta in thetas):
        return rep, None
    # s_twist o t = t o theta^{-1} on the embedded image of the base anti-isomorphism
    for h, _, s_name, s_twist, theta in halves:
        theta_inv = theta.inverse()
        ok = all(s_twist.apply(h.t.col(x)) == h.t.apply(theta_inv.col(x))
                 for x in range(h.base.dim))
        rep.check(ok, "%s-twists-t" % s_name, "theta-base")
    # the two twists of each comultiplication agree
    for h, ((name1, twist1), (name2, twist2)), _, _, theta in halves:
        try:
            # a failure names the "~" flavor, also where the new tensor is h.q itself
            q_new, into = _modified_q(M, h, theta), repr(h.q.flavor + "~")
            tw1 = _leg_twist(h.q, name1, twist1, 1, q_new, into)
            tw2 = _leg_twist(h.q, name2, twist2, 2, q_new, into)
            ok = tw1.compose(h.delta) == tw2.compose(h.delta)
            rep.check(ok, h.side + "-twists-agree", "theta-comultiplication")
        except NotBalanced as e:
            rep.check(False, h.side + "-twists-agree", "theta-comultiplication", str(e))
    # theta_r o S_B o theta_l = S_B and the mirror, on the bases
    for h, _, _, s_twist, theta in halves:
        ok = all(s_twist.apply(h.t.apply(theta.col(x))) == h.t.col(x) for x in range(h.base.dim))
        rep.check(ok, "antipode-base-" + h.side, "modifier-antipode-base")
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
            for name, twist, leg in (("theta_l", mod.theta_l, 2), ("theta_r", mod.theta_r, 1)):
                tw = _leg_twist(M.qb, name, twist, leg)
                rep.check(M.delta_B.compose(twist) == tw.compose(M.delta_B),
                          "full-case-delta-" + name, "modified-full")
        except NotBalanced as e:
            rep.check(False, "full-case-delta-twists", "modified-full", str(e))
    # notes, not axioms: modify accepts a modifier that fails them
    trivial = all(
        mp.apply(h.s.col(x)) == h.s.col(x)
        for h, _, _, _, _ in halves
        for mp in mod.maps()
        for x in range(h.base.dim)
    )
    rep.note("trivial-on-base", "left-modifier", "pass" if trivial else "fail")
    if M.A.involution is not None:
        # the star exchanges the halves' twists, leg by leg
        star = M.A.star
        sa = all(
            star(twist.apply({j: ONE})) == mirror.apply(star({j: ONE}))
            for twist, mirror in ((mod.theta_l, mod.l_theta), (mod.theta_r, mod.r_theta))
            for j in range(n)
        )
        rep.note("self-adjoint", "left-modifier", "pass" if sa else "fail")
    return rep, thetas


def modify(M, mod):
    """Apply a modifier; the result is a new bundle, re-verified from scratch.

    The result shares A, B and C with M.  It takes M's balanced tensor of a
    flavor, with its quotient and memoized descents, whenever both module
    structures of that flavor have the same action maps in both bundles,
    as every flavor has for a modifier trivial on the bases; it builds the
    others itself.  Its comultiplications, counits and antipode are its
    own, and every axiom is checked on them again.  The ``check_modifier``
    report of mod is kept as ``modifier_report``, the checks made here and
    the re-verification as ``modification_report``.  That report and each
    half's base automorphism theta are decided once per bundle and
    modifier, by whichever of ``check_modifier`` and ``modify`` comes
    first, and read here.
    """
    pre = check_modifier(M, mod)
    failures = [e for e in pre.failures() if e.axiom not in ("trivial-on-base", "self-adjoint")]
    if failures:
        raise Rejected(failures[0].eq, "modifier axioms fail: %s" % failures[0].axiom, pre)
    _, thetas = _checked_modifier(M, mod)
    A, n = M.A, M.A.dim
    # per half: the base anti-isomorphism S_h theta^-1, Delta twisted on leg
    # 1, the counit eps o s_twist^-1 and its alternative theta o eps o t_twist^-1
    parts = []
    for h, theta in zip(_halves(M), thetas):
        twists = _twists(mod, h)
        (_, t_twist), (_, s_twist) = h.ordered(*twists)
        delta = LinearMap(n * n, n, [apply_legs(twists[0][1], None, w, n) for w in h.lifts.data])
        parts.append((h.anti.compose(theta.inverse()), delta,
                      h.eps.compose(s_twist.inverse()),
                      theta.compose(h.eps).compose(t_twist.inverse())))
    (s_b_new, delta_b_raw, eps_b_new, _), (s_c_new, delta_c_raw, eps_c_new, _) = parts
    s_new = mod.theta_r.compose(M.S).compose(mod.r_theta.inverse())
    out = RegularMHA(
        A, M.B, M.C, s_b_new, s_c_new, delta_b_raw, delta_c_raw,
        eps_B=eps_b_new, eps_C=eps_c_new, S=s_new,
        name=M.name + "~", _shared_tensors=M._tensors,
    )
    rep = Report()
    # alternative expressions for the modified counits and antipode
    for side, eq, (_, _, eps_new, alt_eps) in zip(
            ("left", "right"), ("modified-lt-counit", "modified-rt-counit"), parts):
        rep.check(alt_eps == eps_new, "modified-%s-counit" % side, eq)
    alt_s = mod.l_theta.compose(M.S).compose(mod.theta_l.inverse())
    rep.check(alt_s == s_new, "modified-antipode", "modified-antipode")
    # canonical maps transform by one-leg twists; of M's maps only T_lambda
    # and T_rho are read, but all four domains are built, for out to share
    # those whose actions agree (see RegularMHA.tensor)
    for flavor in M._DOMAINS.values():
        M.tensor(flavor)
    try:
        for which, name, twist, leg, eq in (("T_lambda", "theta_r", mod.theta_r, 2, "theta-tl"),
                                            ("T_rho", "theta_l", mod.theta_l, 1, "theta-tr")):
            before, after = M.canonical_map(which)[0], out.canonical_map(which)[0]
            tw = _leg_twist(M.qb, name, twist, leg, out.qb)
            rep.check(after == tw.compose(before),
                      "canonical-%s-twist" % which.replace("_", "-"), eq)
    except NotBalanced as e:
        rep.check(False, "canonical-map-twists", "theta-tl", str(e))
    suite = verify_regular_mha(out)
    rep.merge(suite, prefix="modified")
    if not suite.ok:
        raise Rejected(
            "modification",
            "modified structure failed verification: %s"
            % [e.axiom for e in suite.failures()],
            rep,
        )
    if pre.status_of("self-adjoint") == "pass":
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
    return Modifier(sigma_half, sigma_half, sigma_neg, sigma_neg), Cocycle(d_vals, rep)


def crossed_rn_modifier(base_c, hopf, action, mu):
    """Derivative modifier for a crossed product from a quasi-invariant weight.

    Solves mu(S(h) . y) = mu(D_h y) for D: H -> C, verifies the cocycle
    law and the symmetry compatibility, and twists through the
    homomorphism y # h -> y D_(h1) # h2.
    """
    H, C = hopf, base_c
    mh, mc = H.dim, C.dim
    if not gram_map(C, mu).is_bijective():
        raise Rejected("base-weight-faithful", "weight on the module algebra is not faithful")
    gram_t = gram_transpose(C, mu)
    d_cols = []
    for h in range(mh):
        sol = gram_t.solve(functional_of_map(mu, action.operator(H.S.col(h))))
        if sol is None:
            raise Rejected("quasi-invariant", "weight is not quasi-invariant under the action")
        d_cols.append(sol)
    D = LinearMap(mc, mh, d_cols)
    ident_c, ident_h = LinearMap.identity(mc), LinearMap.identity(mh)
    L, m_c = action.action_map(), C.mul_map()
    rep = Report()
    rep.check(D.apply(H.H.unit()) == C.unit(), "cocycle-unital", "one-cocycle")
    # D_(hg) = D_(h1) (h2 . D_g): D m_H = m_C (D (x) L)(id (x) id (x) D)(Delta (x) id)
    d_acted = m_c.compose(kron(D, L))
    rep.check(D.compose(H.H.mul_map()) == d_acted.compose(kron(ident_h, ident_h, D))
              .compose(kron(H.delta, ident_h)), "cocycle-law", "one-cocycle")
    # D_(h1) (h2 . y) = (h1 . y) D_(h2):
    # m_C (D (x) L)(Delta (x) id) = m_C (L (x) D)(id (x) tau)(Delta (x) id)
    split = kron(H.delta, ident_c)
    rep.check(d_acted.compose(split) == m_c.compose(kron(L, D))
              .compose(kron(ident_h, LinearMap.flip(mh, mc))).compose(split),
              "symmetry-compatibility", "ch-symmetric")
    if not rep.ok:
        raise Rejected("one-cocycle", "derivative is not a unital one-cocycle", rep)
    # beta(y h) = y D_(h1) # h2 and beta_dag(y h) = D_(h2) y # h1
    lift = kron(m_c, ident_h)
    beta = lift.compose(kron(ident_c, D, ident_h)).compose(kron(ident_c, H.delta))
    beta_dag = (lift.compose(kron(D, ident_c, ident_h)).compose(LinearMap.flip(mc * mh, mh))
                .compose(kron(ident_c, H.delta)))
    ident = LinearMap.identity(mc * mh)
    mod = Modifier(beta_dag.inverse(), beta.inverse(), ident, ident)
    return mod, Cocycle(D, rep)


def twosided_rn_modifier(base_c, hopf, left_action, mu, sigma):
    """Bundle for the two-sided construction from a quasi-invariant weight.

    Returns a dict with the algebroid, modifier, counital weight and the
    stated partial integrals.  sigma must be a modular automorphism of mu
    compatible with the action through the square of the antipode; the
    left base is the opposite algebra carrying the antipode-transported
    right action.
    """
    from .examples import HopfAction, build_two_sided, standard_integrals

    H, C = hopf, base_c
    mh, mc = H.dim, C.dim
    rep = Report()
    rep.check(satisfies_modular_law(C, mu, sigma), "sigma-modular", "chb-modular")
    s2 = H.S.compose(H.S)
    ok = all(sigma.compose(left_action.acts[h]) == left_action.operator(s2.col(h)).compose(sigma)
             for h in range(mh))
    rep.check(ok, "sigma-action-compatibility", "chb-modular")
    if not rep.ok:
        raise Rejected("chb-modular", "modular automorphism incompatible with the action", rep)
    # derivative of mu
    _, cocycle = crossed_rn_modifier(C, H, left_action, mu)
    D = cocycle.values
    # sigma(D_h) = D_{S^2(h)} (consequence, checked)
    ok = all(sigma.apply(D.col(h)) == D.apply(s2.col(h)) for h in range(mh))
    rep.check(ok, "sigma-of-D", "chb-modular")
    # base B = C^op with the antipode-transported right action
    base_b = C.opposite()
    right_action = HopfAction(H, base_b, [left_action.operator(H.S.col(h)) for h in range(mh)],
                              side="right")
    s_b = LinearMap.identity(mc)  # y^op -> y
    s_c = sigma  # y -> sigma(y)^op
    M = build_two_sided(C, H, base_b, left_action, right_action, s_b, s_c)
    A, n = M.A, M.A.dim
    h_elems = kron(C.unit_map(), LinearMap.identity(mh), base_b.unit_map())
    m = A.mul_map()
    # beta_l(h) = (D_{h2})^op h1 and beta_r(h) = D_{h1} h2, multiplied out in A
    beta_l = m.compose(kron(M.B.embed.compose(D), h_elems)).compose(
        LinearMap.flip(mh, mh).compose(H.delta))
    beta_r = m.compose(kron(M.C.embed.compose(D), h_elems)).compose(H.delta)

    c_left, b_right = M._struct("l", "C").acts, M._struct("r", "B").acts

    def theta(beta):
        """y h x -> y beta(h) x."""
        def col(k):
            y, r = divmod(k, mh * mc)
            h, x = divmod(r, mc)
            return b_right[x].apply(c_left[y].apply(beta.col(h)))
        return LinearMap.from_function(n, n, col)

    theta_l, theta_r = theta(beta_l), theta(beta_r)
    ident = LinearMap.identity(n)
    mod = Modifier(theta_l.inverse(), theta_r.inverse(), ident, ident)
    # the opposite algebra shares coordinates, so mu is also the weight on B
    weight = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    phi_C, psi_B = standard_integrals("two-sided", M, hopf=hopf, upsilon=mu, omega=mu,
                                      base_b_dim=mc)
    return {
        "M": M,
        "modifier": mod,
        "weight": weight,
        "phi_C": phi_C,
        "psi_B": psi_B,
        "D": D,
        "report": rep,
    }
