"""Partial integrals, base weights, factorizable functionals, and the
assembly of measured quantum groupoids.

A partial left integral maps the total algebra to the right base and is
invariant under the comultiplications in three provably equivalent ways;
all three are checked and their agreement is itself a regression test.
Base weights are faithful functionals on the bases; counitality is the
load-bearing gate, and quasi-invariance is decided by the factorization
linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .balanced_tensor import NotBalanced
from .bialgebroid import RegularMHA
from .exact_linear import (
    ONE,
    LinearMap,
    Rref,
    axpy,
    ev,
    inverse,
    is_positive_semidefinite,
    vec_items,
    vsub,
)
from .report import Rejected, Report

__all__ = [
    "PartialIntegral",
    "BaseWeight",
    "FactorizableFunctional",
    "MeasuredMHA",
    "ev",
    "functional_of_map",
    "translate_left",
    "translate_right",
    "gram_map",
    "check_partial_integral",
    "solve_partial_integrals",
    "orbit_algebra",
    "expectation_identity",
    "factorize",
    "check_base_weight",
    "assemble_measured",
]


# -- functionals as sparse dual vectors --------------------------------------


def functional_of_map(mu, mapping):
    """The composition mu o mapping as a dual vector on the domain."""
    out = {}
    for a in range(mapping.cols):
        val = ev(mu, mapping.col(a))
        if val:
            out[a] = val
    return out


def translate_left(algebra, a_vec, omega):
    """(a . omega)(c) = omega(c a)."""
    return {
        j: v
        for j in range(algebra.dim)
        for v in (ev(omega, algebra.mul({j: ONE}, a_vec)),)
        if v
    }


def translate_right(algebra, omega, a_vec):
    """(omega . a)(c) = omega(a c)."""
    return {
        j: v
        for j in range(algebra.dim)
        for v in (ev(omega, algebra.mul(a_vec, {j: ONE})),)
        if v
    }


def gram_map(algebra, omega):
    """G[i][j] = omega(e_i e_j) as a LinearMap."""
    n = algebra.dim
    return LinearMap.from_function(
        n,
        n,
        lambda j: {
            i: v
            for i in range(n)
            for v in (ev(omega, algebra.mul({i: ONE}, {j: ONE})),)
            if v
        },
    )


# -- domain types -------------------------------------------------------------


@dataclass
class PartialIntegral:
    side: str  # "left": A -> C, "right": A -> B
    mapping: LinearMap
    report: Report | None = None

    def is_zero(self):
        return self.mapping.is_zero()


@dataclass
class BaseWeight:
    mu_B: dict
    mu_C: dict
    flags: dict = field(default_factory=dict)


@dataclass
class FactorizableFunctional:
    omega: dict
    factor_Bl: LinearMap  # omega(x a) = mu_B(x . Bl(a))
    factor_Br: LinearMap  # omega(a x) = mu_B(Br(a) . x)
    factor_Cl: LinearMap  # omega(y a) = mu_C(y . Cl(a))
    factor_Cr: LinearMap  # omega(a y) = mu_C(Cr(a) . y)


@dataclass
class MeasuredMHA:
    M: RegularMHA
    weight: BaseWeight
    phi_C: PartialIntegral
    psi_B: PartialIntegral
    phi: FactorizableFunctional
    psi: FactorizableFunctional
    report: Report

    _sigma = None  # side -> ModularAutomorphism, set by modular_automorphism


# -- partial integrals ---------------------------------------------------------


def _left_condition_a(M, phi):
    """phi in Hom(_C A, _C C) and (id (x) SB^-1 phi)(Delta_B(b)(a (x) 1)) = phi(b) a."""
    A, n = M.A, M.A.dim
    cc = M.C.base
    for y in range(cc.dim):
        cy = M.C.embed.col(y)
        for a in range(n):
            if phi.apply(A.mul(cy, {a: ONE})) != cc.mul({y: ONE}, phi.col(a)):
                return False, ("module", y, a)
    omega = M.B.embed.compose(M.S_B.inverse()).compose(phi)  # A -> A via iota_B SB^-1 phi
    qb = M.qb
    try:
        sl = qb.slice(omega, 2, "left", what="partial-left slice (a)")
    except NotBalanced as e:
        return False, str(e)
    for b in range(n):
        db = M.delta_B.col(b)
        target_head = M.C.embed.apply(phi.col(b))
        for a in range(n):
            lhs = sl.apply(qb.rmul1({a: ONE}).apply(db))
            if lhs != A.mul(target_head, {a: ONE}):
                return False, ("deltab", b, a)
    return True, None


def _left_condition_b(M, phi):
    """phi in Hom(A_C, C_C) and (id (x) phi)((a (x) 1)Delta_C(b)) = a phi(b)."""
    A, n = M.A, M.A.dim
    cc = M.C.base
    for y in range(cc.dim):
        cy = M.C.embed.col(y)
        for a in range(n):
            if phi.apply(A.mul({a: ONE}, cy)) != cc.mul(phi.col(a), {y: ONE}):
                return False, ("module", y, a)
    omega = M.emb_SC().compose(phi)  # A -> A via iota_B S_C phi
    qc = M.qc
    try:
        sl = qc.slice(omega, 2, "right", what="partial-left slice (b)")
    except NotBalanced as e:
        return False, str(e)
    for b in range(n):
        dc = M.delta_C.col(b)
        target_tail = M.C.embed.apply(phi.col(b))
        for a in range(n):
            lhs = sl.apply(qc.lmul1({a: ONE}).apply(dc))
            if lhs != A.mul({a: ONE}, target_tail):
                return False, ("deltac", b, a)
    return True, None


def _left_condition_c(M, phi):
    """Two-sided module map plus the strong-invariance diagram."""
    ok, wit = _both_sided_module(M, phi, "left")
    if not ok:
        return False, wit
    canon = M.canonical()
    t_rho, dom_tr = canon["T_rho"]
    rho_t, dom_rt = canon["rho_T"]
    try:
        sl_qb = M.qb.slice(
            M.B.embed.compose(M.S_B.inverse()).compose(phi), 2, "left",
            what="strong-invariance slice",
        )
        sl_qc = M.qc.slice(M.emb_SC().compose(phi), 2, "right",
                           what="strong-invariance slice")
        flip = dom_tr.flip_to(dom_rt)
    except NotBalanced as e:
        return False, str(e)
    lhs = M.S.compose(sl_qb).compose(t_rho)
    rhs = sl_qc.compose(rho_t).compose(flip)
    if lhs != rhs:
        return False, "strong-invariance diagram"
    return True, None


def _right_condition_a(M, psi):
    A, n = M.A, M.A.dim
    bb = M.B.base
    for x in range(bb.dim):
        bx = M.B.embed.col(x)
        for a in range(n):
            if psi.apply(A.mul(bx, {a: ONE})) != bb.mul({x: ONE}, psi.col(a)):
                return False, ("module", x, a)
    omega = M.emb_SB().compose(psi)  # c -> iota_C(S_B(psi(c)))
    qb = M.qb
    try:
        sl = qb.slice(omega, 1, "left", what="partial-right slice (a)")
    except NotBalanced as e:
        return False, str(e)
    for a in range(n):
        da = M.delta_B.col(a)
        head = M.B.embed.apply(psi.col(a))
        for b in range(n):
            lhs = sl.apply(qb.rmul2({b: ONE}).apply(da))
            if lhs != A.mul(head, {b: ONE}):
                return False, ("deltab", a, b)
    return True, None


def _right_condition_b(M, psi):
    A, n = M.A, M.A.dim
    bb = M.B.base
    for x in range(bb.dim):
        bx = M.B.embed.col(x)
        for a in range(n):
            if psi.apply(A.mul({a: ONE}, bx)) != bb.mul(psi.col(a), {x: ONE}):
                return False, ("module", x, a)
    omega = M.C.embed.compose(M.S_C.inverse()).compose(psi)  # iota_C S_C^-1 psi
    qc = M.qc
    try:
        sl = qc.slice(omega, 1, "right", what="partial-right slice (b)")
    except NotBalanced as e:
        return False, str(e)
    for a in range(n):
        dc = M.delta_C.col(a)
        tail = M.B.embed.apply(psi.col(a))
        for b in range(n):
            lhs = sl.apply(qc.lmul2({b: ONE}).apply(dc))
            if lhs != A.mul({b: ONE}, tail):
                return False, ("deltac", a, b)
    return True, None


def _right_condition_c(M, psi):
    ok, wit = _both_sided_module(M, psi, "right")
    if not ok:
        return False, wit
    canon = M.canonical()
    t_lambda, dom_tl = canon["T_lambda"]
    lambda_t, dom_lt = canon["lambda_T"]
    try:
        sl_qb = M.qb.slice(M.emb_SB().compose(psi), 1, "left",
                           what="strong-invariance slice")
        sl_qc = M.qc.slice(
            M.C.embed.compose(M.S_C.inverse()).compose(psi), 1, "right",
            what="strong-invariance slice",
        )
        flip = dom_lt.flip_to(dom_tl)
    except NotBalanced as e:
        return False, str(e)
    lhs = sl_qb.compose(t_lambda).compose(flip)
    rhs = M.S.compose(sl_qc).compose(lambda_t)
    if lhs != rhs:
        return False, "strong-invariance diagram"
    return True, None


def _both_sided_module(M, mapping, side):
    """mapping(e a) = e' mapping(a) and mapping(a e) = mapping(a) e' for the base."""
    A, n = M.A, M.A.dim
    base, emb = (M.C.base, M.C.embed) if side == "left" else (M.B.base, M.B.embed)
    for x in range(base.dim):
        es = emb.col(x)
        for a in range(n):
            if mapping.apply(A.mul(es, {a: ONE})) != base.mul({x: ONE}, mapping.col(a)):
                return False, ("left-module", x, a)
            if mapping.apply(A.mul({a: ONE}, es)) != base.mul(mapping.col(a), {x: ONE}):
                return False, ("right-module", x, a)
    return True, None


def check_partial_integral(M, mapping, side):
    """Evaluate all three invariance characterizations; they must agree."""
    if isinstance(mapping, PartialIntegral):
        mapping = mapping.mapping
    expected = M.C.base.dim if side == "left" else M.B.base.dim
    if mapping.rows != expected or mapping.cols != M.A.dim:
        raise ValueError(
            "partial %s integral must map A (dim %d) to the %s base (dim %d)"
            % (side, M.A.dim, "right" if side == "left" else "left", expected)
        )
    rep = Report()
    conds = (
        (_left_condition_a, _left_condition_b, _left_condition_c)
        if side == "left"
        else (_right_condition_a, _right_condition_b, _right_condition_c)
    )
    eqs = (
        ("partial-right-deltab", "partial-right-deltac", "dg-strong-invariance-left")
        if side == "left"
        else ("partial-left-deltab", "partial-left-deltac", "dg-strong-invariance-right")
    )
    verdicts = []
    for cond, eq, tag in zip(conds, eqs, ("a", "b", "c")):
        ok, wit = cond(M, mapping)
        verdicts.append(ok)
        rep.check(ok, "invariance-(%s)" % tag, eq, wit)
    rep.check(
        len(set(verdicts)) == 1,
        "characterizations-agree",
        "partial-integrals",
        verdicts,
    )
    if mapping.is_zero():
        rep.note("degenerate", "partial-integrals", "pass", "zero map")
    return rep


def solve_partial_integrals(M, side):
    """Basis of the space of partial integrals, via condition (b)/(a).

    Returns (basis, report); the report records the bimodule stability
    of the space and the antipode bijection onto the other side.
    """
    A, n = M.A, M.A.dim
    base = M.C.base if side == "left" else M.B.base
    dim_b = base.dim
    cols = [dict() for _ in range(n * dim_b)]
    eqno = 0
    stride = max(n, dim_b)

    def put(col_idx, coeff, vec):
        axpy(cols[col_idx], coeff, vec, eqno * stride)

    if side == "left":
        emb = M.C.embed
        embed_val = M.emb_SC()
        qc = M.qc
        for y in range(dim_b):
            cy = emb.col(y)
            for a in range(n):
                # phi(a s(y)) - phi(a) y = 0
                for i, c in A.mul({a: ONE}, cy).items():
                    for yb in range(dim_b):
                        put(i * dim_b + yb, c, {yb: ONE})
                for yb in range(dim_b):
                    put(a * dim_b + yb, -ONE, base.mul({yb: ONE}, {y: ONE}))
                eqno += 1
        for b in range(n):
            dc = M.delta_C.col(b)
            for a in range(n):
                lifted = qc.lift(qc.lmul1({a: ONE}).apply(dc))
                # sum c_i * iota_B(S_C(phi(d_i))) - a iota_C(phi(b)) = 0
                for idx, c in lifted.items():
                    i, j = divmod(idx, n)
                    for yb in range(dim_b):
                        put(j * dim_b + yb, c, A.mul({i: ONE}, embed_val.col(yb)))
                for yb in range(dim_b):
                    put(b * dim_b + yb, -ONE, A.mul({a: ONE}, emb.col(yb)))
                eqno += 1
    else:
        emb = M.B.embed
        embed_val = M.emb_SB()
        qb = M.qb
        for x in range(dim_b):
            bx = emb.col(x)
            for a in range(n):
                # psi(s(x) a) - x psi(a) = 0
                for i, c in A.mul(bx, {a: ONE}).items():
                    for xb in range(dim_b):
                        put(i * dim_b + xb, c, {xb: ONE})
                for xb in range(dim_b):
                    put(a * dim_b + xb, -ONE, base.mul({x: ONE}, {xb: ONE}))
                eqno += 1
        for a in range(n):
            da = M.delta_B.col(a)
            for b in range(n):
                lifted = qb.lift(qb.rmul2({b: ONE}).apply(da))
                # sum iota_C(S_B(psi(c_i))) d_i - iota_B(psi(a)) b = 0
                for idx, c in lifted.items():
                    i, j = divmod(idx, n)
                    for xb in range(dim_b):
                        put(i * dim_b + xb, c, A.mul(embed_val.col(xb), {j: ONE}))
                for xb in range(dim_b):
                    put(a * dim_b + xb, -ONE, A.mul(emb.col(xb), {b: ONE}))
                eqno += 1
    system = LinearMap(eqno * stride, n * dim_b, cols)
    basis = []
    for w in system.kernel_basis():
        basis.append(
            LinearMap.from_function(
                dim_b,
                n,
                lambda a, w=w: {
                    x: w[a * dim_b + x] for x in range(dim_b) if a * dim_b + x in w
                },
            )
        )
    rep = Report()
    for k, mapping in enumerate(basis):
        sub = check_partial_integral(M, mapping, side)
        rep.check(sub.ok, "solution-%d-invariant" % k, "partial-integrals",
                  [e.axiom for e in sub.failures()])
    # bimodule stability: x . phi . x' stays in the span
    span = Rref()
    flat = []
    for mapping in basis:
        v = {}
        for a in range(n):
            for x, s in mapping.col(a).items():
                v[a * dim_b + x] = s
        span.add(v)
        flat.append(v)
    other_emb = M.B.embed if side == "left" else M.C.embed
    other_dim = other_emb.cols
    ok = True
    for mapping in basis:
        for u in range(other_dim):
            eu = other_emb.col(u)
            for v in range(other_dim):
                ev_ = other_emb.col(v)
                moved = LinearMap.from_function(
                    dim_b,
                    n,
                    lambda a: mapping.apply(A.mul(ev_, A.mul({a: ONE}, eu))),
                )
                w = {}
                for a in range(n):
                    for x, s in moved.col(a).items():
                        w[a * dim_b + x] = s
                if not span.contains(w):
                    ok = False
    rep.check(ok, "bimodule-stability", "partial-integrals-bimodule-antipode")
    # S^{+-1} o phi o S^{-+1} swaps the two solution spaces; S agrees with
    # the base anti-isomorphisms on the embedded bases
    other_side = "right" if side == "left" else "left"
    if side == "left":
        converters = [
            lambda m: M.S_C.compose(m).compose(M.S.inverse()),
            lambda m: M.S_B.inverse().compose(m).compose(M.S),
        ]
    else:
        converters = [
            lambda m: M.S_B.compose(m).compose(M.S.inverse()),
            lambda m: M.S_C.inverse().compose(m).compose(M.S),
        ]
    ok = True
    for mapping in basis:
        for conv in converters:
            if not check_partial_integral(M, conv(mapping), other_side).ok:
                ok = False
    rep.check(ok, "antipode-swaps-sides", "partial-integrals-bimodule-antipode")
    return basis, rep


def orbit_algebra(M):
    """Basis of O = M(B) n M(C) and the ergodicity characterizations."""
    A, n = M.A, M.A.dim
    rep = Report()
    # properness: products of base elements stay in A (trivial here, checked)
    ok = True
    for x in range(M.B.base.dim):
        for y in range(M.C.base.dim):
            A.mul(M.B.embed.col(x), M.C.embed.col(y))
    rep.check(ok, "proper", "proper")
    # intersection of the embedded bases
    cols = []
    for x in range(M.B.base.dim):
        cols.append(dict(M.B.embed.col(x)))
    for y in range(M.C.base.dim):
        cols.append({k: -s for k, s in M.C.embed.col(y).items()})
    stacked = LinearMap(n, M.B.base.dim + M.C.base.dim, cols)
    orbit = []
    seen = Rref()
    for w in stacked.kernel_basis():
        v = {}
        for x in range(M.B.base.dim):
            c = w.get(x)
            if c:
                axpy(v, c, M.B.embed.col(x))
        if v and seen.add(v) is not None:
            orbit.append(v)
    # the antipode fixes the orbit algebra pointwise
    ok = all(M.S.apply(v) == v for v in orbit)
    rep.check(ok, "antipode-trivial-on-orbit", "orbit-antipode")
    one = A.unit()
    ergodic = len(orbit) == 1 and one is not None and _proportional(orbit[0], one)
    rep.note("ergodic", "ergodic", "pass" if ergodic else "fail",
             None if ergodic else "orbit algebra has dimension %d" % len(orbit))
    # fixed-point characterization of M(B), valid given a surjective integral
    sols, _ = _ergodic_characterization(M)
    if sols is not None:
        img = M.B.image_rref()
        same = len(sols) == M.B.base.dim and all(img.contains(v) for v in sols)
        rep.check(same, "MB-fixed-point-characterization", "ergodic")
    return orbit, rep


def _proportional(u, v):
    items = sorted(u.items())
    jtems = sorted(v.items())
    if [i for i, _ in items] != [j for j, _ in jtems]:
        return False
    if not items:
        return True
    # v is the unit, whose entries are rational: each Scalar goes on the right
    ratio = inverse(jtems[0][1]) * items[0][1]
    return all(s == t * ratio for (_, s), (_, t) in zip(items, jtems))


def _ergodic_characterization(M):
    """Solve {z in C' : Delta_B(z) = 1 (x) z}; returns (basis, None)."""
    A, n = M.A, M.A.dim
    one = A.unit()
    if one is None:
        return None, None
    qb = M.qb
    cols = [dict() for _ in range(n)]
    stride = max(n, qb.dim)
    eqno = 0
    for y in range(M.C.base.dim):
        cy = M.C.embed.col(y)
        lm, rm = A.lmul(cy), A.rmul(cy)
        for j in range(n):
            axpy(cols[j], ONE, vsub(lm.col(j), rm.col(j)), eqno * stride)
        eqno += 1
    for j in range(n):
        axpy(cols[j], ONE, vsub(M.delta_B.col(j), qb.pure(one, {j: ONE})), eqno * stride)
    eqno += 1
    system = LinearMap(eqno * stride, n, cols)
    return system.kernel_basis(), None


def expectation_identity(M, phi_C, psi_B):
    """phi_C|_B o psi_B = psi_B|_C o phi_C as maps into the orbit algebra."""
    if isinstance(phi_C, PartialIntegral):
        phi_C = phi_C.mapping
    if isinstance(psi_B, PartialIntegral):
        psi_B = psi_B.mapping
    A, n = M.A, M.A.dim
    rep = Report()
    orbit, _ = orbit_algebra(M)
    orbit_span = Rref()
    for v in orbit:
        orbit_span.add(v)
    ok, wit = True, None
    for a in range(n):
        lhs = M.C.embed.apply(phi_C.apply(M.B.embed.apply(psi_B.col(a))))
        rhs = M.B.embed.apply(psi_B.apply(M.C.embed.apply(phi_C.col(a))))
        if lhs != rhs:
            ok, wit = False, {"at": M.A.labels[a], "lhs": vec_items(lhs),
                              "rhs": vec_items(rhs)}
            break
        if not orbit_span.contains(lhs):
            ok, wit = False, {"at": M.A.labels[a], "outside-orbit": vec_items(lhs)}
            break
    rep.check(ok, "expectation-identity", "proper-composed-partial-integrals", wit)
    return rep


# -- factorization -------------------------------------------------------------


def factorize(M, weight, omega):
    """Solve the four factorization systems; None if any side is unsolvable.

    With a faithful weight on a unital algebra the Gram solves always
    succeed; an unsolvable side indicates a degenerate weight and is
    reported by name.
    """
    A, n = M.A, M.A.dim
    bb, cc = M.B.base, M.C.base
    gram_b = gram_map(bb, weight.mu_B)
    gram_c = gram_map(cc, weight.mu_C)
    factors = {}
    recipes = {
        "Bl": (gram_b, lambda a: {
            x: v for x in range(bb.dim)
            for v in (ev(omega, A.mul(M.B.embed.col(x), {a: ONE})),) if v
        }),
        "Br": (gram_b.transpose(), lambda a: {
            x: v for x in range(bb.dim)
            for v in (ev(omega, A.mul({a: ONE}, M.B.embed.col(x))),) if v
        }),
        "Cl": (gram_c, lambda a: {
            y: v for y in range(cc.dim)
            for v in (ev(omega, A.mul(M.C.embed.col(y), {a: ONE})),) if v
        }),
        "Cr": (gram_c.transpose(), lambda a: {
            y: v for y in range(cc.dim)
            for v in (ev(omega, A.mul({a: ONE}, M.C.embed.col(y))),) if v
        }),
    }
    for name, (gram, target) in recipes.items():
        cols = []
        for a in range(n):
            sol = gram.solve(target(a))
            if sol is None:
                return None, name
            cols.append(sol)
        dim = bb.dim if name.startswith("B") else cc.dim
        factors[name] = LinearMap(dim, n, cols)
    # consistency: mu_B o Bl = omega = mu_C o Cr
    if functional_of_map(weight.mu_B, factors["Bl"]) != dict(omega):
        return None, "Bl"
    if functional_of_map(weight.mu_C, factors["Cr"]) != dict(omega):
        return None, "Cr"
    return (
        FactorizableFunctional(
            dict(omega), factors["Bl"], factors["Br"], factors["Cl"], factors["Cr"]
        ),
        None,
    )


def check_base_weight(M, weight):
    """Faithful / antipodal / modular / counital / positive flags."""
    rep = Report()
    bb, cc = M.B.base, M.C.base
    gram_b = gram_map(bb, weight.mu_B)
    gram_c = gram_map(cc, weight.mu_C)
    faithful = gram_b.is_bijective() and gram_c.is_bijective()
    rep.check(faithful, "faithful", "base-weight-faithful")
    antipodal = functional_of_map(weight.mu_B, M.S_C) == dict(weight.mu_C) and \
        functional_of_map(weight.mu_C, M.S_B) == dict(weight.mu_B)
    rep.check(antipodal, "antipodal", "base-weight-antipodal")
    sigma_b = M.S_B.inverse().compose(M.S_C.inverse())
    sigma_c = M.S_B.compose(M.S_C)
    modular = _is_modular(bb, weight.mu_B, sigma_b) and _is_modular(cc, weight.mu_C, sigma_c)
    rep.check(modular, "modular", "base-weight-modular")
    eps_b_func = functional_of_map(weight.mu_B, M.eps_B)
    eps_c_func = functional_of_map(weight.mu_C, M.eps_C)
    counital = antipodal and eps_b_func == eps_c_func
    rep.check(counital, "counital", "base-weight-counital",
              None if counital else {
                  "mu_B.eps_B": vec_items(eps_b_func),
                  "mu_C.eps_C": vec_items(eps_c_func),
              })
    if M.A.involution is not None:
        pos_b = _weight_positive(bb, weight.mu_B)
        pos_c = _weight_positive(cc, weight.mu_C)
        rep.check(pos_b and pos_c, "positive", "base-weight-positive")
    if counital:
        # a counital base weight is modular (meta-test, needs surjective counits)
        if M.eps_B.is_surjective() and M.eps_C.is_surjective():
            rep.check(modular, "counital-implies-modular", "counit-kms")
        # the counit functional is invariant under the antipode
        eps_s = {a: v for a in range(M.A.dim)
                 for v in (ev(eps_b_func, M.S.col(a)),) if v}
        rep.check(eps_s == eps_c_func, "counit-functional-S-invariant", "counit-antipode")
    return rep


def _is_modular(base, mu, sigma):
    for x in range(base.dim):
        sx = sigma.col(x)
        for y in range(base.dim):
            lhs = ev(mu, base.mul({x: ONE}, {y: ONE}))
            rhs = ev(mu, base.mul({y: ONE}, sx))
            if lhs != rhs:
                return False
    return True


def _weight_positive(base, mu):
    if base.involution is None:
        return False
    n = base.dim
    h = [
        [ev(mu, base.mul(base.star({i: ONE}), {j: ONE})) for j in range(n)]
        for i in range(n)
    ]
    return is_positive_semidefinite(h)


def assemble_measured(M, weight, phi_C, psi_B):
    """Gatekeeper for the measured structure; raises Rejected on failure."""
    if not isinstance(phi_C, PartialIntegral):
        phi_C = PartialIntegral("left", phi_C)
    if not isinstance(psi_B, PartialIntegral):
        psi_B = PartialIntegral("right", psi_B)
    rep = Report()
    sub = check_partial_integral(M, phi_C.mapping, "left")
    rep.merge(sub, prefix="phi_C")
    if not sub.ok:
        raise Rejected("partial-integrals", "phi_C is not a partial left integral", rep)
    sub = check_partial_integral(M, psi_B.mapping, "right")
    rep.merge(sub, prefix="psi_B")
    if not sub.ok:
        raise Rejected("partial-integrals", "psi_B is not a partial right integral", rep)
    if phi_C.is_zero() or psi_B.is_zero():
        raise Rejected("partial-integrals", "degenerate (zero) partial integral", rep)
    wrep = check_base_weight(M, weight)
    rep.merge(wrep, prefix="weight")
    if wrep.status_of("faithful") != "pass":
        raise Rejected("base-weight-faithful", "base weight is not faithful", rep)
    if wrep.status_of("counital") != "pass":
        raise Rejected(
            "base-weight-counital",
            "base weight is not counital",
            rep,
            hint="apply a comultiplication modifier (recipe groupoid_rn)",
        )
    phi_func = functional_of_map(weight.mu_C, phi_C.mapping)
    psi_func = functional_of_map(weight.mu_B, psi_B.mapping)
    phi, side = factorize(M, weight, phi_func)
    rep.check(phi is not None, "phi-quasi-invariant", "quasi-invariant", side)
    if phi is None:
        raise Rejected("quasi-invariant", "phi does not factorize (side %s)" % side, rep)
    psi, side = factorize(M, weight, psi_func)
    rep.check(psi is not None, "psi-quasi-invariant", "quasi-invariant", side)
    if psi is None:
        raise Rejected("quasi-invariant", "psi does not factorize (side %s)" % side, rep)
    full_phi = phi.factor_Bl.is_surjective() and phi.factor_Br.is_surjective()
    full_psi = psi.factor_Cl.is_surjective() and psi.factor_Cr.is_surjective()
    rep.check(full_phi, "phi-full", "full")
    rep.check(full_psi, "psi-full", "full")
    if not (full_phi and full_psi):
        raise Rejected("full", "integrals are not full", rep)
    # fullness forces surjective partial integrals (meta-test)
    rep.check(
        phi_C.mapping.is_surjective() and psi_B.mapping.is_surjective(),
        "partial-integrals-surjective",
        "full",
    )
    gram_phi = gram_map(M.A, phi_func)
    gram_psi = gram_map(M.A, psi_func)
    rep.check(gram_phi.is_bijective(), "phi-faithful", "integrals-faithful")
    rep.check(gram_psi.is_bijective(), "psi-faithful", "integrals-faithful")
    if not (gram_phi.is_bijective() and gram_psi.is_bijective()):
        raise Rejected("integrals-faithful", "total integrals are not faithful", rep)
    if M.A.involution is not None:
        pos = _total_positive(M.A, phi_func) and _total_positive(M.A, psi_func)
        rep.check(pos, "totals-positive", "base-weight-positive")
    return MeasuredMHA(M, weight, phi_C, psi_B, phi, psi, rep)


def _total_positive(algebra, omega):
    n = algebra.dim
    h = [
        [ev(omega, algebra.mul(algebra.star({i: ONE}), {j: ONE})) for j in range(n)]
        for i in range(n)
    ]
    return is_positive_semidefinite(h)
