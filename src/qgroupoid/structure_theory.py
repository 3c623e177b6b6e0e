"""Modular theory and the dual algebra of a measured quantum groupoid.

The modular automorphism and modular elements come out of linear solves
against the faithful Gram pairing of the total integral, never from
symbolic manipulation; the dual algebra's convolution product is
computed through the inverse of a canonical map and cross-checked
against direct functional composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import bialgebroid
from .algebra_core import (
    FiniteAlgebra,
    ModuleStructure,
    automorphism_check,
    generating_basis,
)
from .balanced_tensor import NotBalanced, module_maps, unkept
from .bialgebroid import _ONE_SIDED, _Half, _halves, _hom_space, _mirrored
from .exact_linear import (
    ONE,
    LinearMap,
    Rref,
    axpy,
    ev,
)
from .integration import (
    FactorizableFunctional,
    _integral_slice,
    _partial_integral_basis,
    factorize,
    functional_of_map,
    gram_map,
    gram_transpose,
    satisfies_modular_law,
    translate_left,
    translate_right,
)
from .report import Rejected, Report, first_failure, witness

__all__ = [
    "ConvolutionOperator",
    "ModularAutomorphism",
    "ModularElement",
    "DualAlgebra",
    "convolution",
    "modular_automorphism",
    "modular_element",
    "uniqueness_check",
    "local_projectivity",
    "faithfulness_check",
    "dual_algebra",
    "haar_analysis",
]


@dataclass
class ConvolutionOperator:
    operator: LinearMap
    source: FactorizableFunctional
    report: Report


@dataclass
class ModularAutomorphism:
    side: str
    mapping: LinearMap
    report: Report


@dataclass
class ModularElement:
    delta_plus: dict  # the element of A
    delta_minus: dict
    report: Report


@dataclass
class DualAlgebra:
    algebra: FiniteAlgebra
    report: Report


# -- convolution operators ------------------------------------------------------


def convolution(X, upsilon, kind):
    """Left or right convolution operator of a factorizable functional.

    Each half h builds the operator as its slice sl_h of Delta_h: lambda
    consumes leg 1 by the factors Bl (on B) and Br (on C), rho leg 2 by Cl
    and Cr, each embedded as in ``integration._integral_slice``.  Checks
    that the two agree, that the defining product forms hold against every
    basis element, and the counit identity eps o lambda(Bv) = v.

    The product forms, sl_h of Delta_h(a) with e_b absorbed equal to
    op(a) e_b in h's order, are the slice laws of ``slice_cases``
    with head op, B's operator.  Under ``_slice_identity`` they follow
    from the agreement, op_h = sl_h o Delta_h, and are not scanned.
    """
    M = X.M
    rep = Report()
    if not isinstance(upsilon, FactorizableFunctional):
        got, side = factorize(M, X.weight, upsilon)
        if got is None:
            raise Rejected("factorizable", "functional does not factorize (%s)" % side)
        upsilon = got
    if kind == "lambda":
        leg, factors = 1, (upsilon.factor_Bl, upsilon.factor_Br)
    elif kind == "rho":
        leg, factors = 2, (upsilon.factor_Cl, upsilon.factor_Cr)
    else:
        raise ValueError("kind must be 'lambda' or 'rho'")
    laws = [(h, leg, _integral_slice(h, leg, factor, "%s slice (%s)" % (kind, h.letter)))
            for h, factor in zip(_halves(M), factors)]
    op, op_c = (sl.compose(h.delta) for h, _, sl in laws)
    rep.check(op == op_c, "two-sided-agreement", "convolution")
    ok = ((op == op_c and bialgebroid._slice_identity(M.A))
          or first_failure(bialgebroid.slice_cases(laws, op.col)) is None)
    rep.check(ok, "product-forms", "convolution")
    eps_func = functional_of_map(X.weight.mu_B, M.eps_B)
    rep.check(functional_of_map(eps_func, op) == upsilon.omega,
              "counit-recovers-functional", "convolution")
    return ConvolutionOperator(op, upsilon, rep)


def convolution_counit_identity(X):
    """lambda of the counit factors and rho of them act as the identity."""
    M = X.M
    eps_func = functional_of_map(X.weight.mu_B, M.eps_B)
    fact, _ = factorize(M, X.weight, eps_func)
    rep = Report()
    lam = convolution(X, fact, "lambda")
    rho = convolution(X, fact, "rho")
    ident = LinearMap.identity(M.A.dim)
    rep.check(lam.operator == ident, "lambda-of-counit", "convolution-counit")
    rep.check(rho.operator == ident, "rho-of-counit", "convolution-counit")
    rep.merge(lam.report, prefix="lambda")
    rep.merge(rho.report, prefix="rho")
    return rep


# -- modular automorphism ----------------------------------------------------------


def modular_automorphism(X, side="left"):
    """sigma with omega(ab) = omega(b sigma(a)), from the Gram pairing.

    Memoized per measured instance and side in ``X._sigma``; callers only
    read the result (``Report.merge`` copies its entries).
    """
    if X._sigma is None:
        X._sigma = {}
    if side not in X._sigma:
        X._sigma[side] = _modular_automorphism(X, side)
    return X._sigma[side]


def _modular_automorphism(X, side):
    M = X.M
    A, n = M.A, M.A.dim
    left = side == "left"
    omega = X.phi.omega if left else X.psi.omega
    g = gram_map(A, omega)
    if not g.is_bijective():
        raise Rejected("integrals-faithful", "total integral has singular Gram matrix")
    sigma = g.inverse().compose(gram_transpose(A, omega))
    rep = Report()
    ok, wit = automorphism_check(A, sigma)
    rep.check(ok, "sigma-automorphism", "modular-automorphism", wit)
    rep.check(satisfies_modular_law(A, omega, sigma), "sigma-defining-relation",
              "modular-automorphism")
    # the left side is the B half's: sigma is S^2 on C and twists Delta by
    # S^2 on the t leg; the right side mirrors it with S^-2 on B
    pairs = _mirrored(M)
    h, other = pairs[0 if left else 1]
    S = M.S if left else M.S.inverse()
    s2 = S.compose(S)
    ok = all(sigma.apply(other.s.col(y)) == s2.apply(other.s.col(y))
             for y in range(other.base.dim))
    rep.check(ok, "sigma-restricts-to-%s-on-%s" % ("S2" if left else "Sminus2", other.letter),
              "modular-automorphism")
    try:
        for half in _halves(M):
            tw = half.q.descend(*h.ordered(s2, sigma),
                                message="twist (x) sigma does not descend {src!r} -> {dst!r}")
            ok = half.delta.compose(sigma) == tw.compose(half.delta)
            rep.check(ok, "delta-%s-intertwined" % half.letter, "modular-automorphism")
    except NotBalanced as e:
        rep.check(False, "delta-intertwinings", "modular-automorphism", str(e))
    # sigma preserves the side's own base (tested unconditionally, reported)
    img = h.embedding.image_rref()
    ok = all(img.contains(sigma.apply(h.s.col(x))) for x in range(h.base.dim))
    rep.check(ok, "sigma-preserves-base", "modular-automorphism")
    if left and ok:
        _factor_twist_checks(X, sigma, rep)
    # each total integral relates the other half's base through S^2:
    # phi(y a) = phi(a S^2(y)) on C, and psi(a x) = psi(S^2(x) a) on B
    # (y a in half's order is a y in mirror's)
    s2 = M.S.compose(M.S)
    ok = all(
        ev(total, acts[y].col(a))
        == ev(total, half.mul({a: ONE}, s2.apply(mirror.s.col(y))))
        for (half, mirror), total in zip(pairs, (X.phi.omega, X.psi.omega))
        for acts in (mirror.struct("s", first=False).acts,)
        for y in range(mirror.base.dim)
        for a in range(n)
    )
    rep.check(ok, "base-elements-under-totals", "integrals-modular-base")
    return ModularAutomorphism(side, sigma, rep)


def _factor_twist_checks(X, sigma, rep):
    """phi_B(x a) = (S^2 sigma)(x) phi_B(a) and the mirrored law
    phi_B(a x) = phi_B(a) (sigma S^2)^-1(x), for x in B: the factor is a
    module map from x acting on A to tw(x) acting on B, tw(x) the
    preimage in B of the twist of x, by ``unkept``.  A law fails
    where some twist leaves B."""
    M = X.M
    emb = M.B.embed
    s2 = M.S.compose(M.S)
    for name, factor, twist, kind in (
            ("phi-B-factor-twist", X.phi.factor_Br, s2.compose(sigma), "l"),
            ("B-phi-factor-twist", X.phi.factor_Bl, sigma.compose(s2).inverse(), "r")):
        own = M._own_struct(kind, "B")
        pre = [emb.solve(twist.apply(emb.col(x))) for x in range(M.B.base.dim)]
        ok = None not in pre
        if ok:
            tw = ModuleStructure(own.base, own.total, [own.operator(v) for v in pre], own.side)
            ok = first_failure(unkept([(factor, M._struct(kind, "B"), tw)])) is None
        rep.check(ok, name, "bphi-phib")


# -- modular element -------------------------------------------------------------


def modular_element(X):
    """The invertible elements delta+ and delta- of A relating phi to phi o S^{-+1}."""
    M = X.M
    A, n = M.A, M.A.dim
    phi = X.phi.omega
    g = gram_map(A, phi)  # g.col(k)[a] = phi(e_a e_k)
    psi_plus = functional_of_map(phi, M.S)
    s_inv = M.S.inverse()
    psi_minus = functional_of_map(phi, s_inv)
    delta_plus = g.solve(psi_plus)
    delta_minus = gram_transpose(A, phi).solve(psi_minus)
    rep = Report()
    rep.check(delta_plus is not None and delta_minus is not None,
              "modular-elements-exist", "modular-element-second")
    if delta_plus is None or delta_minus is None:
        raise Rejected("modular-element-second", "no modular element", rep)
    inv_plus = _algebra_inverse(A, delta_plus)
    inv_minus = _algebra_inverse(A, delta_minus)
    rep.check(inv_plus is not None and inv_minus is not None,
              "modular-elements-invertible", "modular-element-second")
    # S(delta+) = (delta-)^{-1}
    rep.check(M.S.apply(delta_plus) == inv_minus, "S-of-delta-plus", "modular-element-second")
    # delta- S(delta+) acts as the identity on phi
    prod = A.mul(delta_minus, M.S.apply(delta_plus))
    rep.check(prod == A.unit(), "delta-minus-S-delta-plus", "modular-element-second")
    # counit absorption
    eps_func = functional_of_map(X.weight.mu_B, M.eps_B)
    rep.check(translate_right(A, eps_func, delta_minus) == eps_func,
              "eps-absorbs-delta-minus", "modular-element-second")
    rep.check(translate_left(A, delta_plus, eps_func) == eps_func,
              "eps-absorbs-delta-plus", "modular-element-second")
    # grouplike relations: Delta_B(d+) = d+ (x) d+, Delta_B(d-) = d+ (x) d-
    # and, on C, the mirror with d+ and d- exchanged
    deltas = {"plus": delta_plus, "minus": delta_minus}
    for h, own, other in zip(_halves(M), ("plus", "minus"), ("minus", "plus")):
        for name in (own, other):
            rep.check(h.delta.apply(deltas[name]) == h.q.pure(deltas[own], deltas[name]),
                      "delta-%s-grouplike-%s" % (h.letter, name), "modular-element-second")
    if A.involution is not None:
        rep.check(A.star(delta_minus) == delta_plus, "delta-star", "modular-element-second")
    # relation to the lambda operator of phi itself
    lam = convolution(X, X.phi, "lambda").operator
    b_left, b_right = M._struct("l", "B"), M._struct("r", "B")
    ok = all(
        b_left.act(X.phi.factor_Bl.col(a), delta_plus) == lam.col(a)
        and b_right.act(X.phi.factor_Br.col(a), delta_minus) == lam.col(a)
        for a in range(n)
    )
    rep.check(ok, "lambda-phi-relation", "modular-element-second")
    # base intertwinings, available once sigma preserves the bases
    sig = modular_automorphism(X, "left")
    sigma = sig.mapping
    s2 = M.S.compose(M.S)
    if sig.report.status_of("sigma-preserves-base") == "pass":
        ok = all(
            b_left.acts[x].apply(delta_minus)
            == A.mul(delta_minus, s2.apply(sigma.apply(M.B.embed.col(x))))
            and b_left.acts[x].apply(delta_plus)
            == A.mul(delta_plus, sigma.apply(s2.apply(M.B.embed.col(x))))
            for x in range(M.B.base.dim)
        )
        rep.check(ok, "delta-B-intertwinings", "modular-element-second")
        sigma_inv = sigma.inverse()
        sigma_psi_minus = M.S.compose(sigma_inv).compose(s_inv)
        sigma_psi_plus = s_inv.compose(sigma_inv).compose(M.S)
        s_minus2 = s_inv.compose(s_inv)
        c_left, c_right = M._struct("l", "C").acts, M._struct("r", "C").acts
        ok = all(
            c_right[y].apply(delta_minus)
            == A.mul(s_minus2.apply(sigma_psi_minus.apply(M.C.embed.col(y))), delta_minus)
            and c_left[y].apply(delta_plus)
            == A.mul(delta_plus, sigma_psi_plus.apply(s_minus2.apply(M.C.embed.col(y))))
            for y in range(M.C.base.dim)
        )
        rep.check(ok, "delta-C-intertwinings", "modular-element-second")
    return ModularElement(delta_plus, delta_minus, rep)


def _algebra_inverse(algebra, v):
    one = algebra.unit()
    if one is None:
        return None
    inv = algebra.lmul(v).solve(one)
    if inv is None:
        return None
    if algebra.mul(inv, v) != one:
        return None
    return inv


# -- uniqueness -----------------------------------------------------------------


def uniqueness_check(X):
    """The left integrals for the fixed weight are exactly M(B) phi, and the
    right ones M(C) psi."""
    M = X.M
    A = M.A
    rep = Report()

    def spans(side, mu, total, emb):
        """The span of the partial ``side`` integrals, under mu, and those of
        the translates e . total and total . e, e in the base emb, "B" or "C":
        (e . total)(c) = total(c e) and (total . e)(c) = total(e c)."""
        basis = _partial_integral_basis(M, side)
        integrals, lefts, rights = Rref(), Rref(), Rref()
        for mapping in basis:
            integrals.add(functional_of_map(mu, mapping))
        for times_e, e_times in zip(M._struct("r", emb).acts, M._struct("l", emb).acts):
            lefts.add(functional_of_map(total, times_e))
            rights.add(functional_of_map(total, e_times))
        return basis, integrals, lefts, rights

    def same(u, v):
        return all(u.contains(r) for r in v.basis()) and all(v.contains(r) for r in u.basis())

    basis, integral_span, left_span, right_span = spans("left", X.weight.mu_C, X.phi.omega, "B")
    dims = (integral_span.rank, left_span.rank, right_span.rank)
    rep.check(dims[0] == dims[1] == dims[2], "spaces-same-dimension",
              "integrals-uniqueness", dims)
    rep.check(same(integral_span, left_span), "left-integrals-equal-MB-phi", "integrals-uniqueness")
    rep.check(same(integral_span, right_span), "left-integrals-equal-phi-MB",
              "integrals-uniqueness")
    _, integral_span, left_span, right_span = spans("right", X.weight.mu_B, X.psi.omega, "C")
    ok = (integral_span.rank == left_span.rank == right_span.rank
          and same(integral_span, left_span) and same(integral_span, right_span))
    rep.check(ok, "right-integrals-equal-MC-psi", "integrals-uniqueness")
    # every integral is dominated by the full phi: solve the translating elements
    g, gt = gram_map(A, X.phi.omega), gram_transpose(A, X.phi.omega)
    ok = True
    for mapping in basis:
        f = functional_of_map(X.weight.mu_C, mapping)
        if g.solve(f) is None or gt.solve(f) is None:
            ok = False
    rep.check(ok, "integrals-dominated-by-phi", "lesssim")
    return rep


# -- local projectivity ------------------------------------------------------------


def _co_hom_space(h, e):
    """Basis of the module maps f: base -> A with f(x b) = s(x) f(b) for e
    "s" and f(b x) = t(x) f(b) for "t", every product in h's order."""
    return module_maps(h.own(e), h.struct(e))


def local_projectivity(M):
    """Dual-basis feasibility for the four one-sided module structures."""
    rep = Report()
    out = {}
    ident = LinearMap.identity(M.A.dim).flat()
    for module, (letter, e) in _ONE_SIDED.items():
        h = _Half(M, letter)
        coh = _co_hom_space(h, e)
        span = Rref()
        for upsilon in _hom_space(h, e):
            for f in coh:
                span.add(f.compose(upsilon).flat())
        ok = span.contains(ident)
        out[module] = ok
        rep.check(ok, "locally-projective-%s" % module, "projective")
    return out, rep


def faithfulness_check(X):
    """Gram invertibility of the totals, under the theorem's hypotheses."""
    M = X.M
    rep = Report()
    proj, prep = local_projectivity(M)
    rep.merge(prep)
    rep.check(M.B.base.unit() is not None, "base-has-units", "integrals-faithful")
    gram_phi = gram_map(M.A, X.phi.omega)
    gram_psi = gram_map(M.A, X.psi.omega)
    rep.check(gram_phi.is_bijective(), "phi-faithful", "integrals-faithful")
    rep.check(gram_psi.is_bijective(), "psi-faithful", "integrals-faithful")
    return rep


# -- dual algebra -----------------------------------------------------------------


def _translate_operators(X):
    """[(rho, lambda)] of the translates e_b . phi, b in order, for an
    associative A, built from phi's own factors: column x of
    rho(e_b.phi) is sl_rho(T_rho(x, b)), and column x of lambda(e_b.phi)
    is sl_lambda(T_lambda(b, x)).  sl_rho and sl_lambda are the B-half
    slices of ``convolution`` for phi's factors Cl (leg 2) and Bl (leg 1),
    and the T values are the bundle's ``canonical_tilde``, read from the
    lifted Delta_B.

    The translate's factors are phi's after R_b, the right multiplication
    by e_b.  For y in C, (e_b.phi)(y a) = phi((y a) e_b) = phi(y (a e_b))
    = mu_C(y . Cl(a e_b)) by associativity.  ``factorize`` finds the Cl of
    e_b.phi by a Gram solve of the weight, which ``assemble_measured`` has
    checked to be faithful, so the solution is unique and equals Cl o R_b.
    In the same way the Bl of e_b.phi is Bl o R_b, and mu_B o Bl o R_b is
    e_b.phi, so ``factorize`` accepts the translate.

    The columns follow by the slice identity of ``descend_componentwise``:
    a checked descent D of a componentwise map f has D(project(w)) = f(w)
    for every w.  The slice of Cl o R_b sends p (x) q to t(Cl(q e_b)) p,
    that is, the slice of Cl after (id (x) R_b).  T_rho(x, b) =
    Delta_B(x)(1 (x) e_b) is the projection of (id (x) R_b) applied to a
    lift of Delta_B(x), since R_b descends (``_absorbed_descend``).  So
    both sides are the slice of Cl, taken componentwise at that lift:
        rho(e_b.phi)(x) = sl of Cl o R_b at Delta_B(x) = sl_rho(T_rho(x, b)).
    (Because sl_rho and (id (x) R_b) both descend, the slice of Cl o R_b
    descends too.)  On leg 1, R_b (x) id gives Delta_B(x)(e_b (x) 1) =
    T_lambda(b, x) and the lambda column.

    rho and lambda are linear in the functional for the same reason.  The
    Gram solves of ``factorize`` are unique, so the factors of
    sum c_k e_k.phi are sum c_k times those of e_k.phi.  Each slice's
    componentwise map is linear in its factor.  So the operators of
    sum c_k e_k.phi are sum c_k rho(e_k.phi) and sum c_k lambda(e_k.phi).
    """
    M = X.M
    n = M.A.dim
    h = _Half(M, "B")
    sl_rho = _integral_slice(h, 2, X.phi.factor_Cl, "rho slice (B)")
    sl_lam = _integral_slice(h, 1, X.phi.factor_Bl, "lambda slice (B)")
    tilde = M.canonical_tilde
    return [(LinearMap(n, n, [sl_rho.apply(tilde("T_rho", x, b)) for x in range(n)]),
             LinearMap(n, n, [sl_lam.apply(tilde("T_lambda", b, x)) for x in range(n)]))
            for b in range(n)]


def _identities_on_generators(hat, rho_lambda):
    """Whether the bimodule identities hold on the ``generating_basis`` G of
    the associative hat: rho(g y) = rho(g) rho(y) and lambda(g y) =
    lambda(y) lambda(g) for g in G and every basis element y, and
    rho(h) lambda(g) = lambda(g) rho(h) for g, h in G.  rho_lambda(c)
    gives the two operators of sum c_k e_k, linear in c on either path of
    ``dual_algebra``: the Gram solves of ``factorize`` and the slices are
    linear in the functional (see ``_translate_operators``).

    Given associativity, this decides the identities at every pair.  The
    words w = g_1 ... g_k (k >= 1) in G span hat, by the choice of G.
      - rho(w y) = rho(w) rho(y) for every y, by induction on k.  The case
        k = 1 is the law on G, by linearity in y.  For w = g w',
            rho(w y) = rho(g (w' y)) = rho(g) rho(w' y)
                     = rho(g) rho(w') rho(y) = rho(g w') rho(y).
        By linearity in the first factor the law holds on all of hat.
      - lambda likewise, in the reverse order:
            lambda(g (w' y)) = lambda(w' y) lambda(g)
                             = lambda(y) lambda(w') lambda(g) = lambda(y) lambda(w).
      - So each rho(x) is a combination of products rho(g_1)...rho(g_k),
        and each lambda(x') of products of lambda(h) with h in G.  If every
        rho(h) commutes with every lambda(g), so do all such products and
        combinations of them.
    Each gated law is itself one of the full scan's laws, so the gate
    passes exactly when the full scan does.

    No generator is needed when every rho(e_i) and lambda(e_i) is
    diagonal, as on the dual of a convolution algebroid.  Then rho and
    lambda are a left and a right action of hat with weights
    (``ModuleStructure``; they act on A, whose basis is hat's, a.phi
    being a), and by linearity ``check_action`` decides
    rho(e_x) rho(e_y) = rho(e_x e_y) and lambda(e_x) lambda(e_y) =
    lambda(e_y e_x) at every basis pair, the laws of the full scan.
    Diagonal operators commute.
    """
    n = hat.dim
    ops = [rho_lambda({i: ONE}) for i in range(n)]
    rho, lam = (ModuleStructure(hat, hat, [op[k] for op in ops], side)
                for k, side in enumerate(("left", "right")))
    if rho.weights is not None and lam.weights is not None:
        return rho.check_action()[0] and lam.check_action()[0]
    gens = generating_basis(hat)
    for g in gens:
        rho_g, lam_g = ops[g]
        for y in range(n):
            rho_y, lam_y = ops[y]
            rho_p, lam_p = rho_lambda(hat.table[g][y])
            if rho_p != rho_g.compose(rho_y) or lam_p != lam_y.compose(lam_g):
                return False
    pairs = [ops[g] for g in gens]
    return all(rho.compose(lam) == lam.compose(rho) for _, lam in pairs for rho, _ in pairs)


def dual_algebra(X):
    """The convolution algebra on A . phi, with its bimodule actions.

    The dual product is (a.phi)(b.phi) = (a.phi) o rho(b.phi), with
    (a.phi)(x) = phi(x a) and phi = mu_C o phi_C; it is c.phi for
    c = sum q phi_C(p), where sum p (x) q = T_lambda^-1(a (x) b): phi_C(p)
    multiplies q from the right.  For rho(b.phi)(x) = sl(Delta_B(x)(1 (x) b)),
    sl the slice of condition (a) of ``integration._invariance``, and
    a (x) b = sum Delta_B(q)(p (x) 1), so by (a):
        rho(b.phi)(x) a = sl(Delta_B(x)(a (x) b)) = sum sl(Delta_B(x q)(p (x) 1))
                        = sum phi_C(x q) p,
        phi(phi_C(x q) p) = mu_C(phi_C(x q) phi_C(p)) = mu_C(phi_C(x q phi_C(p))),
    by the module laws phi_C(y p) = y phi_C(p) of (a) and
    phi_C(a y) = phi_C(a) y of (b), y in C.  On a commutative A either
    side gives the same table; on the convolution algebroids phi_C(p) q
    does not descend.

    The dual products are computed once, through T_lambda; the checks
    read them from the product table.  Each distinct functional the
    checks meet (the basis translates e_i . phi and their products) gets
    its rho and lambda operators once: on an associative A as the
    combination of the translates' operators of ``_translate_operators``,
    on any other A by ``convolution``.
    """
    M = X.M
    A, n = M.A, M.A.dim
    rep = Report()
    t_lambda, dom_tl = M.canonical_map("T_lambda")
    t_inv = t_lambda.inverse()
    if t_inv is None:
        raise Rejected("regular-2", "T_lambda is not invertible")
    try:
        sl = dom_tl.slice(M._struct("r", "C"), X.phi_C.mapping, 1, what="dual product slice")
    except NotBalanced as e:
        raise Rejected("dual-product", "phi_C slice is not balanced: %s" % e)

    def dual_mul(i, j):
        return sl.apply(t_inv.apply(M.qb.pure({i: ONE}, {j: ONE})))

    # a . phi is identified with its coefficient a (phi is faithful)
    hat = FiniteAlgebra.from_mul(
        n, dual_mul, labels=["(%s).phi" % l for l in A.labels]
    )
    hat_associative, wit = hat.is_associative()
    rep.check(hat_associative, "dual-associative", "dual-algebra", wit)
    rep.check(hat.products_span(), "dual-idempotent", "dual-algebra")
    nd1, nd2 = hat.nondegenerate_sides()
    rep.check(nd1 and nd2, "dual-nondegenerate", "dual-algebra")
    phi = X.phi.omega
    g_phi = gram_map(A, phi)  # a . phi = g_phi(a), so e_i . phi is column i
    translates = g_phi.data
    associative = bialgebroid._absorbed_descend(A)
    operators = {}  # coefficients of sum c_k e_k.phi -> its (rho, lambda)
    if associative:
        for b, ops in enumerate(_translate_operators(X)):
            operators[((b, ONE),)] = ops

    def rho_lambda(c):
        """(rho, lambda) of the functional sum c_k e_k.phi, built once per
        distinct c; phi is faithful, so distinct c are distinct functionals."""
        key = tuple(sorted(c.items()))
        if key not in operators:
            if associative:
                operators[key] = tuple(
                    LinearMap.combination(n, n, [(s, operators[((k, ONE),)][kind])
                                                 for k, s in key])
                    for kind in (0, 1))
            else:
                rho = convolution(X, g_phi.apply(c), "rho")
                operators[key] = (rho.operator, convolution(X, rho.source, "lambda").operator)
        return operators[key]

    # the product must match direct composition of functionals:
    # (a.phi)(b.phi) = (a.phi) o rho(b.phi), column i of rho_j^T g_phi for
    # b = e_j; j runs outer, each j scanning only the i before the first
    # mismatch found so far, so the witness is the first in (i, j) order
    wit, first = None, n
    for j in range(n):
        composite = rho_lambda({j: ONE})[0].transpose().compose(g_phi)
        for i in range(first):
            direct, via_t = composite.col(i), g_phi.apply(hat.table[i][j])
            if direct != via_t:
                wit, first = witness([A.labels[i], A.labels[j]], direct, via_t), i
                break
    rep.check(wit is None, "dual-product-matches-composition", "dual-product", wit)
    # bimodule actions: omega * a = rho(omega)(a), a * omega = lambda(omega)(a);
    # every (i, j) is scanned, in order, only when hat is not associative or
    # a law fails on its generators (see _identities_on_generators)
    wit = None
    if not (hat_associative and _identities_on_generators(hat, rho_lambda)):
        for i, j in product(range(n), repeat=2):
            rho_i, lam_i = rho_lambda({i: ONE})
            rho_j, lam_j = rho_lambda({j: ONE})
            rho_p, lam_p = rho_lambda(hat.table[i][j])
            failed = [name for name, holds in (
                ("rho", rho_p == rho_i.compose(rho_j)),
                ("lambda", lam_p == lam_j.compose(lam_i)),
                ("commute", rho_j.compose(lam_i) == lam_i.compose(rho_j)),
            ) if not holds]
            if failed:
                wit = {"at": [A.labels[i], A.labels[j]], "identity": failed[0]}
                break
    rep.check(wit is None, "bimodule-identities", "dual-algebra", wit)
    # extension to multipliers: the j-embedding formulas are consistent
    sigma_inv = modular_automorphism(X, "left").mapping.inverse()
    g_psi = gram_map(A, X.psi.omega)
    wit = None
    for a in range(n):
        b = sigma_inv.apply({a: ONE})  # a.phi = phi.b
        # a.phi = c.psi for some c, c.psi being g_psi(c)
        ok = (translates[a] == translate_right(A, phi, b)
              and g_psi.solve(translates[a]) is not None)
        if not ok:
            wit = {"at": A.labels[a]}
            break
    rep.check(wit is None, "multiplier-extension-consistent", "extension-multipliers", wit)
    return DualAlgebra(hat, rep)


# -- Haar analysis -----------------------------------------------------------------


def haar_analysis(X):
    """Rescaling of phi to an antipode-invariant two-sided integral.

    Requires a unital, proper instance; looks for an invertible element
    of B among the values of the B-factor of phi on the right base, and
    rescales by its inverse.
    """
    M = X.M
    A = M.A
    rep = Report()
    one = A.unit()
    if one is None:
        raise Rejected("proper", "Haar analysis needs a unital instance")
    phi = X.phi.omega
    # candidate z-values: B-factor of phi on embedded C elements
    candidates = []
    acc = {}
    for y in range(M.C.base.dim):
        val = X.phi.factor_Bl.apply(M.C.embed.col(y))
        candidates.append(val)
        axpy(acc, ONE, val)
    candidates.append(acc)
    z = None
    for cand in candidates:
        emb = M.B.embed.apply(cand)
        inv = _algebra_inverse(A, emb)
        if inv is not None:
            z = emb
            z_inv = inv
            break
    rep.check(z is not None, "invertible-multiplier-found", "integrals-proper")
    if z is None:
        return None, rep
    h = translate_left(A, z_inv, phi)
    rep.check(functional_of_map(h, M.S) == h, "h-antipode-invariant", "integrals-proper")
    # delta+ = z^{-1} S(z)
    me = modular_element(X)
    rep.check(
        A.mul(z_inv, M.S.apply(z)) == me.delta_plus,
        "delta-plus-from-z", "integrals-proper",
    )
    # h is a left and a right integral: its factors are partial integrals
    fact, side = factorize(M, X.weight, h)
    rep.check(fact is not None, "h-factorizable", "integrals-proper", side)
    if fact is not None:
        from .integration import check_partial_integral

        left_ok = check_partial_integral(M, fact.factor_Cr, "left").ok
        right_ok = check_partial_integral(M, fact.factor_Bl, "right").ok
        rep.check(left_ok, "h-left-invariant", "integrals-proper")
        rep.check(right_ok, "h-right-invariant", "integrals-proper")
        if left_ok and right_ok:
            from .integration import assemble_measured

            try:
                assemble_measured(M, X.weight, fact.factor_Cr, fact.factor_Bl)
                rep.check(True, "h-measured-assembly", "integrals-proper")
            except Rejected as e:
                rep.check(False, "h-measured-assembly", "integrals-proper", e.eq)
    return h, rep
