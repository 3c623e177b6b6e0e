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

from dataclasses import dataclass

from . import bialgebroid
from .balanced_tensor import NotBalanced, module_map_laws, unkept
from .bialgebroid import (
    RegularMHA,
    _Half,
    _halves,
    _slice_form,
    _slice_terms,
)
from .exact_linear import (
    ONE,
    LinearMap,
    Rref,
    ev,
    inverse,
    is_positive_semidefinite,
    stack_equations,
    unstack,
    vec_items,
    vsub,
)
from .report import Rejected, Report, first_failure, witness

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
    "gram_transpose",
    "satisfies_modular_law",
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
    return functional_of_map(omega, algebra.rmul(a_vec))


def translate_right(algebra, omega, a_vec):
    """(omega . a)(c) = omega(a c)."""
    return functional_of_map(omega, algebra.lmul(a_vec))


def gram_map(algebra, omega):
    """G[i][j] = omega(e_i e_j) as a LinearMap, built once per algebra and
    functional content (``FiniteAlgebra._gram``), so every reader shares
    its solver and inverse.  Callers share its columns and must not mutate
    them."""
    return _gram_entry(algebra, omega)[0]


def gram_transpose(algebra, omega):
    """G^T[i][j] = omega(e_j e_i), the transpose of ``gram_map(algebra,
    omega)``, built on the first call and kept beside G; when G is
    symmetric it is G itself, so the two share one solver.  Callers share
    its columns and must not mutate them."""
    entry = _gram_entry(algebra, omega)
    if entry[1] is None:
        gt = entry[0].transpose()
        entry[1] = entry[0] if gt == entry[0] else gt
    return entry[1]


def _gram_entry(algebra, omega):
    """The memo entry [G, G^T or None] of omega on algebra."""
    key = tuple(sorted((i, s) for i, s in omega.items() if s))
    if key not in algebra._gram:
        cols = [{} for _ in range(algebra.dim)]
        for i, row in enumerate(algebra.table):
            for j, prod in enumerate(row):
                if prod and (v := ev(omega, prod)):
                    cols[j][i] = v
        algebra._gram[key] = [LinearMap._fresh(algebra.dim, algebra.dim, cols), None]
    return algebra._gram[key]


def satisfies_modular_law(algebra, omega, sigma):
    """omega(x y) = omega(y sigma(x)) for all x, y: entry (y, x) of G o sigma,
    G = ``gram_map(algebra, omega)``, is omega(e_y sigma(e_x)), and of the
    kept transpose ``gram_transpose`` omega(e_x e_y)."""
    return gram_transpose(algebra, omega) == gram_map(algebra, omega).compose(sigma)


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


def _target(M, side):
    """The half whose base a partial ``side`` integral maps to: C for left, B for right."""
    return _Half(M, "C" if side == "left" else "B")


def _module_witness(M, mapping, side, h):
    """The first (x, a) at which mapping is not a module map in h's
    order: mapping(x a) = x mapping(a) for B's order, mapping(a x) =
    mapping(a) x for C's; x runs over the target base, embedded by its s.
    None if there is none.  The law is mapping o acts[x] = own[x] o
    mapping, acts the action of s(x) on A and own that of x on the base,
    both in h's order, and the witness is ``unkept``'s."""
    target = _target(M, side)
    # s(x) a in h's order is target's own order or its reverse
    kind = "l" if h.letter == "B" else "r"
    wit = first_failure(unkept([(mapping, target.struct("s", h.letter == target.letter),
                                 M._own_struct(kind, target.letter))]))
    return None if wit is None else wit["at"][:2]


def _integral_slice(h, leg, mapping, what):
    """The slice through h's tensor that consumes ``leg`` by a base-valued
    mapping and multiplies the other leg in h's order.

    A partial left integral is sliced on leg 2, a right one on leg 1.  The
    mapping's value acts through the embedding Delta carries onto ``leg``,
    ``h.struct``: t directly, or s through the inverse base
    anti-isomorphism, as the value then lies in the other base.
    """
    if leg == h.t_leg:
        return h.q.slice(h.struct("t"), mapping, leg, what=what)
    return h.q.slice(h.struct("s"), h.anti.inverse().compose(mapping), leg, what=what)


def _invariance(M, mapping, side, h, module):
    """Condition (a) (h the B half, through Delta_B) or (b) (the C half,
    Delta_C), given h's ``_module_witness`` ``module``.

    For a partial left integral phi: A -> C and a right one psi: A -> B:
        left (a):  phi in Hom(_C A, _C C), (id (x) S_B^-1 phi)(Delta_B(b)(a (x) 1)) = phi(b) a
        left (b):  phi in Hom(A_C, C_C), (id (x) phi)((a (x) 1) Delta_C(b)) = a phi(b)
        right (a): psi in Hom(_B A, _B B), (psi (x) id)(Delta_B(a)(1 (x) b)) = psi(a) b
        right (b): psi in Hom(A_B, B_B), (S_C^-1 psi (x) id)((1 (x) b) Delta_C(a)) = b psi(a)
    Returns (ok, witness, slice); the witness is ("module", x, a), the
    NotBalanced text of the slice or of a multiplication Delta absorbs, or
    ("deltab" | "deltac", Delta's argument, multiplier), and the slice is
    the descended one, None where the module law failed or the slice does
    not descend.

    The law at (d, e) is a slice law of ``slice_cases`` with head
    s o mapping, and its first failing (d, e) the witness.
    """
    if module is not None:
        return False, ("module", *module), None
    leg = 2 if side == "left" else 1
    letter = "a" if h.letter == "B" else "b"
    sl = None
    try:
        sl = _integral_slice(h, leg, mapping, "partial-%s slice (%s)" % (side, letter))
        head = _target(M, side).s.compose(mapping).col
        wit = first_failure(bialgebroid.slice_cases([(h, leg, sl)], head))
    except NotBalanced as e:  # the slice or a multiplication Delta absorbs does not descend
        return False, str(e), sl
    if wit is not None:
        return False, ("delta" + h.letter.lower(), *wit["at"][:2]), sl
    return True, None, sl


def _strong_invariance(M, mapping, side, module, slices):
    """Condition (c): a two-sided module map plus the strong-invariance diagram.

    The module law is the B half's ("left-module") and the C half's
    ("right-module"); ``module`` holds their ``_module_witness`` values.  Its
    witness is the first failing (x, a, half) of a scan over x, then a,
    then the two halves: the least of the two one-sided witnesses, each
    the first failing (x, a) of its half, ties going to the B half.
    With the slices of (a) and (b), slice_B and slice_C, which ``slices``
    hands over from ``_invariance``:
        left:  S slice_B T_rho = slice_C rho_T flip
        right: slice_B T_lambda flip = S slice_C lambda_T
    A slice handed over as None did not descend and is asked again, so
    its NotBalanced text names the strong-invariance slice.  A failing
    diagram's witness is the first basis tensor e_a (x) e_b of the
    composites' domain at which they differ, with both values; the labels
    are built only where they do.
    """
    failing = [(wit, k) for k, wit in enumerate(module) if wit is not None]
    if failing:
        wit, k = min(failing)
        return False, (("left-module", "right-module")[k], *wit)
    halves = _halves(M)
    names = ("T_rho", "rho_T") if side == "left" else ("T_lambda", "lambda_T")
    try:
        (map_b, dom_b), (map_c, dom_c) = (M.canonical_map(name) for name in names)
        leg = 2 if side == "left" else 1
        sl_b, sl_c = (_integral_slice(h, leg, mapping, "strong-invariance slice")
                      if sl is None else sl for h, sl in zip(halves, slices))
        flip = dom_b.flip_to(dom_c) if side == "left" else dom_c.flip_to(dom_b)
    except NotBalanced as e:
        return False, str(e)
    lhs, rhs = sl_b.compose(map_b), sl_c.compose(map_c)
    if side == "left":
        lhs, rhs = M.S.compose(lhs), rhs.compose(flip)
    else:
        lhs, rhs = lhs.compose(flip), M.S.compose(rhs)
    dom = dom_b if side == "left" else dom_c  # the flip's source, both composites' domain
    labels = M.A.labels
    wit = first_failure(
        ([labels[i] for i in divmod(dom.space.free[q], M.A.dim)], lhs.col(q), rhs.col(q))
        for q in range(dom.dim) if lhs.col(q) != rhs.col(q)
    )
    return wit is None, wit


def check_partial_integral(M, mapping, side):
    """Evaluate all three invariance characterizations; they must agree.

    The one-sided module laws of (a) and (b) are scanned once, by
    ``_module_witness`` for the B and the C half; (c)'s two-sided law is
    both, and ``_strong_invariance`` derives its witness from theirs and
    reads the slices (a) and (b) descended.
    """
    if isinstance(mapping, PartialIntegral):
        mapping = mapping.mapping
    other = "right" if side == "left" else "left"
    expected = _target(M, side).base.dim
    if mapping.rows != expected or mapping.cols != M.A.dim:
        raise ValueError(
            "partial %s integral must map A (dim %d) to the %s base (dim %d)"
            % (side, M.A.dim, other, expected)
        )
    halves = _halves(M)
    module = [_module_witness(M, mapping, side, h) for h in halves]
    checked = [_invariance(M, mapping, side, h, wit) for h, wit in zip(halves, module)]
    results = [(ok, wit) for ok, wit, _ in checked]
    results.append(_strong_invariance(M, mapping, side, module, [sl for *_, sl in checked]))
    rep = Report()
    verdicts = [ok for ok, _ in results]
    eqs = ("partial-%s-deltab" % other, "partial-%s-deltac" % other,
           "dg-strong-invariance-" + side)
    for tag, eq, (ok, wit) in zip("abc", eqs, results):
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


def _partial_integral_basis(M, side):
    """Basis of the space of partial integrals, via condition (b)/(a).

    That condition, through the target half h (C for left, B for right),
    is linear in the integral: the module law of h's s, and the law at
    (d, e), the slice on h's t leg of Delta(d) times e_e equal to
    s(mapping(d)) e_e in h's order.  The module law is
    ``module_map_laws`` of h's s and the base acting on itself, whose two
    forms have one row space.

    Gate, ``_slice_laws_at_one``: A is unital, 1 = sum u_e e_e, and h's
    lifts are exact.  Then the n laws at d alone, the slice of the lift
    of Delta(d) equal to s(mapping(d)), state the same system as the n^2
    laws at (d, e):
      - By ``_exact_lifts`` the lift of Delta(d) times e_e is the lift of
        Delta(d), multiplied by e_e on the leg the slice does not consume:
        exactly, with no projection.
      - By associativity the law at (d, e), a vector of equations, is
        then R_e applied to the law at d, R_e the multiplication by e_e
        in h's order: each of its rows is a combination of the rows of
        the law at d.
      - By the unit the law at d is sum_e u_e times the law at (d, e).
    So the two systems, each with the module laws, have one row space,
    hence one kernel.  Their kernel bases are then identical, in order:
    ``LinearMap.kernel_basis`` gives, for each unknown j whose column
    depends on the earlier ones, the one kernel vector that is 1 at j
    and is supported on j and the earlier independent columns, and
    which columns are independent is read from the kernel alone.
    """
    n, h = M.A.dim, _target(M, side)
    dim_b = h.base.dim
    # generators: each equation's terms are stacked as soon as they are built
    if bialgebroid._slice_laws_at_one(h):
        laws = (
            ({}, _slice_terms(h, h.t_leg, h.lifts.col(d))
             + [(d * dim_b + x, -ONE, h.s.col(x)) for x in range(dim_b)])
            for d in range(n)
        )
    else:
        s_acts = h.struct("s").acts
        laws = (
            ({}, _slice_form(h, h.t_leg, d, e)
             + [(d * dim_b + x, -ONE, s_acts[x].col(e)) for x in range(dim_b)])
            for d in range(n)
            for e in range(n)
        )
    system, _ = stack_equations(
        (module_map_laws(h.struct("s"), h.own("s")), (n, laws)), n * dim_b)
    return [LinearMap(dim_b, n, unstack(w, dim_b, n)) for w in system.kernel_basis()]


def _checked_basis(M, side):
    """(basis, reports): the ``_partial_integral_basis`` of ``side`` and
    the ``check_partial_integral`` report of each of its maps, memoized
    per bundle in ``M._integral_bases``; callers must not mutate them."""
    if M._integral_bases is None:
        M._integral_bases = {}
    if side not in M._integral_bases:
        basis = _partial_integral_basis(M, side)
        M._integral_bases[side] = basis, [check_partial_integral(M, m, side) for m in basis]
    return M._integral_bases[side]


def _span(maps):
    """The echelon span of the maps, as ``LinearMap.flat`` vectors."""
    span = Rref()
    for mapping in maps:
        span.add(mapping.flat())
    return span


def _stability_moves(left, right):
    """The operators op whose precompositions m o op, for every basis map m
    of a partial-integral space V, decide that V is stable under the base's
    two actions, left by the L_x and right by the R_x' (x, x' basis
    elements of the base): when the base's unit acts as the identity in
    both structures, the 2k moves L_x and R_x'; otherwise the k^2 moves
    L_x o R_x', a -> x' a x.

    The gate makes the one-sided laws (m o L_x and m o R_x' in V for every
    basis map m) equivalent to the two-sided one (m o L_x o R_x' in V):
      - two-sided implies one-sided.  With the unit u = sum u_x' e_x', the
        operator of u is R_1 = sum u_x' R_x' = id, so
        sum u_x' (m o L_x o R_x') = m o L_x is a combination of maps in V;
        likewise m o R_x' = sum u_x (m o L_x o R_x') by L_1 = id.
      - one-sided implies two-sided, with no gate.  Precomposition is
        linear, so V is stable under each L_x and each R_x' once the basis
        maps are: m o L_x is in V, so (m o L_x) o R_x' is, and it is
        m o (L_x o R_x').
    Where the gate declines the k^2 scan runs as before."""
    one = left.base.unit()
    ident = LinearMap.identity(left.total.dim)
    if one is not None and left.operator(one) == ident == right.operator(one):
        return left.acts + right.acts
    return [x.compose(x2) for x2 in right.acts for x in left.acts]


def solve_partial_integrals(M, side):
    """(basis, report): the ``_partial_integral_basis``, each basis map
    checked by ``check_partial_integral``; the report also records the
    bimodule stability of the space and the antipode bijection onto the
    other side.  Both sides' bases and reports are checked once per
    bundle (``_checked_basis``); the basis returned is a new list of the
    shared maps.

    The antipode law asks whether conv(m) passes ``check_partial_integral``
    on the other side, for each basis map m and each of the two
    converters.  The maps that pass it on a side form a linear subspace V,
    if any map does: every condition it checks is linear in the mapping.
      - The module laws compare mapping o s(x) with x o mapping.
      - Each slice descends iff its relation rows vanish, and those rows
        are linear in the sliced map omega, itself an embedding after the
        mapping (``descend_componentwise``); the descended map is linear
        in omega.
      - The (a) and (b) laws are an equation per (d, e), linear in the
        mapping, whether ``_slice_identity`` skips a d or not.
      - The (c) composites are the slices composed with maps that do not
        depend on the mapping, and they are compared column by column.
      - Only ``flip_to`` can fail for every mapping, and it does not
        depend on the mapping.
    So if the other side's basis is not empty and each of its maps
    passed, and conv(m) lies in its span, conv(m) passes; the full check
    runs only on the other inputs.

    Where a multiplication Delta absorbs does not descend, the system of
    ``_partial_integral_basis`` cannot be stated: the basis is empty and
    the NotBalanced text fails ``solution-space`` (or, on the other side,
    ``antipode-swaps-sides``).
    """
    h = _target(M, side)
    rep = Report()
    try:
        basis, reports = _checked_basis(M, side)
    except NotBalanced as e:  # a multiplication Delta absorbs does not descend
        rep.check(False, "solution-space", "partial-integrals", str(e))
        return [], rep
    for k, sub in enumerate(reports):
        rep.check(sub.ok, "solution-%d-invariant" % k, "partial-integrals",
                  [e.axiom for e in sub.failures()])

    # bimodule stability: x . phi . x' stays in the span, x and x' in the
    # other half's base (see _stability_moves)
    span = _span(basis)
    other = _Half(M, "B" if side == "left" else "C")
    moves = _stability_moves(*(M._struct(kind, other.letter) for kind in ("l", "r")))
    ok = all(span.contains(mapping.compose(op).flat()) for mapping in basis for op in moves)
    rep.check(ok, "bimodule-stability", "partial-integrals-bimodule-antipode")
    # S^{+-1} o phi o S^{-+1} swaps the two solution spaces; S agrees with
    # the base anti-isomorphisms on the embedded bases
    other_side = "right" if side == "left" else "left"
    converters = [
        lambda m: h.anti.compose(m).compose(M.S.inverse()),
        lambda m: other.anti.inverse().compose(m).compose(M.S),
    ]
    try:
        other_basis, other_reports = _checked_basis(M, other_side)
    except NotBalanced as e:
        rep.check(False, "antipode-swaps-sides", "partial-integrals-bimodule-antipode", str(e))
        return list(basis), rep
    # the other side's span lies in V if its basis is not empty and passed
    in_v = bool(other_basis) and all(sub.ok for sub in other_reports)
    other_span = _span(other_basis)
    ok = True
    for mapping in basis:
        for conv in converters:
            image = conv(mapping)
            if in_v and other_span.contains(image.flat()):
                continue  # passes: see the docstring
            if not check_partial_integral(M, image, other_side).ok:
                ok = False
    rep.check(ok, "antipode-swaps-sides", "partial-integrals-bimodule-antipode")
    return list(basis), rep


def orbit_algebra(M):
    """Basis of O = M(B) n M(C) and the ergodicity characterizations."""
    A, n = M.A, M.A.dim
    rep = Report()
    # properness holds by construction: A is finite-dimensional, so every
    # product of base elements lies in A; recorded, not checked
    rep.note("proper", "proper", "pass")
    # intersection of the embedded bases
    dim_b = M.B.base.dim
    stacked = LinearMap(n, dim_b + M.C.base.dim, M.B.embed.data + M.C.embed.scale(-ONE).data)
    orbit = []
    seen = Rref()
    for w in stacked.kernel_basis():
        v = M.B.embed.apply({x: c for x, c in w.items() if x < dim_b})
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
    # z commutes with each y: y z - z y = 0
    commutes = [({}, [(j, ONE, vsub(lm.col(j), rm.col(j))) for j in range(n)])
                for lm, rm in zip(M._struct("l", "C").acts, M._struct("r", "C").acts)]
    fixed = ({}, [(j, ONE, vsub(M.delta_B.col(j), qb.pure(one, {j: ONE}))) for j in range(n)])
    system, _ = stack_equations(((n, commutes), (qb.dim, [fixed])), n)
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
            ok, wit = False, witness(M.A.labels[a], lhs, rhs)
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
    n = M.A.dim
    # omega(x a) = sum_i x_i omega(e_i e_a) is x paired with column a of the
    # Gram map G of omega, and omega(a x) with column a of G^T
    g, gt = gram_map(M.A, omega), gram_transpose(M.A, omega)
    factors = {}
    # factor Xl solves omega(x a) and Xr omega(a x), x in the embedded base X
    for name, emb, gram, values in (
            ("Bl", M.B, gram_map(M.B.base, weight.mu_B), g),
            ("Br", M.B, gram_transpose(M.B.base, weight.mu_B), gt),
            ("Cl", M.C, gram_map(M.C.base, weight.mu_C), g),
            ("Cr", M.C, gram_transpose(M.C.base, weight.mu_C), gt)):
        cols = []
        for a in range(n):
            sol = gram.solve(functional_of_map(values.col(a), emb.embed))
            if sol is None:
                return None, name
            cols.append(sol)
        mapping, left = LinearMap(emb.base.dim, n, cols), factors.get(name[0] + "l")
        # a side's two factors are equal maps on a commutative A: they
        # share one map, so its solver is built once
        factors[name] = left if left == mapping else mapping
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
    modular = (satisfies_modular_law(bb, weight.mu_B, sigma_b)
               and satisfies_modular_law(cc, weight.mu_C, sigma_c))
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
        pos = _is_positive(bb, weight.mu_B) and _is_positive(cc, weight.mu_C)
        rep.check(pos, "positive", "base-weight-positive")
    if counital:
        # a counital base weight is modular (meta-test, needs surjective counits)
        if M.eps_B.is_surjective() and M.eps_C.is_surjective():
            rep.check(modular, "counital-implies-modular", "counit-kms")
        # the counit functional is invariant under the antipode
        rep.check(functional_of_map(eps_b_func, M.S) == eps_c_func,
                  "counit-functional-S-invariant", "counit-antipode")
    return rep


def _is_positive(algebra, omega):
    """The form omega(a* b) is positive semidefinite; False without an involution."""
    if algebra.involution is None:
        return False
    return is_positive_semidefinite(_star_gram(algebra, omega))


def _star_gram(algebra, omega):
    """The matrix [omega(e_i* e_j)] of the form omega(a* b), read from the
    Gram map G of omega: e_i* is column i of the involution, so
    omega(e_i* e_j) = sum_k (e_i*)_k omega(e_k e_j) is entry j of column i
    of G^T o involution."""
    n = algebra.dim
    form = gram_transpose(algebra, omega).compose(algebra.involution)
    return [[form.col(i).get(j, 0) for j in range(n)] for i in range(n)]


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
        pos = _is_positive(M.A, phi_func) and _is_positive(M.A, psi_func)
        rep.check(pos, "totals-positive", "base-weight-positive")
    return MeasuredMHA(M, weight, phi_C, psi_B, phi, psi, rep)

