"""Regular multiplier Hopf algebroids and their verification suite.

The bundle keeps the total algebra A, base subalgebras B and C with
their anti-isomorphisms, the two comultiplications as maps into the
balanced quotients (legal because every desk instance is unital, so a
coproduct equals its value on 1 (x) 1), counits, and the antipode.  All
axioms are checked on every basis tuple; a failing check reports the
first witness tuple and both evaluated sides in canonical coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra_core import ModuleStructure, check_algebra
from .balanced_tensor import (
    BalancedTensor,
    NotBalanced,
    TripleTensor,
    descend_componentwise,
    tensor_mul,
)
from .exact_linear import (
    ONE,
    LinearMap,
    Rref,
    axpy,
    joint_kernel,
    kron_vec,
    stack,
    stack_equations,
    unstack,
    vec_conj,
    vec_items,
    vsub,
)
from .report import Report

__all__ = [
    "RegularMHA",
    "StarStructure",
    "canonical_maps",
    "verify_left_bialgebroid",
    "verify_right_bialgebroid",
    "verify_regular_mha",
    "derive_antipode",
    "derive_counits",
    "verify_star",
    "FLAVOR_QB",
    "FLAVOR_QC",
    "FLAVOR_TL",
    "FLAVOR_TR",
    "FLAVOR_LT",
    "FLAVOR_RT",
]

FLAVOR_QB = "bsA⊗btA"
FLAVOR_QC = "cAt⊗cAs"
FLAVOR_TL = "btA⊗bAt"  # domain of T_lambda
FLAVOR_TR = "bAs⊗bsA"  # domain of T_rho
FLAVOR_LT = "cAs⊗csA"  # domain of lambda_T
FLAVOR_RT = "ctA⊗cAt"  # domain of rho_T


@dataclass
class StarStructure:
    """Antilinear anti-automorphism of the total algebra: v -> M conj(v)."""

    matrix: LinearMap


class RegularMHA:
    """Bundle (A, B, C, S_B, S_C, Delta_B, Delta_C, eps_B, eps_C, S)."""

    _emb_sb = None
    _emb_sc = None
    eps_B = eps_C = None  # set in __init__, after derive_counits
    _structs = None  # (multiplication side, embedding) -> ModuleStructure
    _triples = None  # coassociativity kind -> TripleTensor
    _tilde = None  # (which, a, b) -> canonical_tilde(which, a, b)
    _shared = None  # flavor -> BalancedTensor another bundle offers, see tensor()

    def __init__(
        self,
        A,
        B,
        C,
        S_B,
        S_C,
        delta_B_raw,
        delta_C_raw,
        eps_B=None,
        eps_C=None,
        S=None,
        name="",
        _shared_tensors=None,
    ):
        self.A = A
        self.B = B  # BaseEmbedding
        self.C = C  # BaseEmbedding
        self.S_B = S_B  # LinearMap base_B -> base_C
        self.S_C = S_C  # LinearMap base_C -> base_B
        self.name = name
        self._tensors = {}
        self._shared = _shared_tensors
        self._canonical = None
        self._emb_sb = None
        self._emb_sc = None
        qb, qc = self.tensor(FLAVOR_QB), self.tensor(FLAVOR_QC)
        self.delta_B = LinearMap.from_function(
            qb.dim, A.dim, lambda j: qb.project(delta_B_raw.col(j))
        )
        self.delta_C = LinearMap.from_function(
            qc.dim, A.dim, lambda j: qc.project(delta_C_raw.col(j))
        )
        self._db_lift = [qb.lift(self.delta_B.col(j)) for j in range(A.dim)]
        self._dc_lift = [qc.lift(self.delta_C.col(j)) for j in range(A.dim)]
        if eps_B is None or eps_C is None:
            eps_B, eps_C = derive_counits(self)
        self.eps_B = eps_B
        self.eps_C = eps_C
        if S is None:
            S, _ = derive_antipode(self)
            if S is None:
                raise ValueError("antipode system is inconsistent; not regular")
        self.S = S

    # -- embeddings -------------------------------------------------------

    def iota_B(self, x):
        return self.B.embed.apply(x)

    def iota_C(self, y):
        return self.C.embed.apply(y)

    def emb_SB(self):
        """B -> A through S_B and the C-embedding."""
        if self._emb_sb is None:
            self._emb_sb = self.C.embed.compose(self.S_B)
        return self._emb_sb

    def emb_SC(self):
        if self._emb_sc is None:
            self._emb_sc = self.B.embed.compose(self.S_C)
        return self._emb_sc

    # -- balanced tensor flavors -------------------------------------------

    def _struct(self, kind, emb):
        """The base acting on A by multiplying (kind "l" or "r") with emb's image.

        emb is "B", "C", "SB" or "SC".  Left multiplication through a
        homomorphic embedding, or right multiplication through an
        anti-homomorphic one (S_B, S_C), is a left action; the other two
        are right actions.  Built once per bundle.
        """
        if self._structs is None:
            self._structs = {}
        key = (kind, emb)
        if key not in self._structs:
            emb_map = {"B": self.B.embed, "C": self.C.embed,
                       "SB": self.emb_SB(), "SC": self.emb_SC()}[emb]
            base = self.B.base if emb in ("B", "SB") else self.C.base
            mul = self.A.lmul if kind == "l" else self.A.rmul
            acts = [mul(emb_map.col(x)) for x in range(base.dim)]
            side = "left" if (kind == "l") == (emb in ("B", "C")) else "right"
            self._structs[key] = ModuleStructure(base, self.A, acts, side)
        return self._structs[key]

    _RECIPES = {
        FLAVOR_QB: (("l", "B"), ("l", "SB")),
        FLAVOR_QC: (("r", "SC"), ("r", "C")),
        FLAVOR_TL: (("l", "SB"), ("r", "SB")),
        FLAVOR_TR: (("r", "B"), ("l", "B")),
        FLAVOR_LT: (("r", "C"), ("l", "C")),
        FLAVOR_RT: (("l", "SC"), ("r", "SC")),
    }

    def tensor(self, flavor):
        """The balanced tensor of a flavor, built once per bundle.

        A bundle made with ``_shared_tensors`` (flavor -> BalancedTensor of
        another bundle over the same A, read when a flavor is first asked
        for) takes that tensor, with its echelon and descended maps, when
        both its module structures have this bundle's action maps.
        """
        if flavor not in self._tensors:
            s1, s2 = (self._struct(*key) for key in self._RECIPES[flavor])
            shared = self._shared.get(flavor) if self._shared else None
            if (shared is not None and shared.algebra is self.A
                    and shared.struct1.acts == s1.acts and shared.struct2.acts == s2.acts):
                self._tensors[flavor] = shared
            else:
                self._tensors[flavor] = BalancedTensor(self.A, s1, s2, flavor)
        return self._tensors[flavor]

    @property
    def qb(self):
        return self.tensor(FLAVOR_QB)

    @property
    def qc(self):
        return self.tensor(FLAVOR_QC)

    # -- canonical maps --------------------------------------------------------

    def canonical(self):
        """The four canonical maps with their domain tensors (cached)."""
        if self._canonical is None:
            qb, qc = self.qb, self.qc
            n = self.A.dim
            self._canonical = {}
            for which, codim in (
                ("T_lambda", qb.dim),
                ("T_rho", qb.dim),
                ("lambda_T", qc.dim),
                ("rho_T", qc.dim),
            ):
                dom = self.tensor(
                    {
                        "T_lambda": FLAVOR_TL,
                        "T_rho": FLAVOR_TR,
                        "lambda_T": FLAVOR_LT,
                        "rho_T": FLAVOR_RT,
                    }[which]
                )

                def col(q, dom=dom, which=which):
                    a, b = divmod(dom.space.free[q], n)
                    return self.canonical_tilde(which, a, b)

                self._canonical[which] = (
                    LinearMap.from_function(codim, dom.dim, col),
                    dom,
                )
        return self._canonical

    def canonical_tilde(self, which, a, b):
        """The unfactored canonical map on a pure tensor e_a (x) e_b.

        Memoized per bundle: every value is computed once and the stored
        vector is returned again, so callers must not mutate it.
        """
        if self._tilde is None:
            self._tilde = {}
        key = (which, a, b)
        if key not in self._tilde:
            if which == "T_lambda":
                value = self.qb.rmul1({a: ONE}).apply(self.delta_B.col(b))
            elif which == "T_rho":
                value = self.qb.rmul2({b: ONE}).apply(self.delta_B.col(a))
            elif which == "lambda_T":
                value = self.qc.lmul1({a: ONE}).apply(self.delta_C.col(b))
            elif which == "rho_T":
                value = self.qc.lmul2({b: ONE}).apply(self.delta_C.col(a))
            else:
                raise ValueError(which)
            self._tilde[key] = value
        return self._tilde[key]

    def __repr__(self):
        return "RegularMHA(%r, dim=%d)" % (self.name, self.A.dim)


class _Half:
    """One half of the bundle: the left bialgebroid (B, Delta_B) for letter
    "B", the right one (C, Delta_C) for "C".

    ``q`` is the half's balanced tensor (QB or QC), ``delta`` its
    comultiplication into it and ``lifts`` the lifted columns of delta.
    ``s`` embeds the base into A, and ``t`` embeds it through the base
    anti-isomorphism ``anti`` (S_B or S_C) into the other base.  Delta
    carries s(x) a onto leg ``s_leg`` of Delta(a) and t(x) a onto leg
    ``t_leg``: legs 2 and 1 for B, 1 and 2 for C.  ``absorb`` holds the
    leg multiplications Delta absorbs, on leg 1 and on leg 2: from the
    right for Delta_B, from the left for Delta_C; ``absorbed`` reads their
    products with Delta from the bundle's canonical-map memo.

    Order rule: ``mul(u, v)`` and ``bmul(u, v)`` are the products in A and
    in the base taken as u v on the B half and as v u on the C half, and
    ``ordered`` is that order itself.  So each law of the left half,
    written with them, reads as its mirror on the right half.
    """

    def __init__(self, M, letter):
        left = letter == "B"
        emb, q = (M.B, M.qb) if left else (M.C, M.qc)
        self.letter = letter
        self.side, self.x = ("left", "x") if left else ("right", "y")
        self.A = M.A
        self.base, self.s = emb.base, emb.embed
        self.t = M.emb_SB() if left else M.emb_SC()
        self.anti = M.S_B if left else M.S_C
        self.q = q
        self.delta = M.delta_B if left else M.delta_C
        self.lifts = M._db_lift if left else M._dc_lift
        self.eps = M.eps_B if left else M.eps_C
        self.s_leg, self.t_leg = (2, 1) if left else (1, 2)
        self.absorb = (q.rmul1, q.rmul2) if left else (q.lmul1, q.lmul2)
        self._tilde = M.canonical_tilde
        self._maps = ("T_lambda", "T_rho") if left else ("lambda_T", "rho_T")
        self._reversed = not left

    def absorbed(self, leg, d, e):
        """Delta(d) with e_e absorbed on ``leg`` (1 or 2), i.e.
        ``absorb[leg - 1]({e: 1}).apply(delta.col(d))``: T_lambda(e, d) or
        T_rho(d, e) on B, lambda_T(e, d) or rho_T(d, e) on C.  The vector
        is memoized by the bundle; callers must not mutate it."""
        if leg == 1:
            return self._tilde(self._maps[0], e, d)
        return self._tilde(self._maps[1], d, e)

    def on_leg(self, leg):
        """The embedding whose elements Delta carries onto ``leg``."""
        return self.s if leg == self.s_leg else self.t

    def ordered(self, u, v):
        return (v, u) if self._reversed else (u, v)

    def mul(self, u, v):
        return self.A.mul(*self.ordered(u, v))

    def bmul(self, u, v):
        return self.base.mul(*self.ordered(u, v))


# ---------------------------------------------------------------------------
# componentwise maps between tensor flavors
# ---------------------------------------------------------------------------


def _id_tensor_s(M, src, dst):
    n = M.A.dim
    return descend_componentwise(
        src, dst, lambda i, j: kron_vec({i: ONE}, M.S.col(j), n),
        "id (x) S does not descend {src!r} -> {dst!r}",
    )


def _s_tensor_id(M, src, dst):
    n = M.A.dim
    return descend_componentwise(
        src, dst, lambda i, j: kron_vec(M.S.col(i), {j: ONE}, n),
        "S (x) id does not descend {src!r} -> {dst!r}",
    )


def _sigma_ss(M, src, dst):
    n = M.A.dim
    return descend_componentwise(
        src, dst, lambda i, j: kron_vec(M.S.col(j), M.S.col(i), n),
        "flip o (S (x) S) does not descend {src!r} -> {dst!r}",
    )


# ---------------------------------------------------------------------------
# derivation of counits and antipode
# ---------------------------------------------------------------------------


def _slice_form(h, leg, a, b):
    """The slice of f on ``leg`` at Delta(a) times e_b on the other leg,
    as terms linear in f: A -> base, f(e_c)_x the unknown c * dim + x.

    The value of f on ``leg``, embedded by h.on_leg(leg), multiplies the
    other leg in h's order.
    """
    n, dim, emb = h.A.dim, h.base.dim, h.on_leg(leg)
    terms = []
    for idx, c in h.q.lift(h.absorbed(3 - leg, a, b)).items():
        i, j = divmod(idx, n)
        sliced, other = (i, j) if leg == 1 else (j, i)
        for x in range(dim):
            terms.append((sliced * dim + x, c, h.mul(emb.col(x), {other: ONE})))
    return terms


def _module_form(h, e, x, a):
    """f(e(x) a) - x f(a) for e "s", f(e(x) a) - f(a) x for e "t", every
    product in h's order, as terms linear in f (unknowns as in _slice_form)."""
    dim = h.base.dim
    emb = h.s if e == "s" else h.t
    terms = [(i * dim + xb, c, {xb: ONE})
             for i, c in h.mul(emb.col(x), {a: ONE}).items() for xb in range(dim)]
    for xb in range(dim):
        law = h.bmul({x: ONE}, {xb: ONE}) if e == "s" else h.bmul({xb: ONE}, {x: ONE})
        terms.append((a * dim + xb, -ONE, law))
    return terms


def _solve_counit(h):
    """The counit of one half: both slice laws, eps(s(x) a) = x eps(a) and
    eps(t(x) a) = eps(a) x, each in h's order."""
    n, dim = h.A.dim, h.base.dim
    laws = []
    for a in range(n):
        for b in range(n):
            ab = h.mul({a: ONE}, {b: ONE})
            laws += [(ab, _slice_form(h, leg, a, b)) for leg in (1, 2)]
    modules = [({}, _module_form(h, e, x, a))
               for x in range(dim) for a in range(n) for e in ("s", "t")]
    system, rhs = stack_equations(((n, laws), (dim, modules)), n * dim)
    sol = system.solve(rhs)
    if sol is None or system.kernel_basis():
        raise ValueError("%s counit does not exist or is not unique" % h.side)
    return LinearMap(dim, n, unstack(sol, dim, n))


def derive_counits(M):
    """Solve for the counits; unique for a regular bundle.

    Stacks the two slice laws with the counit bimodule conditions; as
    with the antipode, the slice laws alone can leave base-mismatched
    entries free.
    """
    return _solve_counit(_Half(M, "B")), _solve_counit(_Half(M, "C"))


def _antipode_diagrams(M):
    """The two defining diagrams of the antipode at every (a, b), as
    equations linear in S, the unknown S[k, i] at i * n + k:
        m (S (x) id) T_rho(a (x) b) = iota_B(S_C(eps_C(a))) * b,
        m (id (x) S) lambda_T(a (x) b) = a * iota_C(S_B(eps_B(b))).
    """
    A, n, table = M.A, M.A.dim, M.A.table
    emb_sc_eps = M.emb_SC().compose(M.eps_C)  # a -> iota_B(S_C(eps_C(a)))
    emb_sb_eps = M.emb_SB().compose(M.eps_B)  # a -> iota_C(S_B(eps_B(a)))
    for a in range(n):
        for b in range(n):
            terms = []
            for idx, c in M.qb.lift(M.canonical_tilde("T_rho", a, b)).items():
                i, j = divmod(idx, n)
                terms += [(i * n + k, c, table[k][j]) for k in range(n)]  # S(e_i) e_j
            yield A.mul(emb_sc_eps.col(a), {b: ONE}), terms
            terms = []
            for idx, c in M.qc.lift(M.canonical_tilde("lambda_T", a, b)).items():
                i, j = divmod(idx, n)
                terms += [(j * n + k, c, table[i][k]) for k in range(n)]  # e_i S(e_j)
            yield A.mul({a: ONE}, emb_sb_eps.col(b)), terms


def _antipode_bimodule(M):
    """The base bimodule condition on generators, S(s(x) a) = S(a) t(x) and
    S(a s(x)) = t(x) S(a) on each half, as equations linear in S."""
    A, n = M.A, M.A.dim
    for h in (_Half(M, "B"), _Half(M, "C")):
        for x in range(h.base.dim):
            sx, tx = h.s.col(x), h.t.col(x)
            # the products with t(x) do not depend on a: e_k t(x) and t(x) e_k
            right = [A.mul({k: ONE}, tx) for k in range(n)]
            left = [A.mul(tx, {k: ONE}) for k in range(n)]
            for a in range(n):
                for moved, products in ((A.mul(sx, {a: ONE}), right), (A.mul({a: ONE}, sx), left)):
                    terms = [(i * n + k, c, {k: ONE}) for i, c in moved.items() for k in range(n)]
                    yield {}, terms + [(a * n + k, -ONE, products[k]) for k in range(n)]


def derive_antipode(M):
    """Solve for the antipode; (S, None) or (None, reason).

    The linear system stacks the two defining diagrams with the base
    bimodule condition S(x y a x' y') = S_C(y') S_B(x') S(a) S_C(y) S_B(x);
    the diagrams alone leave entries at source/target-mismatched basis
    pairs unconstrained, and the bimodule condition (also linear in S)
    is what pins them to zero.

    It has n^2 unknowns.  ``verify_regular_mha`` solves it only where
    ``_antipode_through_inverse`` cannot decide ``antipode-unique``, so
    every failing entry keeps this solver's reason; the tests keep it as
    the oracle of that shortcut.
    """
    n = M.A.dim
    if M.eps_B is None or M.eps_C is None:
        raise ValueError("derive_antipode needs verified counits")
    system, rhs = stack_equations(
        ((n, _antipode_diagrams(M)), (n, _antipode_bimodule(M))), n * n)
    sol = system.solve(rhs)
    if sol is None:
        return None, "antipode system is inconsistent"
    if system.kernel_basis():
        return None, "antipode system underdetermines S"
    return LinearMap(n, n, unstack(sol, n, n)), None


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _first_failure(pairs):
    """pairs: iterable of (witness, lhs, rhs); returns None if all equal."""
    for wit, lhs, rhs in pairs:
        if lhs != rhs:
            return {"at": wit, "lhs": vec_items(lhs), "rhs": vec_items(rhs)}
    return None


def _block_sides(at, lhs, rhs, width, count):
    """The (at + (t,), block t of lhs, block t of rhs) of two stacked
    vectors for every t, when they differ; nothing when they are equal,
    since then every block is."""
    if lhs != rhs:
        blocks = zip(unstack(lhs, width, count), unstack(rhs, width, count))
        for t, (l, r) in enumerate(blocks):
            yield at + (t,), l, r


def verify_left_bialgebroid(M, report=None):
    return _verify_bialgebroid(M, _Half(M, "B"), report)


def verify_right_bialgebroid(M, report=None):
    return _verify_bialgebroid(M, _Half(M, "C"), report)


def _verify_bialgebroid(M, h, report):
    """The bialgebroid suite of one half, its entries named by h.side."""
    rep = report if report is not None else Report()
    A, n, q, side = h.A, h.A.dim, h.q, h.side
    modules = side + "-bialgebroid-modules"
    # struct k of q acts on leg k through the embedding Delta carries onto the other leg
    for k, struct in ((1, q.struct1), (2, q.struct2)):
        ok, wit = struct.check_action()
        name = "s" if k == h.t_leg else "t"
        rep.check(ok, "%s-module-action-%s" % (side, name), modules, wit)
    structs = (q.struct1, q.struct2)
    rep.check(all(st.is_faithful() for st in structs), side + "-modules-faithful", modules)
    rep.check(all(st.is_idempotent() for st in structs), side + "-modules-idempotent", modules)
    # non-degeneracy of the quotient over the legs' multiplications
    joints = [joint_kernel([op({j: ONE}) for j in range(n)]) for op in h.absorb]
    rep.check(not any(joints), side + "-tensor-nondegenerate", modules)

    # Delta lands in the admissible operator space (Takeuchi's x_B
    # condition): Delta(b) r lies in the relation span R for every b and
    # every relation r, the product in h's order.  The structures of q
    # multiply, from the left on QB and from the right on QC, so the
    # generator at (x, a, c) is g_x (a (x) c) in h's order, where
    # g_x = x.1 (x) 1 - 1 (x) x.1 is the generator at (x, 1, 1).  If A is
    # associative and unital, R is therefore the right ideal, in h's order,
    # generated by the g_x, and Delta(b) R lies in R iff every Delta(b) g_x
    # does.  Otherwise the rows of the relation echelon are checked, the
    # product being linear in the relation.  Only if a check fails are the
    # generators scanned, b outer, to name the witness.
    def lands(b, rel):
        return q.space.contains_relation(tensor_mul(A, *h.ordered(h.lifts[b], rel)))

    unit = A.unit()
    if unit is not None and A.is_associative()[0]:
        spanning = [vsub(kron_vec(act1.apply(unit), unit, n), kron_vec(unit, act2.apply(unit), n))
                    for act1, act2 in zip(q.struct1.acts, q.struct2.acts)]
    else:
        spanning = q.space.rref.rows.values()
    wit = None
    if not all(lands(b, rel) for b in range(n) for rel in spanning):
        wit = next({"delta_of": A.labels[b], "relation": gen}
                   for b in range(n)
                   for gen, rel in zip(q.generators, q.relation_vectors())
                   if not lands(b, rel))
    rep.check(wit is None, side + "-delta-operator", side + "-delta-operator", wit)

    wit = _first_failure(
        ((A.labels[i], A.labels[j]),
         h.delta.apply(A.mul({i: ONE}, {j: ONE})),
         q.mul_class(h.delta.col(i), h.delta.col(j)))
        for i in range(n)
        for j in range(n)
    )
    rep.check(wit is None, side + "-delta-homomorphism", side + "-delta-homomorphism", wit)

    lmul, rmul = (q.lmul1, q.lmul2), (q.rmul1, q.rmul2)
    words = ("s(%s)a", "t(%s)a", "as(%s)", "at(%s)")
    checks = []
    for x in range(h.base.dim):
        sx, tx = h.s.col(x), h.t.col(x)
        ops = (lmul[h.s_leg - 1](sx), lmul[h.t_leg - 1](tx),
               rmul[h.s_leg - 1](sx), rmul[h.t_leg - 1](tx))
        for a in range(n):
            ea, da = {a: ONE}, h.delta.col(a)
            products = (A.mul(sx, ea), A.mul(tx, ea), A.mul(ea, sx), A.mul(ea, tx))
            for word, prod, op in zip(words, products, ops):
                checks.append(((word % h.x, x, a), h.delta.apply(prod), op.apply(da)))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, side + "-delta-bimodule", side + "-delta-bimodule", wit)

    _coassociativity(M, rep, h.letter * 2, side + "-coassociativity",
                     "delta-coassociative" if side == "left" else "right-delta-co-associative")

    if h.eps is not None:
        _counit_checks(h, rep)
    return rep


def _triple_expand(h, lifted, leg):
    """Apply h's Delta to one leg of a lifted 2-tensor, giving a 3-tensor.

    leg=1: c (x) d -> Delta(c) (x) d;  leg=2: c (x) d -> c (x) Delta(d).
    """
    n, lifts = h.A.dim, h.lifts
    out = {}
    for idx, s in lifted.items():
        i, j = divmod(idx, n)
        if leg == 1:
            axpy(out, s, {k * n + j: t for k, t in lifts[i].items()})
        else:
            axpy(out, s, lifts[j], i * n * n)
    return out


def _triple_for(M, kind):
    if M._triples is None:
        M._triples = {}
    if kind not in M._triples:
        pairs = {"B": M.qb, "C": M.qc}
        M._triples[kind] = TripleTensor(M.A, pairs[kind[0]], pairs[kind[1]], kind)
    return M._triples[kind]


def _coassociativity_blocks(M, kind, bs):
    """(b, c, L, R) of the coassociativity law of kind XY, for b in bs and
    every c: the n values of a stacked, L = sum_a e_a (x) lhs(a, c) and
    R = sum_a e_a (x) rhs(a, c), block a at offset a * n^3.

    With Delta_X expanded on the left-hand side and Delta_Y on the
    right-hand side:
        (Delta_X (x) id)(Delta_Y(b) c_2) a_1 = (id (x) Delta_Y)(Delta_X(b) a_1) c_3,
    where u_k multiplies leg k by e_u from the side of the comultiplication
    acting there: from the right for Delta_B, from the left for Delta_C.
    Each side is a vector of A (x) A (x) A, index (i*n + j)*n + k.  The leg
    products are read from the table, indexed once: x -> [(a, e_x e_a)]
    on leg 1 (re-indexed to leg 1's stride) and c -> [(z, e_z e_c)] on
    leg 3, each product in the order its side takes.
    """
    n, table = M.A.dim, M.A.table
    X, Y = kind
    hx, hy = _Half(M, X), _Half(M, Y)
    n2, n3 = n * n, n ** 3
    leg1 = [[(a, {p * n2: t for p, t in prod.items()})
             for a in range(n) if (prod := table[a][x] if X == "C" else table[x][a])]
            for x in range(n)]
    leg3 = [[(z, prod) for z in range(n) if (prod := table[c][z] if Y == "C" else table[z][c])]
            for c in range(n)]
    for b in bs:
        # sum_a e_a (x) (id (x) Delta_Y)(Delta_X(b) a_1), its entries grouped by leg 3
        by_leg3 = [[] for _ in range(n)]
        for a in range(n):
            lifted = hx.q.lift(hx.absorbed(1, b, a))
            for idx, s in _triple_expand(hy, lifted, 2).items():
                by_leg3[idx % n].append((a * n3 + idx - idx % n, s))
        for c in range(n):
            L = {}
            for idx, s in _triple_expand(hx, hy.q.lift(hy.absorbed(2, b, c)), 1).items():
                x, rest = divmod(idx, n2)
                for a, prod in leg1[x]:
                    axpy(L, s, prod, a * n3 + rest)
            R = {}
            for z, prod in leg3[c]:
                for base, s in by_leg3[z]:
                    axpy(R, s, prod, base)
            yield b, c, L, R


def _coassociativity(M, rep, kind, name, eq):
    """One coassociativity law on every basis triple (a, b, c).

    For each (b, c) the two sides, stacked over a by
    ``_coassociativity_blocks``, are compared literally; equal blocks
    hold for every a.  Only a pair of blocks that differs is scanned, a in
    order, comparing each pair that differs literally in the triple
    quotient of flavor XY, which is built at the first such pair: a law
    that holds on the nose builds none.  If every pair of the block is
    equal there, the scan moves on to the next block.  The first mismatch
    in (b, c, a) order is the witness, with both sides as their canonical
    residues in the triple quotient.
    """
    labels, n = M.A.labels, M.A.dim

    def mismatches():
        for b, c, L, R in _coassociativity_blocks(M, kind, range(n)):
            if L == R:
                continue
            for a, (lhs, rhs) in enumerate(zip(unstack(L, n ** 3, n), unstack(R, n ** 3, n))):
                if lhs != rhs:
                    triple = _triple_for(M, kind)
                    lhs, rhs = triple.reduce(lhs), triple.reduce(rhs)
                    if lhs != rhs:
                        yield {"at": (labels[a], labels[b], labels[c]),
                               "lhs": vec_items(lhs), "rhs": vec_items(rhs)}

    wit = next(mismatches(), None)
    rep.check(wit is None, name, eq, wit)


def _counit_checks(h, rep):
    """The counit bimodule laws and both counit slice laws of one half."""
    A, n, eps, side = h.A, h.A.dim, h.eps, h.side
    checks = []
    for x in range(h.base.dim):
        ex = {x: ONE}
        for a in range(n):
            ea = eps.col(a)
            checks.append(
                (("eps(%s%s)" % h.ordered("s(%s)" % h.x, "a"), x, a),
                 eps.apply(h.mul(h.s.col(x), {a: ONE})),
                 h.bmul(ex, ea))
            )
            checks.append(
                (("eps(%s%s)" % h.ordered("t(%s)" % h.x, "a"), x, a),
                 eps.apply(h.mul(h.t.col(x), {a: ONE})),
                 h.bmul(ea, ex))
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, side + "-counit-bimodule",
              "left-counit-bimodule" if side == "left" else "rt-counit-bimodule", wit)

    try:
        slices = [h.q.slice(h.on_leg(leg).compose(eps), leg, side, what="counit slice")
                  for leg in (1, 2)]
    except NotBalanced as e:
        rep.check(False, side + "-counit", side + "-counit", str(e))
        return
    checks = []
    for a in range(n):
        for b in range(n):
            ab = h.mul({a: ONE}, {b: ONE})
            for leg, sl, label in zip((1, 2), slices, ("eps(x)id", "id(x)eps")):
                checks.append(
                    ((A.labels[a], A.labels[b], label), sl.apply(h.absorbed(3 - leg, a, b)), ab)
                )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, side + "-counit", side + "-counit", wit)


def canonical_maps(M, report=None):
    """The four canonical maps, their well-definedness and invertibility.

    ``out[which]`` holds the map, its domain tensor and its inverse (None
    unless bijective); ``verify_regular_mha`` reads the inverse of T_rho
    to decide ``antipode-unique`` (see ``_antipode_through_inverse``).
    """
    rep = report if report is not None else Report()
    maps = M.canonical()
    out = {}
    for which, (mat, dom) in maps.items():
        ok_wd, wit = True, None
        for gen, rel in zip(dom.generators, dom.relation_vectors()):
            image = {}
            for idx, s in rel.items():
                value = M.canonical_tilde(which, *divmod(idx, M.A.dim))
                if value:
                    axpy(image, s, value)
            if image:
                ok_wd, wit = False, {"relation": gen}
                break
        rep.check(ok_wd, "%s-welldefined" % which, "left-galois-maps"
                  if which in ("T_lambda", "T_rho") else "right-galois-maps", wit)
        bij = mat.rows == mat.cols and mat.is_bijective()
        ker = None
        if not bij:
            kb = mat.kernel_basis()
            ker = {"kernel_dim": len(kb), "dims": (mat.rows, mat.cols)}
            if kb:
                ker["kernel_witness"] = vec_items(kb[0])
        rep.check(bij, "%s-bijective" % which, "regular-2", ker)
        out[which] = {"map": mat, "domain": dom, "inverse": mat.inverse() if bij else None}
    return out, rep


# A's four one-sided module structures over a base, by name: the half and
# the embedding, "s" or "t", whose products act, in the half's order.
_ONE_SIDED = {"_BA": ("B", "s"), "A_B": ("B", "t"), "^CA": ("C", "t"), "A_C": ("C", "s")}


def _hom_space(h, e):
    """Basis of the module maps f: A -> base with f(e(x) a) = x f(a) for
    e "s" and f(e(x) a) = f(a) x for "t", every product in h's order."""
    n, dim = h.A.dim, h.base.dim
    laws = (({}, _module_form(h, e, x, a)) for x in range(dim) for a in range(n))
    system, _ = stack_equations(((dim, laws),), n * dim)
    return [LinearMap(dim, n, unstack(w, dim, n)) for w in system.kernel_basis()]


def _regularity_subspaces(M, rep):
    """The values of each Hom space, embedded by the other embedding of its
    half and multiplied by A in the half's order, span A."""
    n = M.A.dim
    for module, name in (("_BA", "SB(IB)A"), ("A_B", "IBA"), ("A_C", "ASC(IC)"), ("^CA", "AIC")):
        letter, e = _ONE_SIDED[module]
        h = _Half(M, letter)
        vals = Rref()
        for f in _hom_space(h, e):
            for a in range(n):
                vals.add(f.col(a))
        emb = h.t if e == "s" else h.s
        span = Rref()
        for v in vals.basis():
            e_v = emb.apply(v)
            for a in range(n):
                span.add(h.mul(e_v, {a: ONE}))
        rep.check(span.rank == n, "regular-subspace-" + name, "regular-1")


def _antipode_checks(M, rep, canon):
    """The antipode entries on M.S.  Returns whether the three that
    evaluate the equations of ``derive_antipode``'s system at M.S,
    ``antipode-base-bimodule``, ``antipode-diagram-left`` and
    ``antipode-diagram-right``, all passed."""
    A, n = M.A, M.A.dim
    S = M.S
    from .algebra_core import automorphism_check

    ok, wit = automorphism_check(A, S, anti=True)
    rep.check(ok, "antipode-antiautomorphism", "hopf-characterization", wit)

    def bimodule():
        """S(s(x) a) = S(a) t(x) and S(a s(x)) = t(x) S(a) on each half."""
        for h in (_Half(M, "B"), _Half(M, "C")):
            for x in range(h.base.dim):
                sx, tx = h.s.col(x), h.t.col(x)
                for a in range(n):
                    ea, sa = {a: ONE}, S.col(a)
                    yield ("S(%sa)" % h.x, x, a), S.apply(A.mul(sx, ea)), A.mul(sa, tx)
                    yield ("S(a%s)" % h.x, x, a), S.apply(A.mul(ea, sx)), A.mul(tx, sa)

    wit = _first_failure(bimodule())
    rep.check(wit is None, "antipode-base-bimodule", "hopf-characterization-1", wit)
    solves = wit is None

    # the two defining diagrams
    emb_sc_eps = M.emb_SC().compose(M.eps_C)
    emb_sb_eps = M.emb_SB().compose(M.eps_B)
    checks1, checks2 = [], []
    for a in range(n):
        for b in range(n):
            lifted = M.qb.lift(M.canonical_tilde("T_rho", a, b))
            lhs = {}
            for idx, s in lifted.items():
                i, j = divmod(idx, n)
                term = A.mul(S.col(i), {j: ONE})
                if term:
                    axpy(lhs, s, term)
            checks1.append(((A.labels[a], A.labels[b]), lhs, A.mul(emb_sc_eps.col(a), {b: ONE})))
            lifted = M.qc.lift(M.canonical_tilde("lambda_T", a, b))
            lhs = {}
            for idx, s in lifted.items():
                i, j = divmod(idx, n)
                term = A.mul({i: ONE}, S.col(j))
                if term:
                    axpy(lhs, s, term)
            checks2.append(((A.labels[a], A.labels[b]), lhs, A.mul({a: ONE}, emb_sb_eps.col(b))))
    for name, checks in (("left", checks1), ("right", checks2)):
        wit = _first_failure(iter(checks))
        rep.check(wit is None, "antipode-diagram-" + name, "dg-antipode", wit)
        solves = solves and wit is None

    # antipode-counit exchange
    checks = []
    for a in range(n):
        checks.append(
            (("S_B eps_B = eps_C S", a),
             M.S_B.apply(M.eps_B.col(a)),
             M.eps_C.apply(S.col(a)))
        )
        checks.append(
            (("S_C eps_C = eps_B S", a),
             M.S_C.apply(M.eps_C.col(a)),
             M.eps_B.apply(S.col(a)))
        )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "antipode-counits", "antipode-counits", wit)

    # inverse diagrams: T_rho (id x S) rho_T = (id x S) and the mirror
    try:
        dom_rt = M.tensor(FLAVOR_RT)
        dom_tr = canon["T_rho"]["domain"]
        s2_qc_tr = _id_tensor_s(M, M.qc, dom_tr)
        s2_rt_qb = _id_tensor_s(M, dom_rt, M.qb)
        lhs = canon["T_rho"]["map"].compose(s2_qc_tr).compose(canon["rho_T"]["map"])
        ok = lhs == s2_rt_qb
        rep.check(ok, "galois-inverse-right", "dg-galois-inverse",
                  None if ok else "composite differs from id (x) S")
        dom_lt = canon["lambda_T"]["domain"]
        dom_tl = canon["T_lambda"]["domain"]
        s1_qb_lt = _s_tensor_id(M, M.qb, dom_lt)
        s1_tl_qc = _s_tensor_id(M, dom_tl, M.qc)
        lhs = canon["lambda_T"]["map"].compose(s1_qb_lt).compose(canon["T_lambda"]["map"])
        ok = lhs == s1_tl_qc
        rep.check(ok, "galois-inverse-left", "dg-galois-inverse",
                  None if ok else "composite differs from S (x) id")
    except NotBalanced as e:
        rep.check(False, "galois-inverse", "dg-galois-inverse", str(e))

    # flip diagrams: rho_T o (flip SS) = (flip SS) o T_lambda, and the mirror
    try:
        dom_tl, dom_rt = canon["T_lambda"]["domain"], canon["rho_T"]["domain"]
        dom_lt, dom_tr = canon["lambda_T"]["domain"], canon["T_rho"]["domain"]
        ss_tl_rt = _sigma_ss(M, dom_tl, dom_rt)
        ss_qb_qc = _sigma_ss(M, M.qb, M.qc)
        ok = canon["rho_T"]["map"].compose(ss_tl_rt) == ss_qb_qc.compose(canon["T_lambda"]["map"])
        rep.check(ok, "galois-antipode-left", "dg-galois-antipode",
                  None if ok else "flip SS does not intertwine T_lambda with rho_T")
        ss_lt_tr = _sigma_ss(M, dom_lt, dom_tr)
        ss_qc_qb = _sigma_ss(M, M.qc, M.qb)
        ok = canon["T_rho"]["map"].compose(ss_lt_tr) == ss_qc_qb.compose(canon["lambda_T"]["map"])
        rep.check(ok, "galois-antipode-right", "dg-galois-antipode",
                  None if ok else "flip SS does not intertwine lambda_T with T_rho")
    except NotBalanced as e:
        rep.check(False, "galois-antipode", "dg-galois-antipode", str(e))
    return solves


def _antipode_through_inverse(M, canon):
    """Whether S(a) = m(R (x) id) T_rho^{-1}(a (x) 1) is M.S, where
    R = iota_B S_C eps_C: the first antipode diagram solved through the
    inverse ``canonical_maps`` holds (S(a) b = (eps (x) id) T_1^{-1}(a (x) b)
    for multiplier Hopf algebras, A. Van Daele, Trans. AMS 342 (1994)).
    False, without computing anything, unless T_rho is bijective and A
    is unital and associative.

    Given that, and given that M.S passes the three ``_antipode_checks``
    entries that evaluate the equations of ``derive_antipode``'s system,
    the system has exactly one solution and it is M.S:
      - Existence.  Those entries compare exactly the system's equations
        at M.S: the diagrams read qb.lift(T_rho(a, b)) and
        qc.lift(lambda_T(a, b)), and the bimodule laws are the same.
      - Uniqueness.  Let K be in the kernel of the system.  By the
        bimodule law K(s(x) a) = K(a) t(x) and associativity, m(K (x) id)
        kills QB's relations s(x) a (x) b - a (x) t(x) b; it vanishes on
        every lift of T_rho(a, b); T_rho is onto, so m(K (x) id) = 0 on
        QB, and K(a) = m(K (x) id)(e_a (x) 1) = 0.
    So the entry passes with no solve.  S' == M.S is an extra, computed
    cross-check that cannot fail under these gates; if it does, the
    caller solves the system after all.
    """
    A, n, inv = M.A, M.A.dim, canon["T_rho"]["inverse"]
    unit = A.unit()
    if inv is None or unit is None or not A.is_associative()[0]:
        return False
    dom, R = canon["T_rho"]["domain"], M.emb_SC().compose(M.eps_C)
    for a in range(n):
        value = {}
        for idx, c in dom.lift(inv.apply(M.qb.pure({a: ONE}, unit))).items():
            x, y = divmod(idx, n)
            axpy(value, c, A.mul(R.col(x), {y: ONE}))
        if value != M.S.col(a):
            return False
    return True


def verify_regular_mha(M):
    """The full axiom suite; every entry carries its registry label."""
    rep = Report()
    rep.merge(check_algebra(M.A), prefix="algebra")
    M.B.validate(rep, axiom_prefix="base-B")
    M.C.validate(rep, axiom_prefix="base-C")
    ok, wit = M.B.commutes_with(M.C)
    rep.check(ok, "bases-commute", "mult-hopf-algebroid-2", wit)
    okb = M.S_B.is_bijective()
    okc = M.S_C.is_bijective()
    anti_b, wit_b = _anti_iso_check(M.B.base, M.C.base, M.S_B)
    anti_c, wit_c = _anti_iso_check(M.C.base, M.B.base, M.S_C)
    rep.check(okb and anti_b, "S_B-anti-isomorphism", "mult-hopf-algebroid-2", wit_b)
    rep.check(okc and anti_c, "S_C-anti-isomorphism", "mult-hopf-algebroid-2", wit_c)

    verify_left_bialgebroid(M, rep)
    verify_right_bialgebroid(M, rep)
    _coassociativity(M, rep, "BC", "mixed-coassociativity-1", "compatible")
    _coassociativity(M, rep, "CB", "mixed-coassociativity-2", "compatible")

    # extended bimodule value on the unit: Delta(xy) = y (x) x
    A, n = M.A, M.A.dim
    units = []
    for x in range(M.B.base.dim):
        bx = M.B.embed.col(x)
        for y in range(M.C.base.dim):
            cy = M.C.embed.col(y)
            units.append((("x", x, "y", y), A.mul(bx, cy), cy, bx))
    halves = (_Half(M, "B"), _Half(M, "C"))
    for h in halves:
        wit = _first_failure(
            (at, h.delta.apply(xy), h.q.pure(cy, bx)) for at, xy, cy, bx in units
        )
        rep.check(wit is None, "delta-%s-extended-unit" % h.letter, "delta-bimodule-extended", wit)

    def multiplicative():
        """eps(ab) = eps(p e(eps(q))) in h's order, (p, q) = (a, b) on B and
        (b, a) on C, for e = s, t, each half's pair in turn at each (a, b)."""
        laws = []
        for h in halves:
            p_word, q_word = h.ordered("a", "b")
            inner = "eps_%s(%s)" % (h.letter, q_word)
            labels = ["eps_%s(ab)=eps_%s(%s %s)" % (h.letter, h.letter, *h.ordered(p_word, word))
                      for word in (inner, "S_%s(%s)" % (h.letter, inner))]
            laws.append((h, tuple(zip((h.s, h.t), labels))))
        for a in range(n):
            for b in range(n):
                ab = A.mul({a: ONE}, {b: ONE})
                for h, forms in laws:
                    p, q = h.ordered(a, b)
                    lhs, value = h.eps.apply(ab), h.eps.col(q)
                    for emb, label in forms:
                        yield ((label, a, b), lhs,
                               h.eps.apply(h.mul({p: ONE}, emb.apply(value))))

    wit = _first_failure(multiplicative())
    rep.check(wit is None, "counits-multiplicative", "counits-multiplicative", wit)

    wit = _galois_compatibility(M)
    rep.check(wit is None, "galois-compatibility", "dg-left-galois-1", wit)

    canon, _ = canonical_maps(M, rep)
    _regularity_subspaces(M, rep)
    if _antipode_checks(M, rep, canon) and _antipode_through_inverse(M, canon):
        derived, err = M.S, None
    else:
        derived, err = derive_antipode(M)
    rep.check(
        derived is not None and derived == M.S,
        "antipode-unique",
        "hopf-characterization",
        err if derived is None else ("derived antipode differs" if derived != M.S else None),
    )
    return rep


def _galois_compatibility(M):
    """The first canonical-map compatibility diagram (2-leg form),
    rmul2(c) T_lambda(a, b) = rmul1(a) T_rho(b, c): its first witness over
    (a, b, c), c innermost, or None.

    For each (a, b) the n values of c are stacked into one vector per
    side, block c at offset c * QB.dim: stack(rmul2) applied to
    T_lambda(a, b), and rmul1(a) applied block by block to
    sum_c e_c (x) T_rho(b, c).  The two are compared literally; only a
    pair that differs is scanned block by block, c in order.
    """
    qb, n = M.qb, M.A.dim
    rmul2 = stack([qb.rmul2({c: ONE}) for c in range(n)])
    rmul1 = [qb.rmul1({a: ONE}) for a in range(n)]
    rho = [{} for _ in range(n)]
    for b in range(n):
        for c in range(n):
            value = M.canonical_tilde("T_rho", b, c)
            if value:
                axpy(rho[b], ONE, value, c * qb.dim)

    def sides():
        for a in range(n):
            for b in range(n):
                yield from _block_sides(
                    (a, b), rmul2.apply(M.canonical_tilde("T_lambda", a, b)),
                    rmul1[a].apply_blocks(rho[b]), qb.dim, n)

    return _first_failure(sides())


def _anti_iso_check(src, dst, f):
    for i in range(src.dim):
        fi = f.col(i)
        for j in range(src.dim):
            lhs = f.apply(dict(src.table[i][j]))
            rhs = dst.mul(f.col(j), fi)
            if lhs != rhs:
                return False, (src.labels[i], src.labels[j])
    return True, None


def verify_star(M):
    """Involution compatibility for a candidate multiplier Hopf *-algebroid."""
    rep = Report()
    A, n = M.A, M.A.dim
    if A.involution is None:
        rep.check(False, "involution-present", "involution", "no involution on A")
        return rep
    rep.merge(check_algebra(A), prefix="algebra")
    star = A.star

    img_b, img_c = M.B.image_rref(), M.C.image_rref()
    okb = all(img_b.contains(star(M.B.embed.col(x))) for x in range(M.B.base.dim))
    okc = all(img_c.contains(star(M.C.embed.col(y))) for y in range(M.C.base.dim))
    rep.check(okb and okc, "bases-star-closed", "involution-1")
    if not (okb and okc):
        return rep

    def star_on_base(emb):
        def f(x):
            pre = emb.embed.solve(star(emb.embed.col(x)))
            assert pre is not None
            return pre

        return LinearMap.from_function(emb.base.dim, emb.base.dim, f)

    star_b, star_c = star_on_base(M.B), star_on_base(M.C)
    # star maps are antilinear; compose with conj between stages
    ok1 = _antilinear_round_trip(M.S_B, star_b, M.S_C, star_c, M.C.base.dim)
    ok2 = _antilinear_round_trip(M.S_C, star_c, M.S_B, star_b, M.B.base.dim)
    rep.check(ok1, "SB-star-SC-star", "involution-2")
    rep.check(ok2, "SC-star-SB-star", "involution-2")

    # comultiplication compatibility
    try:
        star_qc_qb = descend_componentwise(
            M.qc, M.qb, lambda i, j: kron_vec(star({i: ONE}), star({j: ONE}), n),
            "star (x) star does not descend {src!r} -> {dst!r}", antilinear=True,
        )
    except NotBalanced as e:
        rep.check(False, "star-tensor-map", "involution-2", str(e))
        return rep
    qb, qc = M.qb, M.qc
    rmul1 = [qb.rmul1(star({b: ONE})) for b in range(n)]
    rmul2 = stack([qb.rmul2(star({c: ONE})) for c in range(n)])
    # (* (x) *)(lmul2(c) v) = star_qc_qb conj(lmul2(c)) conj(v): the map is antilinear
    starred = stack([star_qc_qb.compose(qc.lmul2({c: ONE}).conj()) for c in range(n)])

    def sides():
        """rmul2(c*) rmul1(b*) Delta_B(a*) and (* (x) *)(lmul2(c) lambda_T(b, a)),
        the n values of c stacked, block c at offset c * QB.dim, and
        compared literally; only a pair that differs is scanned, c in order."""
        for a in range(n):
            dstar = M.delta_B.apply(star({a: ONE}))
            for b in range(n):
                head = rmul1[b].apply(dstar)
                tail = vec_conj(M.canonical_tilde("lambda_T", b, a))
                yield from _block_sides((a, b), rmul2.apply(head), starred.apply(tail), qb.dim, n)

    wit = _first_failure(sides())
    rep.check(wit is None, "delta-star-compatibility", "involution-3", wit)

    # consequences
    checks = []
    for a in range(n):
        sa = star({a: ONE})
        checks.append(
            (("eps_C(a*)", a),
             M.eps_C.apply(sa),
             _apply_star_base(M, "C", M.S_B.apply(M.eps_B.col(a)))))
        checks.append(
            (("eps_B(a*)", a),
             M.eps_B.apply(sa),
             _apply_star_base(M, "B", M.S_C.apply(M.eps_C.col(a)))))
        checks.append(
            (("S*S* = id", a), star(M.S.apply(star(M.S.col(a)))), {a: ONE}))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "counit-antipode-involution", "counit-antipode-involution", wit)
    return rep


def _apply_star_base(M, side, v):
    emb = M.C if side == "C" else M.B
    pre = emb.embed.solve(M.A.star(emb.embed.apply(v)))
    assert pre is not None
    return pre


def _antilinear_round_trip(s1, star1, s2, star2, dim):
    """Check s1 o star o s2 o star = id where star maps are antilinear."""
    for y in range(dim):
        v = {y: ONE}
        w = star2.apply(vec_conj(v))
        w = s2.apply(w)
        w = star1.apply(vec_conj(w))
        w = s1.apply(w)
        if w != v:
            return False
    return True
