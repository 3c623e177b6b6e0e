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
    vec_conj,
    vec_items,
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
    _structs = None  # (multiplication side, embedding) -> ModuleStructure
    _triples = None  # coassociativity kind -> TripleTensor

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
    ):
        self.A = A
        self.B = B  # BaseEmbedding
        self.C = C  # BaseEmbedding
        self.S_B = S_B  # LinearMap base_B -> base_C
        self.S_C = S_C  # LinearMap base_C -> base_B
        self.name = name
        self._tensors = {}
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
        if flavor not in self._tensors:
            s1, s2 = (self._struct(*key) for key in self._RECIPES[flavor])
            self._tensors[flavor] = BalancedTensor(self.A, s1, s2, flavor)
        return self._tensors[flavor]

    @property
    def qb(self):
        return self.tensor(FLAVOR_QB)

    @property
    def qc(self):
        return self.tensor(FLAVOR_QC)

    # -- coproduct products --------------------------------------------------

    def db_class(self, v):
        return self.delta_B.apply(v)

    def dc_class(self, v):
        return self.delta_C.apply(v)

    def db_lift(self, j):
        return self._db_lift[j]

    def dc_lift(self, j):
        return self._dc_lift[j]

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
        """The unfactored canonical map on a pure tensor e_a (x) e_b."""
        if which == "T_lambda":
            return self.qb.rmul1({a: ONE}).apply(self.delta_B.col(b))
        if which == "T_rho":
            return self.qb.rmul2({b: ONE}).apply(self.delta_B.col(a))
        if which == "lambda_T":
            return self.qc.lmul1({a: ONE}).apply(self.delta_C.col(b))
        if which == "rho_T":
            return self.qc.lmul2({b: ONE}).apply(self.delta_C.col(a))
        raise ValueError(which)

    def __repr__(self):
        return "RegularMHA(%r, dim=%d)" % (self.name, self.A.dim)


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


def _stack_equations(groups, unknowns):
    """One linear system from groups of (width, [(target, terms), ...]).

    Each equation says sum(coeff * vec) = target over ``width`` rows, with
    terms (unknown index, coeff, vec).  Every equation gets its own rows,
    from eq * stride on, with one stride, the widest width, so equations of
    different widths never share a row.  Returns (system, rhs).
    """
    stride = max(width for width, _ in groups)
    cols = [{} for _ in range(unknowns)]
    rhs = {}
    eq = 0
    for _, blocks in groups:
        for target, terms in blocks:
            axpy(rhs, ONE, target, eq * stride)
            for col_idx, coeff, vec in terms:
                axpy(cols[col_idx], coeff, vec, eq * stride)
            eq += 1
    return LinearMap(eq * stride, unknowns, cols), rhs


def derive_counits(M):
    """Solve for the counits; unique for a regular bundle.

    Stacks the two slice laws with the counit bimodule conditions; as
    with the antipode, the slice laws alone can leave base-mismatched
    entries free.
    """
    A, n = M.A, M.A.dim

    def solve_side(dim_b, law_blocks, module_blocks, label):
        system, rhs = _stack_equations(((n, law_blocks), (dim_b, module_blocks)), n * dim_b)
        sol = system.solve(rhs)
        if sol is None or system.kernel_basis():
            raise ValueError("%s counit does not exist or is not unique" % label)
        return LinearMap.from_function(
            dim_b,
            n,
            lambda a: {x: sol[a * dim_b + x] for x in range(dim_b) if a * dim_b + x in sol},
        )

    emb_SB, emb_B = M.emb_SB(), M.B.embed
    dim_b = M.B.base.dim
    qb = M.qb
    law_blocks = []
    for a in range(n):
        da = M.delta_B.col(a)
        for b in range(n):
            target = A.mul({a: ONE}, {b: ONE})
            terms = []
            for idx, c in qb.lift(qb.rmul2({b: ONE}).apply(da)).items():
                i, j = divmod(idx, n)
                for x in range(dim_b):
                    terms.append((i * dim_b + x, c, A.mul(emb_SB.col(x), {j: ONE})))
            law_blocks.append((target, terms))
            terms = []
            for idx, c in qb.lift(qb.rmul1({b: ONE}).apply(da)).items():
                i, j = divmod(idx, n)
                for x in range(dim_b):
                    terms.append((j * dim_b + x, c, A.mul(emb_B.col(x), {i: ONE})))
            law_blocks.append((target, terms))
    module_blocks = []
    bb = M.B.base
    for x in range(dim_b):
        bx, sbx = emb_B.col(x), emb_SB.col(x)
        for a in range(n):
            # eps(s(x) a) = x eps(a)
            terms = []
            for i, c in A.mul(bx, {a: ONE}).items():
                for xb in range(dim_b):
                    terms.append((i * dim_b + xb, c, {xb: ONE}))
            for xb in range(dim_b):
                terms.append((a * dim_b + xb, -ONE, bb.mul({x: ONE}, {xb: ONE})))
            module_blocks.append(({}, terms))
            # eps(t(x) a) = eps(a) x
            terms = []
            for i, c in A.mul(sbx, {a: ONE}).items():
                for xb in range(dim_b):
                    terms.append((i * dim_b + xb, c, {xb: ONE}))
            for xb in range(dim_b):
                terms.append((a * dim_b + xb, -ONE, bb.mul({xb: ONE}, {x: ONE})))
            module_blocks.append(({}, terms))
    eps_B = solve_side(dim_b, law_blocks, module_blocks, "left")

    emb_SC, emb_C = M.emb_SC(), M.C.embed
    dim_c = M.C.base.dim
    qc = M.qc
    law_blocks = []
    for a in range(n):
        da = M.delta_C.col(a)
        for b in range(n):
            target = A.mul({b: ONE}, {a: ONE})
            terms = []
            for idx, c in qc.lift(qc.lmul2({b: ONE}).apply(da)).items():
                i, j = divmod(idx, n)
                for y in range(dim_c):
                    terms.append((i * dim_c + y, c, A.mul({j: ONE}, emb_C.col(y))))
            law_blocks.append((target, terms))
            terms = []
            for idx, c in qc.lift(qc.lmul1({b: ONE}).apply(da)).items():
                i, j = divmod(idx, n)
                for y in range(dim_c):
                    terms.append((j * dim_c + y, c, A.mul({i: ONE}, emb_SC.col(y))))
            law_blocks.append((target, terms))
    module_blocks = []
    cc = M.C.base
    for y in range(dim_c):
        cy, scy = emb_C.col(y), emb_SC.col(y)
        for a in range(n):
            # eps(a s(y)) = eps(a) y
            terms = []
            for i, c in A.mul({a: ONE}, cy).items():
                for yb in range(dim_c):
                    terms.append((i * dim_c + yb, c, {yb: ONE}))
            for yb in range(dim_c):
                terms.append((a * dim_c + yb, -ONE, cc.mul({yb: ONE}, {y: ONE})))
            module_blocks.append(({}, terms))
            # eps(a t(y)) = y eps(a)
            terms = []
            for i, c in A.mul({a: ONE}, scy).items():
                for yb in range(dim_c):
                    terms.append((i * dim_c + yb, c, {yb: ONE}))
            for yb in range(dim_c):
                terms.append((a * dim_c + yb, -ONE, cc.mul({y: ONE}, {yb: ONE})))
            module_blocks.append(({}, terms))
    eps_C = solve_side(dim_c, law_blocks, module_blocks, "right")
    return eps_B, eps_C


def derive_antipode(M):
    """Solve for the antipode; (S, None) or (None, reason).

    The linear system stacks the two defining diagrams with the base
    bimodule condition S(x y a x' y') = S_C(y') S_B(x') S(a) S_C(y) S_B(x);
    the diagrams alone leave entries at source/target-mismatched basis
    pairs unconstrained, and the bimodule condition (also linear in S)
    is what pins them to zero.
    """
    A, n = M.A, M.A.dim
    if M.eps_B is None or M.eps_C is None:
        raise ValueError("derive_antipode needs verified counits")
    emb_sc_eps = M.emb_SC().compose(M.eps_C)  # a -> iota_B(S_C(eps_C(a)))
    emb_sb_eps = M.emb_SB().compose(M.eps_B)  # a -> iota_C(S_B(eps_B(a)))
    cols = [dict() for _ in range(n * n)]
    rhs = {}
    eqno = 0

    def put(col_idx, coeff, vec):
        axpy(cols[col_idx], coeff, vec, eqno * n)

    for a in range(n):
        for b in range(n):
            # m (S (x) id) T_rho(a (x) b) = iota_B(S_C(eps_C(a))) * b
            lifted = M.qb.lift(M.canonical_tilde("T_rho", a, b))
            axpy(rhs, ONE, A.mul(emb_sc_eps.col(a), {b: ONE}), eqno * n)
            for idx, c in lifted.items():
                i, j = divmod(idx, n)
                for k in range(n):
                    put(i * n + k, c, A.mul({k: ONE}, {j: ONE}))  # unknown S[k, i]
            eqno += 1
            # m (id (x) S) lambda_T(a (x) b) = a * iota_C(S_B(eps_B(b)))
            lifted = M.qc.lift(M.canonical_tilde("lambda_T", a, b))
            axpy(rhs, ONE, A.mul({a: ONE}, emb_sb_eps.col(b)), eqno * n)
            for idx, c in lifted.items():
                i, j = divmod(idx, n)
                for k in range(n):
                    put(j * n + k, c, A.mul({i: ONE}, {k: ONE}))  # unknown S[k, j]
            eqno += 1
    # bimodule condition on generators: S(e.a) = S(a).e', S(a.e) = e'.S(a)
    pairs = [
        (M.B.embed, M.emb_SB()),  # x in B, companion S_B(x) in C
        (M.C.embed, M.emb_SC()),  # y in C, companion S_C(y) in B
    ]
    for emb, companion in pairs:
        for x in range(emb.cols):
            ex, ex2 = emb.col(x), companion.col(x)
            for a in range(n):
                moved = A.mul(ex, {a: ONE})  # S(x a) - S(a) x' = 0
                for i, c in moved.items():
                    for k in range(n):
                        put(i * n + k, c, {k: ONE})
                for k in range(n):
                    put(a * n + k, -ONE, A.mul({k: ONE}, ex2))
                eqno += 1
                moved = A.mul({a: ONE}, ex)  # S(a x) - x' S(a) = 0
                for i, c in moved.items():
                    for k in range(n):
                        put(i * n + k, c, {k: ONE})
                for k in range(n):
                    put(a * n + k, -ONE, A.mul(ex2, {k: ONE}))
                eqno += 1
    system = LinearMap(eqno * n, n * n, cols)
    sol = system.solve(rhs)
    if sol is None:
        witness = "antipode system is inconsistent"
        return None, witness
    if system.kernel_basis():
        return None, "antipode system underdetermines S"
    S = LinearMap.from_function(
        n, n, lambda i: {k: sol[i * n + k] for k in range(n) if i * n + k in sol}
    )
    return S, None


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _first_failure(pairs):
    """pairs: iterable of (witness, lhs, rhs); returns None if all equal."""
    for wit, lhs, rhs in pairs:
        if lhs != rhs:
            return {"at": wit, "lhs": vec_items(lhs), "rhs": vec_items(rhs)}
    return None


def verify_left_bialgebroid(M, report=None):
    rep = report if report is not None else Report()
    A, n = M.A, M.A.dim
    qb = M.qb
    bsA = qb.struct1
    btA = qb.struct2
    ok, wit = bsA.check_action()
    rep.check(ok, "left-module-action-s", "left-bialgebroid-modules", wit)
    ok, wit = btA.check_action()
    rep.check(ok, "left-module-action-t", "left-bialgebroid-modules", wit)
    rep.check(
        bsA.is_faithful() and btA.is_faithful(),
        "left-modules-faithful",
        "left-bialgebroid-modules",
    )
    rep.check(
        bsA.is_idempotent() and btA.is_idempotent(),
        "left-modules-idempotent",
        "left-bialgebroid-modules",
    )
    # non-degeneracy of the quotient over A (x) 1 and 1 (x) A
    joint1 = joint_kernel([qb.rmul1({j: ONE}) for j in range(n)])
    joint2 = joint_kernel([qb.rmul2({j: ONE}) for j in range(n)])
    rep.check(not joint1 and not joint2, "left-tensor-nondegenerate", "left-bialgebroid-modules")

    # Delta_B lands in the admissible operator space
    ok_op, wit_op = True, None
    rels = qb.relation_vectors()
    for b in range(n):
        lifted = M.db_lift(b)
        for gen, rel in zip(qb.generators, rels):
            if not qb.space.contains_relation(tensor_mul(A, lifted, rel)):
                ok_op, wit_op = False, {"delta_of": A.labels[b], "relation": gen}
                break
        if not ok_op:
            break
    rep.check(ok_op, "left-delta-operator", "left-delta-operator", wit_op)

    wit = _first_failure(
        ((A.labels[i], A.labels[j]),
         M.db_class(A.mul({i: ONE}, {j: ONE})),
         qb.mul_class(M.delta_B.col(i), M.delta_B.col(j)))
        for i in range(n)
        for j in range(n)
    )
    rep.check(wit is None, "left-delta-homomorphism", "left-delta-homomorphism", wit)

    emb_B, emb_SB = M.B.embed, M.emb_SB()
    checks = []
    for x in range(M.B.base.dim):
        bx, sbx = emb_B.col(x), emb_SB.col(x)
        l2, l1 = qb.lmul2(bx), qb.lmul1(sbx)
        r2, r1 = qb.rmul2(bx), qb.rmul1(sbx)
        for a in range(n):
            da = M.delta_B.col(a)
            checks.append((("s(x)a", x, a), M.db_class(A.mul(bx, {a: ONE})), l2.apply(da)))
            checks.append((("t(x)a", x, a), M.db_class(A.mul(sbx, {a: ONE})), l1.apply(da)))
            checks.append((("as(x)", x, a), M.db_class(A.mul({a: ONE}, bx)), r2.apply(da)))
            checks.append((("at(x)", x, a), M.db_class(A.mul({a: ONE}, sbx)), r1.apply(da)))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "left-delta-bimodule", "left-delta-bimodule", wit)

    _coassociativity(M, rep, "BB", "left-coassociativity", "delta-coassociative")

    if M.eps_B is not None:
        _left_counit_checks(M, rep)
    return rep


def _triple_expand(M, lifted, leg, side):
    """Apply Delta to one leg of a lifted 2-tensor, giving a 3-tensor.

    leg=1: c (x) d -> Delta(c) (x) d;  leg=2: c (x) d -> c (x) Delta(d).
    side selects which comultiplication ("B" or "C").
    """
    n = M.A.dim
    lifts = M._db_lift if side == "B" else M._dc_lift
    out = {}
    for idx, s in lifted.items():
        i, j = divmod(idx, n)
        if leg == 1:
            axpy(out, s, {k * n + j: t for k, t in lifts[i].items()})
        else:
            axpy(out, s, lifts[j], i * n * n)
    return out


def _triple_mul(A, w, leg, u, from_left):
    """Multiply leg 1, 2 or 3 of a 3-tensor by u, from the left or the right."""
    n = A.dim
    stride = n ** (3 - leg)
    products = {}  # leg index x -> e_x times u, re-indexed on this leg
    out = {}
    for idx, s in w.items():
        x = idx // stride % n
        if x not in products:
            prod = A.mul(u, {x: ONE}) if from_left else A.mul({x: ONE}, u)
            products[x] = {y * stride: t for y, t in prod.items()}
        axpy(out, s, products[x], idx - x * stride)
    return out


def _triple_for(M, kind):
    if M._triples is None:
        M._triples = {}
    if kind not in M._triples:
        pairs = {"B": M.qb, "C": M.qc}
        M._triples[kind] = TripleTensor(M.A, pairs[kind[0]], pairs[kind[1]], kind)
    return M._triples[kind]


def _coassociativity_sides(M, kind, b):
    """(a, c, lhs, rhs) of the coassociativity law of kind XY at b, every a, c.

    With Delta_X expanded on the left-hand side and Delta_Y on the
    right-hand side:
        (Delta_X (x) id)(Delta_Y(b) c_2) a_1 = (id (x) Delta_Y)(Delta_X(b) a_1) c_3,
    where u_k multiplies leg k by e_u from the side of the comultiplication
    acting there: from the right for Delta_B, from the left for Delta_C.
    Both sides are vectors of A (x) A (x) A; c runs outer, a inner.
    """
    A, n = M.A, M.A.dim
    X, Y = kind

    def times(side, leg, u):
        """Lift of Delta_side(b) times e_u on one leg."""
        if side == "B":
            t, op, delta = M.qb, (M.qb.rmul1, M.qb.rmul2)[leg - 1], M.delta_B
        else:
            t, op, delta = M.qc, (M.qc.lmul1, M.qc.lmul2)[leg - 1], M.delta_C
        return t.lift(op({u: ONE}).apply(delta.col(b)))

    rhs3 = [_triple_expand(M, times(X, 1, a), 2, Y) for a in range(n)]
    for c in range(n):
        lhs3 = _triple_expand(M, times(Y, 2, c), 1, X)
        for a in range(n):
            lhs = _triple_mul(A, lhs3, 1, {a: ONE}, from_left=X == "C")
            rhs = _triple_mul(A, rhs3[a], 3, {c: ONE}, from_left=Y == "C")
            yield a, c, lhs, rhs


def _coassociativity(M, rep, kind, name, eq):
    """One coassociativity law on every basis triple (a, b, c).

    The sides given by ``_coassociativity_sides`` are compared in the
    triple quotient of flavor XY; the first mismatch is the witness.
    """
    triple = _triple_for(M, kind)
    labels = M.A.labels
    mismatches = (
        (labels[a], labels[b], labels[c])
        for b in range(M.A.dim)
        for a, c, lhs, rhs in _coassociativity_sides(M, kind, b)
        if not triple.equal(lhs, rhs)
    )
    at = next(mismatches, None)
    rep.check(at is None, name, eq, None if at is None else {"at": at})


def _left_counit_checks(M, rep):
    A, n = M.A, M.A.dim
    qb = M.qb
    bb = M.B.base
    # bimodule laws for eps_B
    checks = []
    for x in range(bb.dim):
        bx, sbx = M.B.embed.col(x), M.emb_SB().col(x)
        for a in range(n):
            checks.append(
                ((("eps(s(x)a)"), x, a),
                 M.eps_B.apply(A.mul(bx, {a: ONE})),
                 bb.mul({x: ONE}, M.eps_B.col(a)))
            )
            checks.append(
                ((("eps(t(x)a)"), x, a),
                 M.eps_B.apply(A.mul(sbx, {a: ONE})),
                 bb.mul(M.eps_B.col(a), {x: ONE}))
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "left-counit-bimodule", "left-counit-bimodule", wit)

    try:
        sl = qb.slice(M.emb_SB().compose(M.eps_B), 1, "left", what="counit slice")
        sr = qb.slice(M.B.embed.compose(M.eps_B), 2, "left", what="counit slice")
    except NotBalanced as e:
        rep.check(False, "left-counit", "left-counit", str(e))
        return
    checks = []
    for a in range(n):
        da = M.delta_B.col(a)
        for b in range(n):
            ab = A.mul({a: ONE}, {b: ONE})
            checks.append(
                ((A.labels[a], A.labels[b], "eps(x)id"),
                 sl.apply(qb.rmul2({b: ONE}).apply(da)),
                 ab)
            )
            checks.append(
                ((A.labels[a], A.labels[b], "id(x)eps"),
                 sr.apply(qb.rmul1({b: ONE}).apply(da)),
                 ab)
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "left-counit", "left-counit", wit)


def verify_right_bialgebroid(M, report=None):
    rep = report if report is not None else Report()
    A, n = M.A, M.A.dim
    qc = M.qc
    ok, wit = qc.struct1.check_action()
    rep.check(ok, "right-module-action-t", "right-bialgebroid-modules", wit)
    ok, wit = qc.struct2.check_action()
    rep.check(ok, "right-module-action-s", "right-bialgebroid-modules", wit)
    rep.check(
        qc.struct1.is_faithful() and qc.struct2.is_faithful(),
        "right-modules-faithful",
        "right-bialgebroid-modules",
    )
    rep.check(
        qc.struct1.is_idempotent() and qc.struct2.is_idempotent(),
        "right-modules-idempotent",
        "right-bialgebroid-modules",
    )
    joint1 = joint_kernel([qc.lmul1({j: ONE}) for j in range(n)])
    joint2 = joint_kernel([qc.lmul2({j: ONE}) for j in range(n)])
    rep.check(not joint1 and not joint2, "right-tensor-nondegenerate", "right-bialgebroid-modules")

    ok_op, wit_op = True, None
    rels = qc.relation_vectors()
    for b in range(n):
        lifted = M.dc_lift(b)
        for gen, rel in zip(qc.generators, rels):
            if not qc.space.contains_relation(tensor_mul(A, rel, lifted)):
                ok_op, wit_op = False, {"delta_of": A.labels[b], "relation": gen}
                break
        if not ok_op:
            break
    rep.check(ok_op, "right-delta-operator", "right-delta-operator", wit_op)

    wit = _first_failure(
        ((A.labels[i], A.labels[j]),
         M.dc_class(A.mul({i: ONE}, {j: ONE})),
         qc.mul_class(M.delta_C.col(i), M.delta_C.col(j)))
        for i in range(n)
        for j in range(n)
    )
    rep.check(wit is None, "right-delta-homomorphism", "right-delta-homomorphism", wit)

    emb_C, emb_SC = M.C.embed, M.emb_SC()
    checks = []
    for y in range(M.C.base.dim):
        cy, scy = emb_C.col(y), emb_SC.col(y)
        l1, l2 = qc.lmul1(cy), qc.lmul2(scy)
        r1, r2 = qc.rmul1(cy), qc.rmul2(scy)
        for a in range(n):
            da = M.delta_C.col(a)
            checks.append((("s(y)a", y, a), M.dc_class(A.mul(cy, {a: ONE})), l1.apply(da)))
            checks.append((("t(y)a", y, a), M.dc_class(A.mul(scy, {a: ONE})), l2.apply(da)))
            checks.append((("as(y)", y, a), M.dc_class(A.mul({a: ONE}, cy)), r1.apply(da)))
            checks.append((("at(y)", y, a), M.dc_class(A.mul({a: ONE}, scy)), r2.apply(da)))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "right-delta-bimodule", "right-delta-bimodule", wit)

    _coassociativity(M, rep, "CC", "right-coassociativity", "right-delta-co-associative")

    if M.eps_C is not None:
        _right_counit_checks(M, rep)
    return rep


def _right_counit_checks(M, rep):
    A, n = M.A, M.A.dim
    qc = M.qc
    cc = M.C.base
    checks = []
    for y in range(cc.dim):
        cy, scy = M.C.embed.col(y), M.emb_SC().col(y)
        for a in range(n):
            checks.append(
                (("eps(as(y))", y, a),
                 M.eps_C.apply(A.mul({a: ONE}, cy)),
                 cc.mul(M.eps_C.col(a), {y: ONE}))
            )
            checks.append(
                (("eps(at(y))", y, a),
                 M.eps_C.apply(A.mul({a: ONE}, scy)),
                 cc.mul({y: ONE}, M.eps_C.col(a)))
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "right-counit-bimodule", "rt-counit-bimodule", wit)

    try:
        sl = qc.slice(M.C.embed.compose(M.eps_C), 1, "right", what="counit slice")
        sr = qc.slice(M.emb_SC().compose(M.eps_C), 2, "right", what="counit slice")
    except NotBalanced as e:
        rep.check(False, "right-counit", "right-counit", str(e))
        return
    checks = []
    for a in range(n):
        da = M.delta_C.col(a)
        for b in range(n):
            ba = A.mul({b: ONE}, {a: ONE})
            checks.append(
                ((A.labels[a], A.labels[b], "eps(x)id"),
                 sl.apply(qc.lmul2({b: ONE}).apply(da)),
                 ba)
            )
            checks.append(
                ((A.labels[a], A.labels[b], "id(x)eps"),
                 sr.apply(qc.lmul1({b: ONE}).apply(da)),
                 ba)
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "right-counit", "right-counit", wit)


def canonical_maps(M, report=None):
    """The four canonical maps, their well-definedness and invertibility."""
    rep = report if report is not None else Report()
    maps = M.canonical()
    out = {}
    for which, (mat, dom) in maps.items():
        ok_wd, wit = True, None
        for gen, rel in zip(dom.generators, dom.relation_vectors()):
            image = {}
            for idx, s in rel.items():
                axpy(image, s, M.canonical_tilde(which, *divmod(idx, M.A.dim)))
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


def _hom_space(M, module):
    """Basis of module maps A -> base for the four one-sided structures."""
    A, n = M.A, M.A.dim
    if module in ("_BA", "A_B"):
        base, emb = M.B.base, M.B.embed
        act = emb if module == "_BA" else M.emb_SB()
    else:
        base, emb = M.C.base, M.C.embed
        act = emb if module == "A_C" else M.emb_SC()
    dim_b = base.dim
    cols = [dict() for _ in range(n * dim_b)]
    eqno = 0
    for x in range(dim_b):
        mult = A.lmul(act.col(x)) if module in ("_BA", "A_B") else A.rmul(act.col(x))
        for a in range(n):
            # omega(x.a) - law(x, omega(a)) = 0
            for i, s in mult.col(a).items():
                for xb in range(dim_b):
                    axpy(cols[i * dim_b + xb], s, {xb: ONE}, eqno * dim_b)
            for xb in range(dim_b):
                if module in ("_BA", "^CA"):
                    law = base.mul({x: ONE}, {xb: ONE})
                else:
                    law = base.mul({xb: ONE}, {x: ONE})
                axpy(cols[a * dim_b + xb], -ONE, law, eqno * dim_b)
            eqno += 1
    system = LinearMap(eqno * dim_b, n * dim_b, cols)
    homs = []
    for w in system.kernel_basis():
        homs.append(
            LinearMap.from_function(
                dim_b,
                n,
                lambda a, w=w: {x: w[a * dim_b + x] for x in range(dim_b) if a * dim_b + x in w},
            )
        )
    return homs


def _regularity_subspaces(M, rep):
    """The values of each Hom space, embedded and multiplied by A, span A."""
    A, n = M.A, M.A.dim
    for module, emb, from_left, name in (
        ("_BA", M.emb_SB(), True, "regular-subspace-SB(IB)A"),
        ("A_B", M.B.embed, True, "regular-subspace-IBA"),
        ("A_C", M.emb_SC(), False, "regular-subspace-ASC(IC)"),
        ("^CA", M.C.embed, False, "regular-subspace-AIC"),
    ):
        vals = Rref()
        for h in _hom_space(M, module):
            for a in range(n):
                vals.add(h.col(a))
        span = Rref()
        for v in vals.basis():
            e = emb.apply(v)
            for a in range(n):
                span.add(A.mul(e, {a: ONE}) if from_left else A.mul({a: ONE}, e))
        rep.check(span.rank == n, name, "regular-1")


def _antipode_checks(M, rep, canon):
    A, n = M.A, M.A.dim
    S = M.S
    from .algebra_core import automorphism_check

    ok, wit = automorphism_check(A, S, anti=True)
    rep.check(ok, "antipode-antiautomorphism", "hopf-characterization", wit)

    checks = []
    for x in range(M.B.base.dim):
        bx, sbx = M.B.embed.col(x), M.emb_SB().col(x)
        for a in range(n):
            sa = S.col(a)
            checks.append((("S(xa)", x, a), S.apply(A.mul(bx, {a: ONE})), A.mul(sa, sbx)))
            checks.append((("S(ax)", x, a), S.apply(A.mul({a: ONE}, bx)), A.mul(sbx, sa)))
    for y in range(M.C.base.dim):
        cy, scy = M.C.embed.col(y), M.emb_SC().col(y)
        for a in range(n):
            sa = S.col(a)
            checks.append((("S(ya)", y, a), S.apply(A.mul(cy, {a: ONE})), A.mul(sa, scy)))
            checks.append((("S(ay)", y, a), S.apply(A.mul({a: ONE}, cy)), A.mul(scy, sa)))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "antipode-base-bimodule", "hopf-characterization-1", wit)

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
                axpy(lhs, s, A.mul(S.col(i), {j: ONE}))
            checks1.append(((A.labels[a], A.labels[b]), lhs, A.mul(emb_sc_eps.col(a), {b: ONE})))
            lifted = M.qc.lift(M.canonical_tilde("lambda_T", a, b))
            lhs = {}
            for idx, s in lifted.items():
                i, j = divmod(idx, n)
                axpy(lhs, s, A.mul({i: ONE}, S.col(j)))
            checks2.append(((A.labels[a], A.labels[b]), lhs, A.mul({a: ONE}, emb_sb_eps.col(b))))
    wit = _first_failure(iter(checks1))
    rep.check(wit is None, "antipode-diagram-left", "dg-antipode", wit)
    wit = _first_failure(iter(checks2))
    rep.check(wit is None, "antipode-diagram-right", "dg-antipode", wit)

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
    checks_b, checks_c = [], []
    for x in range(M.B.base.dim):
        bx = M.B.embed.col(x)
        for y in range(M.C.base.dim):
            cy = M.C.embed.col(y)
            prod = A.mul(bx, cy)
            expected_b = M.qb.pure(cy, bx)
            expected_c = M.qc.pure(cy, bx)
            checks_b.append((("x", x, "y", y), M.db_class(prod), expected_b))
            checks_c.append((("x", x, "y", y), M.dc_class(prod), expected_c))
    wit = _first_failure(iter(checks_b))
    rep.check(wit is None, "delta-B-extended-unit", "delta-bimodule-extended", wit)
    wit = _first_failure(iter(checks_c))
    rep.check(wit is None, "delta-C-extended-unit", "delta-bimodule-extended", wit)

    # counit multiplicativity
    checks = []
    bb, cc = M.B.base, M.C.base
    for a in range(n):
        for b in range(n):
            ab = A.mul({a: ONE}, {b: ONE})
            eb = M.eps_B.apply(ab)
            checks.append(
                (("eps_B(ab)=eps_B(a eps_B(b))", a, b),
                 eb,
                 M.eps_B.apply(A.mul({a: ONE}, M.B.embed.apply(M.eps_B.col(b)))))
            )
            checks.append(
                (("eps_B(ab)=eps_B(a S_B(eps_B(b)))", a, b),
                 eb,
                 M.eps_B.apply(A.mul({a: ONE}, M.emb_SB().apply(M.eps_B.col(b)))))
            )
            ec = M.eps_C.apply(ab)
            checks.append(
                (("eps_C(ab)=eps_C(eps_C(a) b)", a, b),
                 ec,
                 M.eps_C.apply(A.mul(M.C.embed.apply(M.eps_C.col(a)), {b: ONE})))
            )
            checks.append(
                (("eps_C(ab)=eps_C(S_C(eps_C(a)) b)", a, b),
                 ec,
                 M.eps_C.apply(A.mul(M.emb_SC().apply(M.eps_C.col(a)), {b: ONE})))
            )
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "counits-multiplicative", "counits-multiplicative", wit)

    # first canonical-map compatibility diagram (2-leg form)
    checks = []
    qb = M.qb
    for a in range(n):
        for b in range(n):
            tl = M.canonical_tilde("T_lambda", a, b)
            for c in range(n):
                lhs = qb.rmul2({c: ONE}).apply(tl)
                rhs = qb.rmul1({a: ONE}).apply(M.canonical_tilde("T_rho", b, c))
                checks.append(((a, b, c), lhs, rhs))
    wit = _first_failure(iter(checks))
    rep.check(wit is None, "galois-compatibility", "dg-left-galois-1", wit)

    canon, _ = canonical_maps(M, rep)
    _regularity_subspaces(M, rep)
    _antipode_checks(M, rep, canon)

    derived, err = derive_antipode(M)
    rep.check(
        derived is not None and derived == M.S,
        "antipode-unique",
        "hopf-characterization",
        err if derived is None else ("derived antipode differs" if derived != M.S else None),
    )
    return rep


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
    checks = []
    qb, qc = M.qb, M.qc
    for a in range(n):
        dstar = M.delta_B.apply(star({a: ONE}))
        dc = M.delta_C.col(a)
        for b in range(n):
            sb = star({b: ONE})
            for c in range(n):
                scv = star({c: ONE})
                lhs = qb.rmul2(scv).apply(qb.rmul1(sb).apply(dstar))
                rhs_qc = qc.lmul2({c: ONE}).apply(qc.lmul1({b: ONE}).apply(dc))
                rhs = star_qc_qb.apply(vec_conj(rhs_qc))
                checks.append(((a, b, c), lhs, rhs))
    wit = _first_failure(iter(checks))
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
