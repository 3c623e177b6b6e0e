"""Finite-dimensional algebras by structure constants.

An algebra is a multiplication table e_i e_j = sum_k c[i][j][k] e_k over
the exact scalar field, optionally with an antilinear involution.  The
table is the single source of truth: associativity, non-degeneracy,
idempotency, units, involutions, embeddings and module structures are
all checked against it, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact_linear import (
    ONE,
    ZERO,
    LinearMap,
    Rref,
    Scalar,
    _block_sides,
    _mul,
    apply_legs,
    axpy,
    conj,
    joint_kernel,
    scalar_from_json,
    scalar_to_json,
    stack,
    stack_equations,
    unstack,
    vec_conj,
)
from .report import Report, first_failure

__all__ = [
    "FiniteAlgebra",
    "Multiplier",
    "BaseEmbedding",
    "ModuleStructure",
    "check_algebra",
    "multiplier_algebra",
    "find_unit",
    "generating_basis",
    "automorphism_check",
    "product_cases",
    "algebra_to_json",
    "algebra_from_json",
    "scalar_to_json",
    "scalar_from_json",
]


class FiniteAlgebra:
    """Associative algebra on basis e_0..e_{n-1} given by its table."""

    def __init__(self, table, labels=None, involution=None):
        # table[i][j]: sparse vector of e_i * e_j
        self.dim = len(table)
        self.table = tuple(
            tuple({k: s for k, s in col.items() if s} for col in row)
            for row in table
        )
        self.labels = list(labels) if labels else [str(i) for i in range(self.dim)]
        self.involution = involution  # LinearMap; star(v) = involution(conj(v))
        self._unit = -1  # not computed yet
        self._lmul = {}
        self._rmul = {}
        self._gram = {}  # functional content -> Gram map, see integration.gram_map
        self._mul_map = None
        self._associative = None
        self._checked = None  # (involution, report) of check_algebra
        self._tables = None  # (involution, value) of _monomial_tables

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_mul(cls, dim, mul, labels=None, involution=None):
        """mul(i, j) -> sparse product vector."""
        return cls(
            [[mul(i, j) for j in range(dim)] for i in range(dim)],
            labels,
            involution,
        )

    @classmethod
    def pointwise(cls, labels, involution=None):
        """Functions on a finite set with pointwise product."""
        n = len(labels)
        return cls(
            [[({i: ONE} if i == j else {}) for j in range(n)] for i in range(n)],
            labels,
            involution,
        )

    # -- multiplication ---------------------------------------------------

    def mul(self, u, v):
        w = {}
        for i, s in u.items():
            row = self.table[i]
            for j, t in v.items():
                if row[j]:  # most products of basis elements are zero
                    st = t * s if type(s) is Scalar else s * t  # a Scalar on the right
                    axpy(w, st, row[j])
        return w

    def mul_map(self):
        """m: A (x) A -> A, column i * dim + j the product e_i e_j.  Cached."""
        if self._mul_map is None:
            self._mul_map = LinearMap(self.dim, self.dim * self.dim,
                                      [col for row in self.table for col in row])
        return self._mul_map

    def unit_map(self):
        """eta: F -> A, 1 -> the unit."""
        return LinearMap(self.dim, 1, [self.unit()])

    def lmul(self, u):
        """Left multiplication operator v -> u*v for a basis index or vector,
        built once per algebra for each index, or for each vector under its
        sorted items (the vector e_k is the index k); callers must not
        mutate it."""
        return _memo_operator(self._lmul, u, lambda k, j: self.table[k][j],
                              lambda j: self.mul(u, {j: ONE}), self.dim)

    def rmul(self, u):
        """Right multiplication operator v -> v*u, shared as ``lmul``'s is."""
        return _memo_operator(self._rmul, u, lambda k, j: self.table[j][k],
                              lambda j: self.mul({j: ONE}, u), self.dim)

    def star(self, v):
        if self.involution is None:
            raise ValueError("algebra has no involution")
        return self.involution.apply(vec_conj(v))

    # -- structural predicates --------------------------------------------

    def is_associative(self):
        """(True, None), or (False, (i, j, k)) for the first basis triple,
        k innermost, with (e_i e_j) e_k != e_i (e_j e_k).

        Where ``_monomial_tables`` holds, ``_monomial_associative`` decides
        the law on the index table.  Where it declines or finds a triple
        that fails, the n values of k are stacked: P = stack(rmul(k))
        sends v to sum_k e_k (x) v e_k, so block k of P(e_i e_j) is the
        left side and block k of (id (x) lmul(i))(P(e_j)) the right side.
        The two stacked vectors are compared literally once per (i, j);
        only a pair that differs is scanned, k in order, so the witness is
        the first triple of a full scan.  Cached.
        """
        if self._associative is None:
            self._associative = self._associativity()
        return self._associative

    def _associativity(self):
        n = self.dim
        tables = _monomial_tables(self)
        if not n or tables is not None and _monomial_associative(tables[0]):
            return True, None
        stacked = stack([self.rmul(k) for k in range(n)])

        def cases():
            for i in range(n):
                left = self.lmul(i)
                for j in range(n):
                    yield from _block_sides((i, j), stacked.apply(self.table[i][j]),
                                            apply_legs(None, left, stacked.col(j)), n, n)

        wit = first_failure(cases())
        return wit is None, wit and wit["at"]

    def nondegenerate_sides(self):
        """(left, right): no a with a*A = 0, no a with A*a = 0."""
        right_ann = joint_kernel([self.rmul(j) for j in range(self.dim)])
        left_ann = joint_kernel([self.lmul(j) for j in range(self.dim)])
        return not right_ann, not left_ann

    def products_span(self):
        rr = Rref()
        for i in range(self.dim):
            for j in range(self.dim):
                rr.add(self.table[i][j])
        return rr.rank == self.dim

    def unit(self):
        """The two-sided unit, or None.  Cached."""
        if self._unit == -1:
            self._unit = find_unit(self)
        return self._unit

    def is_commutative(self):
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def opposite(self):
        """The same space with reversed multiplication."""
        return FiniteAlgebra(
            [[self.table[j][i] for j in range(self.dim)] for i in range(self.dim)],
            labels=[l + "^op" for l in self.labels],
            involution=self.involution,
        )


def _memo_operator(memo, u, basis_col, vector_col, n):
    """The n x n operator of u from ``memo``: column j basis_col(k, j) for
    a basis index k or the vector e_k, vector_col(j) for any other vector,
    built on the first call under k or the vector's sorted items."""
    k = _basis_index(u)
    key = tuple(sorted(u.items())) if k is None else k
    if key not in memo:
        col = vector_col if k is None else (lambda j: basis_col(k, j))
        memo[key] = LinearMap.from_function(n, n, col)
    return memo[key]


def _basis_index(u):
    """k for a basis index k or the vector e_k = {k: 1}; None for any
    other vector."""
    if isinstance(u, int):
        return u
    if len(u) == 1:
        [(k, c)] = u.items()
        if c == 1:
            return k
    return None


def _monomial_tables(algebra):
    """The index tables (products, stars) of A when every product e_i e_j
    and every column of the involution has at most one term; else None.

    products[i][j] is (k, c) for e_i e_j = c e_k and None for 0.  stars[i]
    is (sigma(i), s_i) for e_i* = s_i e_sigma(i) and None for 0, read from
    the involution's column i, since conj(e_i) = e_i; stars is None when A
    has no involution.  The function, convolution and group algebras and
    their stars are monomial.  Decided once per algebra and involution,
    as ``check_algebra`` is.
    """
    inv = algebra.involution
    if algebra._tables is None or algebra._tables[0] is not inv:
        columns = [col for row in algebra.table for col in row]
        if inv is not None:
            columns += inv.data
        value = None
        if all(len(col) <= 1 for col in columns):
            value = ([[_term(col) for col in row] for row in algebra.table],
                     None if inv is None else [_term(col) for col in inv.data])
        algebra._tables = (inv, value)
    return algebra._tables[1]


def _term(v):
    """(k, c) for the vector v = c e_k, None for v = 0."""
    return next(iter(v.items()), None)


def _monomial_associative(products):
    """Whether (e_i e_j) e_k = e_i (e_j e_k) at every basis triple of the
    table ``products`` of ``_monomial_tables``.

    Each side is 0 or one term, and a product of non-zero scalars is not
    0.  Let L be the triples whose left side is not 0: e_i e_j = c e_m and
    e_m e_k = d e_q.  Let R be those whose right side is not 0:
    e_j e_k = c' e_p and e_i e_p = d' e_q'.  Off L and R both sides are 0.
    A triple of L holds iff it lies in R with q' = q and c' d' = c d, and
    a triple of R off L fails, its left side being 0.  So if every triple
    of L holds, L lies in R, and the law holds iff |L| = |R|.  |L| sums,
    over the non-zero products e_i e_j = c e_m, the non-zero products of
    row m; |R| sums, over the same products, the non-zero products of
    column m.  L has k^4 triples on the convolution algebra of the pair
    groupoid on k points, and n on a function algebra.
    """
    rows = [[(k, t) for k, t in enumerate(row) if t is not None] for row in products]
    in_column = [0] * len(products)
    for row in rows:
        for k, _ in row:
            in_column[k] += 1
    size_l = size_r = 0
    for i, row in enumerate(rows):
        left = products[i]
        for j, (m, c) in row:
            size_l += len(rows[m])
            size_r += in_column[m]
            right = products[j]
            for k, (q, d) in rows[m]:
                if right[k] is None:
                    return False
                p, c2 = right[k]
                if left[p] is None or left[p][0] != q or _mul(c2, left[p][1]) != _mul(c, d):
                    return False
    return size_l == size_r


def _monomial_involution(products, stars):
    """Whether the star of the tables of ``_monomial_tables`` is involutive
    and anti-multiplicative: e_i** = e_i and (e_i e_j)* = e_j* e_i* at
    every basis element and pair.

    e_i** = conj(s_i) s_sigma(i) e_sigma(sigma(i)), so the first law holds
    iff no star is 0, sigma(sigma(i)) = i and conj(s_i) s_sigma(i) = 1;
    then sigma is a bijection.  For e_i e_j = c e_m the left side of the
    second law is conj(c) s_m e_sigma(m), not 0, and the right side
    s_j s_i e_sigma(j) e_sigma(i) is not 0 iff e_sigma(j) e_sigma(i) is
    not.  So only the pairs N whose product is not 0 are compared: if the
    law holds on N, tau(i, j) = (sigma(j), sigma(i)) maps N into N, and,
    being injective, onto N.  A pair off N then has tau(i, j) off N too,
    and both its sides are 0.
    """
    for i, t in enumerate(stars):
        if t is None or stars[t[0]] is None:
            return False
        back, s = stars[t[0]]
        if back != i or _mul(conj(t[1]), s) != 1:
            return False
    for i, row in enumerate(products):
        sigma_i, s_i = stars[i]
        for j, t in enumerate(row):
            if t is not None:
                sigma_m, s_m = stars[t[0]]
                sigma_j, s_j = stars[j]
                back = products[sigma_j][sigma_i]
                if (back is None or back[0] != sigma_m
                        or _mul(conj(t[1]), s_m) != _mul(_mul(s_j, s_i), back[1])):
                    return False
    return True


@dataclass
class Multiplier:
    """A pair of maps (left, right) with (a.T)b = a(T.b) for all a, b.

    For a unital algebra every multiplier is multiplication by the
    element ``left(1)``; the pair form is kept so signatures match the
    non-unital calculus.
    """

    algebra: FiniteAlgebra
    left: LinearMap  # b -> T*b
    right: LinearMap  # a -> a*T

    @classmethod
    def from_element(cls, algebra, v):
        return cls(algebra, algebra.lmul(v), algebra.rmul(v))

    def element(self):
        one = self.algebra.unit()
        if one is None:
            raise ValueError("multiplier of a non-unital algebra")
        return self.left.apply(one)

    def is_compatible(self):
        a = self.algebra
        for i in range(a.dim):
            ri = self.right.apply({i: ONE})
            for j in range(a.dim):
                if a.mul(ri, {j: ONE}) != a.mul({i: ONE}, self.left.apply({j: ONE})):
                    return False
        return True


class BaseEmbedding:
    """A base algebra together with its homomorphic embedding into A."""

    def __init__(self, base, total, embed, name="B"):
        self.base = base
        self.total = total
        self.embed = embed  # LinearMap base -> total
        self.name = name

    def validate(self, report=None, axiom_prefix=""):
        rep = report if report is not None else Report()
        pre = axiom_prefix or ("embedding-%s" % self.name)
        rep.check(
            self.embed.is_injective(), "%s-injective" % pre, "mult-hopf-algebroid-2"
        )
        wit = first_failure(product_cases(self.base, self.total, self.embed))
        rep.check(wit is None, "%s-multiplicative" % pre, "mult-hopf-algebroid-2",
                  wit and tuple(self.base.labels[k] for k in wit["at"]))
        return rep

    def commutes_with(self, other):
        """(ok, witness): every embedded basis element of self commutes
        with every one of other; the witness is the first pair of labels
        that does not."""
        a = self.total

        def cases():
            for i in range(self.base.dim):
                u = self.embed.apply({i: ONE})
                for j in range(other.base.dim):
                    v = other.embed.apply({j: ONE})
                    yield (self.base.labels[i], other.base.labels[j]), a.mul(u, v), a.mul(v, u)

        wit = first_failure(cases())
        return wit is None, wit and wit["at"]

    def image_rref(self):
        rr = Rref()
        for j in range(self.base.dim):
            rr.add(self.embed.col(j))
        return rr


class ModuleStructure:
    """An action of a base algebra on the total algebra, one side at a time.

    ``acts[x]`` is the operator by which base basis element x acts; the
    ``side`` records whether the action law composes covariantly ("left")
    or contravariantly ("right").
    """

    def __init__(self, base, total, acts, side):
        self.base = base
        self.total = total
        self.acts = list(acts)
        self.side = side

    @cached_property
    def weights(self):
        """The weight w(a) = (lambda_x(a))_x of each basis element e_a of
        the total algebra, as a list of tuples, when every acts[x] is
        diagonal, acts[x] e_a = lambda_x(a) e_a; None when one is not.
        Two diagonal actions are equal iff their weights are."""
        n = self.total.dim
        if any(j != a for f in self.acts for a in range(n) for j in f.col(a)):
            return None
        return [tuple(f.col(a).get(a, ZERO) for f in self.acts) for a in range(n)]

    def act(self, x, v):
        out = {}
        for i, s in x.items():
            axpy(out, s, self.acts[i].apply(v))
        return out

    def action_map(self):
        """L: base (x) total -> total, column x * dim + a the action x . e_a."""
        return LinearMap(self.total.dim, self.base.dim * self.total.dim,
                         [col for f in self.acts for col in f.data])

    def operator(self, x):
        """The operator by which the base vector x acts."""
        n = self.total.dim
        return LinearMap.combination(n, n, ((s, self.acts[k]) for k, s in x.items()))

    def check_action(self):
        """(ok, witness) of the action law acts[x] acts[y] = sum c_k acts[k],
        x y = sum c_k x_k in the base (y x on a right action), witness the
        first failing (x, y) by labels.  With weights both sides are
        diagonal, so the law holds at (x, y) iff
        lambda_x(a) lambda_y(a) = sum c_k lambda_k(a) for every a.  For
        one a both sides are 0 unless x and y are in the support of w(a)
        or x y has a term x_k with k in it, so only those pairs are read,
        and the witness is the least pair that fails for some a."""
        b, w = self.base, self.weights

        def product(x, y):
            return b.table[x][y] if self.side == "left" else b.table[y][x]

        if w is not None:
            reach = {}  # k -> the (x, y) whose product has a term x_k
            for x in range(b.dim):
                for y in range(b.dim):
                    for k in product(x, y):
                        reach.setdefault(k, []).append((x, y))
            failing = []
            for wa in w:
                support = [x for x, s in enumerate(wa) if s]
                pairs = {(x, y) for x in support for y in support}
                pairs.update(xy for k in support for xy in reach.get(k, ()))
                failing += [(x, y) for x, y in pairs if _mul(wa[x], wa[y])
                            != sum(_mul(c, wa[k]) for k, c in product(x, y).items())]
            if failing:
                x, y = min(failing)
                return False, (b.labels[x], b.labels[y])
            return True, None
        for x in range(b.dim):
            for y in range(b.dim):
                if self.acts[x].compose(self.acts[y]) != self.operator(product(x, y)):
                    return False, (b.labels[x], b.labels[y])
        return True, None

    def check_faithful(self):
        """(ok, x): faithful iff the map base -> End(total), x -> acts[x],
        is injective; x is the first base index whose operator is a
        combination of the earlier ones.  A diagonal operator is fixed by
        its diagonal, so with weights the rows of the weight matrix stand
        for the operators."""
        w, rr = self.weights, Rref()
        for x, f in enumerate(self.acts):
            row = f.flat() if w is None else {a: wa[x] for a, wa in enumerate(w) if wa[x]}
            if rr.add(row) is None:
                return False, x
        return True, None

    def check_idempotent(self):
        """(ok, a): the images acts[x] e_j span the total algebra; a is the
        first basis element outside their span.  With weights the span is
        that of the e_a whose weight tuple is not all zero."""
        w, rr = self.weights, Rref()
        if w is None:
            for f in self.acts:
                for col in f.data:
                    rr.add(col)
        for a in range(self.total.dim):
            if not (any(w[a]) if w is not None else rr.contains({a: ONE})):
                return False, a
        return True, None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def find_unit(algebra):
    """The unique two-sided unit, or None: e e_i = e_i, then e_i e = e_i,
    for every i, with e's coordinate j the unknown j."""
    n, table = algebra.dim, algebra.table
    lefts = (({i: ONE}, [(j, ONE, table[j][i]) for j in range(n)]) for i in range(n))
    rights = (({i: ONE}, [(j, ONE, table[i][j]) for j in range(n)]) for i in range(n))
    system, target = stack_equations(((n, lefts), (n, rights)), n)
    return system.solve(target)


def generating_basis(algebra, seeds=()):
    """Basis indices G, in order, that with the seed vectors generate the
    associative algebra: i joins G when e_i is not in the span V of the
    words in the seeds and the earlier members.  V is grown as the least
    subspace that holds the seeds and G and is closed under left
    multiplication by them; in an associative algebra that is the span of
    the words g_1 g_2 ... g_k = g_1 (g_2 ... g_k), the subalgebra they
    generate."""
    span, words, vecs, gens = Rref(), [], [], []

    def join(u):
        vecs.append(u)
        new = [u] + [algebra.mul(u, w) for w in words]
        while new:
            v = new.pop()
            if span.add(v) is not None:
                words.append(v)
                new.extend(algebra.mul(g, v) for g in vecs)

    # a vector already in V multiplies V into V, since V is closed under
    # left multiplication by every word, so it joins no list
    for u in seeds:
        if not span.contains(u):
            join(u)
    for i in range(algebra.dim):
        if not span.contains({i: ONE}):
            gens.append(i)
            join({i: ONE})
    return gens


def check_algebra(algebra):
    """Pass/fail report for the algebra axioms the theory relies on.

    Decided once per algebra and involution, as ``is_associative`` and
    ``unit`` are; each call returns a copy of the stored report.  The
    involution law is decided on ``_monomial_tables`` where they exist
    and pass ``_monomial_involution``, and scanned elsewhere.
    """
    if algebra._checked is None or algebra._checked[0] is not algebra.involution:
        algebra._checked = (algebra.involution, _algebra_report(algebra))
    return Report().merge(algebra._checked[1])


def _unital(algebra):
    """Whether A has a two-sided unit, which makes it non-degenerate on
    both sides and idempotent, so ``_algebra_report`` solves no kernel and
    ranks no product: a A = 0 gives a = a 1 = 0, A a = 0 gives a = 1 a = 0,
    and A = A 1 lies in the span of the products A A."""
    return algebra.unit() is not None


def _algebra_report(algebra):
    rep = Report()
    ok, wit = algebra.is_associative()
    rep.check(ok, "associativity", "algebra-associative", wit)
    unit = algebra.unit()
    if _unital(algebra):
        nd_right = nd_left = idempotent = True
    else:
        nd_right, nd_left = algebra.nondegenerate_sides()
        idempotent = algebra.products_span()
    rep.check(nd_right, "non-degenerate-right", "algebra-non-degenerate")
    rep.check(nd_left, "non-degenerate-left", "algebra-non-degenerate")
    rep.check(idempotent, "idempotent", "algebra-idempotent")
    rep.check(
        unit is not None,
        "local-units",
        "algebra-local-units",
        "no two-sided unit in finite dimension",
    )
    if algebra.involution is not None:
        star, table, labels = algebra.star, algebra.table, algebra.labels

        def cases():
            stars = [star({i: ONE}) for i in range(algebra.dim)]
            for i, si in enumerate(stars):
                yield ("involutive", labels[i]), star(si), {i: ONE}
                for j, sj in enumerate(stars):
                    yield (("anti-multiplicative", labels[i], labels[j]),
                           star(table[i][j]), algebra.mul(sj, si))

        tables = _monomial_tables(algebra)
        held = tables is not None and _monomial_involution(*tables)
        wit = None if held else first_failure(cases())
        rep.check(wit is None, "involution", "algebra-involution", wit and wit["at"])
    return rep


def multiplier_algebra(algebra):
    """The multiplier algebra M(A) and the canonical map A -> M(A).

    Solves the compatibility equations (a.T)b = a(T.b) for pairs of
    operators; for unital A the canonical map is an isomorphism.
    """
    nd_right, nd_left = algebra.nondegenerate_sides()
    if not (nd_right and nd_left) or not algebra.products_span():
        raise ValueError("multiplier algebra needs a non-degenerate, idempotent algebra")
    n = algebra.dim
    # unknowns: (L, R) as 2*n*n coordinates, L first, each column-major:
    # sum_i R[i,a] e_i*e_b - sum_j L[j,b] e_a*e_j = 0 at each (a, b)
    laws = (({}, [(n * n + a * n + i, ONE, algebra.table[i][b]) for i in range(n)]
                 + [(b * n + j, -ONE, algebra.table[a][j]) for j in range(n)])
            for a in range(n) for b in range(n))
    constraint, _ = stack_equations(((n, laws),), 2 * n * n)
    basis = constraint.kernel_basis()

    def unpack(w):
        left, right = unstack(w, n * n, 2)
        return Multiplier(algebra, LinearMap(n, n, unstack(left, n, n)),
                          LinearMap(n, n, unstack(right, n, n)))

    mults = [unpack(w) for w in basis]
    m = len(mults)
    # structure constants of M(A): (L, R)(L', R') = (L o L', R' o R)
    solutions = LinearMap(2 * n * n, m, basis)

    def pack(mult):
        return axpy(mult.left.flat(), ONE, mult.right.flat(), n * n)

    table = []
    for x in range(m):
        row = []
        for y in range(m):
            prod = Multiplier(
                algebra,
                mults[x].left.compose(mults[y].left),
                mults[y].right.compose(mults[x].right),
            )
            coords = solutions.solve(pack(prod))
            assert coords is not None, "multiplier product left the solution space"
            row.append(coords)
        table.append(row)
    m_alg = FiniteAlgebra(table, labels=["m%d" % i for i in range(m)])
    canonical = LinearMap.from_function(
        m, n, lambda j: solutions.solve(pack(Multiplier.from_element(algebra, {j: ONE})))
    )
    return m_alg, canonical


def product_cases(src, dst, f, anti=False):
    """The cases ((i, j), f(e_i e_j), f(e_i) f(e_j) in dst) of the law
    that f is multiplicative, with f(e_j) f(e_i) given anti, over the
    basis pairs of src, j innermost."""
    for i in range(src.dim):
        fi = f.col(i)
        for j in range(src.dim):
            fj = f.col(j)
            yield (i, j), f.apply(src.table[i][j]), (dst.mul(fj, fi) if anti else dst.mul(fi, fj))


def automorphism_check(algebra, f, anti=False):
    """(ok, witness): f bijective and (anti)multiplicative on all basis pairs."""
    if f.rows != algebra.dim or f.cols != algebra.dim:
        return False, "dimension mismatch"
    if not f.is_bijective():
        return False, "not bijective"
    wit = first_failure(product_cases(algebra, algebra, f, anti))
    if wit is not None:
        return False, (*(algebra.labels[k] for k in wit["at"]), "products differ")
    return True, None


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------


def algebra_to_json(algebra):
    structure = [
        [
            [[k, scalar_to_json(s)] for k, s in sorted(col.items())]
            for col in row
        ]
        for row in algebra.table
    ]
    out = {"dim": algebra.dim, "structure": structure, "labels": algebra.labels}
    if algebra.involution is not None:
        out["involution"] = [
            [scalar_to_json(x) for x in row] for row in algebra.involution.to_dense()
        ]
    return out


def algebra_from_json(obj):
    """The algebra ``algebra_to_json`` wrote.  ValueError unless the
    structure is dim rows of dim products over indices below dim, the
    involution, if any, a dim x dim matrix and the labels, if any, dim."""
    dim, labels = obj["dim"], obj.get("labels")

    def square(rows, what):
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError("%s must be %r rows of %r entries" % (what, dim, dim))
        return rows

    def index(k):
        if int(k) not in range(dim):
            raise ValueError("product index %r outside 0..%r" % (k, dim - 1))
        return int(k)

    if labels is not None and len(labels) != dim:
        raise ValueError("labels must be %r, got %r" % (dim, len(labels)))
    table = [[{index(k): scalar_from_json(s) for k, s in entry} for entry in row]
             for row in square(obj["structure"], "structure")]
    involution = None
    if "involution" in obj:
        involution = LinearMap.from_rows(
            [[scalar_from_json(x) for x in row] for row in square(obj["involution"], "involution")]
        )
    return FiniteAlgebra(table, labels=labels, involution=involution)
