"""Balanced tensor products of the total algebra with itself.

A balanced product is the quotient of A (x) A by the span of
act1[x](a) (x) b - a (x) act2[x](b) over a pair of module structures; the
six flavors a quantum groupoid needs differ only in which multiplications
act on which leg.  Operators on A (x) A descend to such a quotient only
after an explicit check that they map relations into relations; every
descent here is checked, never assumed, and failures carry a witness.

The triple product A (x) A (x) A, balanced on legs (1,2) by one such
quotient Q12 and on legs (2,3) by another Q23, is where coassociativity
is compared.  ``TripleTensor(algebra, pair12, pair23)`` takes the two
BalancedTensors and builds it as Q12 (x) A modulo the image of
A (x) R23, R23 the relations of Q23: the relations of Q12 are already
eliminated by Q12's own echelon, so only pair12.dim * n coordinates are
left to eliminate in, not n^3.
"""

from __future__ import annotations

from .exact_linear import (
    ONE,
    LinearMap,
    QuotientSpace,
    Rref,
    Scalar,
    axpy,
    conj,
    kron_vec,
    vsub,
)

__all__ = [
    "BalancedTensor",
    "TripleTensor",
    "descend_componentwise",
    "tensor_mul",
    "NotBalanced",
]


class NotBalanced(ValueError):
    """An operator fails to descend; carries the witness relation."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__("%s; witness relation %s" % (message, witness))


_DESCENDS = " does not descend between flavors {src!r} -> {dst!r}"


class _Unbalanced:
    """The memo of a descent that failed: its first failing generator."""

    def __init__(self, witness):
        self.witness = witness


def _not_balanced(message, src, dst, witness):
    """NotBalanced for a descent src -> dst (None for A), with {src!r} and
    {dst!r} in message standing for the two flavors."""
    return NotBalanced(message.format(src=src.flavor, dst=getattr(dst, "flavor", None)), witness)


def _relations(struct1, struct2):
    """(x, a, b, x.a (x) b - a (x) x.b) for every non-zero relation generator."""
    n = struct1.total.dim
    for x in range(struct1.base.dim):
        m1, m2 = struct1.acts[x], struct2.acts[x]
        for a in range(n):
            u = m1.col(a)
            for b in range(n):
                rel, v = {i * n + b: s for i, s in u.items()}, m2.col(b)
                if v:
                    axpy(rel, -ONE, v, a * n)
                if rel:
                    yield x, a, b, rel


def tensor_mul(algebra, u, v):
    """Product in A (x) A of two sparse vectors over n*n indices."""
    n = algebra.dim
    table = algebra.table
    out = {}
    for idx1, s in u.items():
        i1, j1 = divmod(idx1, n)
        for idx2, t in v.items():
            i2, j2 = divmod(idx2, n)
            left, right = table[i1][i2], table[j1][j2]
            if left and right:
                st = t * s if type(s) is Scalar else s * t  # a Scalar on the right
                axpy(out, st, kron_vec(left, right, n))
    return out


def descend_componentwise(src, dst, fn, message, antilinear=False, live=None):
    """Descend the map e_i (x) e_j -> fn(i, j) from src to dst, checked.

    dst is a BalancedTensor, or None for A itself; fn(i, j) is a vector of
    dst's ambient space (A (x) A, or A).  ``live``, if given, holds the
    coordinates i * n + j outside which fn is zero, and only they are
    visited; by default every basis tensor is.  Each image fn(i, j) is
    computed once.  Every relation generator of src must land in dst's
    relation span (for A: on zero); the first that does not raises
    NotBalanced with ``message``, in which {src!r} and {dst!r} stand for
    the two flavors.  An antilinear map conjugates coefficients.

    A linear or antilinear map sends the relation span into a subspace
    iff it sends a basis of the span there, so only the rows of src's
    relation echelon (rank many, not one per generator) are checked, and
    of those only the rows with an entry at a coordinate whose image is
    non-zero: every other row maps to zero.  Only when a checked row fails
    are the generators scanned, in order, to name the first failing one
    as the witness.

    The descended map D satisfies D(project(w)) = f(w) for every w in
    src's ambient space, f the componentwise map, because f kills the
    relation span.  So D of a class made by another checked descent is f
    of any representative.  This is the slice identity the partial
    integral and convolution checks rest on: a slice of Delta(d) with e
    absorbed on the other leg is the slice of Delta(d) times e.
    """
    n = src.leg_dim
    images = {}
    for ij in range(n * n) if live is None else live:
        image = fn(*divmod(ij, n))
        if image:
            images[ij] = image

    def apply(w):
        out = {}
        for ij, s in w.items():
            image = images.get(ij)
            if image:
                axpy(out, conj(s) if antilinear else s, image)
        return out

    if dst is None:
        rows, holds, project = src.algebra.dim, (lambda w: not w), (lambda w: w)
    else:
        rows, holds, project = dst.dim, dst.space.contains_relation, dst.project
    echelon, touching = src.space.rref.rows, src._touching
    if not all(holds(apply(echelon[p]))
               for p in {p for ij in images for p in touching.get(ij, ())}):
        for gen, rel in zip(src.generators, src.relation_vectors()):
            if not holds(apply(rel)):
                raise _not_balanced(message, src, dst, gen)
        raise AssertionError("a relation basis row fails but no generator does")
    cols = [{} for _ in range(src.dim)]
    free_pos = src.space.free_pos
    for ij, image in images.items():
        if ij in free_pos:
            cols[free_pos[ij]] = project(image)
    return LinearMap(rows, src.dim, cols)


class BalancedTensor:
    """Quotient of A (x) A balancing act1 on the first against act2 on the second leg.

    Every descent out of the tensor is checked on the basis of its
    relation span, the rows of ``space.rref``; the relation generators
    are scanned, in order, only after a basis row fails, so the witness
    of NotBalanced is still the first failing generator.

    The descended maps a tensor hands out (leg multiplications, slices
    and flips) are memoized per tensor in ``_op_cache``: a repeated call
    returns the map computed the first time.  A map that is not balanced
    is memoized too, as its failing generator: a repeated call checks no
    relation and raises NotBalanced with that generator and the call's
    own ``what`` text.  Callers must not mutate the returned maps.
    """

    def __init__(self, algebra, struct1, struct2, flavor=""):
        if struct1.total is not algebra or struct2.total is not algebra:
            raise ValueError("module structures must act on the given algebra")
        if struct1.base.dim != struct2.base.dim:
            raise ValueError("balancing requires actions of the same base")
        self.algebra = algebra
        self.struct1 = struct1
        self.struct2 = struct2
        self.flavor = flavor
        n = algebra.dim
        self.leg_dim = n
        self.generators = []  # (x, a, b) triples for witness reporting
        self._relations = []
        for x, a, b, rel in _relations(struct1, struct2):
            self.generators.append((x, a, b))
            self._relations.append(rel)
        self.space = QuotientSpace(n * n, self._relations)
        self.dim = self.space.dim
        self._op_cache = {}
        self._touching = {}  # ambient coordinate -> pivots of the echelon rows with an entry there
        for p, row in self.space.rref.rows.items():
            for ij in row:
                self._touching.setdefault(ij, []).append(p)

    # -- elements -------------------------------------------------------

    def pure(self, u, v):
        """Class of u (x) v."""
        return self.space.project(kron_vec(u, v, self.leg_dim))

    def project(self, w):
        return self.space.project(w)

    def lift(self, q):
        """Canonical A (x) A representative."""
        return self.space.lift(q)

    def relation_vectors(self):
        """The relation generators' vectors, in the order of ``generators``."""
        return self._relations

    # -- descended operators ---------------------------------------------

    def descend(self, op1, op2, target=None, what="operator"):
        """Descend (op1 (x) op2) to a map self -> target (default self).

        op1/op2 are LinearMaps on A or None for the identity.  Only the
        basis tensors e_i (x) e_j at which op1 (x) op2 is non-zero are
        visited: i a non-empty column of op1 and j one of op2 (every index
        for None).  ``descend_componentwise`` checks only the relation rows
        touching them and, if one fails, raises NotBalanced with the first
        failing generator.  Columns at other coordinates are empty.
        """
        n = self.leg_dim

        def live(op):
            return range(n) if op is None else [i for i in range(n) if op.col(i)]

        def leg(op, i):
            return op.col(i) if op is not None else {i: ONE}

        return descend_componentwise(
            self, target or self, lambda i, j: kron_vec(leg(op1, i), leg(op2, j), n),
            what + _DESCENDS,
            live=[i * n + j for i in live(op1) for j in live(op2)],
        )

    def _cached(self, key, build, message, target):
        """The memoized build() under key, build() a checked descent from
        this tensor to target (None for A) whose failure text is
        ``message``.  A build() that raises NotBalanced stores its witness
        generator, and a repeated call raises NotBalanced with that
        generator and its own message, checking nothing again."""
        if key not in self._op_cache:
            try:
                self._op_cache[key] = build()
            except NotBalanced as e:
                self._op_cache[key] = _Unbalanced(e.witness)
                raise
        value = self._op_cache[key]
        if type(value) is _Unbalanced:
            raise _not_balanced(message, self, target, value.witness)
        return value

    def _leg_op(self, slot, side, u):
        """The descended multiplication by u, a basis index or a vector."""
        what = "%s-multiplication on leg %d" % (side, slot)

        def build():
            alg = self.algebra
            m = alg.lmul(u) if side == "l" else alg.rmul(u)
            op1, op2 = (m, None) if slot == 1 else (None, m)
            return self.descend(op1, op2, what=what)

        key = u if isinstance(u, int) else tuple(sorted(u.items()))
        return self._cached((slot, side, key), build, what + _DESCENDS, self)

    def _combine(self, slot, side, u):
        """Multiplication by u on a leg, combined from its basis elements'
        descended maps.  A basis element need not descend where u does (in
        a basis that does not diagonalize the base action, say); then u's
        own map is descended."""
        items = list(u.items())
        if len(items) == 1 and items[0][1] == ONE:
            return self._leg_op(slot, side, items[0][0])
        try:
            return LinearMap.combination(
                self.dim, self.dim, ((s, self._leg_op(slot, side, i)) for i, s in items)
            )
        except NotBalanced:
            return self._leg_op(slot, side, u)

    def lmul1(self, u):
        """Descended u*(.) on the first leg."""
        return self._combine(1, "l", u)

    def lmul2(self, u):
        return self._combine(2, "l", u)

    def rmul1(self, u):
        """Descended (.)*u on the first leg."""
        return self._combine(1, "r", u)

    def rmul2(self, u):
        return self._combine(2, "r", u)

    def mul_class(self, q1, q2):
        """Product of canonical representatives, projected back.

        Only meaningful when the caller has verified the representative
        independence (e.g. images of a comultiplication).
        """
        return self.project(tensor_mul(self.algebra, self.lift(q1), self.lift(q2)))

    def slice(self, omega, leg, multiply, what="slice"):
        """Descend c (x) d -> omega(c).d (and the three sibling patterns) to A.

        omega: LinearMap A -> A (a base-valued map already composed with
        its embedding).  leg selects which tensor factor omega consumes,
        multiply whether the result multiplies the other leg from the
        left or the right.  Only the basis tensors whose consumed leg is a
        non-empty column of omega are visited, as in ``descend``.
        Memoized by the content of omega.
        """
        alg, n = self.algebra, self.leg_dim

        def sliced(i, j):
            val, other = (omega.col(i), {j: ONE}) if leg == 1 else (omega.col(j), {i: ONE})
            return alg.mul(val, other) if multiply == "left" else alg.mul(other, val)

        message = what + " is not balanced for flavor {src!r}"

        def build():
            support = [k for k in range(n) if omega.col(k)]
            pairs = ((k, j) for k in support for j in range(n))
            return descend_componentwise(
                self, None, sliced, message,
                live=[k * n + j if leg == 1 else j * n + k for k, j in pairs],
            )

        return self._cached(("slice", omega, leg, multiply), build, message, None)

    def flip_to(self, target):
        """The map a (x) b -> b (x) a into the flipped flavor, checked; memoized."""
        n, message = self.leg_dim, "flip does not relate flavors {src!r} -> {dst!r}"

        def build():
            return descend_componentwise(self, target, lambda i, j: {j * n + i: ONE}, message)

        return self._cached(("flip", target), build, message, target)

    def __repr__(self):
        return "BalancedTensor(%r, dim=%d)" % (self.flavor, self.dim)


class TripleTensor:
    """Quotient of A (x) A (x) A with balancing on legs (1,2) and (2,3).

    pair12 and pair23 are the BalancedTensors whose relations R12, R23
    hold on legs (1,2) and on legs (2,3).  The quotient by R12 (x) A +
    A (x) R23 is built as (pair12 (x) A) modulo the image of A (x) R23:
    pi12 (x) id is onto with kernel R12 (x) A.  So the only rows
    eliminated are e_a (x) r, for r in pair23's relation echelon, each
    projected third-leg block by third-leg block into pair12.dim * n
    coordinates (index k * pair12.dim + q, q in pair12, k the third leg).
    ``reduce`` and ``equal`` take vectors of A (x) A (x) A, index
    (i*n + j)*n + k; ``reduce`` returns the canonical residue in the
    projected coordinates.  ``leg_dim`` is n; ``dim`` is the dimension of
    the quotient.
    """

    def __init__(self, algebra, pair12, pair23, flavor=""):
        if pair12.algebra is not algebra or pair23.algebra is not algebra:
            raise ValueError("balanced tensors must be over the given algebra")
        self.algebra = algebra
        self.flavor = flavor
        n = algebra.dim
        self.leg_dim = n
        self._block = pair12.dim
        # column ij of pi12, so a third-leg block projects term by term
        self._pi12 = [pair12.project({ij: ONE}) for ij in range(n * n)]
        rref = Rref()
        for r in pair23.space.rref.basis():
            for a in range(n):
                # e_a (x) r projects to zero whenever it lies in R12 (x) A
                w = self._project({a * n * n + jk: s for jk, s in r.items()})
                if w:
                    rref.add(w)
        self.rref = rref
        self.dim = pair12.dim * n - rref.rank

    def _project(self, w):
        """(pi12 (x) id)(w) for w in A (x) A (x) A."""
        n, pi12, block = self.leg_dim, self._pi12, self._block
        out = {}
        for idx, s in w.items():
            ij, k = divmod(idx, n)
            col = pi12[ij]
            if col:
                axpy(out, s, col, k * block)
        return out

    def reduce(self, w):
        return self.rref.reduce(self._project(w))

    def equal(self, w1, w2):
        return not self.reduce(vsub(w1, w2))

    def __repr__(self):
        return "TripleTensor(%r, dim=%d)" % (self.flavor, self.dim)

