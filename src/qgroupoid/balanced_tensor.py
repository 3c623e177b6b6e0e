"""Balanced tensor products of the total algebra with itself.

A balanced product is the quotient of A (x) A by the span of
act1[x](a) (x) b - a (x) act2[x](b) over a pair of module structures; the
six flavors a quantum groupoid needs differ only in which multiplications
act on which leg.

When every act1[x] and act2[x] is diagonal in A's basis, with weights
w1(a) and w2(b) (``ModuleStructure.weights``), the generator at (x, a, b)
is a multiple of the one basis tensor e_a (x) e_b, so the relation span
is spanned by the basis tensors with w1(a) != w2(b); on the pair
groupoids the others are the composable pairs.  The quotient is then a
``QuotientSpace.coordinate`` built with no relation and no elimination,
which keeps only the free coordinates, those with w1(a) == w2(b), and
equals the echelon quotient of the generators.  Every builder's
bundle is of this kind.  Other actions, such as the M2 base of the
matrix-unit tensor algebroid, are eliminated in an echelon.  No tensor
stores its relation vectors: ``generators`` and ``relation_vectors``
make them again, and only failing checks and tests read them.

Every descent here is checked, never assumed, by one of two exact
checks.  A map f (x) g whose legs f and g intertwine the base actions
sends each relation generator to a generator of the target, so it
descends by the universal property of the balanced product; that is
checked on the action maps alone, or on the weights when both actions
of a leg are diagonal.  A slice on a coordinate quotient, by a
structure with weights, is decided on the weights: each image is one
basis vector times a pairing, zero or not.  Any other map descends only
after the check that it sends the relations into the target's
relations, and a failure carries a witness.

The triple product A (x) A (x) A, balanced on legs (1,2) by one such
quotient Q12 and on legs (2,3) by another Q23, is where coassociativity
is compared.  ``TripleTensor(algebra, pair12, pair23)`` takes the two
BalancedTensors and builds it as Q12 (x) A modulo the image of
A (x) R23, R23 the relations of Q23: the relations of Q12 are already
eliminated by Q12's own projection, so only pair12.dim * n coordinates
are left to eliminate in, not n^3.
"""

from __future__ import annotations

from types import MappingProxyType

from .exact_linear import (
    ONE,
    LinearMap,
    QuotientSpace,
    Rref,
    Scalar,
    axpy,
    conj,
    ev,
    kron_vec,
    kron_vec_at,
    stack_equations,
    unstack,
)
from .report import first_failure

__all__ = [
    "BalancedTensor",
    "TripleTensor",
    "descend_componentwise",
    "keeps_actions",
    "keeps_weights",
    "module_map_laws",
    "module_maps",
    "tensor_mul",
    "unkept",
    "NotBalanced",
]


class NotBalanced(ValueError):
    """An operator fails to descend; carries the witness relation."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__("%s; witness relation %s" % (message, witness))


_DESCENDS = " does not descend between flavors {src!r} -> {dst!r}"

# The zero column of every map ``descend`` and ``descend_componentwise``
# build: one read-only empty mapping, shared, so that a zero column costs a
# pointer and a write into one raises TypeError.
_ZERO_COLUMN = MappingProxyType({})


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


def keeps_weights(op, w_in, w_out):
    """Whether op intertwines two diagonal actions of one base, given by
    their weights w_in on op's domain and w_out on its codomain: op e_a =
    sum_b op[b, a] e_b is sent to sum_b lambda_x(a) op[b, a] e_b by
    op o act_in[x] and to sum_b mu_x(b) op[b, a] e_b by act_out[x] o op,
    so the law holds for every x iff w_out[b] == w_in[a] at every
    non-zero entry op[b, a]."""
    return all(w_out[b] == w_in[a] for a, col in enumerate(op.data) for b in col)


def keeps_actions(op, src, dst):
    """Whether op o src.acts[x] == dst.acts[x] o op for every x, read from
    both actions' weights by ``keeps_weights``; False (declined) when
    either has none."""
    w_in, w_out = src.weights, dst.weights
    return w_in is not None and w_out is not None and keeps_weights(op, w_in, w_out)


def module_map_laws(src, dst):
    """The law op o src.acts[x] = dst.acts[x] o op for an unknown op, as
    one group of ``stack_equations``: (width, equations), op[k, c] the
    unknown c * rows + k, rows the dimension of dst's space.

    At e_a the law reads sum_i src.acts[x][i, a] op e_i =
    dst.acts[x] op e_a, one equation per (x, a), x outer.  When both
    actions have weights, src.acts[x] e_a = lambda_x(a) e_a and
    dst.acts[x] e_k = mu_x(k) e_k, it reads
    (lambda_x(a) - mu_x(k)) op[k, a] = 0 at each k, so the laws at every
    (x, a) have the row space of the equations op[k, a] = 0 for each
    (a, k) with mu(k) != lambda(a), one row each (``keeps_weights``).
    """
    rows = dst.total.dim
    lam, mu = src.weights, dst.weights
    if lam is None or mu is None:
        return rows, (
            ({}, [(i * rows + k, c, {k: ONE}) for i, c in f.col(a).items() for k in range(rows)]
             + [(a * rows + k, -ONE, g.col(k)) for k in range(rows)])
            for f, g in zip(src.acts, dst.acts) for a in range(src.total.dim))
    return 1, (({}, [(a * rows + k, ONE, {0: ONE})])
               for a, wa in enumerate(lam) for k, wk in enumerate(mu) if wk != wa)


def module_maps(src, dst):
    """A basis of the maps op with op o src.acts[x] = dst.acts[x] o op for
    every x: the kernel of ``module_map_laws``.  Both forms of the laws
    have one row space, so the reduced kernel basis is the same."""
    rows, cols = dst.total.dim, src.total.dim
    system, _ = stack_equations((module_map_laws(src, dst),), rows * cols)
    return [LinearMap(rows, cols, unstack(w, rows, cols)) for w in system.kernel_basis()]


def unkept(laws):
    """The cases ((x, a, k), op(src.acts[x] e_a), dst.acts[x] op(e_a)) of
    law k of ``laws``, triples (op, src, dst) over one base and one
    domain, with x outer, then a, then k.

    Every law holds when ``keeps_actions`` does, and then there are none;
    where that declines or fails, every (x, a, k) is a case."""
    laws = list(laws)
    if all(keeps_actions(*law) for law in laws):
        return
    _, first, _ = laws[0]
    for x in range(len(first.acts)):
        for a in range(first.total.dim):
            for k, (op, src, dst) in enumerate(laws):
                yield (x, a, k), op.apply(src.acts[x].col(a)), dst.acts[x].apply(op.col(a))


def _intertwines(op, struct, out):
    """Whether op (None for the identity) intertwines the actions struct
    and out of one base: op o struct.acts[x] == out.acts[x] o op for every
    x, read from the weights (``keeps_weights``) when both actions are
    diagonal, and by ``unkept`` otherwise."""
    w_in, w_out = struct.weights, out.weights
    if w_in is not None and w_out is not None:
        return w_in == w_out if op is None else keeps_weights(op, w_in, w_out)
    if op is None:
        return all(f is g or f == g for f, g in zip(struct.acts, out.acts))
    return first_failure(unkept([(op, struct, out)])) is None


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

    if dst is None:  # fn's vectors may be held elsewhere: each column is a copy
        rows, holds, project = src.algebra.dim, (lambda w: not w), dict
    else:
        rows, holds, project = dst.dim, dst.space.contains_relation, dst.project
    if not all(holds(apply(row)) for row in src.space.rows_touching(images).values()):
        for gen, rel in zip(src.generators, src.relation_vectors()):
            if not holds(apply(rel)):
                raise _not_balanced(message, src, dst, gen)
        raise AssertionError("a relation basis row fails but no generator does")
    cols = [_ZERO_COLUMN] * src.dim
    free_pos = src.space.free_pos
    for ij, image in images.items():
        q = free_pos.get(ij)
        if q is not None and (col := project(image)):
            cols[q] = col
    return LinearMap._fresh(rows, src.dim, cols)


class BalancedTensor:
    """Quotient of A (x) A balancing act1 on the first against act2 on the second leg.

    ``space`` is a coordinate quotient when both structures have weights
    (see the module docstring) and the echelon quotient of the relation
    generators otherwise; the two are equal where both apply.

    Every descent out of the tensor is checked.  ``descend`` first tries
    ``_module_maps`` on the action maps, or their weights, and ``slice``
    first tries ``_slice_by_weights``; a descent that fails them is
    checked on the basis of the relation span, the relation rows of
    ``space`` (``space.rows_touching``).  The
    relation generators are made and scanned, in order, only after a
    basis row fails, so the witness of NotBalanced is still the first
    failing generator.

    The descended maps a tensor hands out (``leg_op``, ``descend_leg``,
    slices and flips) are memoized per tensor in ``_op_cache``: a repeated
    call returns the map computed the first time.  Their zero columns are one shared
    read-only mapping, ``_ZERO_COLUMN``, so a tensor that holds its 4n
    leg multiplications stores mostly pointers.  A map that is not balanced
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
        w1, w2 = struct1.weights, struct2.weights
        self.coordinate = w1 is not None and w2 is not None
        if not self.coordinate:
            self.space = QuotientSpace(n * n, (rel for *_, rel in _relations(struct1, struct2)))
        else:
            self.space = QuotientSpace.coordinate(
                n * n, [a * n + b for a in range(n) for b in range(n) if w1[a] == w2[b]])
        self.dim = self.space.dim
        self._op_cache = {}

    # -- elements -------------------------------------------------------

    def pure(self, u, v):
        """Class of u (x) v; on a coordinate quotient written straight into
        the free positions (``kron_vec_at``), as ``descend`` writes."""
        if self.coordinate:
            return kron_vec_at(u, v, self.leg_dim, self.space.free_pos)
        return self.space.project(kron_vec(u, v, self.leg_dim))

    def project(self, w):
        return self.space.project(w)

    def lift(self, q):
        """Canonical A (x) A representative."""
        return self.space.lift(q)

    @property
    def generators(self):
        """The (x, a, b) of every non-zero relation generator, for witness
        reporting; regenerated on each read, as ``relation_vectors`` is."""
        return [(x, a, b) for x, a, b, _ in _relations(self.struct1, self.struct2)]

    def relation_vectors(self):
        """The relation generators' vectors, in the order of ``generators``."""
        return [rel for *_, rel in _relations(self.struct1, self.struct2)]

    # -- descended operators ---------------------------------------------

    def descend(self, op1, op2, message, target=None, swap=False):
        """Descend op1 (x) op2 to a map self -> target (default self).

        op1/op2 are LinearMaps on A or None for the identity; with ``swap``
        the map is a (x) b -> op2(b) (x) op1(a) instead.  Only the basis
        tensors e_i (x) e_j at which the map is non-zero are visited: i a
        non-empty column of op1 and j one of op2 (every index for None).

        Two exact checks decide the descent.  The first is
        ``_module_maps``: if op1 and op2 intertwine the base actions, the
        map sends each relation generator (x, a, b) to target's generator
        (x, op1 a, op2 b) (with swap, to minus its (x, op2 b, op1 a)),
        so it descends, and only its columns at this tensor's free
        coordinates are built.  Into a coordinate target each column is
        written straight into the target's free positions
        (``kron_vec_at``): to project onto a coordinate quotient is to drop
        its relation coordinates, so that is the projected image.  An
        echelon target projects each image through its echelon.
        Otherwise ``descend_componentwise``
        checks the relation rows touching those basis tensors and, if one
        fails, raises NotBalanced with the first failing generator and
        ``message``, in which {src!r} and {dst!r} stand for the two
        flavors.  Columns at other coordinates, and every other zero
        column, are the shared read-only ``_ZERO_COLUMN``.
        """
        n, dst = self.leg_dim, target or self

        def live(op):
            return range(n) if op is None else [i for i in range(n) if op.col(i)]

        def leg(op, i):
            return op.col(i) if op is not None else {i: ONE}

        def legs(i, j):
            u, v = leg(op1, i), leg(op2, j)
            return (v, u) if swap else (u, v)

        def fn(i, j):
            return kron_vec(*legs(i, j), n)

        live1, live2 = live(op1), live(op2)
        coords = [i * n + j for i in live1 for j in live2]
        if not self._module_maps(dst, op1, op2, swap):
            return descend_componentwise(self, dst, fn, message, live=coords)
        cols = [_ZERO_COLUMN] * self.dim
        free_pos = self.space.free_pos
        into = dst.space.free_pos if dst.coordinate else None
        for ij in coords:
            q = free_pos.get(ij)
            if q is not None:
                if into is not None:
                    col = kron_vec_at(*legs(*divmod(ij, n)), n, into)
                else:
                    image = fn(*divmod(ij, n))
                    col = image and dst.project(image)
                if col:
                    cols[q] = col
        return LinearMap._fresh(dst.dim, self.dim, cols)

    def _module_maps(self, dst, op1, op2, swap):
        """Whether op1 and op2 intertwine the base actions from this tensor
        to dst: op_k o acts[x] == acts'[x] o op_k for every base index x
        and both legs k, acts' dst's action on leg k (on the other leg with
        ``swap``), each leg decided by ``_intertwines``.  None is the
        identity, which needs equal action maps.  False when the two
        tensors' bases differ in dimension."""
        outs = (dst.struct2, dst.struct1) if swap else (dst.struct1, dst.struct2)
        if self.struct1.base.dim != outs[0].base.dim:
            return False
        return all(_intertwines(op, struct, out)
                   for op, struct, out in zip((op1, op2), (self.struct1, self.struct2), outs))

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

    def leg_op(self, slot, side, u):
        """The descended multiplication by u on leg ``slot`` (1 or 2), from
        the left (side "l") or the right ("r"): u is a basis index or a
        vector of A, and its own multiplication, ``algebra.lmul(u)`` or
        ``rmul(u)``, is descended by ``descend``.  A vector e_k is taken as
        the index k, so the two share one memo entry.  Raises NotBalanced
        when the multiplication does not descend."""
        if not isinstance(u, int):
            items = list(u.items())
            if len(items) == 1 and items[0][1] == ONE:
                u = items[0][0]
        message = "%s-multiplication on leg %d" % (side, slot) + _DESCENDS

        def build():
            alg = self.algebra
            m = alg.lmul(u) if side == "l" else alg.rmul(u)
            op1, op2 = (m, None) if slot == 1 else (None, m)
            return self.descend(op1, op2, message=message)

        key = u if isinstance(u, int) else tuple(sorted(u.items()))
        return self._cached((slot, side, key), build, message, self)

    def descend_leg(self, op, leg, message, target=None):
        """op on leg ``leg`` (1 or 2) and the identity on the other,
        descended by ``descend`` to target (default self).  Memoized by
        op, leg and target; a repeated call that fails raises NotBalanced
        with its own ``message``."""
        target = target or self
        ops = (op, None) if leg == 1 else (None, op)
        return self._cached(("leg", op, leg, target),
                            lambda: self.descend(*ops, message, target), message, target)

    def mul_class(self, q1, q2):
        """Product of canonical representatives, projected back.

        Only meaningful when the caller has verified the representative
        independence (e.g. images of a comultiplication).
        """
        return self.project(tensor_mul(self.algebra, self.lift(q1), self.lift(q2)))

    def slice(self, struct, mapping, leg, what="slice"):
        """Descend c (x) d -> struct.act(mapping(c), e_d) to A.

        mapping: LinearMap A -> base, the base of ``struct``, a module
        structure on A: the value on the consumed leg ``leg`` (1 or 2)
        acts on the other leg, from the side struct multiplies.  Only the
        basis tensors whose consumed leg is a non-empty column of mapping
        are visited.  Memoized by struct, the content of mapping and leg.

        On a coordinate quotient with ``struct.weights`` the slice is
        decided by ``_slice_by_weights``; where that declines, and on
        every other tensor, ``descend_componentwise`` checks it.
        """
        n = self.leg_dim

        def sliced(i, j):
            c, d = (i, j) if leg == 1 else (j, i)
            return struct.act(mapping.col(c), {d: ONE})

        message = what + " is not balanced for flavor {src!r}"

        def build():
            if self.coordinate and struct.weights is not None:
                cols = self._slice_by_weights(struct.weights, mapping, leg)
                if cols is not None:
                    return LinearMap._fresh(n, self.dim, cols)
            support = [k for k in range(n) if mapping.col(k)]
            pairs = ((k, j) for k in support for j in range(n))
            return descend_componentwise(
                self, None, sliced, message,
                live=[k * n + j if leg == 1 else j * n + k for k, j in pairs],
            )

        return self._cached(("slice", struct, mapping, leg), build, message, None)

    def _slice_by_weights(self, weights, mapping, leg):
        """The columns of the slice by a structure with these ``weights``,
        or None if the slice does not descend.

        The structure's acts[x] e_d is w(d)_x e_d, so the image of
        e_c (x) e_d (c on the consumed leg) is <mapping(c), w(d)> e_d.  On
        a coordinate quotient the relations are the e_c (x) e_d whose
        tensor weights differ, and the map descends to A iff each of them
        has a zero image: then the column at each free coordinate is its
        image.  So the other-leg indices d are grouped by their structure
        weight w(d) and, within it, by their tensor weight, and one exact
        pairing per (c, structure weight) decides every coordinate of the
        group.  A non-zero pairing at a relation coordinate returns None,
        and ``descend_componentwise`` names the first failing generator.
        """
        n, free_pos = self.leg_dim, self.space.free_pos
        w1, w2 = self.struct1.weights, self.struct2.weights
        own, other = (w1, w2) if leg == 1 else (w2, w1)
        groups = {}  # structure weight -> tensor weight -> [d]
        for d in range(n):
            groups.setdefault(weights[d], {}).setdefault(other[d], []).append(d)
        pairings = [({x: s for x, s in enumerate(w) if s}, by_tensor)
                    for w, by_tensor in groups.items()]
        cols = [_ZERO_COLUMN] * self.dim
        for c in range(n):
            value = mapping.col(c)
            if not value:
                continue
            for w, by_tensor in pairings:
                s = ev(w, value)
                if not s:
                    continue
                for tensor_weight, ds in by_tensor.items():
                    if tensor_weight != own[c]:
                        return None
                    for d in ds:
                        cols[free_pos[c * n + d if leg == 1 else d * n + c]] = {d: s}
        return cols

    def flip_to(self, target):
        """The map a (x) b -> b (x) a into the flipped flavor, checked; memoized."""
        message = "flip does not relate flavors {src!r} -> {dst!r}"

        def build():
            return self.descend(None, None, message, target, swap=True)

        return self._cached(("flip", target), build, message, target)


class TripleTensor:
    """Quotient of A (x) A (x) A with balancing on legs (1,2) and (2,3).

    pair12 and pair23 are the BalancedTensors whose relations R12, R23
    hold on legs (1,2) and on legs (2,3).  The quotient by R12 (x) A +
    A (x) R23 is built as (pair12 (x) A) modulo the image of A (x) R23:
    pi12 (x) id is onto with kernel R12 (x) A.  So the only rows
    eliminated are e_a (x) r, for r in pair23's ``relation_rows``, each
    projected third-leg block by third-leg block into pair12.dim * n
    coordinates (index k * pair12.dim + q, q in pair12, k the third leg).
    ``reduce`` takes a vector of A (x) A (x) A, index (i*n + j)*n + k,
    and returns the canonical residue in the projected coordinates.
    ``leg_dim`` is n; ``dim`` is the dimension of the quotient.
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
        for r in pair23.space.relation_rows():
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

