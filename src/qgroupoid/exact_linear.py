"""Exact scalars and linear algebra.

Scalars live in Q(i) extended by square roots of positive square-free
integers, so sums like 3/4 + (1/2)*i + 2*sqrt(2) are represented and
compared exactly.  No floating point anywhere: every rational coefficient
a scalar stores is an ``int`` when it is integral and otherwise a
``Fraction`` with denominator > 1, so the common integer case never
builds a ``Fraction``; ``_q`` is the one place that puts a coefficient in
that form.  Vectors are sparse dicts index -> Scalar, matrices are
column-sparse LinearMaps; quotient spaces carry an echelon-form section
so every class has a canonical representative.

Sparse vectors keep three invariants:

- no entry stored is zero, so equal vectors are equal dicts;
- ``axpy`` is the one in-place accumulator: every sum of scaled vectors
  goes through it, and it drops the entries that cancel;
- nothing accumulates into a dict returned by ``LinearMap.col()``, which
  is the map's own storage; accumulate into a fresh dict instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "Scalar",
    "ScalarField",
    "FieldExtensionNeeded",
    "ZERO",
    "ONE",
    "sc",
    "LinearMap",
    "QuotientSpace",
    "solve_linear",
    "kernel",
    "quotient_by",
    "Rref",
    "axpy",
    "vadd",
    "vsub",
    "vscale",
    "vec_from_dense",
    "vec_conj",
    "kron_vec",
    "joint_kernel",
    "is_positive_semidefinite",
]


def _squarefree_split(n):
    """n > 0 -> (g, m) with n = g*g*m and m square-free."""
    g, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            g *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    return g, m * n


def _root_mul(m1, m2):
    """sqrt(m1)*sqrt(m2) = g*sqrt(m) for square-free m1, m2; returns (g, m)."""
    g = gcd(m1, m2)
    return g, (m1 // g) * (m2 // g)


_F0 = Fraction(0)


def _q(x):
    """The canonical coefficient for the rational x: an int if integral,
    else a Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Scalar:
    """Element of Q(i)[sqrt(d1), ..., sqrt(dk)].

    Stored as a sorted tuple of (m, re, im): the coefficient re + im*i of
    the monomial sqrt(m), m square-free positive, m = 1 for the rational
    part.  Each of re and im is an int when integral, otherwise a Fraction
    with denominator > 1, never a float; every constructor below passes
    new coefficients through ``_q``.  Immutable and hashable.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=()):
        self.terms = terms
        self._hash = None

    # -- construction ------------------------------------------------

    @staticmethod
    def _from_dict(d):
        items = tuple(
            (m, _q(re), _q(im)) for m, (re, im) in sorted(d.items()) if re or im
        )
        return Scalar(items)

    @classmethod
    def rational(cls, re, im=0):
        re, im = _q(re), _q(im)
        if not re and not im:
            return ZERO
        return cls(((1, re, im),))

    @classmethod
    def root_term(cls, m, re=1, im=0):
        """Coefficient (re + im*i) times sqrt(m)."""
        g, mm = _squarefree_split(m)
        re, im = _q(Fraction(re) * g), _q(Fraction(im) * g)
        if not re and not im:
            return ZERO
        return cls(((mm, re, im),))

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self):
        return not self.terms or (
            len(self.terms) == 1 and self.terms[0][0] == 1 and not self.terms[0][2]
        )

    def is_real(self):
        return all(not im for _, _, im in self.terms)

    def as_fraction(self):
        """The value as a Fraction; raises if not rational real."""
        if not self.terms:
            return _F0
        if len(self.terms) == 1 and self.terms[0][0] == 1 and not self.terms[0][2]:
            return Fraction(self.terms[0][1])
        raise ValueError("scalar is not rational: %s" % (self,))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            m, re1, im1 = a[0]
            _, re2, im2 = b[0]
            re, im = _q(re1 + re2), _q(im1 + im2)
            if not re and not im:
                return ZERO
            return Scalar(((m, re, im),))
        d = {m: (re, im) for m, re, im in a}
        for m, re, im in b:
            if m in d:
                d[m] = (d[m][0] + re, d[m][1] + im)
            else:
                d[m] = (re, im)
        return Scalar._from_dict(d)

    def __neg__(self):
        return Scalar(tuple((m, -re, -im) for m, re, im in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return ZERO
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == 1 and b[0][0] == 1:
            # a product of nonzero Gaussian rationals is nonzero
            _, re1, im1 = a[0]
            _, re2, im2 = b[0]
            if not im1 and not im2:
                return Scalar(((1, _q(re1 * re2), 0),))
            return Scalar(((1, _q(re1 * re2 - im1 * im2), _q(re1 * im2 + im1 * re2)),))
        d = {}
        for m1, re1, im1 in a:
            for m2, re2, im2 in b:
                g, m = _root_mul(m1, m2)
                re = g * (re1 * re2 - im1 * im2)
                im = g * (re1 * im2 + im1 * re2)
                if m in d:
                    d[m] = (d[m][0] + re, d[m][1] + im)
                else:
                    d[m] = (re, im)
        return Scalar._from_dict(d)

    def conj(self):
        """Complex conjugation; fixes every sqrt(m)."""
        return Scalar(tuple((m, re, -im) for m, re, im in self.terms))

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("scalar division by zero")
        if len(self.terms) == 1:
            m, re, im = self.terms[0]
            n = (re * re + im * im) * m
            return Scalar(((m, _q(Fraction(re, n)), _q(Fraction(-im, n))),))
        # clear each prime radical by multiplying with the flip conjugate
        primes = set()
        for m, _, _ in self.terms:
            mm = m
            d = 2
            while d * d <= mm:
                if mm % d == 0:
                    primes.add(d)
                    while mm % d == 0:
                        mm //= d
                d += 1 if d == 2 else 2
            if mm > 1:
                primes.add(mm)
        num = ONE
        cur = self
        for p in sorted(primes):
            flip = Scalar(
                tuple(
                    (m, -re, -im) if m % p == 0 else (m, re, im)
                    for m, re, im in cur.terms
                )
            )
            num = num * flip
            cur = cur * flip
        # cur is now a Gaussian rational
        assert cur.is_rational() or (
            len(cur.terms) == 1 and cur.terms[0][0] == 1
        ), "radical elimination failed"
        _, re, im = cur.terms[0]
        n = re * re + im * im
        return num * Scalar.rational(Fraction(re, n), Fraction(-im, n))

    def __truediv__(self, other):
        return self * other.inverse()

    # -- sign ----------------------------------------------------------

    def sign(self):
        """Exact sign (-1, 0, 1) of a real scalar, by interval refinement."""
        if not self.is_real():
            raise ValueError("sign of a non-real scalar: %s" % (self,))
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == 1:
            q = self.terms[0][1]
            return (q > 0) - (q < 0)
        # Newton bounds: hi is always an upper bound for sqrt(m), lo = m/hi
        bounds = {}
        for m, _, _ in self.terms:
            hi = Fraction(isqrt(m) + 1)
            bounds[m] = (m / hi, hi)
        for _ in range(128):
            lo_sum = hi_sum = _F0
            for m, q, _ in self.terms:
                lo, hi = bounds[m]
                if q > 0:
                    lo_sum += q * lo
                    hi_sum += q * hi
                else:
                    lo_sum += q * hi
                    hi_sum += q * lo
            if lo_sum > 0:
                return 1
            if hi_sum < 0:
                return -1
            bounds = {
                m: (m / h2, h2)
                for m, (lo, hi) in bounds.items()
                for h2 in ((hi + m / hi) / 2,)
            }
        # impossible for a valid field element: the monomials sqrt(m) are
        # linearly independent over Q, so a nonzero combination is nonzero
        raise ArithmeticError("sign refinement did not terminate")

    def is_positive(self):
        """True iff the scalar is real and >= 0 as a real algebraic number."""
        return self.is_real() and self.sign() >= 0

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, re, im in self.terms:
            if im:
                coeff = "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))
            else:
                coeff = str(re)
            parts.append(coeff if m == 1 else "%s*sqrt(%d)" % (coeff, m))
        return "+".join(parts).replace("+-", "-")


ZERO = Scalar()
ONE = Scalar(((1, 1, 0),))
_MINUS_ONE = Scalar(((1, -1, 0),))
I_UNIT = Scalar(((1, 0, 1),))
_ONE_TERMS, _MINUS_ONE_TERMS = ONE.terms, _MINUS_ONE.terms


def sc(x):
    """Coerce int / Fraction / 'p/q' string / Scalar to Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar.rational(x)


class FieldExtensionNeeded(ValueError):
    """A square root is required that the session field does not contain."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(
            "field extension required: adjoin sqrt of %s" % self.missing
        )


class ScalarField:
    """Session field Q(i)[sqrt(d) for d in roots].

    The adjoined roots must be positive square-free integers; the field
    knows which square-free monomials its elements may use, and provides
    exact square roots of non-negative rationals when they exist.
    """

    def __init__(self, roots=()):
        self.roots = []
        monomials = {1}
        for d in roots:
            d = int(d)
            if d <= 0:
                raise ValueError("adjoined root must be positive: %d" % d)
            g, m = _squarefree_split(d)
            if g != 1:
                raise ValueError("adjoined root must be square-free: %d" % d)
            if m in monomials or m == 1:
                continue
            self.roots.append(m)
            monomials |= {_root_mul(m, k)[1] for k in monomials}
        self.monomials = frozenset(monomials)

    def contains(self, s):
        return all(m in self.monomials for m, _, _ in s.terms)

    def sqrt(self, s):
        """Exact square root of a non-negative rational scalar."""
        q = s.as_fraction()
        if q < 0:
            raise ValueError("sqrt of a negative scalar: %s" % (s,))
        if q == 0:
            return ZERO
        g1, m1 = _squarefree_split(q.numerator)
        g2, m2 = _squarefree_split(q.denominator)
        gg, m = _root_mul(m1, m2)
        # sqrt(p/q) = sqrt(p*q)/q
        coeff = Fraction(g1 * g2 * gg, q.denominator)
        if m == 1:
            return Scalar.rational(coeff)
        if m not in self.monomials:
            raise FieldExtensionNeeded({m})
        return Scalar(((m, _q(coeff), 0),))

    def missing_roots(self, values):
        """Square-free kernels among sqrt(values) not available in the field."""
        missing = set()
        for v in values:
            q = sc(v).as_fraction()
            if q <= 0:
                continue
            _, m1 = _squarefree_split(q.numerator)
            _, m2 = _squarefree_split(q.denominator)
            _, m = _root_mul(m1, m2)
            if m != 1 and m not in self.monomials:
                missing.add(m)
        return missing

    def __repr__(self):
        return "ScalarField(roots=%s)" % (self.roots,)


# ---------------------------------------------------------------------------
# sparse vectors: dict index -> Scalar (no zero entries stored)
# ---------------------------------------------------------------------------


def axpy(acc, c, v, shift=0):
    """acc += c*v in place, with v's indices offset by shift; returns acc.

    Entries that cancel are dropped.  A coefficient of 1 or -1 adds or
    subtracts v's entries without multiplying them.  v must not be acc.
    """
    ct = c.terms
    if not ct:
        return acc
    if ct == _ONE_TERMS:
        terms = v.items()
    elif ct == _MINUS_ONE_TERMS:
        terms = ((j, -s) for j, s in v.items())
    else:
        terms = ((j, c * s) for j, s in v.items())
    get = acc.get
    for j, s in terms:
        j += shift
        t = get(j, ZERO) + s
        if t:
            acc[j] = t
        else:
            acc.pop(j, None)
    return acc


def vadd(u, v):
    return axpy(dict(u), ONE, v)


def vsub(u, v):
    return axpy(dict(u), _MINUS_ONE, v)


def vscale(c, u):
    if not c:
        return {}
    return {j: c * s for j, s in u.items()}


def vec_from_dense(xs):
    return {j: s for j, s in enumerate(map(sc, xs)) if s}


def vec_conj(u):
    return {j: s.conj() for j, s in u.items()}


def joint_kernel(maps):
    """Basis of the common kernel of LinearMaps with one domain."""
    rows, cols = maps[0].rows, maps[0].cols
    stacked = [{} for _ in range(cols)]
    for t, m in enumerate(maps):
        for j in range(cols):
            axpy(stacked[j], ONE, m.col(j), t * rows)
    return LinearMap(rows * len(maps), cols, stacked).kernel_basis()


def kron_vec(u, v, n2):
    w = {}
    for i, s in u.items():
        for j, t in v.items():
            p = s * t
            if p:
                w[i * n2 + j] = p
    return w


# ---------------------------------------------------------------------------
# reduced row echelon over sparse rows
# ---------------------------------------------------------------------------


class Rref:
    """Incrementally maintained reduced echelon basis of a row span.

    ``rows`` maps each pivot to its reduced row, whose pivot coefficient
    is 1 and which has no entry at any other pivot.  A private column
    index ``_users`` maps each column that is not a pivot to the set of
    pivots whose rows have an entry there, ``{j: {q : j in rows[q]}}``,
    so ``add`` eliminates a new pivot from exactly the rows that use it
    instead of scanning them all.  Every set in it is non-empty.
    """

    def __init__(self):
        self.rows = {}  # pivot index -> reduced row dict (pivot coeff 1)
        self._users = {}  # non-pivot column -> pivots whose rows use it

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of v modulo the current row span (canonical)."""
        v = dict(v)
        for p in [k for k in v if k in self.rows]:
            c = v.get(p)
            if c:
                axpy(v, -c, self.rows[p])
        return v

    def contains(self, v):
        return not self.reduce(v)

    def add(self, v):
        """Insert v; returns the new pivot index, or None if dependent."""
        r = self.reduce(v)
        if not r:
            return None
        p = min(r)
        inv = r[p].inverse()
        r = {j: s * inv for j, s in r.items()}
        rows, users = self.rows, self._users
        cols = [j for j in r if j != p]
        for j in cols:
            users.setdefault(j, set()).add(p)
        for q in users.pop(p, ()):
            row = rows[q]
            axpy(row, -row[p], r)
            for j in cols:
                if j in row:
                    users[j].add(q)
                else:
                    users[j].discard(q)
        rows[p] = r
        return p

    def basis(self):
        return [dict(row) for _, row in sorted(self.rows.items())]


class _TrackedEchelon:
    """Echelon over pairs (v, w) with the invariant v = sum_j w[j]*col_j."""

    def __init__(self):
        self.rows = {}  # pivot -> (v, w)

    def insert(self, v, w):
        """Returns None if v was independent, else a kernel vector w'."""
        v, w = dict(v), dict(w)
        for p in [k for k in v if k in self.rows]:
            c = v.get(p)
            if c:
                rv, rw = self.rows[p]
                axpy(v, -c, rv)
                axpy(w, -c, rw)
        if not v:
            return w
        p = min(v)
        inv = v[p].inverse()
        v = {j: s * inv for j, s in v.items()}
        w = {j: s * inv for j, s in w.items()}
        for rv, rw in self.rows.values():
            cc = rv.get(p)
            if cc:
                axpy(rv, -cc, v)
                axpy(rw, -cc, w)
        self.rows[p] = (v, w)
        return None

    def express(self, t):
        """Writes t as a combination of the inserted columns if possible."""
        r, u = dict(t), {}
        for p in [k for k in r if k in self.rows]:
            c = r.get(p)
            if c:
                rv, rw = self.rows[p]
                axpy(r, -c, rv)
                axpy(u, c, rw)
        if r:
            return None
        return u


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


class LinearMap:
    """A linear map F^cols -> F^rows, stored column-sparse."""

    __slots__ = ("rows", "cols", "data", "_solver")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = tuple(
            {i: s for i, s in col.items() if s} for col in data
        )
        self._solver = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(cls, entries):
        entries = [[sc(x) for x in row] for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = [
            {i: entries[i][j] for i in range(rows) if entries[i][j]}
            for j in range(cols)
        ]
        return cls(rows, cols, data)

    @classmethod
    def from_function(cls, rows, cols, f):
        """f(j) -> sparse column vector."""
        return cls(rows, cols, [f(j) for j in range(cols)])

    @classmethod
    def combination(cls, rows, cols, terms):
        """The map sum c*f over the (c, f) pairs in terms."""
        data = [{} for _ in range(cols)]
        for c, f in terms:
            for j in range(cols):
                axpy(data[j], c, f.data[j])
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{j: ONE} for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [{} for _ in range(cols)])

    # -- application -----------------------------------------------------

    def col(self, j):
        return self.data[j]

    def apply(self, v):
        w = {}
        for j, c in v.items():
            axpy(w, c, self.data[j])
        return w

    def __call__(self, v):
        return self.apply(v)

    def compose(self, other):
        """self o other."""
        if other.rows != self.cols:
            raise ValueError("dimension mismatch in composition")
        return LinearMap(
            self.rows, other.cols, [self.apply(c) for c in other.data]
        )

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return LinearMap(
            self.rows,
            self.cols,
            [vadd(a, b) for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        return LinearMap(
            self.rows,
            self.cols,
            [vsub(a, b) for a, b in zip(self.data, other.data)],
        )

    def scale(self, c):
        return LinearMap(self.rows, self.cols, [vscale(c, a) for a in self.data])

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, tuple(tuple(sorted(c.items())) for c in self.data))
        )

    def is_zero(self):
        return all(not c for c in self.data)

    def transpose(self):
        cols = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, s in col.items():
                cols[i][j] = s
        return LinearMap(self.cols, self.rows, cols)

    def to_dense(self):
        return [
            [self.data[j].get(i, ZERO) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    # -- solving -----------------------------------------------------------

    def _get_solver(self):
        if self._solver is None:
            ech = _TrackedEchelon()
            ker = []
            for j, c in enumerate(self.data):
                w = ech.insert(c, {j: ONE})
                if w is not None:
                    ker.append(w)
            self._solver = (ech, ker)
        return self._solver

    def solve(self, target):
        """Some x with self(x) = target, or None if target not in the image."""
        ech, _ = self._get_solver()
        return ech.express(target)

    def kernel_basis(self):
        _, ker = self._get_solver()
        return [dict(w) for w in ker]

    @property
    def rank(self):
        ech, _ = self._get_solver()
        return len(ech.rows)

    def is_injective(self):
        return self.rank == self.cols

    def is_surjective(self):
        return self.rank == self.rows

    def is_bijective(self):
        return self.rows == self.cols and self.rank == self.rows

    def inverse(self):
        if not self.is_bijective():
            return None
        cols = [self.solve({i: ONE}) for i in range(self.rows)]
        return LinearMap(self.cols, self.rows, cols)

    def conj(self):
        return LinearMap(
            self.rows, self.cols, [vec_conj(c) for c in self.data]
        )

    def __repr__(self):
        return "LinearMap(%d x %d)" % (self.rows, self.cols)


# ---------------------------------------------------------------------------
# quotient spaces with canonical echelon sections
# ---------------------------------------------------------------------------


class QuotientSpace:
    """F^n modulo the span of relation vectors.

    The canonical representative of a class zeroes every pivot coordinate
    of the relation echelon; the section places quotient coordinates at
    the free indices, so project o section = identity exactly.
    """

    def __init__(self, ambient_dim, relations):
        self.ambient_dim = ambient_dim
        self.rref = Rref()
        for r in relations:
            self.rref.add(r)
        pivots = set(self.rref.rows)
        self.free = [j for j in range(ambient_dim) if j not in pivots]
        self.free_pos = {f: q for q, f in enumerate(self.free)}
        self.dim = len(self.free)

    def project(self, v):
        r = self.rref.reduce(v)
        return {self.free_pos[j]: s for j, s in r.items()}

    def lift(self, q):
        return {self.free[i]: s for i, s in q.items()}

    def reduce(self, v):
        """Canonical ambient representative of the class of v."""
        return self.rref.reduce(v)

    def contains_relation(self, v):
        return self.rref.contains(v)

    @property
    def projection(self):
        return LinearMap.from_function(
            self.dim, self.ambient_dim, lambda j: self.project({j: ONE})
        )

    @property
    def section(self):
        return LinearMap.from_function(
            self.ambient_dim, self.dim, lambda q: {self.free[q]: ONE}
        )

    def __repr__(self):
        return "QuotientSpace(%d -> %d)" % (self.ambient_dim, self.dim)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def solve_linear(f, target):
    """Some x with f(x) = target, or None; raises on dimension mismatch."""
    t = dict(target)
    if t and max(t) >= f.rows:
        raise ValueError(
            "target of length > %d for a map with %d rows" % (f.rows, f.rows)
        )
    return f.solve(t)


def kernel(f):
    """Basis of ker(f); empty iff f is injective."""
    return f.kernel_basis()


def quotient_by(ambient_dim, relations):
    """Quotient of F^ambient_dim by the span of the relation vectors."""
    for r in relations:
        if r and max(r) >= ambient_dim:
            raise ValueError("relation vector leaves F^%d" % ambient_dim)
    return QuotientSpace(ambient_dim, relations)


def is_positive_semidefinite(h):
    """Exact PSD test for a Hermitian matrix given as nested lists of Scalars.

    Checks hermitianity, then runs pivoted Schur-complement elimination:
    every pivot must be a positive real and a vanishing diagonal entry
    forces its whole row to vanish.
    """
    n = len(h)
    h = [[sc(x) for x in row] for row in h]
    for i in range(n):
        for j in range(n):
            if h[i][j] != h[j][i].conj():
                return False
    idx = list(range(n))
    while idx:
        piv = None
        for i in idx:
            d = h[i][i]
            if d:
                if not d.is_real() or d.sign() < 0:
                    return False
                piv = i
                break
        if piv is None:
            # all diagonal entries vanish: PSD forces the rest to vanish
            return all(not h[i][j] for i in idx for j in idx)
        idx.remove(piv)
        d = h[piv][piv]
        for i in idx:
            for j in idx:
                h[i][j] = h[i][j] - h[i][piv] * h[piv][j] / d
    return True
