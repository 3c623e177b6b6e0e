"""Exact scalars and linear algebra.

Scalars live in Q(i) extended by square roots of positive square-free
integers, so sums like 3/4 + (1/2)*i + 2*sqrt(2) are represented and
compared exactly.  No floating point anywhere.  A scalar is stored in
one of three forms, and only this module looks inside them:

- a real rational is a plain ``int``, or a ``Fraction`` with denominator
  > 1 when it is not integral, so the common case runs on native integer
  arithmetic;
- any other value is a ``Scalar``, stored on integers: (a + b*i)/den per
  monomial sqrt(m), one den > 0 for all of them, reduced to gcd 1, so
  its arithmetic makes no ``Fraction``; its ``terms`` read the
  coefficients by the int-or-Fraction rule; a ``Scalar`` result that
  turns out to be a real rational (sqrt(2)*sqrt(2), i*i) comes back as
  an ``int`` or ``Fraction``.

Two rules keep the forms apart.  In a product of a ``Scalar`` with a
rational, the ``Scalar`` goes on the right, so the rational's operator
hands over to ``Scalar.__rmul__``.  Division goes through ``inverse``,
never ``/``: on two ints ``/`` is float division.  ``conj``,
``inverse``, ``sign``, ``is_positive`` and ``as_fraction`` take a scalar
of any form.  The arithmetic skips work whose result it knows: a product
by 1 returns the ``Scalar`` itself, a product or inverse of one
monomial is formed directly, ``axpy`` multiplies by no coefficient of 1
or -1 and stores the scaled entry in an empty slot without adding it to
0, and ``LinearMap.apply`` copies or scales one column for a vector of
one entry, e_j mapped to a basis vector or to 0 being the common case.

Vectors are sparse dicts index -> scalar, matrices are column-sparse
LinearMaps; a quotient space keeps a relation echelon, or only its free
coordinates when the relations are coordinate vectors, so every class has a
canonical representative; a LinearMap solves through one ``Rref``
echelon, or from its entries if it is a generalized permutation.  Sparse
vectors keep three invariants:

- no entry stored is zero, so equal vectors are equal dicts;
- ``axpy`` is the one in-place accumulator: every sum of scaled vectors
  goes through it, and it drops the entries that cancel;
- nothing accumulates into a dict returned by ``LinearMap.col()``, which
  is the map's own storage; accumulate into a fresh dict instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "Scalar",
    "ScalarField",
    "FieldExtensionNeeded",
    "ZERO",
    "ONE",
    "sc",
    "conj",
    "inverse",
    "sign",
    "is_positive",
    "as_fraction",
    "scalar_to_json",
    "scalar_from_json",
    "LinearMap",
    "QuotientSpace",
    "Rref",
    "axpy",
    "ev",
    "vsub",
    "vscale",
    "vec_items",
    "vec_conj",
    "kron_vec",
    "kron_vec_at",
    "kron",
    "apply_legs",
    "joint_kernel",
    "stack",
    "unstack",
    "stack_equations",
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


def _prime_factors(m):
    """The set of primes that divide m > 0."""
    primes = set()
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.add(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        primes.add(m)
    return primes


def _root_mul(m1, m2):
    """sqrt(m1)*sqrt(m2) = g*sqrt(m) for square-free m1, m2; returns (g, m)."""
    g = gcd(m1, m2)
    return g, (m1 // g) * (m2 // g)


_F0 = Fraction(0)


def _q(x):
    """The canonical form of the rational x: an int if integral, else a
    Fraction with denominator > 1."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _mul(a, b):
    """a*b in canonical form, with a Scalar operand on the right."""
    if type(a) is Scalar:
        return a * b if type(b) is Scalar else b * a
    p = a * b
    return p.numerator if type(p) is Fraction and p.denominator == 1 else p


def _scalar(num, den):
    """The Scalar with these integer parts, which must already be reduced."""
    s = object.__new__(Scalar)
    s.num = num
    s.den = den
    return s


def _reduced(num, den):
    """The scalar sum (a + b*i)/den * sqrt(m) over num, a sorted tuple of
    (m, a, b) with no zero term, and den > 0: 0 for no term, an int or
    Fraction when it is a real rational, else a Scalar with num and den
    divided by their gcd.  The one normalizer of arithmetic results; only
    a result known to be reduced is made with ``_scalar`` instead."""
    if not num:
        return 0
    m, a, b = num[0]
    if m == 1 and not b and len(num) == 1:
        return a if den == 1 else _q(Fraction(a, den))
    if den != 1:
        g = den
        for _, a, b in num:
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            num = tuple([(m, a // g, b // g) for m, a, b in num])
            den //= g
    return _scalar(num, den)


class Scalar:
    """An element of Q(i)[sqrt(d1), ..., sqrt(dk)] that is not a real rational.

    Stored on integers: ``num``, a sorted tuple of (m, a, b), and one
    ``den`` > 0, for the sum of (a + b*i)/den * sqrt(m), m square-free
    positive, m = 1 for the rational part, no term with a = b = 0, and
    den and every a and b with gcd 1, so equal values have equal parts.
    ``terms`` reads the same value as sorted (m, re, im) with re and im
    each an int when integral, otherwise a Fraction with denominator > 1.
    A real rational is never a Scalar: it is an ``int`` or a ``Fraction``
    (see the module docstring), and every operation below returns that
    form when its result is one.  A Scalar is never zero.  Put it on the
    right of a product with a rational, and divide with ``inverse``:
    ``Scalar`` has no ``/``.  Immutable and hashable, so a product by 1
    returns the Scalar itself.  ``_terms`` and ``_hash`` are filled when
    first read.
    """

    __slots__ = ("num", "den", "_terms", "_hash")

    def __init__(self, terms):
        """The sum of (re + im*i)*sqrt(m) over terms: sorted (m, re, im)
        with distinct m, not both of re and im zero, and int or Fraction
        coefficients, whose sum is not a real rational."""
        den = lcm(*[x.denominator for _, re, im in terms for x in (re, im)])
        self.num = tuple([(m, re.numerator * (den // re.denominator),
                           im.numerator * (den // im.denominator)) for m, re, im in terms])
        self.den = den

    # -- construction ------------------------------------------------

    @classmethod
    def rational(cls, re, im=0):
        """re + im*i: an int or Fraction when im is 0, else a Scalar."""
        re, im = _q(re), _q(im)
        if not im:
            return re
        return cls(((1, re, im),))

    @classmethod
    def root_term(cls, m, re=1, im=0):
        """Coefficient (re + im*i) times sqrt(m)."""
        g, mm = _squarefree_split(m)
        re, im = _q(Fraction(re) * g), _q(Fraction(im) * g)
        if mm == 1 or not (re or im):
            return cls.rational(re, im)
        return cls(((mm, re, im),))

    @property
    def terms(self):
        """The value as sorted (m, re, im), re and im each an int when
        integral, otherwise a Fraction with denominator > 1."""
        if self.den == 1:
            return self.num
        try:
            return self._terms
        except AttributeError:
            den = self.den
            self._terms = t = tuple([(m, _q(Fraction(a, den)), _q(Fraction(b, den)))
                                     for m, a, b in self.num])
            return t

    def is_real(self):
        return all(not b for _, _, b in self.num)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is Scalar:
            onum, oden = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self
            onum, oden = ((1, other.numerator, 0),), other.denominator
        else:
            return NotImplemented
        num, den = self.num, self.den
        if den == oden:
            k1 = k2 = 1
        else:
            g = gcd(den, oden)
            k1, k2 = oden // g, den // g
            den *= k1
        if len(num) == 1 and len(onum) == 1 and num[0][0] == onum[0][0]:
            m, a1, b1 = num[0]
            _, a2, b2 = onum[0]
            a, b = k1 * a1 + k2 * a2, k1 * b1 + k2 * b2
            return _reduced(((m, a, b),) if a or b else (), den)
        d = {m: (k1 * a, k1 * b) for m, a, b in num}
        for m, a, b in onum:
            t = d.get(m)
            d[m] = (k2 * a, k2 * b) if t is None else (t[0] + k2 * a, t[1] + k2 * b)
        return _reduced(tuple([(m, a, b) for m, (a, b) in sorted(d.items()) if a or b]), den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(tuple([(m, -a, -b) for m, a, b in self.num]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            return self.__rmul__(other)
        num, onum = self.num, other.num
        den = self.den * other.den
        if len(num) == 1 and len(onum) == 1:
            # one monomial each: the common case of a radical twist
            m1, a1, b1 = num[0]
            m2, a2, b2 = onum[0]
            g, m = _root_mul(m1, m2)
            return _reduced(((m, g * (a1 * a2 - b1 * b2), g * (a1 * b2 + b1 * a2)),), den)
        d = {}
        for m1, a1, b1 in num:
            for m2, a2, b2 in onum:
                g, m = _root_mul(m1, m2)
                a, b = g * (a1 * a2 - b1 * b2), g * (a1 * b2 + b1 * a2)
                t = d.get(m)
                d[m] = (a, b) if t is None else (t[0] + a, t[1] + b)
        return _reduced(tuple([(m, a, b) for m, (a, b) in sorted(d.items()) if a or b]), den)

    def __rmul__(self, other):
        if type(other) is int and other == 1:
            return self
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return 0
        p = other.numerator
        return _reduced(tuple([(m, p * a, p * b) for m, a, b in self.num]),
                        self.den * other.denominator)

    def conj(self):
        """Complex conjugation; fixes every sqrt(m)."""
        return _scalar(tuple([(m, a, -b) for m, a, b in self.num]), self.den)

    def inverse(self):
        num = self.num
        if len(num) == 1:
            # 1/((a + b*i)/d * sqrt(m)) = d*(a - b*i)*sqrt(m) / ((a^2 + b^2)*m)
            m, a, b = num[0]
            d = self.den
            return _reduced(((m, d * a, -d * b),), (a * a + b * b) * m)
        # clear each prime radical by multiplying with the flip conjugate
        primes = set()
        for m, _, _ in num:
            primes |= _prime_factors(m)
        out, cur = 1, self
        for p in sorted(primes):
            if type(cur) is not Scalar:
                break
            flip = _scalar(tuple([
                (m, -a, -b) if m % p == 0 else (m, a, b) for m, a, b in cur.num
            ]), cur.den)
            out, cur = out * flip, cur * flip
        # cur is now a Gaussian rational
        if type(cur) is not Scalar:
            return inverse(cur) * out
        assert len(cur.num) == 1 and cur.num[0][0] == 1, "radical elimination failed"
        return _mul(out, cur.inverse())

    # -- sign ----------------------------------------------------------

    def sign(self):
        """Exact sign (-1, 1) of a real Scalar, by interval refinement."""
        if not self.is_real():
            raise ValueError("sign of a non-real scalar: %s" % (self,))
        # Newton bounds: hi is always an upper bound for sqrt(m), lo = m/hi;
        # the sign of the sum is that of its numerators, as den > 0
        bounds = {}
        for m, _, _ in self.num:
            hi = Fraction(isqrt(m) + 1)
            bounds[m] = (m / hi, hi)
        for _ in range(128):
            lo_sum = hi_sum = _F0
            for m, q, _ in self.num:
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

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        return type(other) is Scalar and self.den == other.den and self.num == other.num

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.num, self.den))
            return h

    def __repr__(self):
        parts = []
        for m, re, im in self.terms:
            if im:
                coeff = "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))
            else:
                coeff = str(re)
            parts.append(coeff if m == 1 else "%s*sqrt(%d)" % (coeff, m))
        return "+".join(parts).replace("+-", "-")


ZERO = 0
ONE = 1


def sc(x):
    """Coerce int / Fraction / 'p/q' string / Scalar to a canonical scalar."""
    if type(x) is Scalar:
        return x
    return _q(x)


def conj(x):
    """Complex conjugate of a scalar of any form."""
    return x.conj() if type(x) is Scalar else x


def inverse(x):
    """1/x for a nonzero scalar of any form."""
    if type(x) is Scalar:
        return x.inverse()
    if not x:
        raise ZeroDivisionError("scalar division by zero")
    if type(x) is int:
        return x if x == 1 or x == -1 else Fraction(1, x)
    n, d = x.numerator, x.denominator
    return d if n == 1 else -d if n == -1 else Fraction(d, n)


def sign(x):
    """Exact sign (-1, 0, 1) of a real scalar."""
    if type(x) is Scalar:
        return x.sign()
    return (x > 0) - (x < 0)


def is_positive(x):
    """True iff x is real and >= 0 as a real algebraic number."""
    if type(x) is Scalar:
        return x.is_real() and x.sign() > 0
    return x >= 0


def as_fraction(x):
    """The value as a Fraction; raises if x is not a real rational."""
    if type(x) is Scalar:
        raise ValueError("scalar is not rational: %s" % (x,))
    return Fraction(x)


def scalar_to_json(s):
    """A real rational as its 'p/q' string, else a dict of its parts."""
    if type(s) is not Scalar:
        return str(s)
    plain_re, plain_im = "0", "0"
    roots = {}
    for m, re, im in s.terms:
        if m == 1:
            plain_re, plain_im = str(re), str(im)
        else:
            roots[str(m)] = {"re": str(re), "im": str(im)}
    out = {"re": plain_re, "im": plain_im}
    if roots:
        out["sqrt_part"] = dict(sorted(roots.items()))
    return out


def scalar_from_json(obj):
    if isinstance(obj, (int, str)):
        return _q(Fraction(obj))
    if isinstance(obj, float):
        raise ValueError("decimal scalars are not accepted; use fraction strings")
    s = Scalar.rational(Fraction(obj.get("re", 0)), Fraction(obj.get("im", 0)))
    for m, coeff in obj.get("sqrt_part", {}).items():
        if int(m) < 1:
            raise ValueError("radicand must be positive: %s" % m)
        s = s + Scalar.root_term(
            int(m), Fraction(coeff.get("re", 0)), Fraction(coeff.get("im", 0))
        )
    return s


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

    A square-free m is the set of primes that divide it, and
    sqrt(m1)*sqrt(m2) is an integer times the sqrt of the symmetric
    difference of the two sets, so the field's monomials are the GF(2)
    span of its roots' prime sets.  ``_rows`` holds an echelon basis of
    that span, keyed by the largest prime of each row: membership is one
    elimination, with no table of the 2^k products of k roots.
    """

    def __init__(self, roots=()):
        self.roots = []
        self._rows = {}
        for d in roots:
            d = int(d)
            if d <= 0:
                raise ValueError("adjoined root must be positive: %d" % d)
            g, m = _squarefree_split(d)
            if g != 1:
                raise ValueError("adjoined root must be square-free: %d" % d)
            residue = self._residue(m)
            if residue:  # a root already in the field is skipped
                self._rows[max(residue)] = residue
                self.roots.append(m)

    def _residue(self, m):
        """The primes of square-free m left by elimination with ``_rows``:
        empty exactly when sqrt(m) is a monomial of the field.  Each row
        clears its largest prime and adds only smaller ones."""
        primes = _prime_factors(m)
        rows = self._rows
        while primes:
            row = rows.get(max(primes))
            if row is None:
                break
            primes ^= row
        return primes

    def sqrt(self, s):
        """Exact square root of a non-negative rational scalar."""
        q = as_fraction(s)
        if q < 0:
            raise ValueError("sqrt of a negative scalar: %s" % (s,))
        if q == 0:
            return 0
        g1, m1 = _squarefree_split(q.numerator)
        g2, m2 = _squarefree_split(q.denominator)
        gg, m = _root_mul(m1, m2)
        # sqrt(p/q) = sqrt(p*q)/q
        coeff = Fraction(g1 * g2 * gg, q.denominator)
        if m == 1:
            return _q(coeff)
        if self._residue(m):
            raise FieldExtensionNeeded({m})
        return Scalar(((m, _q(coeff), 0),))

    def __repr__(self):
        return "ScalarField(roots=%s)" % (self.roots,)


# ---------------------------------------------------------------------------
# sparse vectors: dict index -> scalar (no zero entries stored)
# ---------------------------------------------------------------------------


def axpy(acc, c, v, shift=0):
    """acc += c*v in place, with v's indices offset by shift; returns acc.

    Entries that cancel are dropped, and an integral Fraction is stored
    as its int.  Each kind of coefficient has its own loop: 1 and -1 add
    or subtract v's entries without multiplying them, a Scalar is stored
    itself where v's entry is 1, and any other rational multiplies each
    entry.  An empty slot of acc takes the scaled entry directly, with no
    addition.  v must not be acc.
    """
    if not v or not c:
        return acc
    get, pop = acc.get, acc.pop
    if type(c) is Scalar:
        for j, s in v.items():
            j += shift
            s = c if type(s) is int and s == 1 else s * c
            t = get(j)
            if t is not None:
                s = t + s
            if not s:
                pop(j, None)
            else:
                acc[j] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return acc
    if c == 1:
        for j, s in v.items():
            j += shift
            t = get(j)
            if t is not None:
                s = t + s
            if not s:
                pop(j, None)
            else:
                acc[j] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return acc
    if c == -1:
        for j, s in v.items():
            j += shift
            t = get(j)
            s = -s if t is None else t - s
            if not s:
                pop(j, None)
            else:
                acc[j] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        return acc
    for j, s in v.items():
        j += shift
        s = c * s
        t = get(j)
        if t is not None:
            s = t + s
        if not s:
            pop(j, None)
        else:
            acc[j] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
    return acc


def ev(omega, v):
    """omega(v): the dual vector omega paired with the vector v."""
    out = 0
    for i, s in v.items():
        c = omega.get(i)
        if c:
            out += s * c if type(c) is Scalar else c * s
    if type(out) is Fraction and out.denominator == 1:
        return out.numerator
    return out


def vsub(u, v):
    return axpy(dict(u), -1, v)


def vscale(c, u):
    if not c:
        return {}
    if c == 1:
        return dict(u)
    return {j: _mul(s, c) for j, s in u.items()}


def vec_items(v):
    """The sorted (index, value) pairs of v with each value as its string,
    the form in which witnesses report a vector."""
    return [(j, str(s)) for j, s in sorted(v.items())]


def vec_conj(u):
    return {j: s.conj() if type(s) is Scalar else s for j, s in u.items()}


def stack(maps):
    """The maps of one domain stacked into one: column j is
    sum_t e_t (x) maps[t].col(j), block t at row offset t * rows.

    A law checked once per map compares one stacked vector instead: two
    stacked vectors are equal iff every block is, so only a pair that
    differs needs ``unstack`` to find the first block where it does.
    """
    rows, cols = maps[0].rows, maps[0].cols
    stacked = [{} for _ in range(cols)]
    for t, m in enumerate(maps):
        for j, col in enumerate(m.data):
            if col:
                axpy(stacked[j], 1, col, t * rows)
    return LinearMap(rows * len(maps), cols, stacked)


def unstack(w, width, count):
    """The ``count`` blocks of width ``width`` of a stacked vector, each
    re-indexed from 0: the inverse of stacking."""
    blocks = [{} for _ in range(count)]
    for j, s in w.items():
        t, i = divmod(j, width)
        blocks[t][i] = s
    return blocks


def _block_sides(at, lhs, rhs, width, count):
    """The (at + (t,), block t of lhs, block t of rhs) of two stacked
    vectors for every t, when they differ; nothing when they are equal,
    since then every block is."""
    if lhs != rhs:
        blocks = zip(unstack(lhs, width, count), unstack(rhs, width, count))
        for t, (l, r) in enumerate(blocks):
            yield at + (t,), l, r


def stack_equations(groups, unknowns):
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


def joint_kernel(maps):
    """Basis of the common kernel of LinearMaps with one domain."""
    return stack(maps).kernel_basis()


def kron(*maps):
    """The tensor product of the maps, the first factor outermost."""
    out = maps[0]
    for f in maps[1:]:
        out = out.kron(f)
    return out


def kron_vec(u, v, n2):
    w = {}
    for i, s in u.items():
        i *= n2
        if type(s) is Scalar:
            for j, t in v.items():
                w[i + j] = t * s
        elif s == 1:
            for j, t in v.items():
                w[i + j] = t
        else:
            for j, t in v.items():
                p = s * t
                w[i + j] = p.numerator if type(p) is Fraction and p.denominator == 1 else p
    return w


def kron_vec_at(u, v, n2, positions):
    """``kron_vec(u, v, n2)`` restricted to the indices in ``positions``,
    the entry at index k stored at positions[k]: u (x) v projected to the
    coordinate quotient whose ``free_pos`` is positions, in one pass."""
    w = {}
    for i, s in u.items():
        i *= n2
        for j, t in v.items():
            p = positions.get(i + j)
            if p is not None:
                w[p] = _mul(s, t)
    return w


def apply_legs(f, g, w, width=None):
    """(f (x) g)(w) for a sparse w in ``kron_vec``'s layout, None standing
    for the identity and ``width`` the width of leg 2 when g is None.

    Only the columns of f (x) g at w's entries are built, and f and g
    need not be square: leg 2 of w has g.cols entries, that of the
    result g.rows.
    """
    cols2, rows2 = (width, width) if g is None else (g.cols, g.rows)
    out = {}
    for ij, s in w.items():
        i, j = divmod(ij, cols2)
        right = {j: ONE} if g is None else g.data[j]
        if f is None:
            axpy(out, s, right, i * rows2)
        elif right:
            axpy(out, s, kron_vec(f.data[i], right, rows2))
    return out


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

    Columns from ``tags_from`` on, if given, are tags: the caller inserts
    no row whose pivot would be one, so no tag is ever eliminated and
    ``_users`` leaves them out.
    """

    def __init__(self, tags_from=None):
        self.rows = {}  # pivot index -> reduced row dict (pivot coeff 1)
        self._users = {}  # non-pivot column below tags_from -> pivots whose rows use it
        self._tags_from = tags_from

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
        return self._insert(r) if r else None

    def _insert(self, r):
        """Insert a non-zero residue r of ``reduce``; returns its pivot."""
        p = min(r)
        if r[p] != 1:
            r = vscale(inverse(r[p]), r)
        rows, users, tags = self.rows, self._users, self._tags_from
        if tags is None:
            cols = [j for j in r if j != p]
        else:
            cols = [j for j in r if j != p and j < tags]
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


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


class LinearMap:
    """A linear map F^cols -> F^rows, stored column-sparse; its solver
    and inverse are built once (see ``_get_solver``)."""

    __slots__ = ("rows", "cols", "data", "_solver", "_inverse")

    def __init__(self, rows, cols, data):
        """Each column is copied into a dict of the map's own, without
        its zero entries: a column with no zero is copied whole."""
        self.rows = rows
        self.cols = cols
        self.data = tuple([
            dict(col) if all(col.values()) else {i: s for i, s in col.items() if s}
            for col in data
        ])
        self._solver = self._inverse = None

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
            for j, col in enumerate(f.data):
                if col:
                    axpy(data[j], c, col)
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{j: 1} for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [{} for _ in range(cols)])

    @classmethod
    def flip(cls, p, q):
        """The swap F^p (x) F^q -> F^q (x) F^p, e_i (x) e_j -> e_j (x) e_i."""
        return cls(p * q, p * q, [{j * p + i: 1} for i in range(p) for j in range(q)])

    # -- application -----------------------------------------------------

    def col(self, j):
        return self.data[j]

    def apply(self, v):
        """self(v) as a fresh dict: {} for an empty v, a copy of column j,
        or that column scaled, for v = c e_j, and otherwise the sum of the
        scaled columns, accumulated in v's order."""
        if not v:
            return {}
        if len(v) == 1:
            [(j, c)] = v.items()
            return dict(self.data[j]) if c == 1 else vscale(c, self.data[j])
        w = {}
        for j, c in v.items():
            col = self.data[j]
            if col:
                axpy(w, c, col)
        return w

    @classmethod
    def _fresh(cls, rows, cols, data):
        """The map with these columns, kept without the copy ``__init__``
        makes: each must be a new dict with no zero entry, or a read-only
        empty mapping, which may be shared."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.data = rows, cols, tuple(data)
        out._solver = out._inverse = None
        return out

    def compose(self, other):
        """self o other, on the fresh columns ``apply`` builds."""
        if other.rows != self.cols:
            raise ValueError("dimension mismatch in composition")
        return LinearMap._fresh(self.rows, other.cols, [self.apply(c) for c in other.data])

    def kron(self, other):
        """self (x) other: column j * other.cols + k is col_j (x) col_k of
        other, in ``kron_vec``'s layout, on the fresh columns it builds."""
        r = other.rows
        return LinearMap._fresh(self.rows * r, self.cols * other.cols,
                                [kron_vec(a, b, r) for a in self.data for b in other.data])

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
        return not any(self.data)

    def transpose(self):
        cols = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.data):
            for i, s in col.items():
                cols[i][j] = s
        return LinearMap(self.cols, self.rows, cols)

    def flat(self):
        """The entries as one vector, column by column: entry (i, j) at
        j * rows + i, the layout ``unstack(w, rows, cols)`` reads back."""
        rows = self.rows
        return {j * rows + i: s for j, col in enumerate(self.data) for i, s in col.items()}

    def to_dense(self):
        return [
            [self.data[j].get(i, 0) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    # -- solving -----------------------------------------------------------

    def _get_solver(self):
        """The solver: ``_permutation_hits`` for a generalized permutation
        map; for any other map, the echelon of the rows [col_j | e_j], e_j
        offset by ``rows``, and the kernel basis.

        Echelon: a column whose reduced row has no entry below ``rows`` is
        dependent: the offset part of that row is a kernel vector, and the
        row is not inserted.  So no pivot is at or past ``rows``, and the
        echelon leaves those tag columns unindexed."""
        if self._solver is None:
            self._solver = _permutation_hits(self)
        if self._solver is None:
            ech, ker, rows = Rref(self.rows), [], self.rows
            for j, c in enumerate(self.data):
                tracked = dict(c)
                tracked[rows + j] = 1
                r = ech.reduce(tracked)
                if min(r) >= rows:
                    ker.append({i - rows: s for i, s in r.items()})
                else:
                    ech._insert(r)
            self._solver = (ech, ker)
        return self._solver

    def solve(self, target):
        """Some x with self(x) = target, or None if target not in the image:
        the reduced [target | 0] is [0 | -x] exactly when it has no entry
        below ``rows``."""
        solver = self._get_solver()
        if type(solver) is dict:
            x = {}
            for i, s in target.items():
                j = solver.get(i)
                if j is None:
                    return None
                x[j] = _mul(s, inverse(self.data[j][i]))
            return x
        ech, _ = solver
        rows = self.rows
        r = ech.reduce(target)
        if r and (min(r) < rows or max(target) >= rows):
            return None
        return {i - rows: -s for i, s in r.items()}

    def kernel_basis(self):
        solver = self._get_solver()
        return [] if type(solver) is dict else [dict(w) for w in solver[1]]

    @property
    def rank(self):
        solver = self._get_solver()
        return self.cols if type(solver) is dict else solver[0].rank

    def is_injective(self):
        return self.rank == self.cols

    def is_surjective(self):
        return self.rank == self.rows

    def is_bijective(self):
        return self.rows == self.cols and self.rank == self.rows

    def inverse(self):
        """The inverse map, or None if self is not bijective; built once."""
        if self._inverse is None and self.is_bijective():
            solver = self._solver
            if type(solver) is dict:
                cols = [None] * self.rows
                for i, j in solver.items():
                    cols[i] = {j: inverse(self.data[j][i])}
                self._inverse = LinearMap._fresh(self.cols, self.rows, cols)
            else:
                cols = [self.solve({i: 1}) for i in range(self.rows)]
                self._inverse = LinearMap(self.cols, self.rows, cols)
        return self._inverse

    def conj(self):
        return LinearMap(
            self.rows, self.cols, [vec_conj(c) for c in self.data]
        )


def _permutation_hits(f):
    """{i: j}, the row i that each column j of f hits, if f is a
    generalized permutation map, column j = {i(j): c_j} with the rows i(j)
    distinct; None (declined) otherwise, read from f's entries alone.
    Then f(x) = sum_j x_j c_j e_i(j) is 0 only for x = 0, so f is
    injective, its rank is ``cols`` and its kernel basis is empty, as the
    echelon's would be.  So a target t has at most one preimage, and every
    x with f(x) = t, the echelon's answer included, is that one.
    x_j = t_i(j) c_j^-1 is it when every row of t is some i(j); otherwise t
    is outside the image and both answer None.  Both list x in the order of
    t's entries.  Column i(j) of the inverse is the preimage of e_i(j),
    {j: c_j^-1}."""
    hits = {}
    for j, c in enumerate(f.data):
        if len(c) != 1 or hits.setdefault(next(iter(c)), j) != j:
            return None
    return hits


# ---------------------------------------------------------------------------
# quotient spaces with canonical echelon sections
# ---------------------------------------------------------------------------


class QuotientSpace:
    """F^n modulo the span of relation vectors.

    The canonical representative of the class of v, ``lift(project(v))``,
    zeroes every pivot coordinate of the relation echelon ``rref``; the
    section places quotient coordinates at the free indices, so
    project o section = identity exactly.

    ``QuotientSpace.coordinate`` is the quotient by a coordinate subspace,
    the span of the e_p for p outside a set of free coordinates, built
    with no elimination and kept as its free coordinates alone: its
    ``rref`` is None.  To project drops the relation
    coordinates, and a vector is a relation iff it has no free
    coordinate.  ``relation_rows`` reads the relation rows of either kind.
    """

    def __init__(self, ambient_dim, relations):
        self.rref = Rref()
        for r in relations:
            self.rref.add(r)
        self._set_free(ambient_dim, [j for j in range(ambient_dim) if j not in self.rref.rows])

    @classmethod
    def coordinate(cls, ambient_dim, free):
        """F^ambient_dim modulo the span of the e_p, p not in free (ascending)."""
        space = cls.__new__(cls)
        space.rref = None
        space._set_free(ambient_dim, free)
        return space

    def _set_free(self, ambient_dim, free):
        self.ambient_dim = ambient_dim
        self.free = free
        self.free_pos = {f: q for q, f in enumerate(free)}
        self.dim = len(free)
        self._touching = None

    def relation_rows(self):
        """The rows of the relation echelon: on a coordinate quotient each
        e_p, p not free, made as it is read, in ascending p."""
        if self.rref is None:
            free_pos = self.free_pos
            return ({p: ONE} for p in range(self.ambient_dim) if p not in free_pos)
        return iter(self.rref.rows.values())

    def project(self, v):
        free_pos = self.free_pos
        if self.rref is None:
            return {free_pos[j]: s for j, s in v.items() if j in free_pos}
        return {free_pos[j]: s for j, s in self.rref.reduce(v).items()}

    def lift(self, q):
        return {self.free[i]: s for i, s in q.items()}

    def contains_relation(self, v):
        if self.rref is None:
            return self.free_pos.keys().isdisjoint(v)
        return self.rref.contains(v)

    def rows_touching(self, coords):
        """The relation rows, by pivot, with an entry at one of coords."""
        if self.rref is None:
            return {p: {p: ONE} for p in coords if p not in self.free_pos}
        rows = self.rref.rows
        if self._touching is None:
            self._touching = {}  # coordinate -> pivots of the rows with an entry there
            for p, row in rows.items():
                for j in row:
                    self._touching.setdefault(j, []).append(p)
        return {p: rows[p] for j in coords for p in self._touching.get(j, ())}

    @property
    def section(self):
        return LinearMap.from_function(
            self.ambient_dim, self.dim, lambda q: {self.free[q]: 1}
        )


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def is_positive_semidefinite(h):
    """Exact PSD test for a Hermitian matrix given as nested lists of scalars.

    Checks hermitianity, then runs pivoted Schur-complement elimination:
    every pivot must be a positive real and a vanishing diagonal entry
    forces its whole row to vanish.
    """
    n = len(h)
    h = [[sc(x) for x in row] for row in h]
    for i in range(n):
        for j in range(n):
            if h[i][j] != conj(h[j][i]):
                return False
    idx = list(range(n))
    while idx:
        piv = None
        for i in idx:
            d = h[i][i]
            if d:
                if not is_positive(d):
                    return False
                piv = i
                break
        if piv is None:
            # all diagonal entries vanish: PSD forces the rest to vanish
            return all(not h[i][j] for i in idx for j in idx)
        idx.remove(piv)
        d_inv = inverse(h[piv][piv])
        for i in idx:
            if not h[i][piv]:
                continue  # a zero multiplier leaves the row as it is
            for j in idx:
                h[i][j] = h[i][j] - _mul(_mul(h[i][piv], h[piv][j]), d_inv)
    return True
