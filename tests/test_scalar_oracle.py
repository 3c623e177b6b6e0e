"""Differential test of the exact scalars against two independent references.

Operands are drawn in all three forms: ``int``, ``Fraction`` and
``Scalar``, so mixed and reflected operators are exercised.
``FractionScalar`` below is the scalar arithmetic with every coefficient a
``Fraction``; sympy is the second oracle.  Every result must also be in
canonical form: never a float; a real rational is an ``int`` when it is
integral, otherwise a ``Fraction`` with denominator > 1, never a
``Scalar``; and each ``Scalar`` coefficient follows the same int-or-Fraction
rule.  An operation on two natives is Python's own, which may return an
integral ``Fraction``; such a result need only be an ``int`` or a
``Fraction``.
"""

from fractions import Fraction
from math import gcd, isqrt

import sympy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgroupoid.algebra_core import scalar_from_json, scalar_to_json
from qgroupoid.exact_linear import (
    Scalar,
    as_fraction,
    conj,
    inverse,
    is_positive,
    sc,
    sign,
)

F0 = Fraction(0)


class FractionScalar:
    """Q(i)[sqrt(m), ...] with Fraction coefficients only."""

    def __init__(self, d):
        self.terms = tuple(
            (m, Fraction(re), Fraction(im))
            for m, (re, im) in sorted(d.items())
            if re or im
        )

    def _dict(self):
        return {m: (re, im) for m, re, im in self.terms}

    def __add__(self, other):
        d = self._dict()
        for m, re, im in other.terms:
            r0, i0 = d.get(m, (F0, F0))
            d[m] = (r0 + re, i0 + im)
        return FractionScalar(d)

    def __neg__(self):
        return FractionScalar({m: (-re, -im) for m, re, im in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = {}
        for m1, r1, i1 in self.terms:
            for m2, r2, i2 in other.terms:
                g = gcd(m1, m2)
                m = (m1 // g) * (m2 // g)
                r0, i0 = d.get(m, (F0, F0))
                d[m] = (r0 + g * (r1 * r2 - i1 * i2), i0 + g * (r1 * i2 + i1 * r2))
        return FractionScalar(d)

    def conj(self):
        return FractionScalar({m: (re, -im) for m, re, im in self.terms})

    def inverse(self):
        # multiply by the conjugate that flips sqrt(p), for each prime p in turn
        primes = sorted({int(p) for m, _, _ in self.terms for p in sympy.primefactors(m)})
        num, cur = FractionScalar({1: (1, 0)}), self
        for p in primes:
            flip = FractionScalar(
                {m: (-re, -im) if m % p == 0 else (re, im) for m, re, im in cur.terms}
            )
            num, cur = num * flip, cur * flip
        ((m, re, im),) = cur.terms
        assert m == 1
        n = re * re + im * im
        return num * FractionScalar({1: (re / n, -im / n)})

    def sign(self):
        # sqrt(m) lies in [isqrt(m 4^k), isqrt(m 4^k) + 1] / 2^k
        if not self.terms:
            return 0
        k = 1
        while True:
            lo_sum = hi_sum = F0
            for m, q, _ in self.terms:
                r = isqrt(m << (2 * k))
                lo, hi = Fraction(r, 1 << k), Fraction(r + (r * r != m << (2 * k)), 1 << k)
                lo_sum += q * (lo if q > 0 else hi)
                hi_sum += q * (hi if q > 0 else lo)
            if lo_sum > 0:
                return 1
            if hi_sum < 0:
                return -1
            k += 4

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

    def to_json(self):
        d = self._dict()
        if not self.terms:
            return "0"
        if list(d) == [1] and not d[1][1]:
            return str(d[1][0])
        re, im = d.pop(1, (F0, F0))
        out = {"re": str(re), "im": str(im)}
        if d:
            out["sqrt_part"] = {
                str(m): {"re": str(r), "im": str(i)} for m, (r, i) in sorted(d.items(), key=lambda t: str(t[0]))
            }
        return out


def canonical_rational(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def is_canonical(s):
    """s is an int, a Fraction with denominator > 1, or a Scalar that is
    not a real rational, with canonical non-zero coefficients in sorted
    monomial order, stored on integers: one den > 0 and the integer parts
    (m, a, b) of each term, with distinct sorted m, no zero term, gcd 1
    over den and every a and b, and re = a/den, im = b/den."""
    if type(s) is not Scalar:
        return canonical_rational(s)
    terms, num, den = s.terms, s.num, s.den
    return (
        bool(terms)
        and not (len(terms) == 1 and terms[0][0] == 1 and not terms[0][2])
        and [m for m, _, _ in terms] == sorted({m for m, _, _ in terms})
        and all((re or im) and canonical_rational(re) and canonical_rational(im)
                for _, re, im in terms)
        and type(den) is int and den > 0
        and all(type(x) is int for term in num for x in term)
        and [m for m, _, _ in num] == sorted({m for m, _, _ in num})
        and all(a or b for _, a, b in num)
        and gcd(den, *(x for _, a, b in num for x in (a, b))) == 1
        and terms == tuple((m, Fraction(a, den), Fraction(b, den)) for m, a, b in num)
    )


def is_native(s):
    return type(s) in (int, Fraction)


def terms_of(s):
    """The (m, re, im) terms of a scalar of any form."""
    if type(s) is Scalar:
        return s.terms
    return ((1, s, 0),) if s else ()


def as_fractions(s):
    return tuple((m, Fraction(re), Fraction(im)) for m, re, im in terms_of(s))


def to_sympy(s):
    return sympy.expand(
        sum(
            ((sympy.Rational(re.numerator, re.denominator)
              + sympy.I * sympy.Rational(im.numerator, im.denominator)) * sympy.sqrt(m)
             for m, re, im in as_fractions(s)),
            sympy.Integer(0),
        )
    )


def sympy_equal(x, y):
    return sympy.expand(x - y) == 0


# coefficients: integers and proper fractions, so both kinds of stored value occur
coefficient = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
prime_product = st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=2, max_size=2, unique=True).map(
    lambda ps: ps[0] * ps[1]
)
monomial = st.one_of(st.sampled_from([1, 1, 2, 3, 6]), prime_product)
term = st.tuples(monomial, coefficient, st.one_of(st.just(0), coefficient))
real_term = st.tuples(monomial, coefficient, st.just(0))


def build(terms):
    new, ref = 0, FractionScalar({})
    for m, re, im in terms:
        new = sc(new + (Scalar.rational(re, im) if m == 1 else Scalar.root_term(m, re, im)))
        ref = ref + FractionScalar({m: (re, im)})
    return new, ref


# a plain int or Fraction; a single Gaussian rational, which takes the
# fast paths of + and *; a sum of up to three monomials
native = coefficient.map(lambda q: build([(1, q, 0)]))
gaussian = st.tuples(st.just(1), coefficient, st.one_of(st.just(0), coefficient))
scalars = st.one_of(native, st.lists(gaussian, max_size=1).map(build),
                    st.lists(term, max_size=3).map(build))
real_scalars = st.one_of(native, st.lists(real_term, max_size=3).map(build))

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)

R2 = build([(2, 1, 0)])
I = build([(1, 0, 1)])
HALF = build([(1, Fraction(1, 2), 0)])
THREE = build([(1, 3, 0)])
ONE = build([(1, 1, 0)])
R6_THIRD = build([(6, Fraction(1, 3), 0)])


def check(new, ref, expected_sympy, operands=()):
    """new matches both references and is canonical; a result of Python's
    own arithmetic on natives need only be an int or a Fraction."""
    if operands and all(is_native(x) for x in operands):
        assert is_native(new), new
    else:
        assert is_canonical(new), new
    assert as_fractions(new) == ref.terms
    if expected_sympy is not None:
        assert sympy_equal(to_sympy(new), expected_sympy)


@SETTINGS
@given(scalars, scalars)
@example(build([(1, Fraction(3, 2), 0)]), build([(1, Fraction(2, 3), 0)]))
@example(build([(1, Fraction(1, 2), Fraction(1, 2))]), build([(1, 1, -1)]))
@example(build([(2, Fraction(1, 2), 0)]), build([(2, Fraction(1, 2), 0)]))
@example(R2, R2)  # sqrt(2)*sqrt(2) comes back as the int 2
@example(I, I)  # i*i comes back as the int -1
@example(build([(1, 1, 0), (2, 1, 0)]), R2)  # (1 + sqrt(2)) - sqrt(2) is the int 1
@example(THREE, R2)  # int with Scalar: the reflected operators
@example(HALF, I)  # Fraction with Scalar
@example(R2, HALF)  # Scalar with Fraction
@example(build([(1, 2, 1)]), THREE)  # Scalar with int
@example(ONE, R2)  # 1 * sqrt(2) is sqrt(2) itself
@example(build([(1, -1, 0)]), R2)
@example(R6_THIRD, R6_THIRD)  # a real radical squared is the Fraction 2/3
@example(build([(2, 1, 0), (3, Fraction(1, 2), 0)]), build([(6, 2, 0)]))
@example(ONE, build([(1, Fraction(1, 2), 1)]))  # 1 * (1/2 + i)
# the one-monomial products
@example(build([(6, 1, 0)]), build([(6, 1, 0)]))  # sqrt(6)*sqrt(6) is the int 6
@example(build([(6, 1, 0)]), build([(10, 1, 0)]))  # sqrt(6)*sqrt(10) = 2*sqrt(15)
@example(build([(1, 1, 1)]), build([(1, 1, -1)]))  # (1 + i)(1 - i) is the int 2
@example(build([(1, Fraction(3, 7), 0)]), build([(5, Fraction(7, 3), 0)]))  # 3/7 * 7/3*sqrt(5)
def test_ring_operations_match_both_references(a, b):
    (x, rx), (y, ry) = a, b
    assert is_canonical(x) and as_fractions(x) == rx.terms
    for s in (x, y):
        if type(s) is Scalar:
            assert 1 * s is s  # a product by 1 shares the Scalar
    sx, sy = to_sympy(x), to_sympy(y)
    check(x + y, rx + ry, sx + sy, (x, y))
    check(x - y, rx - ry, sx - sy, (x, y))
    check(-x, -rx, -sx, (x,))
    check(x * y, rx * ry, sx * sy, (x, y))
    check(conj(x), rx.conj(), sympy.conjugate(sx))


@SETTINGS
@given(real_scalars, real_scalars)
@example(R6_THIRD, R6_THIRD)
@example(build([(2, 1, 0), (3, Fraction(1, 2), 0)]), build([(6, 2, 0), (1, 1, 0)]))
def test_real_products_match_both_references(a, b):
    # products of real radicals, whose imaginary parts are never multiplied
    (x, rx), (y, ry) = a, b
    product = x * y
    check(product, rx * ry, to_sympy(x) * to_sympy(y), (x, y))
    assert type(product) is not Scalar or product.is_real()


@SETTINGS
@given(scalars, scalars)
@example(THREE, R2)
@example(R2, HALF)
@example(HALF, build([(1, 0, 2)]))
@example(ONE, build([(2, 1, 1)]))  # ((1 + i)*sqrt(2))^-1 = (1 - i)*sqrt(2)/4
def test_inverse_and_division_match_both_references(a, b):
    (x, rx), (y, ry) = a, b
    if not ry.terms:
        with pytest.raises(ZeroDivisionError):
            inverse(y)
        return
    sx, sy = to_sympy(x), to_sympy(y)
    inv = inverse(y)
    assert is_canonical(inv) and as_fractions(inv) == ry.inverse().terms
    assert sympy.expand(to_sympy(inv) * sy) == 1
    q = x * inv
    check(q, rx * ry.inverse(), None, (x, inv))
    assert sympy_equal(to_sympy(q) * sy, sx)  # sympy does not expand x / y


@SETTINGS
@given(scalars, scalars)
@example(THREE, THREE)
@example(HALF, build([(1, Fraction(1, 2), 0)]))
def test_equality_hash_repr_and_json_match_both_references(a, b):
    (x, rx), (y, ry) = a, b
    equal = x == y
    assert equal == (rx.terms == ry.terms) == sympy_equal(to_sympy(x), to_sympy(y))
    assert (x != y) == (not equal)
    # the same value with Fraction coefficients is equal and hashes alike
    old = Scalar(rx.terms) if type(x) is Scalar else Fraction(x)
    assert old == x and hash(old) == hash(x)
    if equal:
        assert hash(x) == hash(y)
    assert str(x) == repr(rx)
    assert sympy_equal(sympy.sympify(str(x).replace("i", "I")), to_sympy(x))
    js = scalar_to_json(x)
    assert js == rx.to_json()
    if isinstance(js, str):
        assert js == str(to_sympy(x))
    back = scalar_from_json(js)
    assert back == x and is_canonical(back)
    # as_fraction: exactly the real rationals have one
    real_rational = all(m == 1 and not im for m, _, im in rx.terms)
    if real_rational:
        f = as_fraction(x)
        assert type(f) is Fraction and f == sum((re for _, re, _ in rx.terms), F0)
        assert is_native(x)
    else:
        with pytest.raises(ValueError):
            as_fraction(x)


@SETTINGS
@given(real_scalars)
def test_sign_and_positivity_match_both_references(a):
    x, rx = a
    expected = sign(x)
    assert expected == rx.sign()
    v = to_sympy(x)
    assert expected == (0 if v == 0 else (1 if v.evalf(60) > 0 else -1))
    assert is_positive(x) == (expected >= 0)
    assert is_positive(-x) == (expected <= 0)
    shifted = x + Scalar.rational(0, 1)  # x + i
    assert is_canonical(shifted) and not is_positive(shifted)
    with pytest.raises(ValueError):
        sign(shifted)
