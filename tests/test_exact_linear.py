"""Exact scalar field and linear kernel."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroupoid.algebra_core import scalar_from_json, scalar_to_json
from qgroupoid.exact_linear import (
    ONE,
    ZERO,
    FieldExtensionNeeded,
    LinearMap,
    QuotientSpace,
    Rref,
    Scalar,
    ScalarField,
    apply_legs,
    as_fraction,
    axpy,
    conj,
    inverse,
    is_positive,
    is_positive_semidefinite,
    kron,
    kron_vec,
    sc,
    sign,
    stack,
    unstack,
    vscale,
)


def rand_scalar(rng, with_roots=True):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    s = Scalar.rational(re, im)
    if with_roots and rng.random() < 0.6:
        s = s + Scalar.root_term(
            rng.choice([2, 3, 6]), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        )
    return s


def test_scalar_round_trips():
    rng = random.Random(7)
    kinds = set()
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        kinds |= {type(a), type(b)}
        assert (a + b) - b == a
        if b:
            assert (a * b) * inverse(b) == a
        assert conj(conj(a)) == a
        assert conj(a * b) == conj(a) * conj(b)
    assert kinds == {int, Fraction, Scalar}


def test_scalar_field_axioms():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_sqrt2_arithmetic():
    r2 = Scalar.root_term(2)
    assert r2 * r2 == sc(2)
    r8 = Scalar.root_term(8)
    assert r8 == sc(2) * r2
    assert (ONE + r2) * (ONE - r2) == sc(-1)
    r6 = Scalar.root_term(6)
    assert r2 * Scalar.root_term(3) == r6


def test_inverse_with_mixed_radicals():
    z = ONE + Scalar.root_term(2) + Scalar.root_term(3, Fraction(1, 2))
    assert z * z.inverse() == ONE
    w = Scalar.rational(1, 1) + Scalar.root_term(6, 2)
    assert w * w.inverse() == ONE


def test_sign_evaluation():
    # sqrt(2) + sqrt(3) - sqrt(6) + 1/2 > 0, and a nearby negative combination
    s = Scalar.root_term(2) + Scalar.root_term(3) - Scalar.root_term(6) + sc("1/2")
    assert sign(s) == 1
    t = Scalar.root_term(2) + Scalar.root_term(3) - Scalar.root_term(6) - ONE
    # sqrt2+sqrt3 = 3.146..., sqrt6 = 2.449..., difference ~ 0.696 < 1
    assert sign(t) == -1
    assert sign(ZERO) == 0
    assert sign(sc("-3/7")) == -1 and sign(sc(5)) == 1
    assert sign(Scalar.root_term(2) - sc("7/5")) == 1  # sqrt2 > 1.4
    assert sign(Scalar.root_term(2) - sc("3/2")) == -1
    with pytest.raises(ValueError):
        sign(Scalar.rational(0, 1))


def test_is_positive():
    assert is_positive(sc(0))
    assert is_positive(sc("3/7"))
    assert not is_positive(sc(-1))
    assert is_positive(Scalar.root_term(2))
    assert not is_positive(Scalar.rational(1, 1))


def test_field_membership_and_sqrt():
    f = ScalarField([2])
    assert f.sqrt(sc(4)) == sc(2)
    assert f.sqrt(sc(2)) == Scalar.root_term(2)
    assert f.sqrt(sc("1/2")) == Scalar.root_term(2, Fraction(1, 2))
    with pytest.raises(FieldExtensionNeeded) as exc:
        f.sqrt(sc(3))
    assert exc.value.missing == [3]
    g = ScalarField([2, 3])
    assert g.sqrt(sc(6)) == Scalar.root_term(6)  # closed under products
    assert g.sqrt(sc("9/4")) == sc("3/2")
    with pytest.raises(FieldExtensionNeeded) as exc:
        g.sqrt(sc(5))
    assert exc.value.missing == [5]


_FIELD_PRIMES = (2, 3, 5, 7, 11, 13)


def _enumerated_field(roots):
    """The roots a field keeps and its monomials, by listing every product
    of the kept roots: sqrt(m) sqrt(k) is a multiple of sqrt(m k / gcd^2)."""
    kept, monomials = [], {1}
    for m in roots:
        if m not in monomials:
            kept.append(m)
            monomials |= {m * k // math.gcd(m, k) ** 2 for k in monomials}
    return kept, monomials


def test_field_membership_matches_the_enumerated_products():
    rng = random.Random(19)
    squarefree = [math.prod(ps) for r in range(len(_FIELD_PRIMES) + 1)
                  for ps in itertools.combinations(_FIELD_PRIMES, r)]
    for _ in range(60):
        roots = [rng.choice(squarefree) for _ in range(rng.randint(0, 10))]
        field = ScalarField(roots)
        kept, monomials = _enumerated_field(roots)
        assert field.roots == kept and repr(field) == "ScalarField(roots=%s)" % kept
        for m in squarefree:
            inside = m in monomials
            for k in (1, 4):  # sqrt(4 m) = 2 sqrt(m) needs the same root
                if inside:
                    assert field.sqrt(sc(k * m)) == Scalar.root_term(m, math.isqrt(k))
                else:
                    with pytest.raises(FieldExtensionNeeded) as exc:
                        field.sqrt(sc(k * m))
                    assert exc.value.missing == [m]


def test_a_field_of_thirty_roots_builds_in_milliseconds():
    primes = [p for p in range(2, 114) if all(p % d for d in range(2, p))]
    assert len(primes) == 30  # 2^30 products: no table of them would fit in memory
    start = time.perf_counter()
    field = ScalarField(primes + [6, 2 * 113])
    assert time.perf_counter() - start < 0.25
    assert field.roots == primes
    assert field.sqrt(sc(math.prod(primes))) == Scalar.root_term(math.prod(primes))
    assert field.sqrt(sc(3 * 113)) == Scalar.root_term(3 * 113)
    for m in (127, 2 * 127):
        with pytest.raises(FieldExtensionNeeded) as exc:
            field.sqrt(sc(m))
        assert exc.value.missing == [m]


def test_integral_coefficients_are_ints_and_division_stays_exact():
    third = sc(1) * inverse(sc(3))
    assert type(third) is Fraction and third == Fraction(1, 3)
    two = Scalar.rational(Fraction(4, 2))
    assert type(two) is int and two == 2
    assert type(as_fraction(two)) is Fraction
    assert type(as_fraction(ZERO)) is Fraction
    assert type(as_fraction(third * sc(3))) is Fraction
    # the vector operations store an integral Fraction as its int
    assert [(v, type(v)) for v in axpy({}, third, {0: sc(3)}).values()] == [(1, int)]
    assert [(v, type(v)) for v in vscale(third, {0: sc(6)}).values()] == [(2, int)]
    root = Scalar.root_term(2, third) * sc(6)
    assert root.terms == ((2, 2, 0),) and type(root.terms[0][1]) is int
    assert ScalarField().sqrt(sc("9/4")) == sc("3/2")
    assert scalar_to_json(scalar_from_json("4/2")) == "2"


def test_inverse_of_integer_radical_scalar_is_exact():
    z = ONE + Scalar.root_term(2)
    assert z.inverse().terms == ((1, -1, 0), (2, 1, 0))
    assert all(type(x) is int for _, re, im in z.inverse().terms for x in (re, im))
    w = Scalar.root_term(3, 2)  # 2*sqrt(3), inverse sqrt(3)/6
    assert w.inverse().terms == ((3, Fraction(1, 6), 0),)
    u = sc(3) + Scalar.root_term(6, 2, 1)
    assert u * u.inverse() == ONE
    assert {type(x) for _, re, im in u.inverse().terms for x in (re, im)} <= {int, Fraction}


def test_field_rejects_bad_roots():
    with pytest.raises(ValueError):
        ScalarField([4])
    with pytest.raises(ValueError):
        ScalarField([-2])


def mk(rows):
    return LinearMap.from_rows(rows)


def dense(xs):
    """The sparse vector of the list xs."""
    return {j: s for j, s in enumerate(map(sc, xs)) if s}


def test_solve_identity_and_zero():
    ident = LinearMap.identity(3)
    t = dense([1, 2, 3])
    assert ident.solve(t) == t
    zero = LinearMap.zero(2, 2)
    assert zero.solve(dense([1, 0])) is None
    assert zero.solve({}) == {}


def test_solve_two_by_two():
    # hand elimination: x + y = 3, 2y = 4 -> (1, 2)
    f = mk([[1, 1], [0, 2]])
    x = f.solve(dense([3, 4]))
    assert x == dense([1, 2])


def test_solve_property():
    rng = random.Random(3)
    for _ in range(25):
        f = mk([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        v = dense([rng.randint(-3, 3) for _ in range(3)])
        x = f.solve(f.apply(v))
        assert x is not None and f.apply(x) == f.apply(v)


def test_solve_finds_no_preimage_of_a_target_outside_the_codomain():
    # the echelon keeps its column tags past the last row; a target
    # entry there must not read as a tag
    f = mk([[1, 0], [0, 0]])
    assert f.solve({2: ONE}) is None and f.solve({3: ONE}) is None
    assert f.solve({0: ONE}) == {0: ONE}


def test_kernel():
    assert LinearMap.identity(4).kernel_basis() == []
    zero_kernel = LinearMap.zero(2, 2).kernel_basis()
    assert len(zero_kernel) == 2
    # rank-1 oracle: [[1,2],[2,4]] has kernel spanned by (2,-1)
    ker = mk([[1, 2], [2, 4]]).kernel_basis()
    assert len(ker) == 1
    (w,) = ker
    ratio = w.get(0, ZERO) * sc(-1) - w.get(1, ZERO) * sc(2)
    assert not ratio  # proportional to (2, -1)


def test_inverse_and_rank():
    f = mk([[1, 1], [0, 2]])
    g = f.inverse()
    assert g is not None
    assert f.compose(g) == LinearMap.identity(2)
    assert g.compose(f) == LinearMap.identity(2)
    assert mk([[1, 2], [2, 4]]).inverse() is None
    assert mk([[1, 2], [2, 4]]).rank == 1


def test_quotient_basics():
    q = QuotientSpace(2, [dense([1, -1])])
    assert q.dim == 1
    assert q.project(dense([1, -1])) == {}
    # the two basis vectors project to the same class
    assert q.project({0: ONE}) == q.project({1: ONE})
    full = QuotientSpace(3, [])
    assert full.dim == 3
    assert full.project({2: ONE}) == {2: ONE}


def test_quotient_projection_section_identity():
    rng = random.Random(5)
    rels = [dense([rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)]
    q = QuotientSpace(4, rels)
    assert q.dim == 4 - len([r for r in rels if r]) or q.dim >= 2
    pi = LinearMap.from_function(q.dim, 4, lambda j: q.project({j: ONE}))
    iota = q.section
    assert pi.compose(iota) == LinearMap.identity(q.dim)
    # kernel of the projection equals the relation span
    for w in pi.kernel_basis():
        assert q.contains_relation(w)
    for r in rels:
        assert not pi.apply(r)


def test_quotient_rank_oracle():
    # relations spanning a 2-dim space inside F^4 -> quotient dim 2
    rels = [
        dense([1, 1, 0, 0]),
        dense([0, 0, 1, 1]),
        dense([1, 1, 1, 1]),  # dependent
    ]
    q = QuotientSpace(4, rels)
    assert q.dim == 2


def test_psd():
    assert is_positive_semidefinite([[sc(2), sc(1)], [sc(1), sc(2)]])
    assert is_positive_semidefinite([[sc(1), sc(1)], [sc(1), sc(1)]])
    assert not is_positive_semidefinite([[sc(1), sc(2)], [sc(2), sc(1)]])
    assert not is_positive_semidefinite([[sc(-1)]])
    assert is_positive_semidefinite([[sc(0)]])
    # hermitian with imaginary off-diagonal entries
    i = Scalar.rational(0, 1)
    assert is_positive_semidefinite([[sc(2), i], [-i, sc(2)]])
    assert not is_positive_semidefinite([[sc(0), sc(1)], [sc(1), sc(0)]])
    # non-hermitian input is rejected
    assert not is_positive_semidefinite([[sc(1), i], [i, sc(1)]])


def rand_vec(rng, n=6):
    return {j: s for j in range(n) if rng.random() < 0.6 for s in (rand_scalar(rng),) if s}


def test_axpy_accumulates_in_place():
    rng = random.Random(11)
    for _ in range(100):
        acc, v, c = rand_vec(rng), rand_vec(rng), rand_scalar(rng)
        expected = {}
        for j in set(acc) | set(v):
            t = acc.get(j, ZERO) + c * v.get(j, ZERO)
            if t:
                expected[j] = t
        v_before = dict(v)
        out = axpy(acc, c, v)
        assert out is acc
        assert acc == expected
        assert v == v_before


def test_axpy_drops_cancelled_entries():
    a, b = sc(3), sc(Fraction(1, 2))
    acc = {0: a, 1: b}
    axpy(acc, -ONE, {0: a})
    assert acc == {1: b} and 0 not in acc
    assert axpy({0: a}, sc(2), {0: -a * inverse(sc(2))}) == {}
    assert axpy({0: a}, ZERO, {0: b}) == {0: a}


def test_axpy_shift_offsets_indices():
    a, b = sc(2), sc(-5)
    assert axpy({}, ONE, {0: a, 2: b}, shift=5) == {5: a, 7: b}
    assert axpy({5: -a}, ONE, {0: a, 2: b}, 5) == {7: b}


def test_axpy_unit_coefficients_match_general_path():
    rng = random.Random(13)
    for _ in range(100):
        acc, v = rand_vec(rng), rand_vec(rng)
        for c in (ONE, -ONE):
            scaled = {j: c * s for j, s in v.items()}
            general = dict(acc)
            for j, s in scaled.items():
                t = general.get(j, ZERO) + s
                if t:
                    general[j] = t
                else:
                    general.pop(j, None)
            assert axpy(dict(acc), c, v) == general


def test_axpy_fills_empty_slots_and_shares_unit_products():
    half, s = Fraction(1, 2), sc(2) * inverse(sc(3)) + Scalar.root_term(6, Fraction(1, 3))
    filled = axpy({}, half, {0: 2})
    assert filled == {0: 1} and type(filled[0]) is int
    assert axpy({}, -1, {0: s}) == {0: -s}
    assert axpy({}, -1, {0: s, 1: half}, shift=3) == {3: -s, 4: -half}
    c = Scalar.root_term(2)
    shared = axpy({}, c, {0: 1, 2: 1, 3: half})
    assert shared[0] is c and shared[2] is c and shared[3] == half * c
    rng = random.Random(17)
    entries = [1, -1, 2, half, Fraction(-3, 2), Scalar.root_term(2), -Scalar.root_term(3),
               Scalar.root_term(6, half) + 1, Scalar.root_term(2, 2) + Scalar.root_term(3)]
    for _ in range(200):
        acc = {j: rng.choice(entries) for j in range(6) if rng.random() < 0.5}
        v = {j: rng.choice(entries) for j in range(6) if rng.random() < 0.6}
        c = rng.choice(entries)
        expected = {}
        for j in set(acc) | set(v):
            t = acc.get(j, 0) + c * v[j] if j in v else acc[j]
            if t:
                expected[j] = t
        out = axpy(dict(acc), c, v)
        assert out == expected
        for t in out.values():
            assert type(t) is int or type(t) is Scalar or t.denominator > 1


class _ScanRref:
    """Oracle: the reduced echelon that finds the rows using a new pivot
    by scanning every stored row, and multiplies each entry by the
    inverse of the pivot."""

    def __init__(self):
        self.rows = {}

    def reduce(self, v):
        v = dict(v)
        for p in [k for k in v if k in self.rows]:
            c = v.get(p)
            if c:
                axpy(v, -c, self.rows[p])
        return v

    def add(self, v):
        r = self.reduce(v)
        if not r:
            return None
        p = min(r)
        c = r[p]
        r = {j: s * inverse(c) for j, s in r.items()}
        for row in self.rows.values():
            cc = row.get(p)
            if cc:
                axpy(row, -cc, r)
        self.rows[p] = r
        return p


def _ordered(rows):
    return [(p, list(row.items())) for p, row in rows.items()]


# few distinct values over few columns, so that entries cancel and rows
# depend on each other often; Gaussian rationals and sqrt(2)
_entry = st.sampled_from([
    ONE, -ONE, sc(2), sc(Fraction(-1, 2)), Scalar.rational(0, 1),
    Scalar.rational(1, -1), Scalar.root_term(2), ONE + Scalar.root_term(2),
])
_sparse_row = st.dictionaries(st.integers(0, 7), _entry, max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_sparse_row, max_size=12), st.lists(_sparse_row, max_size=4))
def test_rref_column_index_matches_a_full_scan(inserts, probes):
    fast, ref = Rref(), _ScanRref()
    for v in inserts:
        assert fast.add(v) == ref.add(v)
        assert _ordered(fast.rows) == _ordered(ref.rows)
        users = {}
        for q, row in fast.rows.items():
            for j in row:
                if j not in fast.rows:
                    users.setdefault(j, set()).add(q)
        assert fast._users == users
    assert fast.rank == len(ref.rows)
    assert fast.basis() == [dict(row) for _, row in sorted(ref.rows.items())]
    for v in inserts + probes:
        assert fast.reduce(v) == ref.reduce(v)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_sparse_row, max_size=12), st.integers(1, 8))
def test_tagged_rref_leaves_its_tag_columns_unindexed(inserts, tags):
    # rows inserted as the solver inserts them, only where the pivot is
    # below ``tags``: the echelon is the untagged one's, and its index is
    # the untagged index without the tag columns
    tagged, plain = Rref(tags), Rref()
    for v in inserts:
        r = tagged.reduce(v)
        if r and min(r) < tags:
            tagged._insert(r)
            plain.add(v)
        assert _ordered(tagged.rows) == _ordered(plain.rows)
        assert tagged._users == {j: q for j, q in plain._users.items() if j < tags}


@st.composite
def _maps_and_vectors(draw):
    """A few maps of one shape, columns often empty, a vector of their
    domain, a vector of three blocks of it and a map on the three blocks."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    column = st.dictionaries(st.integers(0, rows - 1), _entry, max_size=2)
    maps = draw(st.lists(
        st.lists(column, min_size=cols, max_size=cols).map(lambda data: LinearMap(rows, cols, data)),
        min_size=1, max_size=4))
    vector = st.dictionaries(st.integers(0, cols - 1), _entry, max_size=cols)
    blocks = draw(st.lists(vector, min_size=3, max_size=3))
    outer = draw(st.integers(1, 4))
    on_blocks = LinearMap(outer, 3, draw(st.lists(
        st.dictionaries(st.integers(0, outer - 1), _entry, max_size=2), min_size=3, max_size=3)))
    return (maps, draw(vector),
            {t * cols + j: s for t, b in enumerate(blocks) for j, s in b.items()}, on_blocks)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_maps_and_vectors())
def test_stack_applies_each_map_at_its_offset(drawn):
    maps, v, blocks, on_blocks = drawn
    rows, cols = maps[0].rows, maps[0].cols
    stacked = stack(maps)
    assert (stacked.rows, stacked.cols) == (rows * len(maps), cols)
    expected = {}
    for t, m in enumerate(maps):
        axpy(expected, ONE, m.apply(v), t * rows)
    assert stacked.apply(v) == expected
    assert unstack(stacked.apply(v), rows, len(maps)) == [m.apply(v) for m in maps]
    assert [j for j in range(cols) if not stacked.col(j)] == [
        j for j in range(cols) if not any(m.col(j) for m in maps)]
    # the converse: one map applied block by block, (id (x) m)
    m = maps[-1]
    expected = {}
    for t, block in enumerate(unstack(blocks, cols, 3)):
        axpy(expected, ONE, m.apply(block), t * rows)
    assert apply_legs(None, m, blocks) == expected
    # a map on each leg, None the identity, against the full tensor product
    for f, g in ((None, m), (on_blocks, None), (on_blocks, m), (None, None)):
        full = kron(f or LinearMap.identity(3), g or LinearMap.identity(cols))
        assert apply_legs(f, g, blocks, cols) == full.apply(blocks)
    # a map's entries as one column-major vector, read back column by column
    flat = m.flat()
    assert flat == {j * rows + i: s for j in range(cols) for i, s in m.col(j).items()}
    assert LinearMap(rows, cols, unstack(flat, rows, cols)) == m


# -- the solver against sympy, and against the two-part echelon it replaced --


class _PairEchelon:
    """Oracle: the echelon over pairs (v, w) with v = sum_j w[j] col_j that
    LinearMap solved through before it used one ``Rref``; it scans every
    stored row on each insert."""

    def __init__(self, f):
        self.rows, self.kernel = {}, []
        for j, c in enumerate(f.data):
            v, w = self._reduce(c, {j: ONE})
            if not v:
                self.kernel.append(w)
                continue
            p = min(v)
            c = inverse(v[p])
            v, w = vscale(c, v), vscale(c, w)
            for rv, rw in self.rows.values():
                cc = rv.get(p)
                if cc:
                    axpy(rv, -cc, v)
                    axpy(rw, -cc, w)
            self.rows[p] = (v, w)

    def _reduce(self, v, w):
        v, w = dict(v), dict(w)
        for p in [k for k in v if k in self.rows]:
            c = v.get(p)
            if c:
                rv, rw = self.rows[p]
                axpy(v, -c, rv)
                axpy(w, -c, rw)
        return v, w

    def solve(self, t):
        r, u = self._reduce(t, {})
        return None if r else {j: -s for j, s in u.items()}


def _to_sympy(s):
    if type(s) is Scalar:
        return sum((sympy.Rational(re) + sympy.I * sympy.Rational(im)) * sympy.sqrt(m)
                   for m, re, im in s.terms)
    return sympy.Rational(s)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_over_q = _rational.filter(bool).map(sc)
_over_qi = st.builds(Scalar.rational, _rational, _rational).filter(bool)
_over_q_root2 = st.one_of(_over_q, st.builds(
    lambda a, b: Scalar.root_term(2, b) + a, _rational, _rational.filter(bool)))


def _monomial(draw, entry):
    """A generalized permutation map, square or with more rows, each column
    one non-zero entry on a row no other column hits; or a near miss: two
    columns on one row, a zero column, or a column with a second entry."""
    cols = draw(st.integers(1, 4))
    rows = cols if draw(st.booleans()) else cols + draw(st.integers(1, 2))
    hit = draw(st.permutations(range(rows)))[:cols]
    data = [{i: draw(entry)} for i in hit]
    miss = draw(st.sampled_from([None, "shared row", "zero column", "two entries"]))
    j = draw(st.integers(0, cols - 1))
    if miss == "shared row" and cols > 1:
        data[j] = {hit[j - 1]: draw(entry)}
    elif miss == "zero column":
        data[j] = {}
    elif miss == "two entries" and rows > 1:
        data[j][draw(st.sampled_from([i for i in range(rows) if i != hit[j]]))] = draw(entry)
    return rows, cols, data


@st.composite
def _systems(draw):
    """A sparse matrix over Q, Q(i) or Q(sqrt 2), often rank-deficient or a
    generalized permutation map, and targets drawn from its column space,
    from anywhere and on one row, each row in turn."""
    entry = draw(st.sampled_from([_over_q, _over_qi, _over_q_root2]))
    if draw(st.booleans()):
        rows, cols, data = _monomial(draw, entry)
    else:
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        column = st.dictionaries(st.integers(0, rows - 1), entry, max_size=3)
        data = draw(st.lists(column, min_size=cols, max_size=cols))
        if cols > 1 and draw(st.booleans()):
            data[-1] = axpy(vscale(draw(entry), data[0]), ONE, data[cols - 2])  # a dependent column
    f = LinearMap(rows, cols, data)
    x = draw(st.dictionaries(st.integers(0, cols - 1), entry, max_size=cols))
    anywhere = draw(st.dictionaries(st.integers(0, rows - 1), entry, max_size=rows))
    return f, [f.apply(x), anywhere, {}] + [{i: draw(entry)} for i in range(rows)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_systems())
def test_solver_agrees_with_sympy_and_the_pair_echelon(drawn):
    f, targets = drawn
    dense = sympy.Matrix(f.rows, f.cols, lambda i, j: _to_sympy(f.col(j).get(i, ZERO)))
    rank = dense.rank()
    assert f.rank == rank
    # the map's own entries decide the solver: one echelon, or the rows hit
    hit = [next(iter(c)) for c in f.data if len(c) == 1]
    monomial = len(hit) == f.cols and len(set(hit)) == f.cols
    assert (type(f._solver) is dict) == monomial
    basis = f.kernel_basis()
    assert len(basis) == f.cols - rank
    assert all(not f.apply(w) for w in basis)
    old = _PairEchelon(f)
    assert basis == old.kernel
    for t in targets:
        column = sympy.Matrix(f.rows, 1, lambda i, _: _to_sympy(t.get(i, ZERO)))
        reachable = dense.row_join(column).rank() == rank
        x = f.solve(t)
        assert (x is not None) == reachable
        if reachable:
            assert f.apply(x) == t
        assert x == old.solve(t)
    bijective = f.rows == f.cols == rank
    assert f.is_bijective() == bijective
    inv = f.inverse()
    if not bijective:
        assert inv is None
        return
    product = dense * sympy.Matrix(f.rows, f.rows, lambda i, j: _to_sympy(inv.col(j).get(i, ZERO)))
    assert product.expand() == sympy.eye(f.rows)
    assert inv.compose(f) == LinearMap.identity(f.cols)
    assert [old.solve({i: ONE}) for i in range(f.rows)] == list(inv.data)
    assert f.inverse() is inv


# -- tensor products of maps --


@st.composite
def _map_pairs(draw):
    """Two maps of any small shapes over Q(i)[sqrt(2)], and a vector of
    each domain."""
    def one_map():
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        column = st.dictionaries(st.integers(0, rows - 1), _entry, max_size=2)
        return LinearMap(rows, cols, draw(st.lists(column, min_size=cols, max_size=cols)))

    f, g = one_map(), one_map()
    u = draw(st.dictionaries(st.integers(0, f.cols - 1), _entry, max_size=f.cols))
    v = draw(st.dictionaries(st.integers(0, g.cols - 1), _entry, max_size=g.cols))
    return f, g, u, v


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_map_pairs())
def test_kron_is_the_tensor_product_in_kron_vec_layout(drawn):
    f, g, u, v = drawn
    fg = f.kron(g)
    assert (fg.rows, fg.cols) == (f.rows * g.rows, f.cols * g.cols)
    assert all(fg.col(j * g.cols + k) == kron_vec(f.col(j), g.col(k), g.rows)
               for j in range(f.cols) for k in range(g.cols))
    # (f (x) g)(u (x) v) = f(u) (x) g(v)
    assert fg.apply(kron_vec(u, v, g.cols)) == kron_vec(f.apply(u), g.apply(v), g.rows)
    assert kron(f, g, f) == fg.kron(f) == f.kron(g.kron(f))
    # the flip swaps the factors, and flipping back is the identity
    p, q = f.cols, g.cols
    assert LinearMap.flip(p, q).apply(kron_vec(u, v, q)) == kron_vec(v, u, p)
    assert LinearMap.flip(q, p).compose(LinearMap.flip(p, q)) == LinearMap.identity(p * q)
    # and is natural: tau (f (x) g) = (g (x) f) tau
    assert LinearMap.flip(f.rows, g.rows).compose(fg) == g.kron(f).compose(LinearMap.flip(p, q))


# -- the sparse kernels against a dense reference --


# every kind of coefficient the kernels tell apart: 1, -1, another int, a
# Fraction, a Gaussian rational and sums with the roots of 2, 3 and 6
_kind = st.sampled_from([
    1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Scalar.rational(0, 1),
    Scalar.rational(1, -1), Scalar.root_term(2), 1 + Scalar.root_term(2),
    Scalar.root_term(3, Fraction(1, 2)), Scalar.root_term(6),
])


def _canonical(s):
    """s is a non-zero scalar in its one form: an int, a Fraction with
    denominator > 1, or a Scalar that is not a real rational."""
    if type(s) is Scalar:
        t = s.terms
        return bool(t) and not (len(t) == 1 and t[0][0] == 1 and not t[0][2])
    return (type(s) is int and s != 0) or (type(s) is Fraction and s.denominator > 1)


def _dense(v, n):
    return [_to_sympy(v.get(j, 0)) for j in range(n)]


def _matches_dense(w, dense):
    """w holds exactly the non-zero entries of dense, each canonical."""
    assert all(_canonical(s) for s in w.values()), w
    assert all(j < len(dense) for j in w)
    return all(sympy.expand(_to_sympy(w.get(j, 0)) - x) == 0 for j, x in enumerate(dense))


@st.composite
def _axpy_cases(draw):
    """acc, c, v and shift, with some of v's entries cancelling acc's."""
    n = 5
    acc = draw(st.dictionaries(st.integers(0, n + 2), _kind, max_size=n))
    c = draw(st.one_of(_kind, st.just(0)))
    v = draw(st.dictionaries(st.integers(0, n - 1), _kind, max_size=n))
    shift = draw(st.integers(0, 3))
    if c:
        for j in draw(st.lists(st.sampled_from(sorted(v)), max_size=3)) if v else ():
            if j + shift in acc:
                v[j] = -sc(acc[j + shift] * inverse(c))
    return acc, c, v, shift


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_axpy_cases())
def test_axpy_matches_a_dense_reference(drawn):
    acc, c, v, shift = drawn
    n = max(list(acc) + [j + shift for j in v] + [0]) + 1
    dense = [a + _to_sympy(c) * b for a, b in zip(_dense(acc, n), [0] * shift + _dense(v, n - shift))]
    before, v_before = list(acc.items()), dict(v)
    out = axpy(acc, c, v, shift)
    assert out is acc and v == v_before
    assert _matches_dense(out, dense)
    # the old keys keep their places, the new ones follow in v's order
    old = [j for j, _ in before if j in out]
    assert list(out) == old + [j + shift for j in v if j + shift in out and j + shift not in old]


def _column(rows, entry):
    return st.dictionaries(st.integers(0, rows - 1), entry, max_size=3)


@st.composite
def _maps_with_zeros(draw):
    """A map built from columns that may hold zeros, and vectors of its
    domain: empty, one entry of every kind, and general."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    data = draw(st.lists(_column(rows, st.one_of(_kind, st.sampled_from([0, Fraction(0)]))),
                         min_size=cols, max_size=cols))
    j = draw(st.integers(0, cols - 1))
    general = draw(st.dictionaries(st.integers(0, cols - 1), _kind, max_size=cols))
    inner = draw(st.integers(1, 3))
    g = LinearMap(cols, inner, draw(st.lists(_column(cols, _kind), min_size=inner, max_size=inner)))
    return rows, cols, data, [{}, {j: draw(_kind)}, {j: 1}, general], g


def _dense_map(f):
    return sympy.Matrix(f.rows, f.cols, lambda i, j: _to_sympy(f.col(j).get(i, 0)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_maps_with_zeros())
def test_linear_map_kernels_match_a_dense_reference(drawn):
    rows, cols, data, vectors, g = drawn
    given_data = [dict(col) for col in data]
    f = LinearMap(rows, cols, data)
    # each stored column is the map's own dict, without the zeros
    assert all(type(col) is dict and col is not mine for col, mine in zip(f.data, data))
    assert [list(col.items()) for col in f.data] == [
        [(i, s) for i, s in col.items() if s] for col in given_data]
    for col in data:
        col[0] = sc(7)
    assert [dict(col) for col in f.data] == [
        {i: s for i, s in col.items() if s} for col in given_data]
    dense = _dense_map(f)
    assert f.is_zero() == dense.is_zero_matrix
    stored = [list(col.items()) for col in f.data]
    for v in vectors:
        w = f.apply(v)
        assert _matches_dense(w, list(dense * sympy.Matrix(_dense(v, cols))))
        # the same entries in the same order as accumulating column by column
        acc = {}
        for j, c in v.items():
            axpy(acc, c, f.col(j))
        assert list(w.items()) == list(acc.items())
        # a fresh dict: writing into it leaves the map as it was
        for k in w:
            w[k] = sc(7)
        w[rows] = sc(1)
        assert [list(col.items()) for col in f.data] == stored
    fg = f.compose(g)
    assert all(_matches_dense(col, list((dense * _dense_map(g))[:, j]))
               for j, col in enumerate(fg.data))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(_kind, st.integers(-9, 9).filter(bool), _rational.filter(bool)))
def test_inverse_matches_a_dense_reference(x):
    y = inverse(x)
    assert _canonical(y) and sympy.expand(_to_sympy(y) * _to_sympy(x)) == 1
    if type(x) is not Scalar:
        y_ref = Fraction(1) / x
        assert y == y_ref and type(y) is (int if y_ref.denominator == 1 else Fraction)
    if type(x) is int and x in (1, -1):
        assert y is x
