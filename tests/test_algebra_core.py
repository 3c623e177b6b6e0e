"""Structure-constant algebras, multipliers, embeddings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroupoid import algebra_core
from qgroupoid.algebra_core import (
    BaseEmbedding,
    FiniteAlgebra,
    ModuleStructure,
    Multiplier,
    algebra_from_json,
    algebra_to_json,
    automorphism_check,
    check_algebra,
    find_unit,
    multiplier_algebra,
    scalar_from_json,
    scalar_to_json,
)
from qgroupoid.balanced_tensor import module_maps, unkept
from qgroupoid.exact_linear import ONE, ZERO, LinearMap, Scalar, inverse, sc
from qgroupoid.report import first_failure, witness


def group_algebra_z2():
    # basis e, g with g*g = e
    e, g = {0: ONE}, {1: ONE}
    table = [[e, g], [g, e]]
    return FiniteAlgebra(table, labels=["e", "g"])


def test_pointwise_functions_check():
    a = FiniteAlgebra.pointwise(["(1,1)", "(1,2)", "(2,1)", "(2,2)"])
    rep = check_algebra(a)
    assert rep.ok, rep.to_json_lines()
    assert a.unit() == {0: ONE, 1: ONE, 2: ONE, 3: ONE}


def test_zero_product_algebra_fails_nondegeneracy():
    a = FiniteAlgebra([[{}]])
    rep = check_algebra(a)
    assert not rep.ok
    assert rep.status_of("non-degenerate-right") == "fail"
    assert rep.status_of("idempotent") == "fail"
    assert find_unit(a) is None


def test_group_algebra_checks():
    a = group_algebra_z2()
    rep = check_algebra(a)
    assert rep.ok, rep.to_json_lines()
    assert a.unit() == {0: ONE}


def test_nonassociative_detected():
    # e0*e0 = e1, e1*e0 = e0, everything else zero: (e0 e0)e0 != e0(e0 e0)
    table = [[{1: ONE}, {}], [{0: ONE}, {}]]
    a = FiniteAlgebra(table)
    ok, wit = a.is_associative()
    assert not ok and wit is not None


def test_associativity_witness_is_the_first_triple_of_a_full_scan():
    # functions on three points with e1 e1 = e1 + i e2: the first failure
    # is at k = 2, past the first block of the stacked comparison
    a = _two_term_product()
    expected = next(
        (i, j, k)
        for i in range(3) for j in range(3) for k in range(3)
        if a.mul(a.table[i][j], {k: ONE}) != a.mul({i: ONE}, a.table[j][k])
    )
    assert expected == (1, 1, 2)
    assert a.is_associative() == (False, expected)


def _two_term_product():
    """Functions on three points with e1 e1 = e1 + i e2."""
    table = [[({i: ONE} if i == j else {}) for j in range(3)] for i in range(3)]
    table[1][1] = {1: ONE, 2: Scalar.rational(0, 1)}
    return FiniteAlgebra(table)


def test_the_monomial_tables_decline_a_two_term_product_or_star():
    # the two-term product of the witness test above, and functions on
    # two points with e_0* = e_0 + e_1: no table, and the scans decide
    a = _two_term_product()
    assert algebra_core._monomial_tables(a) is None
    assert a.is_associative() == (False, (1, 1, 2))
    b = FiniteAlgebra.pointwise(["p", "q"], involution=LinearMap.from_rows([[1, 0], [1, 1]]))
    assert algebra_core._monomial_tables(b) is None
    assert check_algebra(b).entries[-1].witness == ("involutive", "p")
    b.involution = LinearMap.identity(2)  # the tables are read again for a new star
    assert algebra_core._monomial_tables(b) == ([[(0, ONE), None], [None, (1, ONE)]],
                                               [(0, ONE), (1, ONE)])
    assert check_algebra(b).ok


_COEFFICIENT = st.sampled_from([ONE, -ONE, sc(2), sc("1/2"), Scalar.root_term(2, 0, 1)])


@st.composite
def _monomial_algebras(draw):
    """(table, involution or None) of a monomial algebra of dimension 1 to
    5: the group algebra of Z_n twisted by the coboundary of a drawn f,
    e_i e_j = f(i) f(j) / f(i + j) e_(i + j), or functions with
    e_i e_i = c_i e_i, both associative, or a drawn table; then maybe one
    product drawn again.  The star sends e_i to s_i e_sigma(i), sigma the
    group's inverse, the identity or a drawn permutation, maybe with one
    column 0, so the laws pass and fail."""
    n = draw(st.integers(1, 5))
    term = st.one_of(st.none(), st.tuples(st.integers(0, n - 1), _COEFFICIENT))
    index = st.integers(0, n - 1)
    c = draw(st.lists(_COEFFICIENT, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["group", "functions", "drawn"]))
    if kind == "group":
        table = [[{(i + j) % n: c[i] * c[j] * inverse(c[(i + j) % n])} for j in range(n)]
                 for i in range(n)]
        sigma = [-i % n for i in range(n)]
    elif kind == "functions":
        table = [[({i: c[i]} if i == j else {}) for j in range(n)] for i in range(n)]
        sigma = list(range(n))
    else:
        table = [[dict([t] if t else []) for t in draw(st.lists(term, min_size=n, max_size=n))]
                 for _ in range(n)]
        sigma = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        t = draw(term)
        table[draw(index)][draw(index)] = dict([t] if t else [])
    if not draw(st.booleans()):
        return table, None
    s = draw(st.lists(st.one_of(st.just(ONE), _COEFFICIENT), min_size=n, max_size=n))
    columns = [{sigma[i]: s[i]} for i in range(n)]
    if draw(st.booleans()):
        columns[draw(index)] = {}
    return table, LinearMap(n, n, columns)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_monomial_algebras())
def test_the_monomial_tables_decide_what_the_scans_decide(case):
    # associativity and the check_algebra report, witnesses included, are
    # those of the scans that run with the tables declined
    table, involution = case

    def decided():
        a = FiniteAlgebra(table, involution=involution)
        return a.is_associative(), check_algebra(a).to_json_lines()

    assert algebra_core._monomial_tables(FiniteAlgebra(table, involution=involution))
    by_tables = decided()
    with pytest.MonkeyPatch.context() as declined:
        declined.setattr(algebra_core, "_monomial_tables", lambda algebra: None)
        assert decided() == by_tables


def test_associativity_is_decided_once_per_algebra(monkeypatch):
    # check_algebra and the verifier's gates ask again and again
    a, calls = group_algebra_z2(), []
    decide = FiniteAlgebra._associativity

    def counted(self):
        calls.append(self)
        return decide(self)

    monkeypatch.setattr(FiniteAlgebra, "_associativity", counted)
    assert a.is_associative() == (True, None)
    assert check_algebra(a).ok
    assert a.is_associative() == (True, None)
    assert calls == [a]


def test_multiplier_algebra_unital_iso():
    a = group_algebra_z2()
    m, canon = multiplier_algebra(a)
    assert m.dim == a.dim
    assert canon.is_bijective()
    ok, _ = a.is_associative()
    assert ok
    rep = check_algebra(m)
    assert rep.ok


def test_multiplier_algebra_direct_sum():
    # F + F: multipliers solve R(a)b = aL(b); expect dimension 2 again
    a = FiniteAlgebra.pointwise(["p", "q"])
    m, canon = multiplier_algebra(a)
    assert m.dim == 2
    assert canon.is_bijective()


def test_multiplier_algebra_rejects_degenerate():
    with pytest.raises(ValueError):
        multiplier_algebra(FiniteAlgebra([[{}]]))


def test_multiplier_compatibility_flag():
    a = group_algebra_z2()
    good = Multiplier.from_element(a, {1: ONE})
    assert good.is_compatible()
    bad = Multiplier(a, LinearMap.identity(2), LinearMap.from_rows([[1, 1], [0, 1]]))
    assert not bad.is_compatible()
    assert good.element() == {1: ONE}


def test_automorphism_check():
    a = FiniteAlgebra.pointwise(["u1", "u2"])
    ident = LinearMap.identity(2)
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    not_mult = LinearMap.from_rows([[1, 1], [0, 1]])
    assert automorphism_check(a, ident) == (True, None)
    assert automorphism_check(a, swap) == (True, None)
    ok, wit = automorphism_check(a, not_mult)
    assert not ok and wit is not None
    # anti-automorphism variant agrees on a commutative algebra
    assert automorphism_check(a, swap, anti=True) == (True, None)


def test_base_embedding_validate_and_commute():
    a = FiniteAlgebra.pointwise(["x", "y"])
    b = FiniteAlgebra.pointwise(["pt"])
    emb = BaseEmbedding(b, a, LinearMap.from_rows([[1], [1]]), name="B")
    rep = emb.validate()
    assert rep.ok
    ok, _ = emb.commutes_with(emb)
    assert ok


def test_module_structure_action():
    a = group_algebra_z2()
    b = FiniteAlgebra([[{0: ONE}]], labels=["1"])
    emb = BaseEmbedding(b, a, LinearMap.from_rows([[1], [0]]))
    left = ModuleStructure(b, a, [a.lmul(emb.embed.col(x)) for x in range(b.dim)], "left")
    ok, _ = left.check_action()
    assert ok
    assert left.check_faithful() == (True, None)
    assert left.check_idempotent() == (True, None)
    # two base elements acting alike, and e_1 in no image: the witnesses
    # are the first dependent base index and the first basis element missed
    two = FiniteAlgebra.pointwise(["x", "y"])
    alike = ModuleStructure(two, a, [LinearMap.from_rows([[1, 0], [0, 0]])] * 2, "left")
    for weights in (alike.weights, None):
        alike.weights = weights
        assert alike.check_faithful() == (False, 1)
        assert alike.check_idempotent() == (False, 1)


# bases with their characters, the weight tuples that pass the action law:
# functions on one and on two points, the group algebra of Z2, and the
# non-commutative algebra e0 e0 = e0, e0 e1 = e1 (its other products zero)
_BASES = (
    (FiniteAlgebra.pointwise(["p"]), [(ZERO,), (ONE,)]),
    (FiniteAlgebra.pointwise(["p", "q"]), [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)]),
    (group_algebra_z2(), [(ZERO, ZERO), (ONE, ONE), (ONE, -ONE)]),
    (FiniteAlgebra([[{0: ONE}, {1: ONE}], [{}, {}]], labels=["e0", "e1"]),
     [(ZERO, ZERO), (ONE, ZERO)]),
)
_eigenvalue = st.sampled_from([ZERO, ONE, -ONE, Scalar.root_term(2), ONE + Scalar.root_term(3)])


@st.composite
def _diagonal_actions(draw, based=None):
    """A diagonal action of one of ``_BASES`` (``based``, a (base,
    characters) pair, or drawn) on an algebra of dimension 1 to 5, on
    either side: each basis element's weight tuple is a character of the
    base or drawn at random, so the laws pass and fail."""
    base, characters = draw(st.sampled_from(_BASES)) if based is None else based
    n, k = draw(st.integers(1, 5)), base.dim
    tuples = st.one_of(st.sampled_from(characters),
                       st.tuples(*[_eigenvalue] * k))
    weights = draw(st.lists(tuples, min_size=n, max_size=n))
    acts = [LinearMap(n, n, [{a: w[x]} for a, w in enumerate(weights)]) for x in range(k)]
    total = FiniteAlgebra.pointwise(["a%d" % a for a in range(n)])
    return ModuleStructure(base, total, acts, draw(st.sampled_from(["left", "right"])))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_diagonal_actions())
def test_module_laws_by_weights_agree_with_the_operator_laws(struct):
    assert struct.weights is not None
    by_weights = (struct.check_action(), struct.check_faithful(), struct.check_idempotent())
    struct.weights = None  # shadows the cached weights: the operator paths run
    assert (struct.check_action(), struct.check_faithful(),
            struct.check_idempotent()) == by_weights


@st.composite
def _module_map_cases(draw):
    """Two diagonal actions src and dst of one base, and three maps from
    src's space to dst's: two drawn, and the first cut down to its
    entries between equal weights, which keeps the actions."""
    based = draw(st.sampled_from(_BASES))
    src, dst = draw(_diagonal_actions(based)), draw(_diagonal_actions(based))
    rows, cols = dst.total.dim, src.total.dim
    column = st.dictionaries(st.integers(0, rows - 1),
                             st.sampled_from([ONE, -ONE, Scalar.root_term(2)]), max_size=2)
    op, other = (LinearMap(rows, cols, draw(st.lists(column, min_size=cols, max_size=cols)))
                 for _ in range(2))
    kept = LinearMap(rows, cols, [{k: s for k, s in col.items()
                                   if dst.weights[k] == src.weights[a]}
                                  for a, col in enumerate(op.data)])
    return src, dst, [op, kept, other]


def _unweighted(struct):
    """struct with its weights shadowed, so the operator paths run."""
    out = ModuleStructure(struct.base, struct.total, struct.acts, struct.side)
    out.weights = None
    return out


def _scanned(laws):
    """Oracle of the first failing case of ``unkept``: every (x, a, k) in
    order, with no weight gate first."""
    _, first, _ = laws[0]
    for x in range(len(first.acts)):
        for a in range(first.total.dim):
            for k, (op, src, dst) in enumerate(laws):
                lhs, rhs = op.apply(src.acts[x].col(a)), dst.acts[x].apply(op.col(a))
                if lhs != rhs:
                    return (x, a, k), lhs, rhs
    return None


def _first_unkept(laws):
    """The first case of ``unkept(laws)`` whose sides differ, or None."""
    return next(((at, lhs, rhs) for at, lhs, rhs in unkept(laws) if lhs != rhs), None)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_module_map_cases())
def test_module_maps_and_unkept_agree_with_their_unweighted_forms(case):
    # the weighted form of the module-map law, one row per pair of
    # differing weights, has the kernel of the full (x, a) form, and the
    # weight gate of ``unkept`` names what the full scan names, also as
    # the witness of ``first_failure``
    src, dst, ops = case
    plain = _unweighted(src), _unweighted(dst)
    maps = module_maps(src, dst)
    assert module_maps(*plain) == maps
    assert len(maps) == sum(wk == wa for wa in src.weights for wk in dst.weights)
    op, kept, other = ops
    assert _first_unkept([(f, src, dst) for f in maps + [kept]]) is None
    for laws in ([(op, src, dst)], [(kept, src, dst)],
                 [(f, src, dst) for f in [other, kept] + maps + [op]]):
        got = _first_unkept(laws)
        assert _first_unkept([(f, *plain) for f, _, _ in laws]) == got == _scanned(laws)
        assert first_failure(unkept(laws)) == (None if got is None else witness(*got))


def test_multiplication_and_action_maps_read_the_table_and_the_acts():
    a = FiniteAlgebra.from_mul(3, lambda i, j: {(i + j) % 3: sc(i + 1)} if i != 2 else {},
                               labels=["x", "y", "z"])
    m = a.mul_map()
    assert (m.rows, m.cols) == (3, 9)
    assert all(m.col(i * 3 + j) == a.mul({i: ONE}, {j: ONE}) for i in range(3) for j in range(3))
    assert a.mul_map() is m
    b = FiniteAlgebra([[{0: ONE}, {1: ONE}], [{1: ONE}, {0: ONE}]], labels=["e", "g"])
    acts = [LinearMap.identity(3), LinearMap.from_rows([[0, 0, 1], [1, 0, 0], [0, 2, 0]])]
    action = ModuleStructure(b, a, acts, "left")
    L = action.action_map()
    assert (L.rows, L.cols) == (3, 6)
    assert all(L.col(x * 3 + k) == action.act({x: ONE}, {k: ONE})
               for x in range(2) for k in range(3))


def test_multiplication_by_a_basis_vector_is_the_shared_operator_of_its_index():
    a = FiniteAlgebra.from_mul(3, lambda i, j: {(i + j) % 3: sc(i + 1)} if i != 2 else {},
                               labels=["x", "y", "z"])
    root = Scalar.root_term(2)
    for k in range(3):
        assert a.lmul({k: ONE}) is a.lmul(k) and a.rmul({k: ONE}) is a.rmul(k)
    for u in ({1: sc(2)}, {0: ONE, 2: sc(-1)}, {1: root}, {0: root, 1: ONE}):
        assert a.lmul(u) == LinearMap.from_function(3, 3, lambda j: a.mul(u, {j: ONE}))
        assert a.rmul(u) == LinearMap.from_function(3, 3, lambda j: a.mul({j: ONE}, u))
        # built once per vector content, whatever the order of its items
        again = dict(reversed(list(u.items())))
        assert a.lmul(u) is a.lmul(again) and a.rmul(u) is a.rmul(again)


def test_involution_axioms():
    conj_id = LinearMap.identity(2)
    a = FiniteAlgebra.pointwise(["u", "v"], involution=conj_id)
    rep = check_algebra(a)
    assert rep.ok
    i = Scalar.rational(0, 1)
    v = {0: i}
    assert a.star(v) == {0: -i}


def test_scalar_json_round_trip():
    vals = [
        sc("3/4"),
        Scalar.rational("1/2", "-2/3"),
        Scalar.root_term(2, "1/3") + Scalar.rational(1, 1),
    ]
    for v in vals:
        assert scalar_from_json(scalar_to_json(v)) == v
    with pytest.raises(ValueError):
        scalar_from_json(0.5)


@pytest.mark.parametrize("radicand", ["-2", "0"])
def test_a_radicand_below_one_is_rejected(radicand):
    # sqrt(-2) would make a radical that elimination cannot reduce, and
    # sqrt(0) a term that is no canonical scalar
    with pytest.raises(ValueError, match="radicand must be positive"):
        scalar_from_json({"sqrt_part": {radicand: {"re": "1"}}})
    assert scalar_from_json({"sqrt_part": {"1": {"re": "1"}}}) == 1


def test_algebra_json_round_trip():
    a = FiniteAlgebra.pointwise(["u", "v"], involution=LinearMap.identity(2))
    b = algebra_from_json(algebra_to_json(a))
    assert b.dim == a.dim
    assert b.table == a.table
    assert b.labels == a.labels
    assert b.involution == a.involution
