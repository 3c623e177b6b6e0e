"""Balanced tensor quotients, slices, flips."""

import importlib.util
import os

import pytest

from qgroupoid import balanced_tensor, bialgebroid, verify_regular_mha
from qgroupoid.balanced_tensor import (
    BalancedTensor,
    NotBalanced,
    TripleTensor,
    descend_componentwise,
)
from qgroupoid.bialgebroid import (
    FLAVOR_LT,
    FLAVOR_RT,
    FLAVOR_TL,
    FLAVOR_TR,
    _coassociativity_sides,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
)
from qgroupoid.exact_linear import ONE, LinearMap, Rref, axpy, vsub

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


def test_p2_quotient_dimension_is_composable_pairs(m_fun, p2):
    # oracle: enumerate composable pairs of the groupoid directly
    composable = [
        (a, b) for a in p2.arrows for b in p2.arrows
        if p2.source[a] == p2.target[b]
    ]
    assert len(composable) == 8
    assert m_fun.qb.dim == len(composable)
    assert m_fun.qc.dim == len(composable)


def test_trivial_balancing_gives_full_tensor(m_group):
    # base of the group case is one-dimensional: nothing is identified
    assert m_group.B.base.dim == 1
    assert m_group.qb.dim == m_group.A.dim ** 2


def test_defining_relation_quantified(m_fun):
    qb = m_fun.qb
    n = m_fun.A.dim
    for x in range(m_fun.B.base.dim):
        bx = m_fun.B.embed.col(x)
        sbx = m_fun.emb_SB().col(x)
        for a in range(n):
            for b in range(n):
                lhs = qb.pure(m_fun.A.mul(bx, {a: ONE}), {b: ONE})
                rhs = qb.pure({a: ONE}, m_fun.A.mul(sbx, {b: ONE}))
                assert lhs == rhs


def test_leg_multiplications_descend(m_fun):
    qb = m_fun.qb
    # descending is checked internally; any failure raises NotBalanced
    for j in range(m_fun.A.dim):
        qb.rmul1({j: ONE})
        qb.rmul2({j: ONE})
    qc = m_fun.qc
    for j in range(m_fun.A.dim):
        qc.lmul1({j: ONE})
        qc.lmul2({j: ONE})


def test_counit_slice_recovers_product(m_fun):
    # the left-counit slice of Delta(f)(1 (x) g) is f g, all basis pairs
    qb = m_fun.qb
    A = m_fun.A
    omega = m_fun.emb_SB().compose(m_fun.eps_B)
    sl = qb.slice(omega, 1, "left")
    for f in range(A.dim):
        df = m_fun.delta_B.col(f)
        for g in range(A.dim):
            assert sl.apply(qb.rmul2({g: ONE}).apply(df)) == A.mul({f: ONE}, {g: ONE})


def test_zero_slice(m_fun):
    sl = m_fun.qb.slice(LinearMap.zero(m_fun.A.dim, m_fun.A.dim), 1, "left")
    assert sl.is_zero()


def test_unbalanced_slice_rejected_with_witness(m_fun):
    # sends the (1,2)-arrow coefficient to the (1,1)-unit: not a module map
    bad = LinearMap.from_rows(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    with pytest.raises(NotBalanced) as exc:
        m_fun.qb.slice(bad, 1, "left")
    assert exc.value.witness is not None


def test_repeated_slice_and_flip_equal_a_fresh_descent():
    M = build_function_algebroid(pair_groupoid([1, 2]))
    A, n, qb = M.A, M.A.dim, M.qb
    omega = M.emb_SB().compose(M.eps_B)
    first = qb.slice(omega, 1, "left")
    # an equal omega built anew, and another caller's text, hit the same entry
    again = qb.slice(M.emb_SB().compose(M.eps_B), 1, "left", what="another slice")
    assert again is first
    assert again == descend_componentwise(
        qb, None, lambda i, j: A.mul(omega.col(i), {j: ONE}), "{src!r}")
    assert qb.slice(omega, 1, "right") == descend_componentwise(
        qb, None, lambda i, j: A.mul({j: ONE}, omega.col(i)), "{src!r}")
    dom_tr, dom_rt = M.tensor(FLAVOR_TR), M.tensor(FLAVOR_RT)
    f = dom_tr.flip_to(dom_rt)
    assert dom_tr.flip_to(dom_rt) is f
    assert f == descend_componentwise(dom_tr, dom_rt, lambda i, j: {j * n + i: ONE}, "{src!r}")


def test_failed_slice_is_rechecked_with_each_callers_message():
    M = build_function_algebroid(pair_groupoid([1, 2]))
    bad = LinearMap.from_rows(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    for what in ("first caller", "second caller"):
        with pytest.raises(NotBalanced) as exc:
            M.qb.slice(bad, 1, "left", what=what)
        assert str(exc.value).startswith(what + " is not balanced for flavor")
        assert exc.value.witness is not None
    assert not [key for key in M.qb._op_cache if key[0] == "slice"]


def test_flip_between_flavors(m_fun):
    dom_tr = m_fun.tensor(FLAVOR_TR)
    dom_rt = m_fun.tensor(FLAVOR_RT)
    f1 = dom_tr.flip_to(dom_rt)
    f2 = dom_rt.flip_to(dom_tr)
    assert f2.compose(f1) == LinearMap.identity(dom_tr.dim)
    assert f1.compose(f2) == LinearMap.identity(dom_rt.dim)
    dom_lt = m_fun.tensor(FLAVOR_LT)
    dom_tl = m_fun.tensor(FLAVOR_TL)
    g1 = dom_lt.flip_to(dom_tl)
    g2 = dom_tl.flip_to(dom_lt)
    assert g2.compose(g1) == LinearMap.identity(dom_lt.dim)


def test_flip_swaps_pure_tensors(m_fun):
    dom_tr = m_fun.tensor(FLAVOR_TR)
    dom_rt = m_fun.tensor(FLAVOR_RT)
    f = dom_tr.flip_to(dom_rt)
    u, v = {0: ONE}, {2: ONE}
    assert f.apply(dom_tr.pure(u, v)) == dom_rt.pure(v, u)


def test_flip_is_permutation_in_group_case(m_group):
    # base is scalars: both flavors are the full 4-dim tensor square
    dom_tr = m_group.tensor(FLAVOR_TR)
    dom_rt = m_group.tensor(FLAVOR_RT)
    f = dom_tr.flip_to(dom_rt)
    assert dom_tr.dim == 4 and f.rows == f.cols == 4
    cols = [f.col(j) for j in range(4)]
    assert all(len(c) == 1 and list(c.values())[0] == ONE for c in cols)
    assert sorted(next(iter(c)) for c in cols) == [0, 1, 2, 3]


def test_balanced_tensor_rebuilt_from_its_structures(m_fun):
    qb = m_fun.qb
    t = BalancedTensor(m_fun.A, qb.struct1, qb.struct2, "rebuilt")
    assert t.dim == qb.dim
    assert t.space.free == qb.space.free


def test_incompatible_flip_rejected(m_fun):
    dom_tr = m_fun.tensor(FLAVOR_TR)
    with pytest.raises(NotBalanced):
        dom_tr.flip_to(m_fun.qb)


class _DirectTriple:
    """Oracle: A (x) A (x) A modulo every legs-(1,2) relation (x) e_c and
    every e_a (x) legs-(2,3) relation, eliminated together in one Rref."""

    def __init__(self, pair12, pair23):
        n = pair12.leg_dim
        self.relations = [
            {k * n + c: s for k, s in rel.items()}
            for rel in pair12.relation_vectors() for c in range(n)
        ] + [
            {a * n * n + k: s for k, s in rel.items()}
            for rel in pair23.relation_vectors() for a in range(n)
        ]
        self.rref = Rref()
        for rel in self.relations:
            self.rref.add(rel)
        self.dim = n ** 3 - self.rref.rank

    def equal(self, w1, w2):
        return not self.rref.reduce(vsub(w1, w2))


@pytest.fixture(scope="module")
def p3_algebroids():
    p3 = pair_groupoid([1, 2, 3])
    return build_function_algebroid(p3), build_convolution_algebroid(p3)


@pytest.mark.parametrize("kind", ["BB", "BC", "CB", "CC"])
def test_triple_quotient_matches_direct_elimination(
    kind, m_fun, m_conv, m_group, m_crossed, p3_algebroids
):
    for M in (m_fun, m_conv, m_group, m_crossed, *p3_algebroids):
        pairs = {"B": M.qb, "C": M.qc}
        pair12, pair23 = pairs[kind[0]], pairs[kind[1]]
        triple = TripleTensor(M.A, pair12, pair23, kind)
        direct = _DirectTriple(pair12, pair23)
        assert triple.dim == direct.dim, (M.name, kind)
        assert all(not triple.reduce(rel) for rel in direct.relations), (M.name, kind)
        # the pairs the law compares at one b, and each lhs against the
        # next pair's rhs, so that unequal classes are compared as well
        sides = [(lhs, rhs) for _, _, lhs, rhs in _coassociativity_sides(M, kind, 1)]
        shifted = [(lhs, rhs) for (lhs, _), (_, rhs) in zip(sides, sides[1:] + sides[:1])]
        verdicts = [triple.equal(lhs, rhs) for lhs, rhs in sides + shifted]
        assert verdicts == [direct.equal(lhs, rhs) for lhs, rhs in sides + shifted]
        assert all(verdicts[: len(sides)]) and not all(verdicts), (M.name, kind)


def _first_failing_generator(src, dst, fn, antilinear=False):
    """Oracle: the first relation generator of src, in order, whose image
    under e_i (x) e_j -> fn(i, j) leaves dst's relation span (for dst
    None: is not zero); None if every generator lands there."""
    n = src.leg_dim
    for gen, rel in zip(src.generators, src.relation_vectors()):
        image = {}
        for idx, s in rel.items():
            axpy(image, s.conj() if antilinear else s, fn(*divmod(idx, n)))
        if image if dst is None else not dst.space.contains_relation(image):
            return gen
    return None


@pytest.fixture
def descents(monkeypatch):
    """Every descend_componentwise call the verifier makes, as
    (src, dst, fn, antilinear, the NotBalanced raised or None)."""
    calls = []

    def spy(src, dst, fn, message, antilinear=False, live=None):
        try:
            out = descend_componentwise(src, dst, fn, message, antilinear, live)
        except NotBalanced as e:
            calls.append((src, dst, fn, antilinear, e))
            raise
        calls.append((src, dst, fn, antilinear, None))
        return out

    for module in (balanced_tensor, bialgebroid):
        monkeypatch.setattr(module, "descend_componentwise", spy)
    return calls


# mutants of the golden recorder on p2 and p3 whose antipode or counit is
# no longer a module map, so that some descents are rejected
_MUTANTS = [
    (points, build, kind, col, add_col)
    for points in ([1, 2], [1, 2, 3])
    for build, kind, col, add_col in (
        (build_function_algebroid, "S", 1, 0),
        (build_function_algebroid, "S", 0, 1),
        (build_function_algebroid, "eps_B", 1, 0),
        (build_convolution_algebroid, "S", 1, 0),
        (build_convolution_algebroid, "S", 0, 1),
    )
]


def _mutant_id(m):
    points, build, kind, col, add_col = m
    return "p%d-%s-%s-%d+%d" % (len(points), build.__name__[6:10], kind, col, add_col)


@pytest.mark.parametrize("mutant", _MUTANTS, ids=_mutant_id)
def test_rejected_descent_names_the_first_failing_generator(mutant, descents):
    points, build, kind, col, add_col = mutant
    verify_regular_mha(golden_record.mutant_bundle(kind, col, build, add_col, points))
    rejected = [call for call in descents if call[4] is not None]
    assert rejected
    for src, dst, fn, antilinear, error in rejected:
        assert error.witness == _first_failing_generator(src, dst, fn, antilinear)


@pytest.mark.parametrize("mutant", _MUTANTS, ids=_mutant_id)
def test_accepted_descent_sends_every_generator_into_the_target(mutant, descents):
    points, build, kind, col, add_col = mutant
    verify_regular_mha(golden_record.mutant_bundle(kind, col, build, add_col, points))
    accepted = [call for call in descents if call[4] is None]
    assert accepted
    for src, dst, fn, antilinear, _ in accepted:
        assert _first_failing_generator(src, dst, fn, antilinear) is None


@pytest.mark.parametrize("build", [build_function_algebroid, build_convolution_algebroid])
def test_perturbed_counit_slices_are_checked_on_every_generator(build):
    # the counit slice plus one matrix unit, at every position: some stay
    # balanced and most do not; each verdict must match a generator scan
    M = build(pair_groupoid([1, 2, 3]))
    A, n, qb = M.A, M.A.dim, M.qb
    omega = M.emb_SB().compose(M.eps_B)
    verdicts = set()
    for i in range(n):
        for k in range(n):
            cols = [dict(omega.col(j)) for j in range(n)]
            axpy(cols[i], ONE, {k: ONE})

            def sliced(a, b, cols=cols):
                return A.mul(cols[a], {b: ONE})

            expected = _first_failing_generator(qb, None, sliced)
            try:
                descend_componentwise(qb, None, sliced, "{src!r}")
                witness = None
            except NotBalanced as e:
                witness = e.witness
            assert witness == expected, (i, k)
            verdicts.add(witness is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("build", [build_function_algebroid, build_convolution_algebroid])
def test_sparse_slices_name_the_first_failing_generator(build):
    # omega with one non-empty column: the counit slice's column i alone,
    # and with a unit added at some k.  The slice visits only the basis
    # tensors whose consumed leg is i, and must decide as a generator scan
    M = build(pair_groupoid([1, 2, 3]))
    A, n = M.A, M.A.dim
    counit = M.emb_SB().compose(M.eps_B)
    verdicts = set()
    for tensor in (M.qb, M.qc):
        for leg in (1, 2):
            for multiply in ("left", "right"):
                for i in range(n):
                    for k in (None, *range(0, n, 2)):
                        col = dict(counit.col(i))
                        if k is not None:
                            axpy(col, ONE, {k: ONE})
                        if not col:
                            continue
                        omega = LinearMap(n, n, [col if j == i else {} for j in range(n)])

                        def sliced(a, b, leg=leg, multiply=multiply, omega=omega):
                            val, other = ((omega.col(a), {b: ONE}) if leg == 1
                                          else (omega.col(b), {a: ONE}))
                            return A.mul(val, other) if multiply == "left" else A.mul(other, val)

                        expected = _first_failing_generator(tensor, None, sliced)
                        try:
                            got, witness = tensor.slice(omega, leg, multiply), None
                        except NotBalanced as e:
                            witness = e.witness
                        assert witness == expected, (tensor.flavor, leg, multiply, i, k)
                        if witness is None:
                            assert got == descend_componentwise(tensor, None, sliced, "{src!r}")
                        verdicts.add(witness is None)
    assert verdicts == {True, False}
