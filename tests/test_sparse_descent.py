"""Sparse leg descents equal full componentwise descents.

``BalancedTensor.descend`` visits only the basis tensors at which
op1 (x) op2 is non-zero and checks only the relation-echelon rows that
touch them.  The reference here descends by definition: it scans every
relation generator in order and projects the image of every free basis
tensor, with no echelon row and no code shared with the descent.  Both
must return the same map, or both must raise NotBalanced with the same
text and witness.

The basis-change cases move a bundle along an invertible change of basis
of A.  Its relation-echelon rows then have several entries, where every
bundle the builders make has single-coordinate relations: the builders'
base actions are diagonal, so their balanced tensors are coordinate
quotients, built with no echelon.  The moved bundles are the builder
bundles that exercise the echelon path, and their verdicts are compared
with the unmoved ones' verdict by verdict.
"""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from qgroupoid.algebra_core import BaseEmbedding, FiniteAlgebra
from qgroupoid.balanced_tensor import NotBalanced
from qgroupoid.bialgebroid import (
    FLAVOR_LT,
    FLAVOR_QB,
    FLAVOR_QC,
    FLAVOR_RT,
    FLAVOR_TL,
    FLAVOR_TR,
    RegularMHA,
    _absorbed_descend,
    verify_regular_mha,
    verify_star,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, axpy, kron_vec, sc
from qgroupoid.integration import BaseWeight, PartialIntegral, assemble_measured
from qgroupoid.structure_theory import dual_algebra

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)

FLAVORS = (FLAVOR_QB, FLAVOR_QC, FLAVOR_TL, FLAVOR_TR, FLAVOR_LT, FLAVOR_RT)


def _outcome(call):
    """(map, None) or (None, (text, witness)) of a descent."""
    try:
        return call(), None
    except NotBalanced as e:
        return None, (str(e), e.witness)


def _full_descent(tensor, fn, message):
    """The descent of e_i (x) e_j -> fn(i, j) from tensor to itself by
    definition: the first generator, in order, whose image leaves the
    relation span raises; otherwise column q is the projected image of
    the free basis tensor q."""
    n = tensor.leg_dim

    def image(w):
        out = {}
        for idx, s in w.items():
            axpy(out, s, fn(*divmod(idx, n)))
        return out

    for gen, rel in zip(tensor.generators, tensor.relation_vectors()):
        if not tensor.space.contains_relation(image(rel)):
            raise NotBalanced(message.format(src=tensor.flavor, dst=tensor.flavor), gen)
    return LinearMap.from_function(
        tensor.dim, tensor.dim, lambda q: tensor.project(image(tensor.lift({q: ONE}))))


def _compare(tensor, op1, op2, what):
    """The sparse and the full descent of op1 (x) op2 agree; returns
    whether it descended."""
    n = tensor.leg_dim

    def leg(op, i):
        return op.col(i) if op is not None else {i: ONE}

    message = what + " does not descend between flavors {src!r} -> {dst!r}"
    sparse = _outcome(lambda: tensor.descend(op1, op2, message=message))
    full = _outcome(lambda: _full_descent(
        tensor, lambda i, j: kron_vec(leg(op1, i), leg(op2, j), n), message))
    assert sparse == full, (tensor.flavor, what)
    return sparse[1] is None


def _leg_sweep(M):
    """Every basis element, on both slots and sides of all six flavors;
    returns the set of verdicts seen."""
    A = M.A
    verdicts = set()
    for flavor in FLAVORS:
        tensor = M.tensor(flavor)
        for side, mul in (("l", A.lmul), ("r", A.rmul)):
            for k in range(A.dim):
                m = mul(k)
                for slot, (op1, op2) in ((1, (m, None)), (2, (None, m))):
                    what = "%s-multiplication by %d on leg %d" % (side, k, slot)
                    verdicts.add(_compare(tensor, op1, op2, what))
    return verdicts


@pytest.fixture(scope="module")
def p3_bundles():
    p3 = pair_groupoid([1, 2, 3])
    return build_function_algebroid(p3), build_convolution_algebroid(p3)


def test_sparse_descent_equals_full_descent(
    m_fun, m_conv, m_group, m_tensor, m_crossed, m_twosided, p3_bundles
):
    mutants = [golden_record.mutant_bundle("delta_B", 1, build_convolution_algebroid, 2),
               golden_record.mutant_bundle("S", 1, build_function_algebroid, 0)]
    verdicts = set()
    for M in (m_fun, m_conv, m_group, m_tensor, m_crossed, m_twosided,
              *p3_bundles, *mutants):
        verdicts |= _leg_sweep(M)
    assert verdicts == {True, False}


def test_off_diagonal_units_fail_on_leg_one_of_convolution(m_conv):
    # left multiplication by an arrow i <- j, i != j, on the first leg of
    # bsA(x)btA does not commute with the base acting there
    A, qb = m_conv.A, m_conv.qb
    verdicts = [_compare(qb, A.lmul(k), None, "l-multiplication") for k in range(A.dim)]
    assert verdicts.count(False) == 2 and verdicts.count(True) == 2


def test_sparse_descent_of_products_on_both_legs(m_fun, m_conv):
    # both legs multiplied, and a multiplier that is not a basis element
    for M in (m_fun, m_conv):
        A, n = M.A, M.A.dim
        u = {0: ONE, n - 1: 2}
        for tensor in (M.qb, M.qc, M.tensor(FLAVOR_TL)):
            for k in range(n):
                for j in range(n):
                    _compare(tensor, A.lmul(k), A.rmul(j), "l (x) r")
                    _compare(tensor, A.rmul(k), A.lmul(j), "r (x) l")
            _compare(tensor, A.lmul(u), None, "l-combination")
            _compare(tensor, None, A.rmul(u), "r-combination")


# -- basis change ---------------------------------------------------------------


def _transport(M, P):
    """M moved along the change of basis f_k = sum_i P[i, k] e_i of A.

    Counits and antipode are derived again by the constructor.  P must be
    rational, so that the involution v -> I conj(v) moves to P^-1 I P.
    """
    A, n, Pinv = M.A, M.A.dim, P.inverse()
    table = [[Pinv.apply(A.mul(P.col(i), P.col(j))) for j in range(n)] for i in range(n)]
    star = None if A.involution is None else Pinv.compose(A.involution).compose(P)
    A2 = FiniteAlgebra(table, labels=A.labels, involution=star)

    def embedding(emb):
        return BaseEmbedding(emb.base, A2, Pinv.compose(emb.embed), name=emb.name)

    raw_b, raw_c = (
        LinearMap.from_function(
            n * n, n, lambda k, q=q, d=d: _moved(Pinv, q.lift(d.apply(P.col(k)))))
        for q, d in ((M.qb, M.delta_B), (M.qc, M.delta_C))
    )
    return RegularMHA(A2, embedding(M.B), embedding(M.C), M.S_B, M.S_C, raw_b, raw_c,
                      name=M.name + " (basis changed)")


def _moved(Pinv, w):
    """(P^-1 (x) P^-1)(w) for w in A (x) A."""
    n, out = Pinv.rows, {}
    for idx, s in w.items():
        i, j = divmod(idx, n)
        axpy(out, s, kron_vec(Pinv.col(i), Pinv.col(j), n))
    return out


def _seeded_change(n, rng):
    """f_k = e_k + sum_(i<k) c_ik e_i, each c_ik drawn by rng from 0 (most
    often), 1, -1, 2 and 1/2."""

    def column(k):
        drawn = {i: rng.choice([0] * 8 + [1, -1, 2, sc(Fraction(1, 2))]) for i in range(k)}
        return {k: ONE, **{i: c for i, c in drawn.items() if c}}

    return LinearMap.from_function(n, n, column)


# upper unitriangular changes of basis f_k = e_k + sum_(i<k) c_ik e_i, so
# invertible and rational
_CHANGES = {
    # f_k = e_k + 2 e_(k-1)
    "shift": lambda n: LinearMap.from_function(
        n, n, lambda k: {k: ONE, **({k - 1: 2} if k else {})}),
    # f_k = e_0 + ... + e_k
    "ones": lambda n: LinearMap.from_function(n, n, lambda k: {i: ONE for i in range(k + 1)}),
    "seeded": lambda n: _seeded_change(n, random.Random(1)),
}


@pytest.fixture(scope="module", params=[build_function_algebroid, build_convolution_algebroid],
                ids=["functions-p2", "convolution-p2"])
def transported(request):
    M = request.param(pair_groupoid([1, 2]))
    P = _CHANGES["shift"](M.A.dim)
    return M, P, _transport(M, P)


_BUILDS = {"functions": build_function_algebroid, "convolution": build_convolution_algebroid}


@pytest.mark.parametrize("case", [
    "functions-p2", "convolution-p2", "functions-p2-ones", "convolution-p2-ones",
    "functions-p3-ones", "convolution-p3-ones", "functions-p3-seeded", "convolution-p3-seeded",
])
def test_basis_change_keeps_every_verdict(case):
    # the builder's bundle takes the coordinate path and the moved one the
    # echelon path, in every flavor: the moved relation span is the image
    # of the coordinate one, and every verdict is the same
    build, points, *change = case.split("-")
    M = _BUILDS[build](pair_groupoid(list(range(1, int(points[1:]) + 1))))
    P = _CHANGES[change[0] if change else "shift"](M.A.dim)
    M2, Pinv = _transport(M, P), P.inverse()
    for flavor in FLAVORS:
        q, q2 = M.tensor(flavor), M2.tensor(flavor)
        assert q.space.rref is None and q2.space.rref is not None
        assert q2.dim == q.dim
        assert all(q2.space.contains_relation(_moved(Pinv, row)) for row in q.space.relation_rows())
    assert max(len(row) for row in M2.qb.space.relation_rows()) > 1
    assert M2.S == Pinv.compose(M.S).compose(P)
    assert M2.eps_B == M.eps_B.compose(P) and M2.eps_C == M.eps_C.compose(P)
    for check in (verify_regular_mha, verify_star):
        before, after = check(M), check(M2)
        assert before.ok and after.ok
        assert ([(e.axiom, e.eq, e.status) for e in after.entries]
                == [(e.axiom, e.eq, e.status) for e in before.entries])


@pytest.mark.parametrize("case", [
    "m2", "functions-p3-ones", "convolution-p3-ones", "functions-p3-seeded",
    "convolution-p3-seeded",
])
def test_every_absorbed_multiplication_descends_on_an_echelon_quotient(case):
    # on an associative A a multiplication that Delta absorbs commutes with
    # the base actions of its leg, so it descends on any quotient: on the
    # M2 base and on the moved bundles, none of whose quotients is a
    # coordinate one, every leg operator of either half is built
    if case == "m2":
        M2 = golden_record.matrix_tensor_algebroid()
    else:
        build, points, change = case.split("-")
        M = _BUILDS[build](pair_groupoid(list(range(1, int(points[1:]) + 1))))
        M2 = _transport(M, _CHANGES[change](M.A.dim))
    assert not (M2.qb.coordinate or M2.qc.coordinate) and _absorbed_descend(M2.A)
    for q, side in ((M2.qb, "r"), (M2.qc, "l")):
        for leg in (1, 2):
            for u in range(M2.A.dim):
                q.leg_op(leg, side, u)


@pytest.mark.parametrize("build, kind, mu", [
    (build_function_algebroid, "groupoid-functions", {0: sc(1), 1: sc(4)}),
    (build_convolution_algebroid, "groupoid-convolution", {0: sc(1), 1: sc(1)}),
], ids=["functions-p2", "convolution-p2"])
def test_the_dual_of_a_moved_bundle_is_the_dual_moved(build, kind, mu):
    # the moved QB is no coordinate quotient, and the dual's translate
    # operators still read the T values from the lifted Delta_B: every
    # verdict is the same, and with the integrals moved along, the dual
    # basis f_k . phi makes the table the original's moved by P
    groupoid = pair_groupoid([1, 2])
    M = build(groupoid)
    P = _CHANGES["shift"](M.A.dim)
    M2, Pinv, n = _transport(M, P), P.inverse(), M.A.dim
    assert not M2.qb.coordinate
    weight = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    integrals = standard_integrals(kind, M, groupoid=groupoid)
    moved = [PartialIntegral(f.side, f.mapping.compose(P)) for f in integrals]
    before = dual_algebra(assemble_measured(M, weight, *integrals))
    after = dual_algebra(assemble_measured(M2, weight, *moved))
    assert before.report.ok
    assert ([(e.axiom, e.eq, e.status) for e in after.report.entries]
            == [(e.axiom, e.eq, e.status) for e in before.report.entries])
    hat = before.algebra
    assert [list(row) for row in after.algebra.table] == [
        [Pinv.apply(hat.mul(P.col(i), P.col(j))) for j in range(n)] for i in range(n)]


def test_sparse_descent_equals_full_descent_after_basis_change(transported):
    _, _, M2 = transported
    # on convolution some basis elements no longer commute with the base
    assert _leg_sweep(M2) == ({True} if M2.A.is_commutative() else {True, False})


def test_sparse_descent_of_matrix_units_after_basis_change(transported):
    # op = E_ki sends e_i to e_k and every other basis vector to zero: one
    # live column, so most relation rows touch it at an entry other than
    # their pivot, or not at all
    _, _, M2 = transported
    n = M2.A.dim
    verdicts = set()
    for flavor in FLAVORS:
        tensor = M2.tensor(flavor)
        for i in range(n):
            for k in range(n):
                unit = LinearMap(n, n, [{k: ONE} if j == i else {} for j in range(n)])
                verdicts.add(_compare(tensor, unit, None, "E_%d%d on leg 1" % (k, i)))
                verdicts.add(_compare(tensor, None, unit, "E_%d%d on leg 2" % (k, i)))
    assert verdicts == {True, False}
