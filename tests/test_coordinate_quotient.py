"""Balanced tensors over diagonal base actions are coordinate quotients.

When every action map of both module structures is diagonal in A's
basis, act[x] e_a = lambda_x(a) e_a, the relation generator at (x, a, b)
is (lambda_x(a) - mu_x(b)) e_a (x) e_b.  The relation span is then the
span of the basis tensors whose weights differ, and ``BalancedTensor``
builds it as ``QuotientSpace.coordinate`` with no elimination.  The
reference here is the echelon of the relation vectors themselves,
``QuotientSpace(n * n, relation_vectors())``: both quotients must have the
same relation rows, free coordinates and dimension, and must project,
reduce, test relations and find the rows touching a coordinate alike.
A coordinate quotient keeps no echelon (``space.rref is None``): its
relation rows are made from its free coordinates as they are read.
"""

import importlib.util
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroupoid.algebra_core import FiniteAlgebra, ModuleStructure
from qgroupoid.balanced_tensor import BalancedTensor, _intertwines
from qgroupoid.bialgebroid import (
    FLAVOR_LT,
    FLAVOR_QB,
    FLAVOR_QC,
    FLAVOR_RT,
    FLAVOR_TL,
    FLAVOR_TR,
    verify_regular_mha,
    verify_star,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
)
from qgroupoid.integration import solve_partial_integrals
from qgroupoid.modification import groupoid_rn_modifier, modify
from qgroupoid.exact_linear import (
    ONE,
    ZERO,
    LinearMap,
    QuotientSpace,
    Scalar,
    sc,
    vsub,
)

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)

FLAVORS = (FLAVOR_QB, FLAVOR_QC, FLAVOR_TL, FLAVOR_TR, FLAVOR_LT, FLAVOR_RT)

_VALUES = (ONE, -ONE, sc(2), Scalar.rational(0, 1), Scalar.root_term(2))


def _random_vector(rng, dim, size):
    return {j: rng.choice(_VALUES) for j in rng.sample(range(dim), min(size, dim))}


def _rows_by_pivot(space):
    """space's relation rows by pivot, the least index of a reduced row."""
    return {min(row): row for row in space.relation_rows()}


def _assert_same_quotient(space, ref, rng, generators=()):
    """space and ref are the same quotient: relation rows, free
    coordinates and dimension, and they agree on random vectors, on their
    relation parts and on each relation generator."""
    assert _rows_by_pivot(space) == _rows_by_pivot(ref) == ref.rref.rows
    assert list(ref.relation_rows()) == list(ref.rref.rows.values())
    assert (space.free, space.free_pos, space.dim) == (ref.free, ref.free_pos, ref.dim)
    dim = space.ambient_dim
    for size in (1, 2, 3, 5, 8):
        v = _random_vector(rng, dim, size)
        assert space.project(v) == ref.project(v)
        assert space.lift(space.project(v)) == ref.lift(ref.project(v))
        assert space.contains_relation(v) == ref.contains_relation(v)
        coords = rng.sample(range(dim), min(size, dim))
        assert space.rows_touching(coords) == ref.rows_touching(coords)
        relation = vsub(v, space.lift(space.project(v)))
        assert space.contains_relation(relation) and ref.contains_relation(relation)
        assert space.contains_relation(v) == (not space.project(v))
    for rel in generators:
        assert space.contains_relation(rel) and ref.contains_relation(rel)
        assert space.project(rel) == ref.project(rel) == {}
        assert space.rows_touching(rel) == ref.rows_touching(rel)


def _echelon_reference(tensor):
    return QuotientSpace(tensor.leg_dim ** 2, tensor.relation_vectors())


def _assert_tensor_is_its_echelon_quotient(tensor, rng):
    _assert_same_quotient(tensor.space, _echelon_reference(tensor), rng,
                          tensor.relation_vectors())


@pytest.fixture(scope="module")
def p3_bundles():
    p3 = pair_groupoid([1, 2, 3])
    return build_function_algebroid(p3), build_convolution_algebroid(p3)


def test_coordinate_quotient_equals_the_echelon_quotient_on_every_builder_fixture(
    m_fun, m_conv, m_group, m_tensor, m_crossed, m_twosided, p3_bundles
):
    rng = random.Random(19)
    for M in (m_fun, m_conv, m_group, m_tensor, m_crossed, m_twosided, *p3_bundles):
        for flavor in FLAVORS:
            tensor = M.tensor(flavor)
            assert tensor.struct1.weights is not None and tensor.struct2.weights is not None
            assert tensor.space.rref is None, (M.name, flavor)
            _assert_tensor_is_its_echelon_quotient(tensor, rng)


def test_the_pipeline_builds_no_echelon_on_a_coordinate_tensor():
    # verify, the star laws, both partial-integral solves and modify read
    # every relation row of a coordinate tensor from its free coordinates:
    # on convolution p4 neither bundle's six tensors ever holds an echelon
    g = pair_groupoid([1, 2, 3, 4])
    M = build_convolution_algebroid(g)
    assert verify_regular_mha(M).ok and verify_star(M).ok
    for side in ("left", "right"):
        basis, rep = solve_partial_integrals(M, side)
        assert basis and rep.ok
    mod, _ = groupoid_rn_modifier(g, {u: (u + 1) ** 2 for u in range(4)})
    Mt = modify(M, mod)
    for bundle in (M, Mt):
        assert set(bundle._tensors) == set(FLAVORS), bundle.name
        for flavor, tensor in bundle._tensors.items():
            assert tensor.coordinate and tensor.space.rref is None, (bundle.name, flavor)


def test_matrix_unit_bases_take_the_echelon_path():
    # M2 acts by multiplication with matrix units, which are not diagonal
    M = golden_record.matrix_tensor_algebroid()
    for flavor in FLAVORS:
        tensor = M.tensor(flavor)
        assert tensor.struct1.weights is None or tensor.struct2.weights is None
        assert tensor.space.rref is not None
        assert _rows_by_pivot(tensor.space) == _echelon_reference(tensor).rref.rows


# eigenvalues of the random diagonal actions: zero and radicals, few of
# them, so that weights of different basis elements often agree
_eigenvalue = st.sampled_from([ZERO, Scalar.root_term(2), ONE + Scalar.root_term(3)])


@st.composite
def _diagonal_structures(draw):
    """Two diagonal actions of a k-dimensional base on an n-dimensional
    algebra, and an n x n map whose columns have at most two entries."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    A = FiniteAlgebra.pointwise(["a%d" % i for i in range(n)])
    base = FiniteAlgebra.pointwise(["x%d" % i for i in range(k)])

    def diagonal():
        values = draw(st.lists(_eigenvalue, min_size=n, max_size=n))
        return LinearMap(n, n, [{a: s} for a, s in enumerate(values)])

    s1, s2 = (ModuleStructure(base, A, [diagonal() for _ in range(k)], side)
              for side in ("left", "right"))
    entry = st.sampled_from([ONE, -Scalar.root_term(2)])
    column = st.dictionaries(st.integers(0, n - 1), entry, max_size=2)
    op = LinearMap(n, n, draw(st.lists(column, min_size=n, max_size=n)))
    return A, s1, s2, op


def _intertwines_by_composites(op, struct, out):
    ident = LinearMap.identity(struct.total.dim)
    op = ident if op is None else op
    return all(op.compose(f) == g.compose(op) for f, g in zip(struct.acts, out.acts))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_diagonal_structures(), st.integers(0, 2 ** 16))
def test_random_diagonal_actions_give_the_echelon_quotient(drawn, seed):
    A, s1, s2, op = drawn
    tensor = BalancedTensor(A, s1, s2, "random")
    assert tensor.space.rref is None
    _assert_tensor_is_its_echelon_quotient(tensor, random.Random(seed))
    # the weight test for module maps agrees with the composites, on op,
    # on the identity and on op cut down to its entries between equal weights
    for struct, out in ((s1, s2), (s2, s1), (s1, s1)):
        w_in, w_out = struct.weights, out.weights
        kept = LinearMap(op.rows, op.cols, [{b: s for b, s in col.items() if w_out[b] == w_in[a]}
                                            for a, col in enumerate(op.data)])
        for f in (op, None, kept):
            assert _intertwines(f, struct, out) == _intertwines_by_composites(f, struct, out)
        assert _intertwines_by_composites(kept, struct, out)
