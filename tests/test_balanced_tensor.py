"""Balanced tensor quotients, slices, flips."""

import importlib.util
import os

import pytest

from qgroupoid import (
    BaseWeight,
    assemble_measured,
    balanced_tensor,
    bialgebroid,
    modify,
    modular_automorphism,
    standard_integrals,
    verify_regular_mha,
)
from qgroupoid.algebra_core import FiniteAlgebra, ModuleStructure
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
    _coassociativity_blocks,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    cyclic_group_table,
    group_groupoid,
    pair_groupoid,
)
from qgroupoid.exact_linear import (
    ONE,
    LinearMap,
    Rref,
    ScalarField,
    axpy,
    kron_vec,
    unstack,
    vsub,
)
from qgroupoid.modification import groupoid_rn_modifier

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


def test_leg_multiplications_descend(m_fun, leg_op_by_components):
    qb = m_fun.qb
    # descending is checked internally; any failure raises NotBalanced
    for j in range(m_fun.A.dim):
        leg_op_by_components(qb, 1, "r", {j: ONE})
        leg_op_by_components(qb, 2, "r", {j: ONE})
    qc = m_fun.qc
    for j in range(m_fun.A.dim):
        leg_op_by_components(qc, 1, "l", {j: ONE})
        leg_op_by_components(qc, 2, "l", {j: ONE})


def test_counit_slice_recovers_product(m_fun, leg_op_by_components):
    # the left-counit slice of Delta(f)(1 (x) g) is f g, all basis pairs
    qb = m_fun.qb
    A = m_fun.A
    sl = qb.slice(m_fun._struct("l", "SB"), m_fun.eps_B, 1)
    for f in range(A.dim):
        df = m_fun.delta_B.col(f)
        for g in range(A.dim):
            times_g = leg_op_by_components(qb, 2, "r", {g: ONE})
            assert sl.apply(times_g.apply(df)) == A.mul({f: ONE}, {g: ONE})


def test_zero_slice(m_fun):
    zero = LinearMap.zero(m_fun.B.base.dim, m_fun.A.dim)
    sl = m_fun.qb.slice(m_fun._struct("l", "SB"), zero, 1)
    assert sl.is_zero()


def test_unbalanced_slice_rejected_with_witness(m_fun):
    # sends the (1,2)-arrow coefficient to the first base element: not a module map
    bad = LinearMap.from_rows([[0, 1, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NotBalanced) as exc:
        m_fun.qb.slice(m_fun._struct("l", "SB"), bad, 1)
    assert exc.value.witness is not None


def test_repeated_slice_and_flip_equal_a_fresh_descent():
    M = build_function_algebroid(pair_groupoid([1, 2]))
    A, n, qb = M.A, M.A.dim, M.qb
    omega = M.emb_SB().compose(M.eps_B)
    first = qb.slice(M._struct("l", "SB"), M.eps_B, 1)
    # an equal mapping built anew, and another caller's text, hit the same entry
    anew = LinearMap(M.eps_B.rows, n, [dict(col) for col in M.eps_B.data])
    again = qb.slice(M._struct("l", "SB"), anew, 1, what="another slice")
    assert again is first
    assert again == descend_componentwise(
        qb, None, lambda i, j: A.mul(omega.col(i), {j: ONE}), "{src!r}")
    assert qb.slice(M._struct("r", "SB"), M.eps_B, 1) == descend_componentwise(
        qb, None, lambda i, j: A.mul({j: ONE}, omega.col(i)), "{src!r}")
    dom_tr, dom_rt = M.tensor(FLAVOR_TR), M.tensor(FLAVOR_RT)
    f = dom_tr.flip_to(dom_rt)
    assert dom_tr.flip_to(dom_rt) is f
    assert f == descend_componentwise(dom_tr, dom_rt, lambda i, j: {j * n + i: ONE}, "{src!r}")


def test_failed_slice_is_memoized_and_raised_with_each_callers_message(monkeypatch):
    M = build_function_algebroid(pair_groupoid([1, 2]))
    bad = LinearMap.from_rows([[0, 1, 0, 0], [0, 0, 0, 0]])
    descents, descend = [], balanced_tensor.descend_componentwise

    def counted(*args, **kwargs):
        descents.append(None)
        return descend(*args, **kwargs)

    monkeypatch.setattr(balanced_tensor, "descend_componentwise", counted)
    witnesses = []
    for what in ("first caller", "second caller"):
        with pytest.raises(NotBalanced) as exc:
            M.qb.slice(M._struct("l", "SB"), bad, 1, what=what)
        assert str(exc.value).startswith(what + " is not balanced for flavor")
        witnesses.append(exc.value.witness)
    # the second call checked nothing and named the same first failing generator
    assert len(descents) == 1
    assert witnesses[0] is not None and witnesses[0] == witnesses[1]
    assert str(exc.value) == "second caller is not balanced for flavor %r; witness relation %s" % (
        M.qb.flavor, witnesses[0])


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
        n3 = M.A.dim ** 3
        sides = [pair for _, _, L, R in _coassociativity_blocks(M, kind, [1])
                 for pair in zip(unstack(L, n3, M.A.dim), unstack(R, n3, M.A.dim))]
        shifted = [(lhs, rhs) for (lhs, _), (_, rhs) in zip(sides, sides[1:] + sides[:1])]
        verdicts = [triple.reduce(lhs) == triple.reduce(rhs) for lhs, rhs in sides + shifted]
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


def _slice_map(struct, mapping, leg):
    """e_i (x) e_j -> the value of mapping on leg ``leg`` acting on the
    other leg's basis element through struct: the map ``slice`` descends."""
    def fn(i, j):
        c, d = (i, j) if leg == 1 else (j, i)
        return struct.act(mapping.col(c), {d: ONE})
    return fn


@pytest.mark.parametrize("mutant", _MUTANTS, ids=_mutant_id)
def test_accepted_descent_sends_every_generator_into_the_target(mutant, descents, monkeypatch):
    # the checked descents, and the slices, most of them decided on the weights
    points, build, kind, col, add_col = mutant
    slices, real = [], BalancedTensor.slice

    def spy(self, struct, mapping, leg, what="slice"):
        out = real(self, struct, mapping, leg, what)
        slices.append((self, None, _slice_map(struct, mapping, leg), False, None))
        return out

    monkeypatch.setattr(BalancedTensor, "slice", spy)
    verify_regular_mha(golden_record.mutant_bundle(kind, col, build, add_col, points))
    accepted = [call for call in descents + slices if call[4] is None]
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
    # a mapping with one non-empty column: the counit's column i alone,
    # and with a base unit added at some k, acting through t from either
    # side.  The slice visits only the basis tensors whose consumed leg is
    # i, and must decide as a generator scan
    M = build(pair_groupoid([1, 2, 3]))
    A, n, dim = M.A, M.A.dim, M.B.base.dim
    t = M.emb_SB()
    verdicts = set()
    for tensor in (M.qb, M.qc):
        for leg in (1, 2):
            for kind in ("l", "r"):
                for i in range(n):
                    for k in (None, *range(dim)):
                        col = dict(M.eps_B.col(i))
                        if k is not None:
                            axpy(col, ONE, {k: ONE})
                        if not col:
                            continue
                        mapping = LinearMap(dim, n, [col if j == i else {} for j in range(n)])

                        def sliced(a, b, leg=leg, kind=kind, mapping=mapping):
                            c, d = (a, b) if leg == 1 else (b, a)
                            val = t.apply(mapping.col(c))
                            return A.mul(val, {d: ONE}) if kind == "l" else A.mul({d: ONE}, val)

                        expected = _first_failing_generator(tensor, None, sliced)
                        try:
                            got = tensor.slice(M._struct(kind, "SB"), mapping, leg)
                            witness = None
                        except NotBalanced as e:
                            witness = e.witness
                        assert witness == expected, (tensor.flavor, leg, kind, i, k)
                        if witness is None:
                            assert got == descend_componentwise(tensor, None, sliced, "{src!r}")
                        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_failing_leg_descents_are_not_checked_again(monkeypatch):
    # on the M2 tensor algebroid, s(e12) = e12 (x) 1 and its siblings are
    # sums of basis elements that do not descend one by one; a second run
    # of both suites reads those failures from the memo (2,700 relation
    # tests when only successful descents were stored, 128 since) and
    # reports what the first run did
    M = golden_record.matrix_tensor_algebroid()
    suites = (bialgebroid.verify_left_bialgebroid, bialgebroid.verify_right_bialgebroid)
    calls, contains = [], balanced_tensor.QuotientSpace.contains_relation

    def counted(self, w):
        calls.append(None)
        return contains(self, w)

    monkeypatch.setattr(balanced_tensor.QuotientSpace, "contains_relation", counted)
    first = [suite(M).to_json_lines() for suite in suites]
    calls.clear()
    second = [suite(M).to_json_lines() for suite in suites]
    assert second == first
    assert len(calls) <= 128


def _tensor_map(src, op1, op2, swap=False):
    """e_i (x) e_j -> op1(e_i) (x) op2(e_j), or with swap op2(e_j) (x)
    op1(e_i), None the identity: the map ``descend`` descends."""
    n = src.leg_dim

    def leg(op, i):
        return {i: ONE} if op is None else op.col(i)

    if swap:
        return lambda i, j: kron_vec(leg(op2, j), leg(op1, i), n)
    return lambda i, j: kron_vec(leg(op1, i), leg(op2, j), n)


@pytest.fixture
def module_map_descents(monkeypatch):
    """Every descent ``BalancedTensor.descend`` decides by the module-map
    test, as (src, dst, fn, the descended map)."""
    calls = []
    descend = BalancedTensor.descend

    def spy(self, op1, op2, message, target=None, swap=False):
        out = descend(self, op1, op2, message, target, swap)
        dst = target or self
        if self._module_maps(dst, op1, op2, swap):
            calls.append((self, dst, _tensor_map(self, op1, op2, swap), out))
        return out

    monkeypatch.setattr(BalancedTensor, "descend", spy)
    return calls


def _galois_descents(M):
    """The descents the Galois diagrams of verify build where their gate
    declines: id (x) S, S (x) id and flip o (S (x) S) between the
    canonical maps' tensors."""
    canon, S = M.canonical(), M.S
    for outer, inner, ops in (("T_rho", "rho_T", (None, S)), ("lambda_T", "T_lambda", (S, None))):
        bialgebroid._codomain(M, inner).descend(*ops, "{src!r}", canon[outer][1])
        canon[inner][1].descend(*ops, "{src!r}", bialgebroid._codomain(M, outer))
    for src, dst in (("T_lambda", "rho_T"), ("lambda_T", "T_rho")):
        bialgebroid._sigma_ss(M, canon[src][1], canon[dst][1])
        bialgebroid._sigma_ss(M, bialgebroid._codomain(M, src), bialgebroid._codomain(M, dst))


def _measured_p2(build, kind, mu):
    """verify and the Galois descents, the measured bundle with weight mu
    on both bases and both modular automorphisms of a fresh p2 instance:
    leg multiplications, flips and modular twists."""
    g = pair_groupoid([1, 2])
    M = build(g)
    verify_regular_mha(M)
    _galois_descents(M)
    weight = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    X = assemble_measured(M, weight, *standard_integrals(kind, M, groupoid=g))
    for side in ("left", "right"):
        modular_automorphism(X, side)


def _modified_p2():
    """groupoid_rn on convolution p2 with weights 1 and 2: twists by
    sqrt(2), the modified bundle verified inside ``modify``, and its
    Galois descents."""
    g = pair_groupoid([1, 2])
    mod, _ = groupoid_rn_modifier(g, {0: 1, 1: 2}, ScalarField((2,)))
    _galois_descents(modify(build_convolution_algebroid(g), mod))


def _verified(build):
    """verify on a fresh bundle, then its Galois descents."""
    def run():
        M = build()
        verify_regular_mha(M)
        _galois_descents(M)
    return run


_MODULE_MAP_RUNS = {
    "functions-p2": lambda: _measured_p2(
        build_function_algebroid, "groupoid-functions", {0: 1, 1: 4}),
    "convolution-p2": lambda: _measured_p2(
        build_convolution_algebroid, "groupoid-convolution", {0: 1, 1: 1}),
    "functions-p3": _verified(lambda: build_function_algebroid(pair_groupoid([1, 2, 3]))),
    "convolution-p3": _verified(lambda: build_convolution_algebroid(pair_groupoid([1, 2, 3]))),
    "z2": _verified(lambda: build_convolution_algebroid(group_groupoid(*cyclic_group_table(2)))),
    "crossed": _verified(lambda: dict(golden_record._antipode_bundles())["crossed"]),
    "two-sided": _verified(lambda: dict(golden_record._antipode_bundles())["two-sided"]),
    "tensor-matrix-units": _verified(golden_record.matrix_tensor_algebroid),
    "groupoid_rn-modified": _modified_p2,
}


@pytest.mark.parametrize("run", sorted(_MODULE_MAP_RUNS))
def test_module_map_descents_equal_the_checked_descent(run, module_map_descents):
    # a descent accepted by the module-map test sends every generator into
    # the target and is the map the relation-checked descent builds
    _MODULE_MAP_RUNS[run]()
    assert module_map_descents
    for src, dst, fn, got in module_map_descents:
        assert _first_failing_generator(src, dst, fn) is None
        assert got == descend_componentwise(src, dst, fn, "{src!r}")


def _module_maps_by_composites(src, dst, op1, op2, swap):
    """The module-map test on the action maps, with no weights: op o
    acts[x] == acts'[x] o op on both legs, None the identity."""
    outs = (dst.struct2, dst.struct1) if swap else (dst.struct1, dst.struct2)
    if src.struct1.base.dim != outs[0].base.dim:
        return False
    ident = LinearMap.identity(src.leg_dim)
    return all((op or ident).compose(f) == g.compose(op or ident)
               for op, struct, out in zip((op1, op2), (src.struct1, src.struct2), outs)
               for f, g in zip(struct.acts, out.acts))


@pytest.mark.parametrize("run", sorted(_MODULE_MAP_RUNS))
def test_weight_test_agrees_with_the_composite_test(run, monkeypatch):
    # every descent of the run, and the matrix units e_i -> e_k on either
    # leg between the same two tensors, flips (swap) included: most units
    # move a basis element to one of another weight and fail the test
    calls = []
    descend = BalancedTensor.descend

    def spy(self, op1, op2, message, target=None, swap=False):
        calls.append((self, target or self, op1, op2, swap))
        return descend(self, op1, op2, message, target, swap)

    monkeypatch.setattr(BalancedTensor, "descend", spy)
    _MODULE_MAP_RUNS[run]()
    monkeypatch.undo()
    by_weights = {src.struct1.weights is not None and dst.struct1.weights is not None
                  for src, dst, *_ in calls}
    assert by_weights == ({False} if run == "tensor-matrix-units" else {True})
    def units(n):
        return [LinearMap(n, n, [{k: ONE} if j == i else {} for j in range(n)])
                for i in range(n) for k in range(n)]

    pairs = {(src, dst, swap) for src, dst, _, _, swap in calls}
    cases = calls + [(src, dst, op1, op2, swap) for src, dst, swap in pairs
                     for unit in units(src.leg_dim) for op1, op2 in ((unit, None), (None, unit))]
    verdicts = set()
    for src, dst, op1, op2, swap in cases:
        verdict = src._module_maps(dst, op1, op2, swap)
        assert verdict == _module_maps_by_composites(src, dst, op1, op2, swap)
        verdicts.add(verdict)
    # Z2's base is one-dimensional: every basis element has the same weight
    assert verdicts == ({True} if run == "z2" else {True, False})
    assert any(swap for *_, swap in calls)


def test_passing_verify_on_diagonal_bases_builds_no_relation(monkeypatch):
    # convolution p3: every base acts diagonally, so no relation generator
    # is made and no pair tensor's echelon gets a row by elimination
    generated, added = [], []
    relations, add = balanced_tensor._relations, Rref.add

    def counted_relations(*args):
        generated.append(None)
        return relations(*args)

    def counted_add(self, v):
        added.append(self)
        return add(self, v)

    monkeypatch.setattr(balanced_tensor, "_relations", counted_relations)
    monkeypatch.setattr(Rref, "add", counted_add)
    M = build_convolution_algebroid(pair_groupoid([1, 2, 3]))
    assert verify_regular_mha(M).ok
    monkeypatch.undo()
    assert not generated
    pair_echelons = [vars(M.tensor(f).space).get("rref") for f in M._tensors]
    assert not any(r is e for r in added for e in pair_echelons)


def test_descents_outside_the_module_map_test_fall_back_to_the_checked_descent(descents):
    # functions p2: op1 the matrix unit e_a -> e_k, op2 the projection onto
    # e_b.  Every pair is decided as a generator scan decides it.  A unit
    # that moves an arrow's end point is no module map, yet the pair
    # descends when a and b compose: e_a (x) e_b, the one basis tensor
    # the map moves, then lies in no relation
    M = build_function_algebroid(pair_groupoid([1, 2]))
    qb, n = M.qb, M.A.dim
    verdicts = set()
    for k in range(n):
        for a in range(n):
            for b in range(n):
                op1 = LinearMap(n, n, [{k: ONE} if j == a else {} for j in range(n)])
                op2 = LinearMap(n, n, [{b: ONE} if j == b else {} for j in range(n)])
                fn = _tensor_map(qb, op1, op2)
                fast = qb._module_maps(qb, op1, op2, False)
                expected = _first_failing_generator(qb, qb, fn)
                descents.clear()
                try:
                    got, witness = qb.descend(op1, op2, "{src!r}"), None
                except NotBalanced as e:
                    witness = e.witness
                assert witness == expected, (k, a, b)
                assert len(descents) == (0 if fast else 1), (k, a, b)
                if witness is None:
                    assert got == descend_componentwise(qb, qb, fn, "{src!r}")
                verdicts.add((fast, witness is None))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_tensors_over_bases_of_different_dimension_do_not_take_the_module_map_test(descents):
    # functions p3 balanced over the full base of three objects, and over
    # the one-dimensional base acting as the first object's projection:
    # the action maps of base index 0 agree, so a test reading only the
    # indices both bases have would accept the identity both ways
    M = build_function_algebroid(pair_groupoid([1, 2, 3]))
    qb = M.qb
    point = FiniteAlgebra.pointwise(["x0"])
    s1, s2 = (ModuleStructure(point, M.A, [s.acts[0]], s.side) for s in (qb.struct1, qb.struct2))
    coarse = BalancedTensor(M.A, s1, s2, "coarse")
    verdicts = []
    for src, dst in ((qb, coarse), (coarse, qb)):
        assert not src._module_maps(dst, None, None, False)
        fn = _tensor_map(src, None, None)
        descents.clear()
        try:
            got, witness = src.descend(None, None, "{src!r}", dst), None
        except NotBalanced as e:
            witness = e.witness
        assert len(descents) == 1 and witness == _first_failing_generator(src, dst, fn)
        if witness is None:
            assert got == descend_componentwise(src, dst, fn, "{src!r}")
        verdicts.append(witness is None)
    # the finer relations do not hold in the coarse quotient; the coarse do in the fine
    assert verdicts == [False, True]


def test_verify_takes_the_checked_descent_only_for_the_counit_slices(descents):
    # convolution p3: every leg multiplication, Galois-inverse descent and
    # flip o (S (x) S) passes the module-map test, and only the four
    # counit slices are checked on relations (60 checked descents when
    # every f (x) g map was).  A change that disables the test, such as
    # LinearMap equality no longer normalizing entries, fails here
    verify_regular_mha(build_convolution_algebroid(pair_groupoid([1, 2, 3])))
    assert len(descents) <= 4
