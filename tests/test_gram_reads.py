"""The Gram map of a functional, built once per algebra and functional and
read by every integral theorem, and the shortcuts read from it or from
the lifted Delta.

``integration.gram_map`` memoizes G[i][j] = omega(e_i e_j) in
``FiniteAlgebra._gram``.  ``factorize`` reads its targets from G, the
positivity checks their matrix from G^T o involution, bimodule stability
is decided on one-sided moves where the base's unit acts as the
identity, ``_translate_operators`` reads the T values from the lifted
Delta and ``BalancedTensor.pure`` writes into the free positions of a
coordinate quotient.  Each must give what the direct computation gives.
"""

import pytest

from qgroupoid import cli
from qgroupoid.algebra_core import FiniteAlgebra, ModuleStructure
from qgroupoid.bialgebroid import RegularMHA, _tilde_table
from qgroupoid.examples import build_function_algebroid, pair_groupoid, standard_integrals
from qgroupoid.exact_linear import ONE, LinearMap, ev, kron_vec, sc
from qgroupoid.integration import (
    BaseWeight,
    _partial_integral_basis,
    _span,
    _stability_moves,
    _star_gram,
    assemble_measured,
    gram_map,
)
from qgroupoid.structure_theory import (
    dual_algebra,
    faithfulness_check,
    modular_automorphism,
    modular_element,
    uniqueness_check,
)

BUNDLES = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided", "m_conv_mod"]


def _algebras(M):
    """A and both bases, each once."""
    out = []
    for alg in (M.A, M.B.base, M.C.base):
        if all(alg is not a for a in out):
            out.append(alg)
    return out


def _gram_by_products(alg, omega):
    """[omega(e_i e_j)] from the table, column j the dict over i."""
    n = alg.dim
    return [{i: v for i in range(n) if (v := ev(omega, alg.table[i][j]))} for j in range(n)]


def _functionals(n):
    return [{i: sc(i + 1) for i in range(n)},
            {i: sc(1) if i % 2 else sc(-2) for i in range(n)}]


@pytest.mark.parametrize("name", BUNDLES)
def test_star_gram_equals_the_star_mul_matrix(name, request):
    # omega(e_i* e_j) read from G^T o involution, against star and mul
    M = request.getfixturevalue(name)
    checked = 0
    for alg in _algebras(M):
        if alg.involution is None:
            continue
        n = alg.dim
        for omega in _functionals(n):
            direct = [[ev(omega, alg.mul(alg.star({i: ONE}), {j: ONE})) for j in range(n)]
                      for i in range(n)]
            assert _star_gram(alg, omega) == direct
            checked += 1
    assert checked


def test_a_functional_that_is_not_positive_fails_both_positivity_entries():
    g = pair_groupoid([1, 2])
    M = build_function_algebroid(g)
    phi, psi = standard_integrals("groupoid-functions", M, groupoid=g)
    mu = {0: sc(1), 1: sc(-4)}
    X = assemble_measured(M, BaseWeight(mu_B=dict(mu), mu_C=dict(mu)), phi, psi)
    assert X.report.status_of("weight:positive") == "fail"
    assert X.report.status_of("totals-positive") == "fail"
    mu = {0: sc(1), 1: sc(4)}
    X = assemble_measured(M, BaseWeight(mu_B=dict(mu), mu_C=dict(mu)), phi, psi)
    assert X.report.status_of("weight:positive") == "pass"
    assert X.report.status_of("totals-positive") == "pass"


# -- bimodule stability ------------------------------------------------------------


def _stable(basis, moves):
    span = _span(basis)
    return all(span.contains(m.compose(op).flat()) for m in basis for op in moves)


def _structs(M, side):
    letter = "B" if side == "left" else "C"
    return M._struct("l", letter), M._struct("r", letter)


def _two_sided(left, right):
    return [x.compose(x2) for x2 in right.acts for x in left.acts]


def _sum(f, g):
    return LinearMap.combination(f.rows, f.cols, [(ONE, f), (ONE, g)])


@pytest.mark.parametrize("name", BUNDLES)
def test_one_sided_stability_agrees_with_the_two_sided_scan(name, request):
    M = request.getfixturevalue(name)
    unstable = 0
    for side in ("left", "right"):
        left, right = _structs(M, side)
        moves = _stability_moves(left, right)
        assert len(moves) == len(left.acts) + len(right.acts)  # the gate holds
        basis = _partial_integral_basis(M, side)
        mixed = [_sum(basis[0], basis[-1])]  # for a basis of one map per unit, not stable
        for span in (basis, basis[:1], basis[1:], mixed):
            verdict = _stable(span, moves)
            assert verdict == _stable(span, _two_sided(left, right))
            unstable += not verdict
    if name == "m_fun":
        assert unstable  # a span that is not stable is decided too


def test_stability_keeps_the_two_sided_scan_where_the_unit_is_not_the_identity(m_fun):
    left, right = _structs(m_fun, "left")
    n = m_fun.A.dim
    # only the first base element acts: the unit acts as a projection
    partial = ModuleStructure(left.base, left.total,
                              [left.acts[0]] + [LinearMap.zero(n, n)] * (len(left.acts) - 1),
                              left.side)
    moves = _stability_moves(partial, right)
    assert moves == _two_sided(partial, right)
    basis = _partial_integral_basis(m_fun, "left")
    mixed = [_sum(basis[0], basis[-1])]
    for span in (basis, basis[:1], mixed):
        assert _stable(span, moves) == _stable(span, _two_sided(partial, right))
    # the gate is needed: with no left action every two-sided move is 0,
    # while a one-sided scan would still test the right moves
    zero = ModuleStructure(left.base, left.total, [LinearMap.zero(n, n)] * len(left.acts),
                           left.side)
    assert _stable(mixed, _stability_moves(zero, right))
    assert not _stable(mixed, zero.acts + right.acts)


# -- the lifted T values and pure tensors ----------------------------------------------


@pytest.mark.parametrize("name", ["m_fun", "m_conv", "m_conv_mod", "m_group"])
def test_lifted_tildes_equal_the_absorbed_values(name, request, leg_op_by_components):
    # every value of the table builder, for all four maps, against the
    # independent oracle's multiplication by e_u on the map's leg, applied
    # to Delta(d)
    M = request.getfixturevalue(name)
    assert M.qb.coordinate and M.qc.coordinate
    n = M.A.dim
    for which, (letter, leg, side) in RegularMHA._TILDES.items():
        q, delta = (M.qb, M.delta_B) if letter == "B" else (M.qc, M.delta_C)
        tildes = _tilde_table(M, which)
        for u in range(n):
            op = leg_op_by_components(q, leg, side, {u: ONE})
            assert all(tildes[u][d] == op.apply(delta.col(d)) for d in range(n)), (which, u)


@pytest.mark.parametrize("name", ["m_fun", "m_conv", "m_tensor", "m_crossed"])
def test_pure_tensor_on_a_coordinate_quotient_is_the_projected_kron(name, request):
    M = request.getfixturevalue(name)
    n = M.A.dim
    u, v = {0: sc(2), n - 1: sc(-1)}, {i: sc(i + 1) for i in range(n)}
    for q in (M.qb, M.qc):
        assert q.pure(u, v) == q.project(kron_vec(u, v, n))


# -- one Gram map per functional ------------------------------------------------------


class _CountingMemo(dict):
    """A ``FiniteAlgebra._gram`` that logs each Gram map stored in it."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __setitem__(self, key, value):
        self.log.append((self, key))
        super().__setitem__(key, value)


@pytest.mark.parametrize("example, recipe, totals", [("functions", "identity", 2),
                                                     ("convolution", "groupoid_rn", 1)])
def test_a_measure_run_builds_one_gram_map_and_one_solver_per_functional(
        example, recipe, totals, monkeypatch, tmp_path):
    builds, solved = [], []
    init = FiniteAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._gram = _CountingMemo(builds)

    get_solver = LinearMap._get_solver

    def counting_solver(self):
        if self._solver is None:
            solved.append(self)
        return get_solver(self)

    monkeypatch.setattr(FiniteAlgebra, "__init__", counting_init)
    monkeypatch.setattr(LinearMap, "_get_solver", counting_solver)
    out = str(tmp_path / "measure.jsonl")
    assert cli.main(["measure", "--example", example, "--pair-groupoid", "1,2",
                     "--mu", "1,4", "--recipe", recipe, "--out", out]) == 0
    # each (algebra, functional) is built once: on A phi and psi (one map
    # when the modified convolution algebra makes them equal), on each base
    # its weight
    assert len(builds) == len({(id(memo), key) for memo, key in builds})
    memos = list({id(memo): memo for memo, _ in builds}.values())
    assert sorted((len(next(iter(m.values()))[0].data), len(m)) for m in memos) == [
        (2, 1), (2, 1), (4, totals)]
    # faithfulness, sigma and the modular element solve phi's one map; each
    # weight's map serves faithfulness and both factorizations
    for memo in memos:
        for gram, _ in memo.values():
            assert sum(m is gram for m in solved) == 1
    # the transposes too: as many solvers were built on maps equal to a
    # stored G or G^T as there are stored copies of it, and G^T is kept as
    # G itself where G is symmetric
    stored = [m for memo in memos for gram, gram_t in memo.values()
              for m in ((gram,) if gram_t is None or gram_t is gram else (gram, gram_t))]
    for gram in stored:
        for value in (gram, gram.transpose()):
            assert sum(m == value for m in solved) == sum(m == value for m in stored)


def test_no_reader_mutates_a_shared_gram_column(x_conv_mod, x_fun_14):
    for X in (x_conv_mod, x_fun_14):
        modular_automorphism(X, "left")
        modular_automorphism(X, "right")
        modular_element(X)
        uniqueness_check(X)
        faithfulness_check(X)
        dual_algebra(X)
        for alg in _algebras(X.M):
            assert alg._gram
            for key, (gram, gram_t) in alg._gram.items():
                assert list(gram.data) == _gram_by_products(alg, dict(key))
                assert gram_t is None or gram_t == gram.transpose()
        assert gram_map(X.M.A, X.phi.omega) is gram_map(X.M.A, dict(X.phi.omega))
