"""The dual algebra's convolution operators and bimodule identities.

``structure_theory._translate_operators`` builds rho and lambda of every
translate e_b . phi from phi's own two slices; each must equal the
operator ``convolution`` builds from the factorized translate.  The
``bimodule-identities`` entry is decided on algebra generators of the
dual; it must equal the full (i, j) scan, witness included.
"""

import pytest

from qgroupoid import structure_theory
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, sc
from qgroupoid.integration import BaseWeight, assemble_measured, gram_map
from qgroupoid.modification import groupoid_rn_modifier, modify
from qgroupoid.algebra_core import generating_basis
from qgroupoid.structure_theory import (
    _translate_operators,
    convolution,
    dual_algebra,
)

P3 = pair_groupoid([1, 2, 3])
WEIGHT_P3 = BaseWeight(mu_B={0: sc(1), 1: sc(4), 2: sc(9)},
                       mu_C={0: sc(1), 1: sc(4), 2: sc(9)})


@pytest.fixture(scope="module")
def x_fun_p3():
    M = build_function_algebroid(P3)
    return assemble_measured(M, WEIGHT_P3, *standard_integrals(
        "groupoid-functions", M, groupoid=P3))


@pytest.fixture(scope="module")
def x_conv_mod_p3():
    """Convolution p3 after ``groupoid_rn`` with the weights 1, 4, 9."""
    mod, _ = groupoid_rn_modifier(P3, dict(WEIGHT_P3.mu_B))
    M = modify(build_convolution_algebroid(P3), mod)
    return assemble_measured(M, WEIGHT_P3, *standard_integrals(
        "groupoid-convolution", M, groupoid=P3))


@pytest.fixture(scope="module")
def x_h4(m_h4_crossed):
    """Sweedler's H4 over a point, with phi = (gx)* and psi = x*."""
    point = BaseWeight(mu_B={0: ONE}, mu_C={0: ONE})
    phi_c = LinearMap(1, 4, [{}, {}, {}, {0: ONE}])
    psi_b = LinearMap(1, 4, [{}, {}, {0: ONE}, {}])
    return assemble_measured(m_h4_crossed, point, phi_c, psi_b)


MEASURED = ["x_fun_14", "x_fun_p3", "x_conv_uniform", "x_group", "x_conv_mod_p3", "x_h4"]


@pytest.mark.parametrize("fixture", MEASURED)
def test_translate_operators_equal_convolution_of_each_translate(request, fixture):
    X = request.getfixturevalue(fixture)
    translates = gram_map(X.M.A, X.phi.omega).data  # column b is e_b . phi
    ops = _translate_operators(X)
    assert len(ops) == X.M.A.dim
    for b, (rho, lam) in enumerate(ops):
        assert rho == convolution(X, translates[b], "rho").operator, b
        assert lam == convolution(X, translates[b], "lambda").operator, b


class _CountedStores(dict):
    """A memo that records every key stored into it."""

    def __init__(self, stored):
        super().__init__()
        self.stored = stored

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_one_dual_builds_each_tilde_table_once():
    # canonical_map and _translate_operators read one T table per map,
    # built once per bundle
    M = build_function_algebroid(P3)
    stored = []
    assert M._tildes is None
    M._tildes = _CountedStores(stored)
    X = assemble_measured(M, WEIGHT_P3, *standard_integrals("groupoid-functions", M, groupoid=P3))
    assert dual_algebra(X).report.ok
    assert sorted(stored) == sorted(set(stored)) and {"T_rho", "T_lambda"} <= set(stored)


def test_dual_algebra_makes_no_more_operator_builds_than_recorded(monkeypatch, x_fun_p3):
    # factorize, convolution, functional_of_map and LinearMap.compose calls
    # of dual_algebra on functions p3, sigma already built.  Counted after
    # the translates' operators were read from phi's own slices (10
    # factorize and 20 convolution calls before), bimodule-identities was
    # decided on the dual's 5 generators (785 compositions before, 324 of
    # them in bimodule-identities, then 328) and the product check composed
    # rho_j^T with the Gram map once per j (9 compositions in place of 81
    # functional_of_map calls); a factorization per functional or a scan
    # over every pair coming back shows here
    structure_theory.modular_automorphism(x_fun_p3, "left")
    calls = {"factorize": 0, "convolution": 0, "functional_of_map": 0, "compose": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    for name in ("factorize", "convolution", "functional_of_map"):
        monkeypatch.setattr(structure_theory, name,
                            counted(name, getattr(structure_theory, name)))
    monkeypatch.setattr(LinearMap, "compose", counted("compose", LinearMap.compose))
    assert dual_algebra(x_fun_p3).report.ok
    monkeypatch.undo()
    assert calls["factorize"] == calls["convolution"] == calls["functional_of_map"] == 0
    assert calls["compose"] <= 144 + 9


def _full_scan(hat, ops, labels):
    """Oracle for the ``bimodule-identities`` entry: (status, witness) of
    the scan over every pair (i, j), in order, with the translates'
    operators ops and those of each product the combination of ops its
    coefficients name."""
    n = hat.dim

    def of(c, kind):
        return LinearMap.combination(n, n, [(s, ops[k][kind]) for k, s in c.items()])

    for i in range(n):
        for j in range(n):
            (rho_i, lam_i), (rho_j, lam_j) = ops[i], ops[j]
            failed = [name for name, holds in (
                ("rho", of(hat.table[i][j], 0) == rho_i.compose(rho_j)),
                ("lambda", of(hat.table[i][j], 1) == lam_j.compose(lam_i)),
                ("commute", rho_j.compose(lam_i) == lam_i.compose(rho_j)),
            ) if not holds]
            if failed:
                return "fail", {"at": [labels[i], labels[j]], "identity": failed[0]}
    return "pass", None


def _bimodule_entry(X):
    da = dual_algebra(X)
    (entry,) = [e for e in da.report.entries if e.axiom == "bimodule-identities"]
    return da.algebra, (entry.status, entry.witness)


@pytest.mark.parametrize("fixture", MEASURED)
def test_bimodule_identities_on_generators_equal_the_full_scan(request, fixture):
    X = request.getfixturevalue(fixture)
    translates = gram_map(X.M.A, X.phi.omega).data
    ops = [tuple(convolution(X, f, kind).operator for kind in ("rho", "lambda"))
           for f in translates]
    hat, entry = _bimodule_entry(X)
    assert entry == _full_scan(hat, ops, X.M.A.labels) == ("pass", None)


def _entry_with(monkeypatch, X, ops):
    """The ``bimodule-identities`` entry of X with the translates'
    operators ops, and the full scan's."""
    monkeypatch.setattr(structure_theory, "_translate_operators", lambda X: ops)
    hat, entry = _bimodule_entry(X)
    monkeypatch.undo()
    return entry, _full_scan(hat, ops, X.M.A.labels)


@pytest.mark.parametrize("fixture", MEASURED)
def test_perturbed_translate_falls_back_to_the_full_scan(request, monkeypatch, fixture):
    # column 0 of one rho(e_b.phi), or of one lambda(e_b.phi), plus e_0:
    # the identities fail, the generators' laws with them, and the scan
    # names the first failing pair
    X = request.getfixturevalue(fixture)
    n = X.M.A.dim
    for b in range(n):
        for kind in (0, 1):
            ops = _translate_operators(X)
            cols = [dict(col) for col in ops[b][kind].data]
            cols[0][0] = cols[0].get(0, 0) + ONE
            ops[b] = tuple(LinearMap(n, n, cols) if k == kind else op
                           for k, op in enumerate(ops[b]))
            entry, oracle = _entry_with(monkeypatch, X, ops)
            assert entry == oracle and oracle[0] == "fail", (b, kind)


@pytest.mark.parametrize("fixture", ["x_fun_14", "x_fun_p3", "x_conv_mod_p3", "x_h4"])
def test_conjugated_lambda_fails_only_the_commutation(request, monkeypatch, fixture):
    # lambda conjugated by P = 1 + E, E sending e_0 to e_(n-1), is still an
    # antihomomorphism, so only the commutation with rho can fail
    X = request.getfixturevalue(fixture)
    n = X.M.A.dim
    shear, unshear = (LinearMap(n, n, [{0: ONE, n - 1: c}] + [{j: ONE} for j in range(1, n)])
                      for c in (ONE, -ONE))
    ops = [(rho, shear.compose(lam).compose(unshear)) for rho, lam in _translate_operators(X)]
    entry, oracle = _entry_with(monkeypatch, X, ops)
    assert entry == oracle and oracle[0] == "fail" and oracle[1]["identity"] == "commute"


def test_generators_of_the_dual_of_functions_on_pair_groupoids(x_fun_14, x_fun_p3):
    # the dual of functions on p_k is the convolution algebra M_k of the
    # pair groupoid: the matrix units along the first row and column
    # generate it, 2k - 1 of its k^2 basis elements
    for X, k in ((x_fun_14, 2), (x_fun_p3, 3)):
        labels = X.M.A.labels
        gens = [labels[g] for g in generating_basis(dual_algebra(X).algebra)]
        row = [str((1, j)) for j in range(1, k + 1)]
        assert gens == row + [str((i, 1)) for i in range(2, k + 1)]


def _diagonal(op):
    return all(set(col) <= {a} for a, col in enumerate(op.data))


def _generating_basis_spy(monkeypatch):
    calls = []

    def spy(algebra, *args):
        calls.append(algebra)
        return generating_basis(algebra, *args)

    monkeypatch.setattr(structure_theory, "generating_basis", spy)
    return calls


@pytest.mark.parametrize("fixture", MEASURED)
def test_diagonal_operators_decide_the_identities_with_no_generator(
        request, monkeypatch, fixture):
    # the dual of a convolution algebroid is the pointwise algebra on the
    # arrows: every rho(e_b.phi) and lambda(e_b.phi) is diagonal, and the
    # weights decide the entry; elsewhere the generators do
    X = request.getfixturevalue(fixture)
    diagonal = all(map(_diagonal, (op for ops in _translate_operators(X) for op in ops)))
    calls = _generating_basis_spy(monkeypatch)
    _, entry = _bimodule_entry(X)
    assert entry == ("pass", None)
    assert (calls == []) == diagonal
    assert diagonal == (fixture in ("x_conv_uniform", "x_group", "x_conv_mod_p3"))


def test_one_changed_weight_fails_the_diagonal_gate_and_the_scan_names_the_witness(
        monkeypatch, x_conv_mod_p3):
    # one diagonal entry of one rho(e_b.phi) doubled: every operator is
    # still diagonal, so the gate reads the weights, finds the broken law
    # and returns False, and the full scan names its first failing pair
    X = x_conv_mod_p3
    n = X.M.A.dim
    ops = _translate_operators(X)
    b = 1
    cols = [dict(col) for col in ops[b][0].data]
    a = next(a for a, col in enumerate(cols) if col)
    cols[a][a] = 2 * cols[a][a]
    ops[b] = (LinearMap(n, n, cols), ops[b][1])
    assert all(map(_diagonal, (op for pair in ops for op in pair)))
    hat = dual_algebra(X).algebra

    def rho_lambda(c):
        return tuple(LinearMap.combination(n, n, [(s, ops[k][kind]) for k, s in c.items()])
                     for kind in (0, 1))

    calls = _generating_basis_spy(monkeypatch)
    assert structure_theory._identities_on_generators(hat, rho_lambda) is False
    assert calls == []
    monkeypatch.undo()
    entry, oracle = _entry_with(monkeypatch, X, ops)
    assert entry == oracle and oracle[0] == "fail"
