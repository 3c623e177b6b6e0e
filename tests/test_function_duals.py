"""The function algebras are built as transposes of the convolution and
group algebras, and the standard integrals as tensor products of
functionals.  Each map is compared here with its definition written out
column by column from the groupoid, the group or the fixture alone."""

import pytest

from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    build_group_hopf,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, ZERO, LinearMap, sc

GROUPOIDS = {
    "p2": lambda: pair_groupoid([1, 2]),
    "p3": lambda: pair_groupoid([1, 2, 3]),
    "z2": lambda: group_groupoid(*cyclic_group_table(2)),
    "z3": lambda: group_groupoid(*cyclic_group_table(3)),
    "p2+p3": lambda: disjoint_union(pair_groupoid([1, 2]), pair_groupoid([1, 2, 3])),
}


def _pointwise(labels):
    n = len(labels)
    return [[{i: ONE} if i == j else {} for j in range(n)] for i in range(n)]


def _weights(g):
    """A weight on the units with distinct values, 0 at the third unit."""
    return {u: sc(u + 1) if u != 2 else ZERO for u in range(len(g.units))}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_function_algebroid_maps_are_the_pointwise_definitions(name):
    g = GROUPOIDS[name]()
    M = build_function_algebroid(g)
    n, m = g.n_arrows, len(g.units)
    arrows, aidx, uidx = g.arrows, g.index, g.unit_index
    labels, unit_labels = [repr(a) for a in arrows], [repr(u) for u in g.units]
    assert (M.A.table, M.A.labels) == (tuple(map(tuple, _pointwise(labels))), labels)
    assert M.A.involution == LinearMap.identity(n)
    for emb in (M.B, M.C):
        assert (emb.base.table, emb.base.labels) == (tuple(map(tuple, _pointwise(unit_labels))),
                                                     unit_labels)
        assert emb.base.involution == LinearMap.identity(m)
    # s* and t*: a function on the units pulled back along s and along t
    for emb, end in ((M.B, g.source), (M.C, g.target)):
        assert emb.embed == LinearMap.from_function(
            n, m, lambda u: {aidx[a]: ONE for a in arrows if end[a] == g.units[u]})
    assert M.S_B == M.S_C == LinearMap.identity(m)
    # Delta(delta_gamma) = sum over alpha beta = gamma of delta_alpha (x) delta_beta
    delta = LinearMap.from_function(n * n, n, lambda k: {
        aidx[a] * n + aidx[b]: ONE for (a, b), c in g.compose.items() if c == arrows[k]})
    assert M._db_lift == M._dc_lift == delta
    # both counits restrict a function to the units
    restrict = LinearMap.from_function(
        m, n, lambda k: {uidx[arrows[k]]: ONE} if arrows[k] in uidx else {})
    assert M.eps_B == M.eps_C == restrict
    # S(f) = f o inv
    assert M.S == LinearMap.from_function(n, n, lambda k: {aidx[g.inverse[arrows[k]]]: ONE})


@pytest.mark.parametrize("order", [2, 3])
def test_function_hopf_maps_are_the_pointwise_definitions(order):
    labels, table = cyclic_group_table(order)
    hopf = build_group_hopf(labels, table, "function")
    n = order
    inv = [table[g].index(0) for g in range(n)]
    assert (hopf.H.table, hopf.H.labels) == (tuple(map(tuple, _pointwise(labels))), labels)
    assert hopf.H.involution == LinearMap.identity(n)
    assert hopf.delta == LinearMap.from_function(n * n, n, lambda g: {
        u * n + v: ONE for u in range(n) for v in range(n) if table[u][v] == g})
    assert hopf.eps == LinearMap.from_function(1, n, lambda g: {0: ONE} if g == 0 else {})
    assert hopf.S == LinearMap.from_function(n, n, lambda g: {inv[g]: ONE})
    assert hopf.phi == hopf.psi == {g: ONE for g in range(n)}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
@pytest.mark.parametrize("weighted", [False, True])
def test_groupoid_integrals_are_the_per_column_formulas(name, weighted):
    g = GROUPOIDS[name]()
    h = _weights(g) if weighted else None
    hv = h or {u: ONE for u in range(len(g.units))}
    n, m, arrows, uidx = g.n_arrows, len(g.units), g.arrows, g.unit_index

    def column(weight_at, value_at):
        return LinearMap.from_function(m, n, lambda k: {
            uidx[value_at[arrows[k]]]: hv[uidx[weight_at[arrows[k]]]]})

    phi, psi = standard_integrals("groupoid-functions", build_function_algebroid(g),
                                  groupoid=g, h=h)
    # phi(delta_gamma) = h(s(gamma)) t(gamma) and psi(delta_gamma) = h(t(gamma)) s(gamma)
    assert (phi.side, psi.side) == ("left", "right")
    assert phi.mapping == column(g.source, g.target)
    assert psi.mapping == column(g.target, g.source)
    phi, psi = standard_integrals("groupoid-convolution", build_convolution_algebroid(g),
                                  groupoid=g, h=h)
    # restriction to the units, weighted by h
    restrict = LinearMap.from_function(
        m, n, lambda k: {uidx[arrows[k]]: hv[uidx[arrows[k]]]} if arrows[k] in uidx else {})
    assert phi.mapping == psi.mapping == restrict


UPSILON, OMEGA = {0: sc(1), 1: sc(4)}, {0: sc(3), 1: sc("1/2")}


def test_product_integrals_are_the_per_column_formulas(m_tensor, m_crossed, m_twosided, hopf_z2):
    def family(rows, cols, value):
        return LinearMap.from_function(rows, cols, lambda k: dict([value(k)]))

    # tensor, A = C (x) B at k = y * 2 + x
    phi, psi = standard_integrals("tensor", m_tensor, base_b_dim=2, upsilon=UPSILON, omega=OMEGA)
    assert phi.mapping == family(2, 4, lambda k: (k // 2, UPSILON[k % 2]))
    assert psi.mapping == family(2, 4, lambda k: (k % 2, OMEGA[k // 2]))
    # crossed, A = C (x) H at k = y * 2 + h
    phi, psi = standard_integrals("crossed", m_crossed, hopf=hopf_z2)
    assert phi.mapping == LinearMap.from_function(
        2, 4, lambda k: {k // 2: hopf_z2.phi[k % 2]} if k % 2 in hopf_z2.phi else {})
    assert psi.mapping == LinearMap.from_function(
        2, 4, lambda k: {k // 2: hopf_z2.psi[k % 2]} if k % 2 in hopf_z2.psi else {})
    # two-sided, A = C (x) H (x) B at k = (y * 2 + h) * 2 + x
    phi, psi = standard_integrals("two-sided", m_twosided, hopf=hopf_z2, base_b_dim=2,
                                  upsilon=UPSILON, omega=OMEGA)
    phi_h = [hopf_z2.phi.get(h, ZERO) for h in range(2)]
    psi_h = [hopf_z2.psi.get(h, ZERO) for h in range(2)]
    assert phi.mapping == LinearMap.from_function(
        2, 8, lambda k: {k // 4: phi_h[k // 2 % 2] * UPSILON[k % 2]})
    assert psi.mapping == LinearMap.from_function(
        2, 8, lambda k: {k % 2: psi_h[k // 2 % 2] * OMEGA[k // 4]})
