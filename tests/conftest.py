"""Shared instances; session-scoped because exact verification is reused."""

import pytest

from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.balanced_tensor import descend_componentwise
from qgroupoid.examples import (
    FiniteHopf,
    HopfAction,
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    build_group_hopf,
    build_tensor_algebroid,
    build_two_sided,
    cyclic_group_table,
    function_algebra_z2,
    group_groupoid,
    pair_groupoid,
    standard_integrals,
    swap_action,
)
from qgroupoid.exact_linear import ONE, LinearMap, kron_vec, sc
from qgroupoid.integration import BaseWeight, assemble_measured
from qgroupoid.modification import groupoid_rn_modifier, modify


def _leg_op_by_components(q, slot, side, u):
    """The multiplication by u, a vector of A, on leg ``slot`` of the
    balanced tensor q, from the left (side "l") or the right ("r"),
    descended by the relation-checked ``descend_componentwise`` from its
    values on the basis tensors e_i (x) e_j, each taken with one
    ``A.mul``.  It reads no leg operator, module-map test or memo of
    ``BalancedTensor.leg_op``, and raises NotBalanced with the same text
    and witness where the multiplication does not descend."""
    A, n = q.algebra, q.leg_dim

    def times(k):
        return A.mul(u, {k: ONE}) if side == "l" else A.mul({k: ONE}, u)

    def fn(i, j):
        return kron_vec(times(i), {j: ONE}, n) if slot == 1 else kron_vec({i: ONE}, times(j), n)

    message = "%s-multiplication on leg %d does not descend between flavors {src!r} -> {dst!r}"
    return descend_componentwise(q, q, fn, message % (side, slot))


@pytest.fixture(scope="session")
def leg_op_by_components():
    """The independent oracle of ``BalancedTensor.leg_op`` (see
    ``_leg_op_by_components``)."""
    return _leg_op_by_components


@pytest.fixture(scope="session")
def p2():
    return pair_groupoid([1, 2])


@pytest.fixture(scope="session")
def z2():
    labels, table = cyclic_group_table(2)
    return group_groupoid(labels, table)


@pytest.fixture(scope="session")
def m_fun(p2):
    return build_function_algebroid(p2)


@pytest.fixture(scope="session")
def m_conv(p2):
    return build_convolution_algebroid(p2)


@pytest.fixture(scope="session")
def m_group(z2):
    return build_convolution_algebroid(z2)  # the group algebra of Z/2


@pytest.fixture(scope="session")
def hopf_z2():
    labels, table = cyclic_group_table(2)
    return build_group_hopf(labels, table, "group")


@pytest.fixture(scope="session")
def hopf_z2_fun():
    labels, table = cyclic_group_table(2)
    return build_group_hopf(labels, table, "function")


@pytest.fixture(scope="session")
def sweedler_h4():
    """Sweedler's Hopf algebra on the basis 1, g, x, gx: g^2 = 1, x^2 = 0,
    xg = -gx, Delta(x) = x (x) 1 + g (x) x, S(x) = -gx and S(gx) = x.  It
    is neither commutative nor cocommutative, and S^2 != id."""
    table = [  # e_i e_j, the basis 1, g, x, gx
        [{0: ONE}, {1: ONE}, {2: ONE}, {3: ONE}],
        [{1: ONE}, {0: ONE}, {3: ONE}, {2: ONE}],
        [{2: ONE}, {3: -ONE}, {}, {}],
        [{3: ONE}, {2: -ONE}, {}, {}],
    ]
    algebra = FiniteAlgebra(table, labels=["1", "g", "x", "gx"])
    # Delta(gx) = Delta(g) Delta(x) = gx (x) g + 1 (x) gx
    delta = LinearMap(16, 4, [{0: ONE}, {5: ONE}, {8: ONE, 6: ONE}, {13: ONE, 3: ONE}])
    eps = LinearMap(1, 4, [{0: ONE}, {0: ONE}, {}, {}])
    antipode = LinearMap(4, 4, [{0: ONE}, {1: ONE}, {3: -ONE}, {2: ONE}])
    return FiniteHopf(algebra, delta, eps, antipode)


@pytest.fixture(scope="session")
def m_h4_crossed(sweedler_h4):
    """H4 as a bundle: its crossed product over a one-point base under the
    trivial action h . 1 = eps(h)."""
    h = sweedler_h4
    point = FiniteAlgebra.pointwise(["pt"])
    acts = [LinearMap(1, 1, [h.eps.col(k)]) for k in range(h.dim)]
    return build_crossed_product(point, h, HopfAction(h, point, acts))


@pytest.fixture(scope="session")
def m_tensor():
    b = FiniteAlgebra.pointwise(["u1", "u2"], involution=LinearMap.identity(2))
    c = FiniteAlgebra.pointwise(["v1", "v2"], involution=LinearMap.identity(2))
    return build_tensor_algebroid(b, c, LinearMap.identity(2), LinearMap.identity(2))


@pytest.fixture(scope="session")
def m_crossed(hopf_z2):
    c = function_algebra_z2()
    return build_crossed_product(c, hopf_z2, swap_action(hopf_z2, c))


@pytest.fixture(scope="session")
def m_twosided(hopf_z2):
    c = function_algebra_z2()
    b = function_algebra_z2()
    left = swap_action(hopf_z2, c)
    right = HopfAction(
        hopf_z2, b,
        [LinearMap.identity(2), LinearMap.from_rows([[0, 1], [1, 0]])],
        side="right",
    )
    return build_two_sided(c, hopf_z2, b, left, right,
                           LinearMap.identity(2), LinearMap.identity(2))


@pytest.fixture(scope="session")
def weight_14():
    return BaseWeight(mu_B={0: sc(1), 1: sc(4)}, mu_C={0: sc(1), 1: sc(4)})


@pytest.fixture(scope="session")
def weight_uniform():
    return BaseWeight(mu_B={0: sc(1), 1: sc(1)}, mu_C={0: sc(1), 1: sc(1)})


@pytest.fixture(scope="session")
def x_fun_14(m_fun, p2, weight_14):
    phi, psi = standard_integrals("groupoid-functions", m_fun, groupoid=p2)
    return assemble_measured(m_fun, weight_14, phi, psi)


@pytest.fixture(scope="session")
def x_conv_uniform(m_conv, p2, weight_uniform):
    phi, psi = standard_integrals("groupoid-convolution", m_conv, groupoid=p2)
    return assemble_measured(m_conv, weight_uniform, phi, psi)


@pytest.fixture(scope="session")
def rn_cocycle(p2):
    mod, coc = groupoid_rn_modifier(p2, {0: sc(1), 1: sc(4)})
    return mod, coc


@pytest.fixture(scope="session")
def m_conv_mod(m_conv, rn_cocycle):
    mod, _ = rn_cocycle
    return modify(m_conv, mod)


@pytest.fixture(scope="session")
def x_conv_mod(m_conv_mod, p2, weight_14):
    phi, psi = standard_integrals("groupoid-convolution", m_conv_mod, groupoid=p2)
    return assemble_measured(m_conv_mod, weight_14, phi, psi)


@pytest.fixture(scope="session")
def x_group(m_group, z2):
    phi, psi = standard_integrals("groupoid-convolution", m_group, groupoid=z2)
    w = BaseWeight(mu_B={0: sc(1)}, mu_C={0: sc(1)})
    return assemble_measured(m_group, w, phi, psi)


@pytest.fixture(scope="session")
def x_tensor(m_tensor, weight_14):
    phi, psi = standard_integrals(
        "tensor", m_tensor, base_b_dim=2,
        upsilon=dict(weight_14.mu_B), omega=dict(weight_14.mu_C),
    )
    return assemble_measured(m_tensor, weight_14, phi, psi)
