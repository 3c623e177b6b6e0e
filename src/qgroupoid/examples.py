"""Concrete instance families: groupoids, finite Hopf algebras, and the
five quantum-groupoid constructions built from them.

Every constructor assembles the full bundle (bases, comultiplications,
counits, antipode) from an explicit combinatorial description and leaves
verification to the bialgebroid suite; nothing is trusted by fiat.
"""

from __future__ import annotations

from .algebra_core import BaseEmbedding, FiniteAlgebra, ModuleStructure, check_algebra
from .bialgebroid import RegularMHA
from .exact_linear import ONE, ZERO, LinearMap, apply_legs, kron, stack_equations
from .integration import PartialIntegral, functional_of_map, gram_map, gram_transpose
from .report import Rejected, Report, first_failure

__all__ = [
    "FiniteGroupoid",
    "FiniteHopf",
    "HopfAction",
    "pair_groupoid",
    "cyclic_group_table",
    "group_groupoid",
    "disjoint_union",
    "groupoid_to_json",
    "groupoid_from_json",
    "build_function_algebroid",
    "build_convolution_algebroid",
    "build_tensor_algebroid",
    "build_crossed_product",
    "build_two_sided",
    "build_group_hopf",
    "standard_integrals",
    "function_algebra_z2",
    "swap_action",
]


# ---------------------------------------------------------------------------
# finite groupoids
# ---------------------------------------------------------------------------


class FiniteGroupoid:
    """Arrow set with source, target, partial composition and inverse."""

    def __init__(self, arrows, units, source, target, compose, inverse):
        self.arrows = list(arrows)
        self.units = list(units)
        self.source = dict(source)
        self.target = dict(target)
        self.compose = dict(compose)  # (a, b) -> ab, defined iff s(a) = t(b)
        self.inverse = dict(inverse)
        self.index = {a: i for i, a in enumerate(self.arrows)}
        self.unit_index = {u: i for i, u in enumerate(self.units)}
        self.validate()

    def validate(self):
        s, t, c, inv = self.source, self.target, self.compose, self.inverse
        for what, items, index in (("arrow", self.arrows, self.index),
                                   ("unit", self.units, self.unit_index)):
            if len(index) != len(items):
                twice = next(a for k, a in enumerate(items) if index[a] != k)
                raise ValueError("%s %r is listed twice" % (what, twice))
        for u in self.units:
            if not (s[u] == u and t[u] == u):
                raise ValueError("unit %r has s or t off itself" % (u,))
        for a in self.arrows:
            if s[a] not in self.unit_index or t[a] not in self.unit_index:
                raise ValueError("arrow %r has source or target outside units" % (a,))
        ending = {}
        for a in self.arrows:
            ending.setdefault(t[a], []).append(a)
        if not self._composes_exactly(ending):
            # name the first pair that fails, scanning every pair in order
            for a in self.arrows:
                for b in self.arrows:
                    defined = (a, b) in c
                    if defined != (s[a] == t[b]):
                        raise ValueError("composability of %r, %r mismatched" % (a, b))
                    if defined:
                        ab = c[(a, b)]
                        if t[ab] != t[a] or s[ab] != s[b]:
                            raise ValueError("composite %r has wrong ends" % (ab,))
        # with composability checked, (a, b) composes iff t(b) = s(a)
        for a in self.arrows:
            for b in ending[s[a]]:
                ab = c[(a, b)]
                for d in ending[s[b]]:
                    if c[(ab, d)] != c[(a, c[(b, d)])]:
                        raise ValueError("composition is not associative")
        for a in self.arrows:
            if c[(t[a], a)] != a or c[(a, s[a])] != a:
                raise ValueError("units are not neutral at %r" % (a,))
            ai = inv[a]
            if c[(a, ai)] != t[a] or c[(ai, a)] != s[a]:
                raise ValueError("inverse fails at %r" % (a,))

    def _composes_exactly(self, ending):
        """True iff ``compose`` holds exactly the pairs (a, b) with b in
        ``ending[s(a)]``, the arrows whose target is s(a), each with a
        composite from s(b) to t(a): it holds every such pair and no more
        keys than there are such pairs."""
        s, t, c = self.source, self.target, self.compose
        count = 0
        for a in self.arrows:
            ta, composable = t[a], ending.get(s[a], ())
            for b in composable:
                ab = c.get((a, b))
                if t.get(ab) != ta or s.get(ab) != s[b]:
                    return False
            count += len(composable)
        return count == len(c)

    @property
    def n_arrows(self):
        return len(self.arrows)

    def composable_pairs(self):
        return [(a, b) for a in self.arrows for b in self.arrows if (a, b) in self.compose]


def pair_groupoid(points):
    """Arrows (i, j) with target i, source j; (i,j)(j,k) = (i,k)."""
    arrows = [(i, j) for i in points for j in points]
    units = [(i, i) for i in points]
    source = {(i, j): (j, j) for i, j in arrows}
    target = {(i, j): (i, i) for i, j in arrows}
    compose = {
        ((i, j), (j2, k)): (i, k)
        for i, j in arrows
        for j2, k in arrows
        if j == j2
    }
    inverse = {(i, j): (j, i) for i, j in arrows}
    return FiniteGroupoid(arrows, units, source, target, compose, inverse)


def cyclic_group_table(n):
    """(labels, table) for Z/n; table[i][j] = index of the product."""
    labels = ["g%d" % i if i else "e" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return labels, table


def group_groupoid(labels, table):
    """A group as a one-unit groupoid; table holds index products."""
    e = labels[0]
    arrows = list(labels)
    units = [e]
    source = {a: e for a in arrows}
    target = {a: e for a in arrows}
    idx = {a: i for i, a in enumerate(arrows)}
    compose = {(a, b): arrows[table[idx[a]][idx[b]]] for a in arrows for b in arrows}
    inverse = {}
    for a in arrows:
        for b in arrows:
            if compose[(a, b)] == e:
                inverse[a] = b
    return FiniteGroupoid(arrows, units, source, target, compose, inverse)


def disjoint_union(g1, g2):
    def tag(k, a):
        return (k, a)

    arrows = [tag(0, a) for a in g1.arrows] + [tag(1, a) for a in g2.arrows]
    units = [tag(0, u) for u in g1.units] + [tag(1, u) for u in g2.units]
    source = {tag(k, a): tag(k, g.source[a]) for k, g in ((0, g1), (1, g2)) for a in g.arrows}
    target = {tag(k, a): tag(k, g.target[a]) for k, g in ((0, g1), (1, g2)) for a in g.arrows}
    compose = {
        (tag(k, a), tag(k, b)): tag(k, g.compose[(a, b)])
        for k, g in ((0, g1), (1, g2))
        for (a, b) in g.compose
    }
    inverse = {tag(k, a): tag(k, g.inverse[a]) for k, g in ((0, g1), (1, g2)) for a in g.arrows}
    return FiniteGroupoid(arrows, units, source, target, compose, inverse)


def _label_to_json(a):
    if isinstance(a, tuple):
        return list(_label_to_json(x) for x in a)
    return a


def _label_from_json(a):
    if isinstance(a, list):
        return tuple(_label_from_json(x) for x in a)
    return a


def groupoid_to_json(g):
    key = {a: repr(a) for a in g.arrows}
    return {
        "arrows": [_label_to_json(a) for a in g.arrows],
        "units": [_label_to_json(u) for u in g.units],
        "s": {key[a]: _label_to_json(g.source[a]) for a in g.arrows},
        "t": {key[a]: _label_to_json(g.target[a]) for a in g.arrows},
        "compose": [
            [_label_to_json(a), _label_to_json(b), _label_to_json(c)]
            for (a, b), c in sorted(g.compose.items(), key=repr)
        ],
        "inverse": {key[a]: _label_to_json(g.inverse[a]) for a in g.arrows},
    }


def groupoid_from_json(obj):
    arrows = [_label_from_json(a) for a in obj["arrows"]]
    units = [_label_from_json(u) for u in obj["units"]]
    key = {repr(a): a for a in arrows}
    source = {key[k]: _label_from_json(v) for k, v in obj["s"].items()}
    target = {key[k]: _label_from_json(v) for k, v in obj["t"].items()}
    compose = {
        (_label_from_json(a), _label_from_json(b)): _label_from_json(c)
        for a, b, c in obj["compose"]
    }
    inverse = {key[k]: _label_from_json(v) for k, v in obj["inverse"].items()}
    return FiniteGroupoid(arrows, units, source, target, compose, inverse)


# ---------------------------------------------------------------------------
# finite Hopf algebras
# ---------------------------------------------------------------------------


class FiniteHopf:
    """A finite-dimensional Hopf algebra with chosen integrals.

    delta maps H to H (x) H (full tensor, index h1*dim + h2); eps is a
    functional, antipode a linear map.  phi/psi are the stored left and
    right integrals, delta_mod and sigma_mod the modular element and
    automorphism of phi.
    """

    def __init__(self, algebra, delta, eps, antipode, phi=None, psi=None):
        self.H = algebra
        self.delta = delta
        self.eps = eps  # LinearMap H -> F (rows=1)
        self.S = antipode
        self.phi = phi  # dict (dual coords) or None
        self.psi = psi
        self.delta_mod = None
        self.sigma_mod = None

    @property
    def dim(self):
        return self.H.dim

    def verify(self):
        rep = Report()
        rep.merge(check_algebra(self.H), prefix="algebra")
        n = self.dim
        one = self.H.unit()
        rep.check(one is not None, "unital", "hopf-axioms")
        if one is None:
            return rep
        delta, eps, S = self.delta, self.eps, self.S
        m, eta = self.H.mul_map(), self.H.unit_map()
        ident, at, at2 = LinearMap.identity(n), _basis_tuple(self.H), _basis_tuple(self.H, self.H)
        _check_maps(rep, "delta-unital", "hopf-axioms", lambda _: ("1",),
                    (None, delta.compose(eta), kron(eta, eta)))
        # Delta m = (m (x) m)(id (x) tau (x) id)(Delta (x) Delta)
        tensor_m = kron(m, m).compose(kron(ident, LinearMap.flip(n, n), ident))
        _check_maps(rep, "delta-homomorphism", "hopf-axioms", at2,
                    (None, delta.compose(m), tensor_m.compose(kron(delta, delta))))
        _check_maps(rep, "coassociativity", "hopf-axioms", at,
                    (None, kron(delta, ident).compose(delta), kron(ident, delta).compose(delta)))
        _check_maps(rep, "counit", "hopf-axioms", at,
                    ("(eps (x) id) Delta", kron(eps, ident).compose(delta), ident),
                    ("(id (x) eps) Delta", kron(ident, eps).compose(delta), ident))
        eta_eps = eta.compose(eps)
        _check_maps(rep, "antipode", "hopf-axioms", at,
                    ("m (S (x) id) Delta", m.compose(kron(S, ident)).compose(delta), eta_eps),
                    ("m (id (x) S) Delta", m.compose(kron(ident, S)).compose(delta), eta_eps))
        if self.phi is not None:
            rep.check(
                self.is_left_integral(self.phi), "left-integral", "integrals-mha"
            )
        if self.psi is not None:
            rep.check(
                self.is_right_integral(self.psi), "right-integral", "integrals-mha-right"
            )
        return rep

    def is_left_integral(self, phi):
        return not self._integral_system("left").apply(phi)

    def is_right_integral(self, psi):
        return not self._integral_system("right").apply(psi)

    def left_integral_space(self):
        """Basis of all left-invariant functionals."""
        return self._integral_system("left").kernel_basis()

    def _integral_system(self, side):
        """The linear system whose kernel is the space of left (or right)
        integrals, phi(e_j) the unknown j: at each basis pair (a, b),
        (id (x) phi)(Delta(a)(b (x) 1)) - phi(a) b for a left integral and
        (phi (x) id)(Delta(a)(1 (x) b)) - phi(a) b for a right one, the
        products being (R_b (x) id) Delta(a) and (id (x) R_b) Delta(a)."""
        if self.H.unit() is None:
            raise ValueError("the integral laws multiply by the unit of H, and H has no unit")
        n = self.dim
        left = side == "left"

        def laws():
            for a in range(n):
                for b in range(n):
                    r_b = self.H.rmul(b)
                    legs = (r_b, None) if left else (None, r_b)
                    prod = apply_legs(*legs, self.delta.col(a), n)
                    terms = [(j, s, {i: ONE}) if left else (i, s, {j: ONE})
                             for idx, s in prod.items() for i, j in (divmod(idx, n),)]
                    yield {}, terms + [(a, -ONE, {b: ONE})]

        system, _ = stack_equations(((n, laws()),), n)
        return system

    def compute_modular_data(self):
        """Modular element and automorphism of the stored left integral."""
        g = gram_map(self.H, self.phi)
        delta = g.solve(functional_of_map(self.phi, self.S))
        assert delta is not None, "integral is not faithful"
        self.delta_mod = delta
        self.sigma_mod = g.inverse().compose(gram_transpose(self.H, self.phi))
        return delta, self.sigma_mod


def build_group_hopf(labels, table, flavor="group"):
    """Group algebra or function algebra of a finite group, with integrals.

    The function algebra is the transpose of the group algebra: product
    Delta^T, Delta = m^T, eps = eta^T, S = S^T, and the integrals the
    group algebra's eps read as a functional."""
    if flavor not in ("group", "function"):
        raise ValueError("flavor must be 'group' or 'function'")
    n = len(labels)
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inv[i] = j
    antipode = LinearMap.from_function(n, n, lambda h: {inv[h]: ONE})
    alg = FiniteAlgebra([[{table[i][j]: ONE} for j in range(n)] for i in range(n)],
                        labels=labels, involution=antipode)
    delta = LinearMap.from_function(n * n, n, lambda h: {h * n + h: ONE})
    eps = LinearMap.from_function(1, n, lambda h: {0: ONE})
    phi = {0: ONE}  # coefficient of the identity
    if flavor == "function":
        phi = functional_of_map({0: ONE}, eps)  # summation over points
        alg, delta, eps, antipode = _transposed(alg, delta, alg.unit_map(), antipode)
    hopf = FiniteHopf(alg, delta, eps, antipode, phi=phi, psi=dict(phi))
    rep = hopf.verify()
    if not rep.ok:
        raise Rejected("hopf-axioms", "group Hopf algebra failed verification", rep)
    hopf.compute_modular_data()
    return hopf


def _transposed(A, delta, unit, S):
    """The dual of A on the dual basis, every structure map transposed:
    (algebra, m^T, unit^T, S^T).  The algebra's product is delta^T, and its
    involution conj((S o L)^T), L the linear part of A's star, so that
    f*(a) = conj(f(S(a)*))."""
    n, product = A.dim, delta.transpose()
    star = None if A.involution is None else S.compose(A.involution).transpose().conj()
    dual = FiniteAlgebra.from_mul(n, lambda i, j: product.col(i * n + j),
                                  labels=A.labels, involution=star)
    return dual, A.mul_map().transpose(), unit.transpose(), S.transpose()


class HopfAction(ModuleStructure):
    """A left (or right) action of a finite Hopf algebra on an algebra: a
    module structure of H's algebra on the module algebra C."""

    def __init__(self, hopf, module_algebra, acts, side="left"):
        super().__init__(hopf.H, module_algebra, acts, side)
        self.hopf = hopf

    def verify(self):
        """The action laws as maps, with L the action map H (x) C -> C."""
        rep = Report()
        H, C = self.hopf, self.total
        n, m = H.dim, C.dim
        ident_h, ident_c = LinearMap.identity(n), LinearMap.identity(m)
        L, m_c, eta_c = self.action_map(), C.mul_map(), C.unit_map()
        _check_maps(rep, "action-unital", "chb-action-algebra", _basis_tuple(C),
                    (None, self.operator(H.H.unit()), ident_c))
        ok, wit = self.check_action()
        rep.check(ok, "action-multiplicative", "chb-action-algebra", wit)
        # L (id (x) eta_C) = eta_C eps
        _check_maps(rep, "action-counital", "chb-action-algebra", _basis_tuple(H.H),
                    (None, L.compose(kron(ident_h, eta_c)), eta_c.compose(H.eps)))
        # h . (yz) = (h1 . y)(h2 . z):
        # L (id (x) m_C) = m_C (L (x) L)(id (x) tau (x) id)(Delta (x) id (x) id)
        shuffle = kron(ident_h, LinearMap.flip(n, m), ident_c).compose(
            kron(H.delta, ident_c, ident_c))
        _check_maps(rep, "module-algebra", "chb-action-algebra", _basis_tuple(H.H, C, C),
                    (None, L.compose(kron(ident_h, m_c)),
                     m_c.compose(kron(L, L)).compose(shuffle)))
        return rep

    def is_symmetric(self):
        """h1 (x) (h2 . y) = h2 (x) (h1 . y) in H (x) C for all h, y:
        (id (x) L)(Delta (x) id) = (id (x) L)(tau (x) id)(Delta (x) id)."""
        n, ident_c = self.hopf.dim, LinearMap.identity(self.total.dim)
        split = kron(self.hopf.delta, ident_c)
        act = kron(LinearMap.identity(n), self.action_map())
        swapped = kron(LinearMap.flip(n, n), ident_c).compose(split)
        return act.compose(split) == act.compose(swapped)


def _basis_tuple(*algebras):
    """at(j): the labels of the basis tuple of column j of a map on
    algebras[0] (x) ... (x) algebras[-1]."""
    def at(j):
        labels = []
        for alg in reversed(algebras):
            j, k = divmod(j, alg.dim)
            labels.append(alg.labels[k])
        return tuple(reversed(labels))

    return at


def _check_maps(rep, axiom, eq, at, *sides):
    """Check lhs == rhs for each (name, lhs, rhs) of sides, maps of one
    domain.  A failing entry's witness is the first column j where the
    maps of a side differ, at at(j), after the side's name unless it is
    None."""
    wit = first_failure((at(j) if name is None else (name, *at(j)), lhs.col(j), rhs.col(j))
                        for name, lhs, rhs in sides for j in range(lhs.cols))
    rep.check(wit is None, axiom, eq, wit)


def function_algebra_z2():
    """Functions on a two-point set, the module algebra for the swap action."""
    return FiniteAlgebra.pointwise(["p1", "p2"], involution=LinearMap.identity(2))


def swap_action(hopf, module_algebra):
    """F[Z/2] acting on functions on {1, 2} by swapping the points."""
    ident = LinearMap.identity(module_algebra.dim)
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    return HopfAction(hopf, module_algebra, [ident, swap], side="left")


# ---------------------------------------------------------------------------
# algebroid constructors
# ---------------------------------------------------------------------------


def _convolution_maps(g):
    """The convolution algebra A of g and its raw structure maps, (A, unit,
    delta, eps_B, eps_C, S): unit embeds the units, delta(gamma) =
    gamma (x) gamma, eps_B(gamma) = t(gamma), eps_C(gamma) = s(gamma) and
    S(gamma) = gamma^-1, which is also A's involution."""
    n, m, arrows, aidx, uidx = g.n_arrows, len(g.units), g.arrows, g.index, g.unit_index

    def mul(i, j):
        pair = (arrows[i], arrows[j])
        return {aidx[g.compose[pair]]: ONE} if pair in g.compose else {}

    inv = LinearMap.from_function(n, n, lambda k: {aidx[g.inverse[arrows[k]]]: ONE})
    A = FiniteAlgebra.from_mul(n, mul, labels=[repr(a) for a in arrows], involution=inv)
    unit = LinearMap.from_function(n, m, lambda u: {aidx[g.units[u]]: ONE})
    delta = LinearMap.from_function(n * n, n, lambda k: {k * n + k: ONE})
    eps_b = LinearMap.from_function(m, n, lambda k: {uidx[g.target[arrows[k]]]: ONE})
    eps_c = LinearMap.from_function(m, n, lambda k: {uidx[g.source[arrows[k]]]: ONE})
    return A, unit, delta, eps_b, eps_c, inv


def _units_algebra(g):
    """Functions on the units of g, a base of both groupoid algebroids."""
    m = len(g.units)
    return FiniteAlgebra.pointwise([repr(u) for u in g.units], involution=LinearMap.identity(m))


def build_function_algebroid(g):
    """Functions on a finite groupoid: the transpose of its convolution
    algebroid.  The product is Delta^T, Delta is m^T, s* = eps_C^T embeds
    B, t* = eps_B^T embeds C, both counits restrict to the units (the unit
    embedding transposed), and S is S^T."""
    conv, unit, delta, eps_b, eps_c, S = _convolution_maps(g)
    A, delta_fun, eps, antipode = _transposed(conv, delta, unit, S)
    B = BaseEmbedding(_units_algebra(g), A, eps_c.transpose(), name="B")
    C = BaseEmbedding(_units_algebra(g), A, eps_b.transpose(), name="C")
    ident = LinearMap.identity(len(g.units))
    return RegularMHA(
        A, B, C, ident, ident, delta_fun, delta_fun,
        eps_B=eps, eps_C=eps, S=antipode,
        name="function-algebroid",
    )


def build_convolution_algebroid(g):
    """Convolution algebra of a finite groupoid."""
    A, unit, delta, eps_b, eps_c, S = _convolution_maps(g)
    B = BaseEmbedding(_units_algebra(g), A, unit, name="B")
    C = BaseEmbedding(_units_algebra(g), A, unit, name="C")
    ident = LinearMap.identity(len(g.units))
    return RegularMHA(
        A, B, C, ident, ident, delta, delta,
        eps_B=eps_b, eps_C=eps_c, S=S,
        name="convolution-algebroid",
    )


def build_tensor_algebroid(base_b, base_c, s_b, s_c):
    """A = C (x) B: the two-sided product C (x) k (x) B over the trivial
    Hopf algebra k, which acts on each base as the identity, with A's
    basis labelled y(x)x."""
    if base_b.unit() is None or base_c.unit() is None:
        raise Rejected("algebra-local-units", "tensor construction needs unital bases")
    k = _trivial_hopf()
    left = HopfAction(k, base_c, [LinearMap.identity(base_c.dim)])
    right = HopfAction(k, base_b, [LinearMap.identity(base_b.dim)], side="right")
    M = build_two_sided(base_c, k, base_b, left, right, s_b, s_c)
    M.A.labels = ["%s(x)%s" % (y, x) for y in base_c.labels for x in base_b.labels]
    M.name = "tensor-algebroid"
    return M


def _trivial_hopf():
    """The group algebra of the one-element group, whose integrals are e_0*."""
    return build_group_hopf(*cyclic_group_table(1))


def build_crossed_product(base_c, hopf, action):
    """Smash product C # H for a symmetric action on a commutative C."""
    if not base_c.is_commutative():
        raise Rejected("ch-symmetric", "crossed product needs a commutative base")
    arep = action.verify()
    if not arep.ok:
        raise Rejected("chb-action-algebra", "action fails the module-algebra laws", arep)
    if not action.is_symmetric():
        raise Rejected("ch-symmetric", "action is not symmetric")
    H = hopf
    mc, mh = base_c.dim, H.dim
    n = mc * mh
    ident_c, ident_h, L = LinearMap.identity(mc), LinearMap.identity(mh), action.action_map()
    # (y h)(y' h') = y (h1 . y') # h2 h': (m_C (x) m_H)(id (x) L (x) id (x) id)
    # (id (x) id (x) tau (x) id)(id (x) Delta (x) id (x) id)
    product = (kron(base_c.mul_map(), H.H.mul_map()).compose(kron(ident_c, L, ident_h, ident_h))
               .compose(kron(LinearMap.identity(n), LinearMap.flip(mh, mc), ident_h))
               .compose(kron(ident_c, H.delta, ident_c, ident_h)))
    A = FiniteAlgebra.from_mul(
        n, lambda i, j: product.col(i * n + j),
        labels=["%s#%s" % (base_c.labels[y], H.H.labels[h])
                for y in range(mc) for h in range(mh)],
    )
    emb_c = kron(ident_c, H.H.unit_map())
    B = BaseEmbedding(base_c, A, emb_c, name="B")
    C = BaseEmbedding(base_c, A, emb_c, name="C")
    s_b = LinearMap.identity(mc)
    s_c = LinearMap.identity(mc)
    # Delta(y h) = (y h1) (x) (1 h2)
    delta_raw = (kron(ident_c, ident_h, base_c.unit_map(), ident_h)
                 .compose(kron(ident_c, H.delta)))
    # eps_B(y h) = eps(h) y and eps_C(y h) = S^-1(h) . y
    eps_b = kron(ident_c, H.eps)
    eps_c = L.compose(kron(H.S.inverse(), ident_c)).compose(LinearMap.flip(mc, mh))
    # S(y h) = (1 # S(h)) (y # 1): (L (x) id)(tau (x) id)(id (x) Delta S)
    antipode = (kron(L, ident_h).compose(kron(LinearMap.flip(mc, mh), ident_h))
                .compose(kron(ident_c, H.delta.compose(H.S))))
    return RegularMHA(
        A, B, C, s_b, s_c, delta_raw, delta_raw,
        eps_B=eps_b, eps_C=eps_c, S=antipode,
        name="crossed-product",
    )


def build_two_sided(base_c, hopf, base_b, left_action, right_action, s_b, s_c):
    """Two-sided crossed product A = C (x) H (x) B."""
    H = hopf
    mc, mh, mb = base_c.dim, H.dim, base_b.dim
    lrep, rrep = left_action.verify(), right_action.verify()
    if not (lrep.ok and rrep.ok):
        raise Rejected("chb-action-algebra", "actions fail the module-algebra laws")
    # antipode compatibility of the two actions: anti o (h . on src) = (S(h) . on dst) o anti
    for h in range(mh):
        for name, anti, src, dst in (("S_B", s_b, right_action, left_action),
                                     ("S_C", s_c, left_action, right_action)):
            if anti.compose(src.acts[h]) != dst.operator(H.S.col(h)).compose(anti):
                raise Rejected("chb-action-antipode", name + " does not intertwine the actions")
    n = mc * mh * mb
    ident, eta_c, eta_h, eta_b = (LinearMap.identity, base_c.unit_map(), H.H.unit_map(),
                                  base_b.unit_map())
    # (y h x)(y' h' x') = y (h1 . y') h2 h'1 (x . h'2) x': split both h, move
    # y' beside h1 and x beside h'2, act, and multiply each factor
    product = (kron(base_c.mul_map(), H.H.mul_map(), base_b.mul_map())
               .compose(kron(ident(mc), left_action.action_map(), ident(mh * mh),
                             right_action.action_map(), ident(mb)))
               .compose(kron(ident(mc * mh * mc * mh), LinearMap.flip(mb, mh * mh), ident(mb)))
               .compose(kron(ident(mc * mh), LinearMap.flip(mh * mb, mc), ident(mh * mh * mb)))
               .compose(kron(ident(mc), H.delta, ident(mb * mc), H.delta, ident(mb))))
    A = FiniteAlgebra.from_mul(
        n, lambda i, j: product.col(i * n + j),
        labels=[
            "%s.%s.%s" % (base_c.labels[y], H.H.labels[h], base_b.labels[x])
            for y in range(mc) for h in range(mh) for x in range(mb)
        ],
    )
    emb_b, emb_c = kron(eta_c, eta_h, ident(mb)), kron(ident(mc), eta_h, eta_b)
    B = BaseEmbedding(base_b, A, emb_b, name="B")
    C = BaseEmbedding(base_c, A, emb_c, name="C")
    # Delta(y h x) = (y h1 1) (x) (1 h2 x)
    delta_raw = (kron(ident(mc * mh), eta_b, eta_c, ident(mh * mb))
                 .compose(kron(ident(mc), H.delta, ident(mb))))
    s_h = kron(eta_c, H.S, eta_b)  # h -> 1 S_H(h) 1

    def antipode_col(k):
        y, r = divmod(k, mh * mb)
        h, x = divmod(r, mb)
        # S(yhx) = S_B(x) S_H(h) S_C(y), a product in A
        sx = C.embed.apply(s_b.col(x))
        sy = B.embed.apply(s_c.col(y))
        return A.mul(A.mul(sx, s_h.col(h)), sy)

    antipode = LinearMap.from_function(n, n, antipode_col)
    return RegularMHA(
        A, B, C, s_b, s_c, delta_raw, delta_raw,
        S=antipode,
        name="two-sided-crossed-product",
    )


# ---------------------------------------------------------------------------
# standard partial integrals
# ---------------------------------------------------------------------------


def standard_integrals(kind, M, **params):
    """The stated partial-integral family for a constructed instance.

    Returns (phi_C, psi_B) as linear maps A -> C and A -> B; parameters
    select the member of the family (a weight h on units, functionals on
    the bases, or the integrals of the acting Hopf algebra).  Each family
    is a tensor product of identities and functionals, or, on a groupoid,
    a composite of the convolution algebroid's raw maps.
    """
    if kind in ("groupoid-functions", "groupoid-convolution"):
        g = params["groupoid"]
        _, unit, _, eps_b, eps_c, _ = _convolution_maps(g)
        h = params.get("h")
        h = {u: ONE for u in range(len(g.units))} if h is None else dict(h)
        if kind == "groupoid-convolution":
            restrict = _diagonal(len(g.units), h).compose(unit.transpose())
            return PartialIntegral("left", restrict), PartialIntegral("right", restrict)
        # phi(gamma) = h(s(gamma)) t(gamma) and psi(gamma) = h(t(gamma)) s(gamma)
        phi = eps_b.compose(_diagonal(g.n_arrows, eps_c.transpose().apply(h)))
        psi = eps_c.compose(_diagonal(g.n_arrows, eps_b.transpose().apply(h)))
    elif kind == "crossed":
        # A = C (x) H
        hopf = params["hopf"]
        ident = LinearMap.identity(M.A.dim // hopf.dim)
        phi = kron(ident, _functional(hopf.phi, hopf.dim))
        psi = kron(ident, _functional(hopf.psi, hopf.dim))
    elif kind in ("tensor", "two-sided"):
        # A = C (x) H (x) B, the tensor's H the trivial Hopf algebra
        hopf = params["hopf"] if kind == "two-sided" else _trivial_hopf()
        mb = params["base_b_dim"]
        mc = M.A.dim // (hopf.dim * mb)
        phi = kron(LinearMap.identity(mc), _functional(hopf.phi, hopf.dim),
                   _functional(params["upsilon"], mb))
        psi = kron(_functional(params["omega"], mc), _functional(hopf.psi, hopf.dim),
                   LinearMap.identity(mb))
    else:
        raise ValueError("unknown integral family %r" % kind)
    return PartialIntegral("left", phi), PartialIntegral("right", psi)


def _functional(omega, dim):
    """The functional omega (a dual vector) as a map F^dim -> F."""
    return LinearMap.from_function(1, dim, lambda j: {0: omega.get(j, ZERO)})


def _diagonal(dim, v):
    """The diagonal map e_k -> v_k e_k."""
    return LinearMap.from_function(dim, dim, lambda k: {k: v.get(k, ZERO)})
