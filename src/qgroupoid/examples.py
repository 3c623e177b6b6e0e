"""Concrete instance families: groupoids, finite Hopf algebras, and the
five quantum-groupoid constructions built from them.

Every constructor assembles the full bundle (bases, comultiplications,
counits, antipode) from an explicit combinatorial description and leaves
verification to the bialgebroid suite; nothing is trusted by fiat.
"""

from __future__ import annotations

from functools import partial

from .algebra_core import BaseEmbedding, FiniteAlgebra, ModuleStructure, check_algebra
from .balanced_tensor import tensor_mul
from .bialgebroid import RegularMHA
from .exact_linear import ONE, ZERO, LinearMap, axpy, kron_vec, stack_equations, vscale
from .integration import PartialIntegral, functional_of_map, gram_map
from .report import Rejected, Report

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
        for u in self.units:
            if not (s[u] == u and t[u] == u):
                raise ValueError("unit %r has s or t off itself" % (u,))
        for a in self.arrows:
            if s[a] not in self.unit_index or t[a] not in self.unit_index:
                raise ValueError("arrow %r has source or target outside units" % (a,))
        for a in self.arrows:
            for b in self.arrows:
                defined = (a, b) in c
                if defined != (s[a] == t[b]):
                    raise ValueError("composability of %r, %r mismatched" % (a, b))
                if defined:
                    ab = c[(a, b)]
                    if t[ab] != t[a] or s[ab] != s[b]:
                        raise ValueError("composite %r has wrong ends" % (ab,))
        for a in self.arrows:
            for b in self.arrows:
                if (a, b) not in c:
                    continue
                for d in self.arrows:
                    if (b, d) not in c:
                        continue
                    if c[(c[(a, b)], d)] != c[(a, c[(b, d)])]:
                        raise ValueError("composition is not associative")
        for a in self.arrows:
            if c[(t[a], a)] != a or c[(a, s[a])] != a:
                raise ValueError("units are not neutral at %r" % (a,))
            ai = inv[a]
            if c[(a, ai)] != t[a] or c[(ai, a)] != s[a]:
                raise ValueError("inverse fails at %r" % (a,))

    @property
    def n_arrows(self):
        return len(self.arrows)

    def composable_pairs(self):
        return [(a, b) for a in self.arrows for b in self.arrows if (a, b) in self.compose]

    def __repr__(self):
        return "FiniteGroupoid(%d arrows, %d units)" % (len(self.arrows), len(self.units))


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

    def sweedler(self, h):
        """List of (h1, h2, coeff) triples of the coproduct of basis h."""
        n = self.dim
        return [(idx // n, idx % n, s) for idx, s in self.delta.col(h).items()]

    def verify(self):
        rep = Report()
        rep.merge(check_algebra(self.H), prefix="algebra")
        n = self.dim
        one = self.H.unit()
        rep.check(one is not None, "unital", "hopf-axioms")
        if one is None:
            return rep
        one_one = kron_vec(one, one, n)
        rep.check(self.delta.apply(one) == one_one, "delta-unital", "hopf-axioms")
        ok = all(
            self.delta.apply(self.H.mul({i: ONE}, {j: ONE}))
            == tensor_mul(self.H, self.delta.col(i), self.delta.col(j))
            for i in range(n)
            for j in range(n)
        )
        rep.check(ok, "delta-homomorphism", "hopf-axioms")

        def coassociative(h):
            """(Delta (x) id) Delta(h) = (id (x) Delta) Delta(h)"""
            lhs = {}
            for h1, h2, s in self.sweedler(h):
                axpy(lhs, s, kron_vec(self.delta.col(h1), {h2: ONE}, n))
            return lhs == self.delta.apply_blocks(self.delta.col(h))

        rep.check(all(coassociative(h) for h in range(n)), "coassociativity", "hopf-axioms")
        ok = True
        for h in range(n):
            left = {}
            right = {}
            for h1, h2, s in self.sweedler(h):
                e1 = self.eps.col(h1).get(0, ZERO)
                e2 = self.eps.col(h2).get(0, ZERO)
                axpy(left, s * e1, {h2: ONE})
                axpy(right, s * e2, {h1: ONE})
            if left != {h: ONE} or right != {h: ONE}:
                ok = False
                break
        rep.check(ok, "counit", "hopf-axioms")
        ok = True
        for h in range(n):
            acc_l, acc_r = {}, {}
            for h1, h2, s in self.sweedler(h):
                axpy(acc_l, s, self.H.mul(self.S.col(h1), {h2: ONE}))
                axpy(acc_r, s, self.H.mul({h1: ONE}, self.S.col(h2)))
            target = vscale(self.eps.col(h).get(0, ZERO), one)
            if acc_l != target or acc_r != target:
                ok = False
                break
        rep.check(ok, "antipode", "hopf-axioms")
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
        (phi (x) id)(Delta(a)(1 (x) b)) - phi(a) b for a right one."""
        n, one = self.dim, self.H.unit()
        left = side == "left"

        def laws():
            for a in range(n):
                for b in range(n):
                    factor = kron_vec({b: ONE}, one, n) if left else kron_vec(one, {b: ONE}, n)
                    prod = tensor_mul(self.H, self.delta.col(a), factor)
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
        self.sigma_mod = g.inverse().compose(g.transpose())
        return delta, self.sigma_mod


def build_group_hopf(labels, table, flavor="group"):
    """Group algebra or function algebra of a finite group, with integrals."""
    n = len(labels)
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inv[i] = j
    if flavor == "group":
        alg = FiniteAlgebra(
            [[{table[i][j]: ONE} for j in range(n)] for i in range(n)],
            labels=labels,
            involution=LinearMap.from_function(n, n, lambda i: {inv[i]: ONE}),
        )
        delta = LinearMap.from_function(n * n, n, lambda h: {h * n + h: ONE})
        eps = LinearMap.from_function(1, n, lambda h: {0: ONE})
        antipode = LinearMap.from_function(n, n, lambda h: {inv[h]: ONE})
        phi = {0: ONE}  # coefficient of the identity
        hopf = FiniteHopf(alg, delta, eps, antipode, phi=phi, psi=dict(phi))
    elif flavor == "function":
        alg = FiniteAlgebra.pointwise(labels, involution=LinearMap.identity(n))
        def delta_col(g):
            out = {}
            for u in range(n):
                for v in range(n):
                    if table[u][v] == g:
                        out[u * n + v] = ONE
            return out

        delta = LinearMap.from_function(n * n, n, delta_col)
        eps = LinearMap.from_function(1, n, lambda g: {0: ONE} if g == 0 else {})
        antipode = LinearMap.from_function(n, n, lambda g: {inv[g]: ONE})
        phi = {g: ONE for g in range(n)}  # summation over points
        hopf = FiniteHopf(alg, delta, eps, antipode, phi=phi, psi=dict(phi))
    else:
        raise ValueError("flavor must be 'group' or 'function'")
    rep = hopf.verify()
    if not rep.ok:
        raise Rejected("hopf-axioms", "group Hopf algebra failed verification", rep)
    hopf.compute_modular_data()
    return hopf


class HopfAction(ModuleStructure):
    """A left (or right) action of a finite Hopf algebra on an algebra: a
    module structure of H's algebra on the module algebra C."""

    def __init__(self, hopf, module_algebra, acts, side="left"):
        super().__init__(hopf.H, module_algebra, acts, side)
        self.hopf = hopf

    def verify(self):
        rep = Report()
        H, C = self.hopf, self.total
        n, m = H.dim, C.dim
        one_h = H.H.unit()
        rep.check(
            all(self.act(one_h, {j: ONE}) == {j: ONE} for j in range(m)),
            "action-unital",
            "chb-action-algebra",
        )
        rep.check(self.check_action()[0], "action-multiplicative", "chb-action-algebra")
        one_c = C.unit()
        ok = all(
            self.act({h: ONE}, one_c)
            == vscale(H.eps.col(h).get(0, ZERO), one_c)
            for h in range(n)
        )
        rep.check(ok, "action-counital", "chb-action-algebra")

        def module_algebra(h, y, z):
            """h . (yz) = (h1 . y)(h2 . z)"""
            rhs = {}
            for h1, h2, s in H.sweedler(h):
                axpy(rhs, s, C.mul(self.acts[h1].col(y), self.acts[h2].col(z)))
            return self.acts[h].apply(C.table[y][z]) == rhs

        ok = all(module_algebra(h, y, z) for h in range(n) for y in range(m) for z in range(m))
        rep.check(ok, "module-algebra", "chb-action-algebra")
        return rep

    def is_symmetric(self):
        """h1 (x) (h2 . y) = h2 (x) (h1 . y) in H (x) C for all h, y."""
        H, C = self.hopf, self.total
        n, m = H.dim, C.dim
        for h in range(n):
            sw = H.sweedler(h)
            for y in range(m):
                lhs, rhs = {}, {}
                for h1, h2, s in sw:
                    axpy(lhs, s, self.acts[h2].apply({y: ONE}), h1 * m)
                    axpy(rhs, s, self.acts[h1].apply({y: ONE}), h2 * m)
                if lhs != rhs:
                    return False
        return True


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


def build_function_algebroid(g):
    """Functions on a finite groupoid, pointwise product."""
    n = g.n_arrows
    arrows, units = g.arrows, g.units
    aidx, uidx = g.index, g.unit_index
    A = FiniteAlgebra.pointwise(
        [repr(a) for a in arrows], involution=LinearMap.identity(n)
    )
    m = len(units)
    base_b = FiniteAlgebra.pointwise(
        [repr(u) for u in units], involution=LinearMap.identity(m)
    )
    base_c = FiniteAlgebra.pointwise(
        [repr(u) for u in units], involution=LinearMap.identity(m)
    )
    s_star = LinearMap.from_function(
        n, m, lambda u: {aidx[a]: ONE for a in arrows if g.source[a] == units[u]}
    )
    t_star = LinearMap.from_function(
        n, m, lambda u: {aidx[a]: ONE for a in arrows if g.target[a] == units[u]}
    )
    B = BaseEmbedding(base_b, A, s_star, name="B")
    C = BaseEmbedding(base_c, A, t_star, name="C")
    S_B = LinearMap.identity(m)
    S_C = LinearMap.identity(m)

    def delta_col(k):
        gamma = arrows[k]
        out = {}
        for (a, b) in g.composable_pairs():
            if g.compose[(a, b)] == gamma:
                out[aidx[a] * n + aidx[b]] = ONE
        return out

    delta_raw = LinearMap.from_function(n * n, n, delta_col)
    eps_b = LinearMap.from_function(
        m, n, lambda k: {uidx[arrows[k]]: ONE} if arrows[k] in uidx else {}
    )
    eps_c = LinearMap.from_function(
        m, n, lambda k: {uidx[arrows[k]]: ONE} if arrows[k] in uidx else {}
    )
    antipode = LinearMap.from_function(
        n, n, lambda k: {aidx[g.inverse[arrows[k]]]: ONE}
    )
    return RegularMHA(
        A, B, C, S_B, S_C, delta_raw, delta_raw,
        eps_B=eps_b, eps_C=eps_c, S=antipode,
        name="function-algebroid",
    )


def build_convolution_algebroid(g):
    """Convolution algebra of a finite groupoid."""
    n = g.n_arrows
    arrows, units = g.arrows, g.units
    aidx, uidx = g.index, g.unit_index

    def mul(i, j):
        pair = (arrows[i], arrows[j])
        if pair in g.compose:
            return {aidx[g.compose[pair]]: ONE}
        return {}

    inv_perm = LinearMap.from_function(
        n, n, lambda k: {aidx[g.inverse[arrows[k]]]: ONE}
    )
    A = FiniteAlgebra.from_mul(
        n, mul, labels=[repr(a) for a in arrows], involution=inv_perm
    )
    m = len(units)
    base = FiniteAlgebra.pointwise(
        [repr(u) for u in units], involution=LinearMap.identity(m)
    )
    embed = LinearMap.from_function(n, m, lambda u: {aidx[units[u]]: ONE})
    B = BaseEmbedding(base, A, embed, name="B")
    C = BaseEmbedding(
        FiniteAlgebra.pointwise(
            [repr(u) for u in units], involution=LinearMap.identity(m)
        ),
        A,
        embed,
        name="C",
    )
    S_B = LinearMap.identity(m)
    S_C = LinearMap.identity(m)
    delta_raw = LinearMap.from_function(n * n, n, lambda k: {k * n + k: ONE})
    eps_b = LinearMap.from_function(
        m, n, lambda k: {uidx[g.target[arrows[k]]]: ONE}
    )
    eps_c = LinearMap.from_function(
        m, n, lambda k: {uidx[g.source[arrows[k]]]: ONE}
    )
    return RegularMHA(
        A, B, C, S_B, S_C, delta_raw, delta_raw,
        eps_B=eps_b, eps_C=eps_c, S=inv_perm,
        name="convolution-algebroid",
    )


def build_tensor_algebroid(base_b, base_c, s_b, s_c):
    """A = C (x) B with the flip-style coproducts."""
    mb, mc = base_b.dim, base_c.dim
    n = mc * mb
    one_b = base_b.unit()
    one_c = base_c.unit()
    if one_b is None or one_c is None:
        raise Rejected("algebra-local-units", "tensor construction needs unital bases")

    def mul(i, j):
        y1, x1 = divmod(i, mb)
        y2, x2 = divmod(j, mb)
        return kron_vec(base_c.mul({y1: ONE}, {y2: ONE}), base_b.mul({x1: ONE}, {x2: ONE}), mb)

    A = FiniteAlgebra.from_mul(
        n, mul,
        labels=["%s(x)%s" % (base_c.labels[y], base_b.labels[x])
                for y in range(mc) for x in range(mb)],
    )
    emb_b = LinearMap.from_function(n, mb, lambda x: kron_vec(one_c, {x: ONE}, mb))
    emb_c = LinearMap.from_function(n, mc, lambda y: kron_vec({y: ONE}, one_b, mb))
    B = BaseEmbedding(base_b, A, emb_b, name="B")
    C = BaseEmbedding(base_c, A, emb_c, name="C")

    def delta_col(k):
        y, x = divmod(k, mb)
        return kron_vec(emb_c.col(y), emb_b.col(x), n)

    delta_raw = LinearMap.from_function(n * n, n, delta_col)
    s_b_inv, s_c_inv = s_b.inverse(), s_c.inverse()
    eps_b = LinearMap.from_function(
        mb, n, lambda k: base_b.mul({k % mb: ONE}, s_b_inv.col(k // mb))
    )
    eps_c = LinearMap.from_function(
        mc, n, lambda k: base_c.mul(s_c_inv.col(k % mb), {k // mb: ONE})
    )

    def antipode_col(k):
        y, x = divmod(k, mb)
        return kron_vec(s_b.col(x), s_c.col(y), mb)

    antipode = LinearMap.from_function(n, n, antipode_col)
    return RegularMHA(
        A, B, C, s_b, s_c, delta_raw, delta_raw,
        eps_B=eps_b, eps_C=eps_c, S=antipode,
        name="tensor-algebroid",
    )


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

    def mul(i, j):
        y1, h1 = divmod(i, mh)
        y2, h2 = divmod(j, mh)
        out = {}
        for ha, hb, s in H.sweedler(h1):
            acted = action.acts[ha].apply({y2: ONE})
            ypart = base_c.mul({y1: ONE}, acted)
            hpart = H.H.mul({hb: ONE}, {h2: ONE})
            axpy(out, s, kron_vec(ypart, hpart, mh))
        return out

    A = FiniteAlgebra.from_mul(
        n, mul,
        labels=["%s#%s" % (base_c.labels[y], H.H.labels[h])
                for y in range(mc) for h in range(mh)],
    )
    one_h = H.H.unit()
    emb_c = LinearMap.from_function(n, mc, lambda y: kron_vec({y: ONE}, one_h, mh))
    B = BaseEmbedding(base_c, A, emb_c, name="B")
    C = BaseEmbedding(base_c, A, emb_c, name="C")
    s_b = LinearMap.identity(mc)
    s_c = LinearMap.identity(mc)

    def delta_col(k):
        y, h = divmod(k, mh)
        out = {}
        for h1, h2, s in H.sweedler(h):
            left = kron_vec({y: ONE}, {h1: ONE}, mh)
            right = kron_vec(base_c.unit(), {h2: ONE}, mh)
            axpy(out, s, kron_vec(left, right, n))
        return out

    delta_raw = LinearMap.from_function(n * n, n, delta_col)
    eps_b = LinearMap.from_function(
        mc, n, lambda k: vscale(H.eps.col(k % mh).get(0, ZERO), {k // mh: ONE})
    )
    s_h_inv = H.S.inverse()

    def eps_c_col(k):
        y, h = divmod(k, mh)
        return action.act(s_h_inv.col(h), {y: ONE})

    eps_c = LinearMap.from_function(mc, n, eps_c_col)

    def antipode_col(k):
        y, h = divmod(k, mh)
        out = {}
        for hh, s in H.S.col(h).items():
            # (1 # S(h)) (y # 1)
            for h1, h2, t in H.sweedler(hh):
                acted = action.acts[h1].apply({y: ONE})
                axpy(out, s * t, kron_vec(acted, {h2: ONE}, mh))
        return out

    antipode = LinearMap.from_function(n, n, antipode_col)
    return RegularMHA(
        A, B, C, s_b, s_c, delta_raw, delta_raw,
        eps_B=eps_b, eps_C=eps_c, S=antipode,
        name="crossed-product",
    )


def _chb_element(y, h, x, mh, mb):
    """The element y (x) h (x) x of the two-sided product C (x) H (x) B,
    for H of dimension mh and B of dimension mb."""
    return kron_vec(kron_vec(y, h, mh), x, mb)


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
    chb = partial(_chb_element, mh=mh, mb=mb)

    def mul(i, j):
        y1, r = divmod(i, mh * mb)
        h1, x1 = divmod(r, mb)
        y2, r = divmod(j, mh * mb)
        h2, x2 = divmod(r, mb)
        out = {}
        for ha, hb, s in H.sweedler(h1):
            ypart = base_c.mul({y1: ONE}, left_action.acts[ha].apply({y2: ONE}))
            for hc, hd, t in H.sweedler(h2):
                hpart = H.H.mul({hb: ONE}, {hc: ONE})
                xpart = base_b.mul(right_action.acts[hd].apply({x1: ONE}), {x2: ONE})
                axpy(out, s * t, chb(ypart, hpart, xpart))
        return out

    A = FiniteAlgebra.from_mul(
        n, mul,
        labels=[
            "%s.%s.%s" % (base_c.labels[y], H.H.labels[h], base_b.labels[x])
            for y in range(mc) for h in range(mh) for x in range(mb)
        ],
    )
    one_c, one_b, one_h = base_c.unit(), base_b.unit(), H.H.unit()
    emb_b = LinearMap.from_function(n, mb, lambda x: chb(one_c, one_h, {x: ONE}))
    emb_c = LinearMap.from_function(n, mc, lambda y: chb({y: ONE}, one_h, one_b))
    B = BaseEmbedding(base_b, A, emb_b, name="B")
    C = BaseEmbedding(base_c, A, emb_c, name="C")

    def delta_col(k):
        y, r = divmod(k, mh * mb)
        h, x = divmod(r, mb)
        out = {}
        for h1, h2, s in H.sweedler(h):
            left, right = chb({y: ONE}, {h1: ONE}, one_b), chb(one_c, {h2: ONE}, {x: ONE})
            axpy(out, s, kron_vec(left, right, n))
        return out

    delta_raw = LinearMap.from_function(n * n, n, delta_col)

    def antipode_col(k):
        y, r = divmod(k, mh * mb)
        h, x = divmod(r, mb)
        # S(yhx) = S_B(x) S_H(h) S_C(y), a product in A
        sx = C.embed.apply(s_b.col(x))
        sy = B.embed.apply(s_c.col(y))
        return A.mul(A.mul(sx, chb(one_c, H.S.col(h), one_b)), sy)

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
    the bases, or the integrals of the acting Hopf algebra).
    """
    if kind == "groupoid-functions":
        g = params["groupoid"]
        h = params.get("h")
        aidx, uidx = g.index, g.unit_index
        n, m = g.n_arrows, len(g.units)
        hv = {u: ONE for u in range(m)} if h is None else dict(h)
        phi = LinearMap.from_function(
            m,
            n,
            lambda k: vscale(
                hv.get(uidx[g.source[g.arrows[k]]], ZERO),
                {uidx[g.target[g.arrows[k]]]: ONE},
            ),
        )
        psi = LinearMap.from_function(
            m,
            n,
            lambda k: vscale(
                hv.get(uidx[g.target[g.arrows[k]]], ZERO),
                {uidx[g.source[g.arrows[k]]]: ONE},
            ),
        )
        return PartialIntegral("left", phi), PartialIntegral("right", psi)
    if kind == "groupoid-convolution":
        g = params["groupoid"]
        h = params.get("h")
        uidx = g.unit_index
        n, m = g.n_arrows, len(g.units)
        hv = {u: ONE for u in range(m)} if h is None else dict(h)
        restrict = LinearMap.from_function(
            m,
            n,
            lambda k: (
                vscale(hv.get(uidx[g.arrows[k]], ZERO), {uidx[g.arrows[k]]: ONE})
                if g.arrows[k] in uidx
                else {}
            ),
        )
        return PartialIntegral("left", restrict), PartialIntegral("right", restrict)
    if kind == "tensor":
        mb = params["base_b_dim"]
        upsilon = params["upsilon"]  # functional on B (dict)
        omega = params["omega"]  # functional on C (dict)
        n = M.A.dim
        mc = n // mb
        phi = LinearMap.from_function(
            mc,
            n,
            lambda k: vscale(upsilon.get(k % mb, ZERO), {k // mb: ONE}),
        )
        psi = LinearMap.from_function(
            mb,
            n,
            lambda k: vscale(omega.get(k // mb, ZERO), {k % mb: ONE}),
        )
        return PartialIntegral("left", phi), PartialIntegral("right", psi)
    if kind == "crossed":
        hopf = params["hopf"]
        mh = hopf.dim
        n = M.A.dim
        mc = n // mh
        phi = LinearMap.from_function(
            mc, n, lambda k: vscale(hopf.phi.get(k % mh, ZERO), {k // mh: ONE})
        )
        psi = LinearMap.from_function(
            mc, n, lambda k: vscale(hopf.psi.get(k % mh, ZERO), {k // mh: ONE})
        )
        return PartialIntegral("left", phi), PartialIntegral("right", psi)
    if kind == "two-sided":
        hopf = params["hopf"]
        upsilon = params["upsilon"]  # functional on B
        omega = params["omega"]  # functional on C
        mh, mb = hopf.dim, params["base_b_dim"]
        n = M.A.dim
        mc = n // (mh * mb)

        def phi_col(k):
            y, r = divmod(k, mh * mb)
            h, x = divmod(r, mb)
            return vscale(hopf.phi.get(h, ZERO) * upsilon.get(x, ZERO), {y: ONE})

        def psi_col(k):
            y, r = divmod(k, mh * mb)
            h, x = divmod(r, mb)
            return vscale(hopf.phi.get(h, ZERO) * omega.get(y, ZERO), {x: ONE})

        phi = LinearMap.from_function(mc, n, phi_col)
        psi = LinearMap.from_function(mb, n, psi_col)
        return PartialIntegral("left", phi), PartialIntegral("right", psi)
    raise ValueError("unknown integral family %r" % kind)
