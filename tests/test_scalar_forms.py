"""The three forms of an exact scalar, held to their rules in whole runs.

A real rational is an ``int``, or a ``Fraction`` when it is not integral,
and only a value with an imaginary or radical part is a ``Scalar`` (see
``qgroupoid.exact_linear``).  The oracle test checks the arithmetic;
these tests check the rules where the program uses it:

- a ``Scalar`` is never on the left of a product with a rational, so
  ``Scalar.__mul__`` always receives a ``Scalar`` (the benchmark's span
  tracer wraps it with a counter that reads ``b.terms``);
- every entry stored in a built, verified, modified or measured bundle
  is in canonical form;
- no ``/`` is left in the package outside ``exact_linear``, so no float
  division can happen between two int scalars.
"""

import pathlib
import tokenize
from fractions import Fraction

import pytest

import qgroupoid
from qgroupoid.bialgebroid import verify_regular_mha, verify_star
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    function_algebra_z2,
    pair_groupoid,
    standard_integrals,
    swap_action,
)
from qgroupoid.exact_linear import LinearMap, Scalar, ScalarField, sc
from qgroupoid.integration import BaseWeight, assemble_measured
from qgroupoid.modification import (
    check_modifier,
    crossed_rn_modifier,
    groupoid_rn_modifier,
    modify,
    twosided_rn_modifier,
)
from qgroupoid.structure_theory import modular_automorphism, modular_element

# weights that are products of distinct primes: every ratio mu(t)/mu(s)
# needs the square root of a new square-free kernel
RADICAL_WEIGHTS = {"p2": (6, 35), "p3": (6, 35, 143)}
RADICAL_FIELD = ScalarField([2, 3, 5, 7, 11, 13])


def _measure(M, weight, phi, psi):
    X = assemble_measured(M, weight, phi, psi)
    return X, modular_automorphism(X, "left"), modular_element(X)


def _groupoid_rn(points, mu):
    """Convolution on the pair groupoid, modified by the square-root
    derivative of mu, then measured with mu."""
    g = pair_groupoid(points)
    weights = {i: sc(w) for i, w in enumerate(mu)}
    mod, _ = groupoid_rn_modifier(g, weights, RADICAL_FIELD)
    M = build_convolution_algebroid(g)
    assert check_modifier(M, mod).ok
    Mt = modify(M, mod)
    assert verify_regular_mha(Mt).ok and verify_star(Mt).ok
    phi, psi = standard_integrals("groupoid-convolution", Mt, groupoid=g)
    measured = _measure(Mt, BaseWeight(mu_B=dict(weights), mu_C=dict(weights)), phi, psi)
    return Mt, measured


def _crossed_rn(hopf, mu):
    c = function_algebra_z2()
    act = swap_action(hopf, c)
    weights = {i: sc(w) for i, w in enumerate(mu)}
    mod, _ = crossed_rn_modifier(c, hopf, act, weights)
    M = build_crossed_product(c, hopf, act)
    assert check_modifier(M, mod).ok
    Mt = modify(M, mod)
    assert verify_regular_mha(Mt).ok
    phi, psi = standard_integrals("crossed", Mt, hopf=hopf)
    measured = _measure(Mt, BaseWeight(mu_B=dict(weights), mu_C=dict(weights)), phi, psi)
    return Mt, measured


def _twosided_rn(hopf, mu):
    c = function_algebra_z2()
    weights = {i: sc(w) for i, w in enumerate(mu)}
    bundle = twosided_rn_modifier(c, hopf, swap_action(hopf, c), weights,
                                  LinearMap.identity(2))
    M, mod = bundle["M"], bundle["modifier"]
    assert check_modifier(M, mod).ok
    Mt = modify(M, mod)
    assert verify_regular_mha(Mt).ok
    measured = _measure(Mt, bundle["weight"], bundle["phi_C"], bundle["psi_B"])
    return Mt, measured


# -- a Scalar is never on the left of a product with a rational -----------------


def test_scalar_mul_always_receives_a_scalar(monkeypatch, hopf_z2):
    original = Scalar.__mul__
    calls, offenders = [0], []

    def scalar_on_the_right(a, b):
        # what the benchmark's tracer does before it multiplies
        calls[0] += 1
        if type(b) is not Scalar:
            offenders.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Scalar, "__mul__", scalar_on_the_right)
    _groupoid_rn([1, 2], RADICAL_WEIGHTS["p2"])
    _groupoid_rn([1, 2, 3], RADICAL_WEIGHTS["p3"])
    _crossed_rn(hopf_z2, RADICAL_WEIGHTS["p2"])
    _twosided_rn(hopf_z2, RADICAL_WEIGHTS["p2"])
    assert not offenders, offenders[:3]
    assert calls[0] > 0  # the fixtures do multiply radicals


# -- every stored entry is in canonical form ---------------------------------------


def _scalar_leaves(obj, seen):
    """Every Scalar, Fraction, float or complex reachable from obj through
    containers and the attributes of qgroupoid objects (ints are always
    canonical, and most are indices)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (Scalar, Fraction, float, complex)):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _scalar_leaves(k, seen)
            yield from _scalar_leaves(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for x in obj:
            yield from _scalar_leaves(x, seen)
    elif type(obj).__module__.startswith("qgroupoid."):
        attrs = dict(getattr(obj, "__dict__", {}))
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    attrs[name] = getattr(obj, name)
        for v in attrs.values():
            yield from _scalar_leaves(v, seen)


def _canonical(x):
    if type(x) is Fraction:
        return x.denominator > 1
    if type(x) is not Scalar:
        return False  # a float or complex
    terms = x.terms
    rational = len(terms) == 1 and terms[0][0] == 1 and not terms[0][2]
    return bool(terms) and not rational and all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for _, re, im in terms
        for c in (re, im)
    )


def _bundles(hopf_z2, m_crossed, m_twosided, x_fun_14, x_conv_uniform, x_group):
    out = {}
    for name, points in (("p2", [1, 2]), ("p3", [1, 2, 3])):
        g = pair_groupoid(points)
        for kind, build in (("functions", build_function_algebroid),
                            ("convolution", build_convolution_algebroid)):
            M = build(g)
            assert verify_regular_mha(M).ok
            out["%s-%s" % (kind, name)] = M
    out["z2"], out["crossed"], out["two-sided"] = x_group.M, m_crossed, m_twosided
    for M in (m_crossed, m_twosided):
        assert verify_regular_mha(M).ok
    for name, X in (("functions-p2", x_fun_14), ("convolution-p2", x_conv_uniform),
                    ("z2", x_group)):
        out["measured-" + name] = (X, modular_automorphism(X, "left"), modular_element(X))
    out["groupoid-rn-p2"] = _groupoid_rn([1, 2], RADICAL_WEIGHTS["p2"])
    out["crossed-rn"] = _crossed_rn(hopf_z2, RADICAL_WEIGHTS["p2"])
    return out


def test_every_stored_entry_is_int_fraction_or_irrational_scalar(
        hopf_z2, m_crossed, m_twosided, x_fun_14, x_conv_uniform, x_group):
    bundles = _bundles(hopf_z2, m_crossed, m_twosided, x_fun_14, x_conv_uniform, x_group)
    kinds = set()
    for name, obj in bundles.items():
        bad = [x for x in _scalar_leaves(obj, set()) if not _canonical(x)]
        assert not bad, (name, bad[:5])
        kinds |= {type(x) for x in _scalar_leaves(obj, set())}
    # the walk reaches both stored forms besides int
    assert kinds == {Fraction, Scalar}


def test_the_walk_reaches_columns_tables_integrals_sigma_and_delta(x_fun_14):
    X, sigma, delta = x_fun_14, modular_automorphism(x_fun_14, "left"), modular_element(x_fun_14)
    found = list(_scalar_leaves((X, sigma, delta), set()))
    # the modular element of the (1, 4) weight has the entries 4 and 1/4
    assert Fraction(1, 4) in found
    planted = Fraction(2)  # an integral Fraction is not canonical
    cols = [dict(c) for c in sigma.mapping.data]
    cols[0][0] = planted
    for obj in (LinearMap(sigma.mapping.rows, sigma.mapping.cols, cols),
                [[{0: planted}]], {"omega": {3: planted}}):
        assert any(not _canonical(x) for x in _scalar_leaves(obj, set()))


# -- no float division --------------------------------------------------------------


def _division_ops(path):
    """The ``/`` and ``/=`` operator tokens of a source file; ``//``,
    strings and comments are other tokens."""
    with open(path, "rb") as fh:
        return [tok for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.OP and tok.string in ("/", "/=")]


def test_no_division_operator_outside_exact_linear():
    package = pathlib.Path(qgroupoid.__file__).parent
    found = [
        "%s:%d: %s" % (path.name, tok.start[0], tok.line.strip())
        for path in sorted(package.glob("*.py")) if path.name != "exact_linear.py"
        for tok in _division_ops(path)
    ]
    assert not found, found


@pytest.mark.parametrize("source, expected", [
    ("a = b / c\n", 1), ("a /= c\n", 1), ("a //= 2  # p / q\n", 0), ('s = "x / y"\n', 0),
])
def test_division_scan_sees_only_the_operator(tmp_path, source, expected):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert len(_division_ops(path)) == expected
