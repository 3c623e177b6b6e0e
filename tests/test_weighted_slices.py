"""Slices, canonical maps and the partial-integral system decided on the
base weights equal their general paths.

``BalancedTensor.slice`` decides a slice on a coordinate quotient, by a
structure with weights, from one pairing per basis element and weight
group (``_slice_by_weights``); the general path is
``descend_componentwise``.  ``RegularMHA.canonical_tilde``, and so
``canonical_map``, reads its values from the lifted Delta when A is
associative (``_tilde_table``); they are compared with conftest's
independent oracle of the descended leg multiplication, the path on any
other A.  ``_partial_integral_basis``
states one slice law per comultiplied element when A is unital and
associative and the tensor is a coordinate quotient; the general path
states one per pair.  Each is compared here with its general path, and
work counts pin that the pipeline takes the weighted paths.
"""

import importlib.util
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroupoid import balanced_tensor, cli, integration
from qgroupoid.balanced_tensor import BalancedTensor, descend_componentwise
from qgroupoid.bialgebroid import RegularMHA, _halves, _tilde_table, verify_regular_mha
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    pair_groupoid,
    standard_integrals,
)
from qgroupoid.exact_linear import ONE, LinearMap, axpy, sc


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(os.path.dirname(__file__), *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_record = _load("golden_record", "golden", "record.py")
law_shortcuts = _load("law_shortcuts", "test_law_shortcuts.py")
_basis_changed, _outcome = law_shortcuts._basis_changed, law_shortcuts._outcome

_BUILDS = {"functions": (build_function_algebroid, "groupoid-functions"),
           "convolution": (build_convolution_algebroid, "groupoid-convolution")}
_BUNDLES = {}


def _bundle(name):
    """(M, {letter: maps A -> that base}) for "functions-p2" and its
    siblings, built once: the half's counit, the partial integral into
    its base, the other one moved there as ``_integral_slice`` moves it,
    and the other counit moved by the base anti-isomorphism."""
    if name not in _BUNDLES:
        build, points = name.split("-")
        make, kind = _BUILDS[build]
        g = pair_groupoid(list(range(1, int(points[1:]) + 1)))
        M = make(g)
        phi, psi = (f.mapping for f in standard_integrals(kind, M, groupoid=g))
        maps = {"B": [M.eps_B, psi, M.S_B.inverse().compose(phi), M.S_C.compose(M.eps_C)],
                "C": [M.eps_C, phi, M.S_C.inverse().compose(psi), M.S_B.compose(M.eps_B)]}
        _BUNDLES[name] = M, maps
    return _BUNDLES[name]


_EMBEDDINGS = {"B": "B", "SB": "B", "C": "C", "SC": "C"}  # embedding -> its base


def _by_products(M, kind, emb, mapping, leg):
    """e_i (x) e_j -> emb(mapping(c)) e_d (kind "l") or e_d emb(mapping(c))
    (kind "r"), (c, d) the consumed and the other leg: the map
    ``M.tensor(...).slice(M._struct(kind, emb), mapping, leg)`` descends,
    written with A's product and the embedding alone."""
    A = M.A
    embed = {"B": M.B.embed, "C": M.C.embed, "SB": M.emb_SB(), "SC": M.emb_SC()}[emb]

    def fn(i, j):
        c, d = (i, j) if leg == 1 else (j, i)
        value = embed.apply(mapping.col(c))
        return A.mul(value, {d: ONE}) if kind == "l" else A.mul({d: ONE}, value)

    return fn


def _compare(M, tensor, kind, emb, mapping, leg):
    """The slice, taken afresh, against the checked descent of its map;
    returns whether it descended."""
    struct = M._struct(kind, emb)
    tensor._op_cache.pop(("slice", struct, mapping, leg), None)
    got = _outcome(lambda: tensor.slice(struct, mapping, leg, what="drawn slice"))
    expected = _outcome(lambda: descend_componentwise(
        tensor, None, _by_products(M, kind, emb, mapping, leg),
        "drawn slice is not balanced for flavor {src!r}"))
    assert got == expected, (M.name, tensor.flavor, kind, emb, leg)
    return got[1] is None


_COEFFICIENT = st.sampled_from([0, 0, 1, -1, 2, sc(Fraction(1, 2))])


@st.composite
def _slices(draw):
    """A slice through one of the six tensors of functions or convolution
    p2 or p3, by one of the eight module structures, on either leg: the
    mapping a drawn combination of the counits and the standard integrals
    moved into the structure's base, plus, half the time, one drawn
    entry, so that some slices descend and others do not."""
    M, maps = _bundle(draw(st.sampled_from(
        ["functions-p2", "convolution-p2", "functions-p3", "convolution-p3"])))
    tensor = M.tensor(draw(st.sampled_from(sorted(RegularMHA._RECIPES))))
    kind, emb = draw(st.sampled_from("lr")), draw(st.sampled_from(sorted(_EMBEDDINGS)))
    candidates = maps[_EMBEDDINGS[emb]]
    dim, n = candidates[0].rows, M.A.dim
    cols = [{} for _ in range(n)]
    for f in candidates:
        c = draw(_COEFFICIENT)
        for a in range(n):
            axpy(cols[a], c, f.col(a))
    if draw(st.booleans()):
        a, x = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
        axpy(cols[a], draw(_COEFFICIENT.filter(bool)), {x: ONE})
    return M, tensor, kind, emb, LinearMap(dim, n, cols), draw(st.sampled_from([1, 2]))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_slices())
def test_drawn_slices_by_weights_equal_the_checked_descent(case):
    M, tensor, kind, emb, mapping, leg = case
    assert tensor.coordinate and M._struct(kind, emb).weights is not None
    _compare(M, tensor, kind, emb, mapping, leg)


@pytest.mark.parametrize("name", ["functions-p2", "convolution-p2",
                                  "functions-p3", "convolution-p3"])
def test_the_pipelines_slices_by_weights_equal_the_checked_descent(name):
    # the counit slices and the partial-integral slices of both halves on
    # both legs, the dual's T_lambda slice by phi_C acting from either
    # side, and each of them with e_x added to one column
    M, maps = _bundle(name)
    phi = maps["C"][1]
    cases = [(M.tensor("btA⊗bAt"), kind, "C", phi, 1) for kind in "lr"]
    for h in _halves(M):
        for leg in (1, 2):
            e = h.on_leg(leg)
            struct = h.struct(e)
            kind, emb = next(key for key, s in M._structs.items() if s is struct)
            for mapping in maps[h.letter][:3]:
                cases.append((h.q, kind, emb, mapping, leg))
    verdicts = set()
    for tensor, kind, emb, mapping, leg in cases:
        for a in (None, *range(mapping.cols)):
            for x in (range(mapping.rows) if a is not None else [None]):
                cols = [dict(col) for col in mapping.data]
                if a is not None:
                    axpy(cols[a], ONE, {x: ONE})
                changed = LinearMap(mapping.rows, mapping.cols, cols)
                verdicts.add(_compare(M, tensor, kind, emb, changed, leg))
    assert verdicts == {True, False}


def test_echelon_tensors_keep_the_checked_slices(monkeypatch):
    # the M2 base has no weights, and the basis-changed bundles' tensors
    # are echelon quotients: their counit slices are checked descents
    by_weights, checked = [], []
    real_weights, real_descent = BalancedTensor._slice_by_weights, descend_componentwise

    def weights_spy(self, *args):
        by_weights.append(self)
        return real_weights(self, *args)

    def descent_spy(src, dst, *args, **kwargs):
        checked.append(dst)
        return real_descent(src, dst, *args, **kwargs)

    monkeypatch.setattr(BalancedTensor, "_slice_by_weights", weights_spy)
    monkeypatch.setattr(balanced_tensor, "descend_componentwise", descent_spy)
    for M in [golden_record.matrix_tensor_algebroid(), *_basis_changed()]:
        checked.clear()
        assert verify_regular_mha(M).ok
        assert checked.count(None) == 4, M.name  # two counit slices per half
    assert by_weights == []


# -- canonical maps ------------------------------------------------------------


def test_canonical_maps_equal_the_descended_operator_on_delta(request, leg_op_by_components):
    # the columns, read from the lifted Delta on an associative A, against
    # the independent oracle's multiplication by e_u on the map's leg,
    # applied to Delta(d), at every free coordinate of the domain; on every
    # associative A the table builder's values there too, which on the
    # moved bundles' echelon quotients it projects
    moving = law_shortcuts.sparse_descent
    moved = [moving._transport(M, moving._CHANGES[change](M.A.dim))
             for build in (build_function_algebroid, build_convolution_algebroid)
             for change in ("ones", "seeded") for M in [build(pair_groupoid([1, 2, 3]))]]
    bundles = ([_bundle(name)[0] for name in ("functions-p3", "convolution-p3")]
               + [request.getfixturevalue(name) for name in ("m_fun", "m_conv", "m_group",
                                                             "m_tensor", "m_crossed",
                                                             "m_twosided", "m_h4_crossed",
                                                             "m_conv_mod")]
               + [golden_record.matrix_tensor_algebroid(), *_basis_changed(), *moved]
               + [golden_record.nonassociative_bundle(build)
                  for build in (build_function_algebroid, build_convolution_algebroid)]
               + [M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants())
    gated, raised, projected = 0, 0, 0
    for M in bundles:
        n = M.A.dim
        for which, (letter, leg, side) in RegularMHA._TILDES.items():
            q, delta = (M.qb, M.delta_B) if letter == "B" else (M.qc, M.delta_C)
            dom = M.tensor(RegularMHA._DOMAINS[which])
            pairs = [divmod(p, n) for p in dom.space.free]
            ops = {}

            def column(u, d):
                if u not in ops:
                    ops[u] = leg_op_by_components(q, leg, side, {u: ONE})
                return ops[u].apply(delta.col(d))

            expected = _outcome(lambda: [column(*((a, b) if leg == 1 else (b, a)))
                                         for a, b in pairs])
            got = _outcome(lambda: list(M.canonical_map(which)[0].data))
            assert got == expected, (M.name, which)
            raised += got[1] is not None
            if M.A.is_associative()[0]:
                tildes = _tilde_table(M, which)
                built = [tildes[a][b] if leg == 1 else tildes[b][a] for a, b in pairs]
                assert (built, None) == expected, (M.name, which)
        gated += M.qb.coordinate and M.A.is_associative()[0]
        projected += not M.qb.coordinate and M.A.is_associative()[0]
    assert gated and raised and projected  # non-associative convolution p2 raises


def test_canonical_maps_build_no_leg_operator(monkeypatch):
    legs = []
    real = BalancedTensor.leg_op

    def spy(self, *args):
        legs.append(args)
        return real(self, *args)

    monkeypatch.setattr(BalancedTensor, "leg_op", spy)
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2, 3]))
        assert all(m.is_bijective() for m, _ in M.canonical().values())
    assert legs == []


def test_verify_reads_no_canonical_value_through_a_leg_operator(monkeypatch):
    # on the M2 tensor algebroid, whose base is not diagonal, each leg
    # operator verify builds is asked for by a law's own scan, never by
    # canonical_tilde: every canonical value is read from the table
    callers = []
    real = BalancedTensor.leg_op

    def spy(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, *args)

    monkeypatch.setattr(BalancedTensor, "leg_op", spy)
    M = golden_record.matrix_tensor_algebroid()
    assert verify_regular_mha(M).ok
    assert callers and "canonical_tilde" not in callers


# -- the partial-integral system -----------------------------------------------


def _slice_forms(monkeypatch):
    """The (h, leg, a, b) of every ``_slice_form`` call of integration."""
    calls = []
    real = integration._slice_form

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(integration, "_slice_form", spy)
    return calls


def _basis(M, side):
    return _outcome(lambda: integration._partial_integral_basis(M, side))


@pytest.mark.parametrize("kind", ["fixtures", "sweep", "single-product"])
def test_the_n_law_system_has_the_n_squared_law_kernel_basis(request, monkeypatch, kind):
    # the same basis maps in the same order, with the gate forced off by
    # taking A for non-unital during the call
    if kind == "fixtures":
        bundles = [request.getfixturevalue(name) for name in (
            "m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided",
            "m_h4_crossed", "m_conv_mod")]
        bundles += [_bundle(name)[0] for name in ("functions-p3", "convolution-p3")]
        bundles.append(golden_record.nonassociative_bundle())
    elif kind == "sweep":
        bundles = [M for _, M in golden_record.sweep_bundles()]
    else:
        bundles = [M for _, M in golden_record.single_product_changes()]
    forms = _slice_forms(monkeypatch)
    gated = declined = 0
    for M in bundles:
        for side in ("left", "right"):
            forms.clear()
            got = _basis(M, side)
            on_gate = not forms
            with monkeypatch.context() as patch:
                patch.setattr(M.A, "unit", lambda: None)
                expected = _basis(M, side)
            assert got == expected, (M.name, side)
            assert forms, (M.name, side)  # the general path states the n^2 laws
            gated += on_gate
            declined += not on_gate
            if M.name == "nonassociative":
                assert not on_gate
    # no single-product change of p2 keeps A both unital and associative
    assert bool(gated) == (kind != "single-product")
    assert bool(declined) == (kind != "sweep")


def test_a_passing_p3_integral_solve_states_no_pair_law(monkeypatch):
    forms = _slice_forms(monkeypatch)
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2, 3]))
        for side in ("left", "right"):
            basis, rep = integration.solve_partial_integrals(M, side)
            assert basis and rep.ok
    assert forms == []


def test_integrals_measure_and_dual_make_no_checked_slice_descent(monkeypatch, tmp_path):
    # functions and convolution p3: every slice is decided on the weights
    callers = []
    real = balanced_tensor.descend_componentwise

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(balanced_tensor, "descend_componentwise", spy)
    out = str(tmp_path / "out.jsonl")
    for example, mu in (("function-algebroid", "1,4,9"), ("convolution", "1,1,1")):
        for command in ("integrals", "measure", "dual"):
            args = [command, "--example", example, "--pair-groupoid", "1,2,3", "--out", out]
            assert cli.main(args + (["--mu", mu] if command != "integrals" else [])) == 0
    assert callers == []
