"""Verification, measurement, duals and modification leave their inputs' maps
unchanged.  ``LinearMap.col()`` returns the stored column, so an in-place
accumulation started from a column would silently corrupt the map."""

import dataclasses

import pytest

from qgroupoid import (
    BaseWeight,
    assemble_measured,
    build_convolution_algebroid,
    build_function_algebroid,
    dual_algebra,
    groupoid_rn_modifier,
    modify,
    modular_automorphism,
    modular_element,
    pair_groupoid,
    sc,
    solve_partial_integrals,
    standard_integrals,
    verify_regular_mha,
)
from qgroupoid.exact_linear import LinearMap, apply_legs
from qgroupoid.structure_theory import _modular_automorphism

WEIGHT = {0: sc(1), 1: sc(4)}
# every module structure of a bundle: its operators are the products of A
# with the embedded base elements, read by every check and solve
STRUCTS = [(kind, emb) for kind in "lr" for emb in ("B", "C", "SB", "SC")]


def snapshot(M):
    names = ("delta_B", "delta_C", "eps_B", "eps_C", "S", "_db_lift", "_dc_lift")
    maps = {name: getattr(M, name) for name in names}
    maps.update(((kind, emb, x), f) for kind, emb in STRUCTS
                for x, f in enumerate(M._struct(kind, emb).acts))
    return {name: [dict(f.col(j)) for j in range(f.cols)] for name, f in maps.items()}


def test_verify_measure_and_dual_leave_the_instance_unchanged():
    g = pair_groupoid([1, 2])
    M = build_function_algebroid(g)
    before = snapshot(M)
    assert verify_regular_mha(M).ok
    assert snapshot(M) == before
    for side in ("left", "right"):
        basis, rep = solve_partial_integrals(M, side)
        assert basis and rep.ok
    assert snapshot(M) == before
    phi, psi = standard_integrals("groupoid-functions", M, groupoid=g)
    X = assemble_measured(M, BaseWeight(mu_B=dict(WEIGHT), mu_C=dict(WEIGHT)), phi, psi)
    assert snapshot(M) == before
    assert dual_algebra(X).report.ok
    assert snapshot(M) == before


def test_modify_leaves_both_instances_unchanged():
    g = pair_groupoid([1, 2])
    M = build_convolution_algebroid(g)
    before = snapshot(M)
    mod, _ = groupoid_rn_modifier(g, WEIGHT)
    Mt = modify(M, mod)
    assert snapshot(M) == before
    after = snapshot(Mt)
    assert verify_regular_mha(Mt).ok
    assert snapshot(Mt) == after


def test_cached_slices_and_flips_still_equal_fresh_descents():
    # a caller that mutated a memoized map would corrupt every later caller
    g = pair_groupoid([1, 2])
    M = build_function_algebroid(g)
    phi, psi = standard_integrals("groupoid-functions", M, groupoid=g)
    X = assemble_measured(M, BaseWeight(mu_B=dict(WEIGHT), mu_C=dict(WEIGHT)), phi, psi)
    modular_element(X)
    dual_algebra(X)
    tensors = [M.qb, M.qc] + [dom for _, dom in M.canonical().values()]
    seen = set()
    for tensor in tensors:
        for key, stored in list(tensor._op_cache.items()):
            if key[0] not in ("slice", "flip"):
                continue
            seen.add(key[0])
            del tensor._op_cache[key]
            fresh = tensor.slice(*key[1:]) if key[0] == "slice" else tensor.flip_to(key[1])
            assert fresh == stored, (tensor, key[0])
    assert seen == {"slice", "flip"}


def test_memoized_sigma_still_equals_a_fresh_computation():
    # measure reads sigma directly and through modular_element; dual reads it too
    g = pair_groupoid([1, 2])
    M = build_function_algebroid(g)
    phi, psi = standard_integrals("groupoid-functions", M, groupoid=g)
    X = assemble_measured(M, BaseWeight(mu_B=dict(WEIGHT), mu_C=dict(WEIGHT)), phi, psi)
    sigma = modular_automorphism(X, "left")
    modular_element(X)
    dual_algebra(X)
    assert modular_automorphism(X, "left") is sigma
    fresh = _modular_automorphism(X, "left")
    assert sigma.mapping == fresh.mapping
    assert sigma.report.entries == fresh.report.entries
    assert dataclasses.replace(X)._sigma is None


def test_canonical_values_are_fresh_vectors():
    # verify, the partial-integral solve and modify all read Delta(d) e_e
    # through canonical_tilde, which stores no value: every call builds a
    # new vector, so a caller that writes into one changes no later value
    M = build_convolution_algebroid(pair_groupoid([1, 2]))
    n = M.A.dim
    keys = [(which, a, b) for which in M._DOMAINS for a in range(n) for b in range(n)]
    before = {key: dict(M.canonical_tilde(*key)) for key in keys}
    assert any(before.values())
    for key in keys:
        value = M.canonical_tilde(*key)
        assert value == before[key] and value is not M.canonical_tilde(*key), key
        for k in value:
            value[k] = sc(7)
        value[-1] = sc(1)
    assert {key: M.canonical_tilde(*key) for key in keys} == before
    assert verify_regular_mha(M).ok


def test_apply_legs_returns_a_fresh_vector():
    # modify and coassociativity accumulate into what apply_legs returns;
    # w is a stored column, and f and g are cached operators or the lifted
    # Delta, an n -> n^2 map
    M = build_convolution_algebroid(pair_groupoid([1, 2]))
    n, lift = M.A.dim, M._db_lift
    f, g, w = M.A.rmul(2), M.A.lmul(2), lift.col(1)

    def state():
        return [dict(c) for m in (f, g, lift) for c in m.data], dict(w)

    before = state()
    for legs in ((f, None), (None, g), (f, g), (lift, None), (None, lift), (None, None)):
        out = apply_legs(*legs, w, n)
        assert out
        for k in out:
            out[k] = sc(7)
        out[-1] = sc(1)
        assert state() == before, legs


def test_descended_maps_share_one_read_only_zero_column():
    # a memoized leg multiplication, slice or flip keeps one column per basis
    # element of its tensor, and most are zero: each must be the one shared
    # read-only mapping, so that it costs a pointer and cannot be written
    g = pair_groupoid([1, 2, 3])
    M = build_function_algebroid(g)
    assert verify_regular_mha(M).ok
    # verify decides this bundle's leg laws on the weights and builds no
    # leg multiplication, so one is built here
    M.qb.leg_op(2, "r", 0)
    phi, psi = standard_integrals("groupoid-functions", M, groupoid=g)
    mu = {0: sc(1), 1: sc(4), 2: sc(9)}
    assert assemble_measured(M, BaseWeight(mu_B=dict(mu), mu_C=dict(mu)), phi, psi).report.ok
    zeros, kinds = {}, set()
    for tensor in M._tensors.values():
        for key, stored in tensor._op_cache.items():
            if isinstance(stored, LinearMap):
                kinds.add(key[0] if isinstance(key[0], str) else "leg")
                zeros.update((id(col), col) for col in stored.data if not col)
    assert kinds == {"leg", "slice", "flip"}
    [zero] = zeros.values()
    with pytest.raises(TypeError):
        zero[0] = sc(1)
    assert not zero
