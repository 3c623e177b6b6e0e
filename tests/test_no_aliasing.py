"""Verification, measurement, duals and modification leave their inputs' maps
unchanged.  ``LinearMap.col()`` returns the stored column, so an in-place
accumulation started from a column would silently corrupt the map."""

import dataclasses
import importlib.util
import os

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
from qgroupoid.bialgebroid import _tilde_table
from qgroupoid.exact_linear import LinearMap, apply_legs
from qgroupoid.structure_theory import _modular_automorphism

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)

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


def _stored_values(M):
    """The four tables of M's canonical values, and copies of their values."""
    tables = {which: _tilde_table(M, which) for which in M._DOMAINS}
    return tables, {which: [[dict(v) for v in row] for row in table]
                    for which, table in tables.items()}


def test_the_canonical_value_tables_survive_every_reader():
    # on an associative A canonical_tilde hands out the stored values of
    # one table per canonical map, and the canonical maps keep them as
    # their columns: a caller that wrote into one would change every later
    # reader's.  Convolution p2 is verified, solved, measured, dualized and
    # modified; the M2 tensor algebroid, whose laws its base weights do not
    # decide, is verified and solved, reading the values through
    # _Half.absorbed
    g = pair_groupoid([1, 2])
    M, M2 = build_convolution_algebroid(g), golden_record.matrix_tensor_algebroid()
    stored = [(B, *_stored_values(B)) for B in (M, M2)]
    assert all(any(map(any, rows)) for *_, values in stored for rows in values.values())
    assert M.canonical_tilde("T_rho", 1, 2) is stored[0][1]["T_rho"][2][1]
    for B in (M, M2):
        assert verify_regular_mha(B).ok
        for side in ("left", "right"):
            basis, rep = solve_partial_integrals(B, side)
            assert basis and rep.ok
    phi, psi = standard_integrals("groupoid-convolution", M, groupoid=g)
    mu = {0: sc(1), 1: sc(1)}
    X = assemble_measured(M, BaseWeight(mu_B=dict(mu), mu_C=dict(mu)), phi, psi)
    assert dual_algebra(X).report.ok
    mod, _ = groupoid_rn_modifier(g, WEIGHT)
    modify(M, mod)
    for B, tables, values in stored:
        assert all(_tilde_table(B, which) is table for which, table in tables.items())
        assert _stored_values(B)[1] == values


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
