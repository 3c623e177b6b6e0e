"""Verification suites, canonical maps, antipode derivation, star structures."""

import importlib.util
import os
import sys

import pytest

from qgroupoid import algebra_core, balanced_tensor, bialgebroid, exact_linear
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.bialgebroid import (
    RegularMHA,
    _Half,
    _hom_space,
    canonical_maps,
    derive_antipode,
    derive_counits,
    verify_left_bialgebroid,
    verify_regular_mha,
    verify_right_bialgebroid,
    verify_star,
)
from qgroupoid.examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    build_tensor_algebroid,
    pair_groupoid,
)
from qgroupoid.balanced_tensor import BalancedTensor, NotBalanced, TripleTensor
from qgroupoid.exact_linear import (
    ONE,
    LinearMap,
    QuotientSpace,
    axpy,
    kron,
    kron_vec,
    stack_equations,
    unstack,
    vec_conj,
    vec_items,
)
from qgroupoid.report import first_failure

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


def test_function_algebroid_full_suite(m_fun):
    rep = verify_regular_mha(m_fun)
    assert rep.ok, rep.to_json_lines()
    assert verify_star(m_fun).ok


def test_convolution_algebroid_full_suite(m_conv):
    rep = verify_regular_mha(m_conv)
    assert rep.ok, rep.to_json_lines()
    assert verify_star(m_conv).ok


def test_trivial_base_tensor_algebroid():
    f1 = FiniteAlgebra.pointwise(["pt"])
    m = build_tensor_algebroid(f1, f1, LinearMap.identity(1), LinearMap.identity(1))
    assert m.A.dim == 1
    assert verify_regular_mha(m).ok


def test_canonical_maps_bijective_on_p2(m_fun, m_conv):
    for m in (m_fun, m_conv):
        maps, rep = canonical_maps(m)
        assert rep.ok
        for which in ("T_lambda", "T_rho", "lambda_T", "rho_T"):
            assert maps[which]["map"].rows == 8
            assert maps[which]["inverse"] is not None


def test_antipode_formula_on_p2(m_fun, p2):
    # S(f)(i, j) = f(j, i)
    aidx = p2.index
    for k, a in enumerate(p2.arrows):
        expected = {aidx[(a[1], a[0])]: ONE}
        assert m_fun.S.col(k) == expected


def test_derive_antipode_matches_stored(m_fun, m_conv, m_tensor):
    for m in (m_fun, m_conv, m_tensor):
        derived, err = derive_antipode(m)
        assert err is None
        assert derived == m.S


def test_tensor_antipode_swaps_legs(m_tensor):
    # S(y (x) x) = S_B(x) (x) S_C(y); the bases here carry identity anti-isos
    n = m_tensor.A.dim
    for y in range(2):
        for x in range(2):
            k = y * 2 + x
            assert m_tensor.S.col(k) == {x * 2 + y: ONE}


def test_derived_counits_match_stored(m_fun):
    eps_b, eps_c = derive_counits(m_fun)
    assert eps_b == m_fun.eps_B
    assert eps_c == m_fun.eps_C


def test_swapped_legs_break_bimodule_law(m_fun, p2):
    # comultiplication with reversed legs fails the bimodule axiom
    n = m_fun.A.dim
    aidx = p2.index

    def delta_col(k):
        gamma = p2.arrows[k]
        out = {}
        for (a, b) in p2.composable_pairs():
            if p2.compose[(a, b)] == gamma:
                out[aidx[b] * n + aidx[a]] = ONE  # legs swapped
        return out

    raw = LinearMap.from_function(n * n, n, delta_col)
    broken = RegularMHA(
        m_fun.A, m_fun.B, m_fun.C, m_fun.S_B, m_fun.S_C, raw,
        LinearMap.from_function(n * n, n, lambda k: dict(m_fun._dc_lift.col(k))),
        eps_B=m_fun.eps_B, eps_C=m_fun.eps_C, S=m_fun.S,
    )
    rep = verify_left_bialgebroid(broken)
    assert rep.status_of("left-delta-bimodule") == "fail"


def test_zeroed_leg_makes_canonical_map_singular(m_fun):
    # kill the coproduct of one basis element: T_lambda loses rank
    n = m_fun.A.dim
    raw_cols = [dict(m_fun._db_lift.col(k)) for k in range(n)]
    raw_cols[1] = {}
    raw = LinearMap(n * n, n, raw_cols)
    broken = RegularMHA(
        m_fun.A, m_fun.B, m_fun.C, m_fun.S_B, m_fun.S_C, raw,
        LinearMap.from_function(n * n, n, lambda k: dict(m_fun._dc_lift.col(k))),
        eps_B=m_fun.eps_B, eps_C=m_fun.eps_C, S=m_fun.S,
    )
    maps, rep = canonical_maps(broken)
    assert not rep.ok
    failing = [e for e in rep.failures() if e.axiom.endswith("bijective")]
    assert failing and failing[0].witness is not None


def test_identity_comultiplication_fake_is_inconsistent():
    # Delta(a) = a (x) 1 with the genuine counits: the antipode system has
    # no solution
    a = FiniteAlgebra.pointwise(["u", "v"])
    from qgroupoid.algebra_core import BaseEmbedding

    base = FiniteAlgebra.pointwise(["pt"])
    emb = BaseEmbedding(base, a, LinearMap.from_rows([[1], [1]]))
    one = a.unit()
    raw = LinearMap.from_function(4, 2, lambda k: kron_vec({k: ONE}, one, 2))
    fake = RegularMHA.__new__(RegularMHA)
    fake.A, fake.B, fake.C = a, emb, emb
    fake.S_B = LinearMap.identity(1)
    fake.S_C = LinearMap.identity(1)
    fake.name = "fake"
    fake._tensors = {}
    fake._canonical = None
    qb, qc = fake.tensor("bsA⊗btA"), fake.tensor("cAt⊗cAs")
    fake.delta_B = LinearMap.from_function(qb.dim, 2, lambda j: qb.project(raw.col(j)))
    fake.delta_C = LinearMap.from_function(qc.dim, 2, lambda j: qc.project(raw.col(j)))
    fake._db_lift = qb.space.section.compose(fake.delta_B)
    fake._dc_lift = qc.space.section.compose(fake.delta_C)
    fake.eps_B = LinearMap.from_rows([[1, 1]])
    fake.eps_C = LinearMap.from_rows([[1, 1]])
    fake.S = LinearMap.identity(2)
    derived, err = derive_antipode(fake)
    assert derived is None
    assert err is not None


def test_star_violating_antiiso_compatibility_fails_item_two():
    # componentwise conjugation with a swapped S_B breaks the round trip
    b = FiniteAlgebra.pointwise(["u1", "u2"], involution=LinearMap.identity(2))
    c = FiniteAlgebra.pointwise(["v1", "v2"], involution=LinearMap.identity(2))
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    m = build_tensor_algebroid(b, c, swap, LinearMap.identity(2))
    assert verify_regular_mha(m).ok
    m.A.involution = LinearMap.identity(4)
    rep = verify_star(m)
    assert not rep.ok
    assert any(e.eq == "involution-2" for e in rep.failures())


def _matrix_units_starred(s_c):
    """The tensor algebroid of M2 over M2 with S_B the transpose T and S_C
    as given, B starred by T and C by x -> J x^T J, J = diag(1, -1), and A
    = C (x) B starred factor by factor: its two base stars differ."""
    def mul(i, j):
        (a, b), (c, d) = divmod(i, 2), divmod(j, 2)
        return {a * 2 + d: ONE} if b == c else {}

    def m2(star):
        return FiniteAlgebra.from_mul(4, mul, labels=["e11", "e12", "e21", "e22"], involution=star)

    M = build_tensor_algebroid(m2(_T), m2(_JTJ), _T, s_c)
    M.A.involution = kron(_JTJ, _T)
    return M


_T = LinearMap.from_function(4, 4, lambda k: {(k % 2) * 2 + k // 2: ONE})
_JTJ = LinearMap.from_function(
    4, 4, lambda k: {(k % 2) * 2 + k // 2: ONE if k in (0, 3) else -ONE})


def test_verify_star_keeps_the_two_base_stars_apart():
    M = _matrix_units_starred(_JTJ)
    assert verify_regular_mha(M).ok and verify_star(M).ok
    # with S_C = T both round trips are T o (x -> J x^T J) = (x -> J x J),
    # which sends e12 to -e12 on either base
    rep = verify_star(_matrix_units_starred(_T))
    assert [e.axiom for e in rep.failures()][:2] == ["SB-star-SC-star", "SC-star-SB-star"]


def test_extended_unit_comultiplication(m_fun):
    # Delta(x y 1) acts as y (x) x -- covered by the suite, asserted directly
    a = m_fun.A
    for x in range(2):
        bx = m_fun.B.embed.col(x)
        for y in range(2):
            cy = m_fun.C.embed.col(y)
            assert m_fun.delta_B.apply(a.mul(bx, cy)) == m_fun.qb.pure(cy, bx)


def test_report_entries_carry_labels(m_fun):
    rep = verify_regular_mha(m_fun)
    assert all(e.eq for e in rep.entries)
    labels = {e.eq for e in rep.entries}
    for expected in ("left-delta-bimodule", "delta-coassociative", "left-counit",
                     "compatible", "regular-2", "dg-antipode", "dg-galois-antipode"):
        assert expected in labels


class _Unweighted(algebra_core.ModuleStructure):
    weights = None


def _module_laws_by_form(monkeypatch, M):
    """M's bases acting on themselves without weights, so that every
    ``module_map_laws`` of a base's own action states the full (x, a) form."""
    own = M._own_struct
    monkeypatch.setattr(M, "_own_struct", lambda kind, letter: _Unweighted(
        *(getattr(own(kind, letter), k) for k in ("base", "total", "acts", "side"))))


def test_counit_system_keeps_law_and_module_rows_apart(m_fun, monkeypatch):
    # functions of p2: the counit's law equations span n = 4 rows and its
    # module equations one row each on the weights (s, then t), dim_b = 2
    # in the full (x, a) form, and a Hom space's one group likewise; each
    # equation must keep rows of its own in the stacked system
    stacked = []

    def spy(groups, unknowns):
        groups = [(width, list(equations)) for width, equations in groups]
        stacked.append((groups, unknowns))
        return stack_equations(groups, unknowns)

    for module in (bialgebroid, balanced_tensor):  # the counits, the Hom space
        monkeypatch.setattr(module, "stack_equations", spy)
    systems = []
    for width in (1, 2):
        with monkeypatch.context() as patch:
            if width == 2:
                _module_laws_by_form(patch, m_fun)
            stacked.clear()
            derive_counits(m_fun)
            _hom_space(_Half(m_fun, "B"), "s")
        counit, hom = stacked[0], stacked[-1]  # the left counit, then the Hom space
        assert [w for w, _ in counit[0]] == [4, width, width] and counit[1] == 8
        assert [w for w, _ in hom[0]] == [width] and hom[1] == 8
        systems += [counit, hom]
    for groups, unknowns in systems:
        assert all(equations for _, equations in groups)
        stride = max(width for width, _ in groups)
        system, rhs = stack_equations(groups, unknowns)
        assert system.rows == sum(len(equations) for _, equations in groups) * stride
        cols, want_rhs, first = [{} for _ in range(unknowns)], {}, 0
        for width, equations in groups:
            alone, alone_rhs = stack_equations([(width, equations)], unknowns)

            def moved(v):  # equation e of the group, row r -> rows of equation first + e
                return {(first + k // width) * stride + k % width: s for k, s in v.items()}

            for acc, v in [(want_rhs, alone_rhs)] + list(zip(cols, alone.data)):
                assert not acc.keys() & moved(v).keys()
                acc.update(moved(v))
            first += len(equations)
        assert rhs == want_rhs
        assert list(system.data) == cols


def test_a_passing_bundle_builds_no_triple_quotient(m_conv):
    # every coassociativity side pair is literally equal on these bundles
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2]))
        assert verify_regular_mha(M).ok
        assert M._triples is None
    # sides that differ are still compared in the quotient
    M = _delta_b_replaced(m_conv, 1, 1, 0)
    rep = verify_regular_mha(M)
    assert _failure(rep, "mixed-coassociativity-1") is not None
    assert list(M._triples) == ["BC"]


def test_coassociativity_witness_shows_both_sides_reduced(m_conv):
    # oracle: every (a, c) at each b in order, compared in a fresh quotient
    M = _delta_b_replaced(m_conv, 1, 1, 0)
    labels, triple, n = M.A.labels, TripleTensor(M.A, M.qb, M.qc, "BC"), M.A.dim
    expected = next(
        {"at": (labels[a], labels[b], labels[c]),
         "lhs": vec_items(triple.reduce(lhs)), "rhs": vec_items(triple.reduce(rhs))}
        for b, c, L, R in bialgebroid._coassociativity_blocks(M, "BC", range(n))
        for a, (lhs, rhs) in enumerate(zip(unstack(L, n ** 3, n), unstack(R, n ** 3, n)))
        if triple.reduce(lhs) != triple.reduce(rhs)
    )
    assert expected["lhs"] != expected["rhs"]
    assert _failure(verify_regular_mha(M), "mixed-coassociativity-1") == expected


def _delta_b_replaced(M, col, i, j):
    """M with Delta_B(e_col) replaced by e_i (x) e_j."""
    n = M.A.dim
    raw_b = LinearMap.from_function(
        n * n, n,
        lambda k: kron_vec({i: ONE}, {j: ONE}, n) if k == col else M.qb.lift(M.delta_B.col(k)))
    raw_c = LinearMap.from_function(n * n, n, lambda k: M.qc.lift(M.delta_C.col(k)))
    return RegularMHA(M.A, M.B, M.C, M.S_B, M.S_C, raw_b, raw_c,
                      eps_B=M.eps_B, eps_C=M.eps_C, S=M.S, name="mutant")


def _failure(rep, axiom):
    (entry,) = [e for e in rep.entries if e.axiom == axiom]
    return None if entry.status == "pass" else entry.witness


def test_delta_operator_and_delta_star_witnesses_are_the_first_in_scan_order(
        m_conv, leg_op_by_components):
    # oracles: the generator scan (b outer) and the (a, b, c) loop, in order
    A, n, qb, qc, star = m_conv.A, m_conv.A.dim, m_conv.qb, m_conv.qc, m_conv.A.star
    rmul1, rmul2, lmul1, lmul2 = (
        lambda u, q=q, slot=slot, side=side: leg_op_by_components(q, slot, side, u)
        for q, slot, side in ((qb, 1, "r"), (qb, 2, "r"), (qc, 1, "l"), (qc, 2, "l")))
    seen = set()
    for col, i, j in ((0, 0, 1), (1, 1, 0), (2, 2, 3), (1, 1, 1)):
        M = _delta_b_replaced(m_conv, col, i, j)
        expected = next(
            ({"delta_of": A.labels[b], "relation": gen}
             for b in range(n)
             for gen, rel in zip(qb.generators, qb.relation_vectors())
             if not qb.space.contains_relation(bialgebroid.tensor_mul(A, M._db_lift.col(b), rel))),
            None)
        assert _failure(verify_regular_mha(M), "left-delta-operator") == expected
        star_qc_qb = bialgebroid.descend_componentwise(
            qc, qb, lambda i, j: kron_vec(star({i: ONE}), star({j: ONE}), n), "", antilinear=True)
        sides = (
            ((a, b, c),
             rmul2(star({c: ONE})).apply(rmul1(star({b: ONE})).apply(
                 M.delta_B.apply(star({a: ONE})))),
             star_qc_qb.apply(vec_conj(lmul2({c: ONE}).apply(
                 lmul1({b: ONE}).apply(M.delta_C.col(a))))))
            for a in range(n) for b in range(n) for c in range(n)
        )
        expected_star = first_failure(sides)
        assert _failure(verify_star(M), "delta-star-compatibility") == expected_star
        seen.add((expected is None, expected_star is None))
    assert seen == {(False, False), (True, True)}


def _compatibility_failure(M):
    """The first failure, in (b, c, a) order, of the compatibility of the
    canonical maps (T_lambda (x) id)(id (x) T_rho) = (id (x) T_rho)(T_lambda
    (x) id) on e_a (x) e_b (x) e_c, or None.  Each side is computed from
    its formula: the second map is applied to the lift of the first map's
    value, term by term, with ``canonical_tilde``, and the sides are
    compared as canonical residues in the triple tensor of kind BB."""
    A, n, qb = M.A, M.A.dim, M.qb
    triple = TripleTensor(A, qb, qb, "BB")

    def lifted(which, a, b):
        return qb.lift(M.canonical_tilde(which, a, b))

    for b in range(n):
        for c in range(n):
            for a in range(n):
                lhs, rhs = {}, {}
                # (T_lambda (x) id)(e_a (x) T_rho(b, c))
                for ij, s in lifted("T_rho", b, c).items():
                    i, j = divmod(ij, n)
                    axpy(lhs, s, kron_vec(lifted("T_lambda", a, i), {j: ONE}, n))
                # (id (x) T_rho)(T_lambda(a, b) (x) e_c)
                for ij, s in lifted("T_lambda", a, b).items():
                    i, j = divmod(ij, n)
                    axpy(rhs, s, kron_vec({i: ONE}, lifted("T_rho", j, c), n * n))
                lhs, rhs = triple.reduce(lhs), triple.reduce(rhs)
                if lhs != rhs:
                    return {"at": (A.labels[a], A.labels[b], A.labels[c]),
                            "lhs": vec_items(lhs), "rhs": vec_items(rhs)}
    return None


def test_canonical_map_compatibility_fails_where_left_coassociativity_does(request):
    # galois-compatibility is read from left-coassociativity; the diagram,
    # computed from the canonical maps alone, must fail on exactly the same
    # bundles with the same first witness.  The bundles: the fixtures, the
    # golden Delta_B mutants, the single-term mutants and the sweep set
    mutant = golden_record.mutant_bundle
    bundles = ([request.getfixturevalue(name) for name in (
                   "m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided",
                   "m_h4_crossed", "m_conv_mod")]
               + [mutant("delta_B", 0),
                  mutant("delta_B", 1, build_convolution_algebroid, add_col=0),
                  mutant("delta_B", 0, build_convolution_algebroid, term=(0, 1)),
                  golden_record.nonassociative_bundle()]
               + golden_record.single_term_mutants()
               + [M for _, M in golden_record.sweep_bundles()])
    failed = 0
    for M in bundles:
        rep = verify_regular_mha(M)
        expected = _compatibility_failure(M)
        assert _failure(rep, "left-coassociativity") == expected, M.name
        assert _failure(rep, "galois-compatibility") == expected, M.name
        failed += expected is not None
    # the three golden Delta_B mutants, the non-associative functions p2,
    # four single-term mutants and eight of the sweep
    assert failed == 16


def test_delta_star_witness_is_the_first_of_a_full_scan(leg_op_by_components):
    # an imaginary entry of Delta_C, so the conjugation of the stacked right
    # side counts; a corrupted memo would go unread at an a whose Delta_C(a)
    # is the star of Delta_B(a*), where the law is decided without a scan
    M = golden_record.imaginary_term_mutant()
    A, n, qb, qc, star = M.A, M.A.dim, M.qb, M.qc, M.A.star
    rmul1, rmul2 = ([leg_op_by_components(qb, slot, "r", star({u: ONE})) for u in range(n)]
                    for slot in (1, 2))
    lmul2 = [leg_op_by_components(qc, 2, "l", {u: ONE}) for u in range(n)]
    star_qc_qb = bialgebroid.descend_componentwise(
        qc, qb, lambda i, j: kron_vec(star({i: ONE}), star({j: ONE}), n), "", antilinear=True)
    expected = first_failure(
        ((a, b, c),
         rmul2[c].apply(rmul1[b].apply(M.delta_B.apply(star({a: ONE})))),
         star_qc_qb.apply(vec_conj(lmul2[c].apply(M.canonical_tilde("lambda_T", b, a)))))
        for a in range(n) for b in range(n) for c in range(n)
    )
    assert expected["at"] == (2, 1, 1)
    assert _failure(verify_star(M), "delta-star-compatibility") == expected


# the solvers that unstack a solved vector into a map, which is no block scan
SOLVERS = {"_solve_counit", "derive_antipode", "_hom_space"}


def _caller():
    """The name of the function that called the caller, past comprehensions."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def _absorbed_failure(M, leg_op_by_components, q, side):
    """The NotBalanced text of the first multiplication by a basis element
    that Delta absorbs on q (from ``side``) which does not descend, leg 1
    before leg 2, or None, by the componentwise oracle."""
    for leg in (1, 2):
        for j in range(M.A.dim):
            try:
                leg_op_by_components(q, leg, side, {j: ONE})
            except NotBalanced as e:
                return str(e)
    return None


def test_multiplications_that_do_not_descend_end_in_a_report(leg_op_by_components):
    # the convolution twin of nonassociative-functions-p2 and every
    # single-product change of functions and convolution p2: where a
    # multiplication Delta absorbs does not descend, the half's
    # tensor-nondegenerate entry fails with the NotBalanced text and ends
    # that half's suite, and no law raises; galois-compatibility, read from
    # left-coassociativity, then fails with the left entry's text
    twin = golden_record.nonassociative_bundle(build_convolution_algebroid)
    undescended = []
    for name, M in [("twin", twin), *golden_record.single_product_changes()]:
        rep = verify_regular_mha(M)
        verify_star(M)
        [galois] = [e for e in rep.entries if e.axiom == "galois-compatibility"]
        for half, q, side in (("left", M.qb, "r"), ("right", M.qc, "l")):
            text = _absorbed_failure(M, leg_op_by_components, q, side)
            [entry] = [e for e in rep.entries if e.axiom == half + "-tensor-nondegenerate"]
            if text is None:
                assert entry.witness is None, (name, half)
            else:
                assert (entry.status, entry.witness) == ("fail", text), (name, half)
                assert rep.status_of(half + "-delta-operator") is None, (name, half)
                undescended.append((name, half))
            if half == "left":
                # the left entry, ("fail", text), where the left suite ended
                [source] = [e for e in rep.entries if e.axiom == "left-coassociativity"] or [entry]
                assert (galois.status, galois.witness) == (source.status, source.witness), name
    assert "twin" in {name for name, _ in undescended}
    # the left suite ends on some bundle, so galois-compatibility copies its text there
    assert {half for _, half in undescended} == {"left", "right"}
    [entry] = [e for e in verify_star(twin).entries if e.axiom == "delta-star-compatibility"]
    assert entry.status == "fail" and "does not descend" in entry.witness


def test_a_passing_bundle_slices_no_block(monkeypatch, m_conv):
    sliced, built = [], []
    unstack, triple = bialgebroid.unstack, bialgebroid.TripleTensor

    def unstack_spy(w, width, count):
        if _caller() not in SOLVERS:
            sliced.append(width)
        return unstack(w, width, count)

    def triple_spy(algebra, pair12, pair23, flavor):
        built.append(flavor)
        return triple(algebra, pair12, pair23, flavor)

    for module in (bialgebroid, algebra_core, exact_linear):
        monkeypatch.setattr(module, "unstack", unstack_spy)
    monkeypatch.setattr(bialgebroid, "TripleTensor", triple_spy)
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2]))
        assert verify_regular_mha(M).ok and verify_star(M).ok
    assert sliced == [] and built == []
    # the spies do see a failing law: its differing block is sliced
    assert not verify_regular_mha(_delta_b_replaced(m_conv, 1, 1, 0)).ok
    assert sliced and built == ["BC"]


def test_verify_makes_no_more_products_than_recorded(monkeypatch):
    # FiniteAlgebra.mul calls of verify_regular_mha on a fresh p3 bundle,
    # counted after the basis-triple laws were stacked (11,889 on
    # functions and 8,001 on convolution before); a per-triple product
    # loop coming back shows here
    calls = []
    mul = FiniteAlgebra.mul

    def counted(self, u, v):
        calls.append(None)
        return mul(self, u, v)

    for build in (build_function_algebroid, build_convolution_algebroid):
        M = build(pair_groupoid([1, 2, 3]))
        calls.clear()
        monkeypatch.setattr(FiniteAlgebra, "mul", counted)
        assert verify_regular_mha(M).ok
        monkeypatch.setattr(FiniteAlgebra, "mul", mul)
        assert len(calls) <= 4113, build.__name__


def test_delta_laws_make_no_more_tensor_products_than_recorded(monkeypatch):
    # BalancedTensor.mul_class calls per half and leg operators of vectors
    # other than basis elements in verify_regular_mha on a fresh bundle,
    # counted after the Delta-bimodule law was decided from the base
    # weights and the Delta-homomorphism law on generators.  Before, each
    # half made n^2 mul_class calls (81 on p3, 256 on p4) and built four
    # leg operators of s(x) or t(x) per base element x.  The generators
    # over s(B) and t(B) are none on functions p3 and 2(k - 1) = 6 on
    # convolution p4, each paired with the 16 basis elements; they are
    # computed once per bundle for both halves (before, once per half).
    classes, vectors, generators = [], [], []
    mul_class, leg_op = BalancedTensor.mul_class, BalancedTensor.leg_op
    generating_basis = bialgebroid.generating_basis

    def counted_class(self, q1, q2):
        classes.append(self.flavor)
        return mul_class(self, q1, q2)

    def counted_leg(self, slot, side, u):
        if not isinstance(u, int) and list(u.values()) != [ONE]:
            vectors.append(u)
        return leg_op(self, slot, side, u)

    def counted_generators(algebra, seeds):
        generators.append(generating_basis(algebra, seeds))
        return generators[-1]

    monkeypatch.setattr(BalancedTensor, "mul_class", counted_class)
    monkeypatch.setattr(BalancedTensor, "leg_op", counted_leg)
    monkeypatch.setattr(bialgebroid, "generating_basis", counted_generators)
    assert verify_regular_mha(build_function_algebroid(pair_groupoid([1, 2, 3]))).ok
    assert classes == [] and vectors == [] and generators == [[]]
    M = build_convolution_algebroid(pair_groupoid([1, 2, 3, 4]))
    assert verify_regular_mha(M).ok
    assert set(classes) == {M.qb.flavor, M.qc.flavor}
    assert all(classes.count(q.flavor) <= 6 * 16 for q in (M.qb, M.qc))
    assert len(generators) == 2 and len(generators[1]) == 6


def test_module_law_witnesses_name_the_leg_and_the_first_failing_element():
    # e_(1,1) e_(1,1) := 0 on functions p2: every s(x) and t(x) kills
    # e_(1,1), so it lies outside the images of leg 1's action on both halves
    M = golden_record.product_changed(build_function_algebroid, 0, 0, {})
    rep = verify_regular_mha(M)
    for side in ("left", "right"):
        (entry,) = [e for e in rep.entries if e.axiom == side + "-modules-idempotent"]
        assert (entry.status, entry.witness) == ("fail", {"leg": 1, "at": "(1, 1)"})
        assert rep.status_of(side + "-modules-faithful") == "pass"


def _delta_operator_by_echelon(h):
    """The (status, witness) of h's delta-operator entry by the relation
    echelon: Delta(b) times every row, in h's order, must lie in the
    relation span; if one does not, the generators are scanned, b outer,
    for the witness."""
    A, q = h.A, h.q

    def lands(b, rel):
        return q.space.contains_relation(bialgebroid.tensor_mul(A, *h.ordered(h.lifts.col(b), rel)))

    if all(lands(b, row) for b in range(A.dim) for row in q.space.relation_rows()):
        return "pass", None
    return "fail", next({"delta_of": A.labels[b], "relation": gen}
                        for b in range(A.dim)
                        for gen, rel in zip(q.generators, q.relation_vectors())
                        if not lands(b, rel))


_SUITES = ((verify_left_bialgebroid, "B"), (verify_right_bialgebroid, "C"))


def _delta_operator_entry(rep, side):
    entry = next(e for e in rep.entries if e.axiom == side + "-delta-operator")
    return entry.status, entry.witness


@pytest.mark.parametrize("fixture", ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed",
                                     "m_twosided", "m_conv_mod"])
def test_delta_operator_on_generators_agrees_with_the_echelon_on_fixtures(request, fixture):
    M = request.getfixturevalue(fixture)
    for suite, letter in _SUITES:
        h = _Half(M, letter)
        assert _delta_operator_entry(suite(M), h.side) == _delta_operator_by_echelon(h)


def _matrix_term_mutant(kind, c, k):
    """``golden_record.matrix_tensor_algebroid`` with e_c (x) e_k added to
    column c of Delta_B or of Delta_C.  Its base is 4-dimensional, so three
    of the generators g_x are independent, against one on p2."""
    return golden_record.mutant_bundle(
        kind, c, lambda _: golden_record.matrix_tensor_algebroid(), term=(c, k))


def test_delta_operator_on_generators_agrees_with_the_echelon_on_mutants():
    # the ideal generators g_x (x, 1, 1) decide the law on a non-commutative
    # base and on every single-term comultiplication mutant; a failing one
    # still names the first failing generator, b outer
    bundles = [golden_record.matrix_tensor_algebroid(), *golden_record.single_term_mutants(),
               _matrix_term_mutant("delta_B", 1, 5), _matrix_term_mutant("delta_C", 1, 5)]
    verdicts = set()
    for M in bundles:
        for suite, letter in _SUITES:
            h = _Half(M, letter)
            expected = _delta_operator_by_echelon(h)
            assert _delta_operator_entry(suite(M), h.side) == expected, (M.name, letter)
            verdicts.add(expected[0])
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("patch", [("unit", None), ("is_associative", (False, (0, 0, 0)))])
def test_delta_operator_off_the_ideal_argument_scans_the_echelon(monkeypatch, patch):
    # with A.unit() None, or A taken for non-associative, the rows of the
    # relation echelon are checked instead of the generators g_x, and both
    # suites report the same
    method, value = patch
    calls = []
    contains = QuotientSpace.contains_relation

    def counted(self, w):
        calls.append(None)
        return contains(self, w)

    def reports(M):
        calls.clear()
        monkeypatch.setattr(QuotientSpace, "contains_relation", counted)
        lines = [suite(M).to_json_lines() for suite, _ in _SUITES]
        monkeypatch.setattr(QuotientSpace, "contains_relation", contains)
        return lines, len(calls)

    passing = golden_record.matrix_tensor_algebroid()
    for M in [passing, *golden_record.single_term_mutants()[::5]]:
        reports(M)  # the descents the suites make are memoized from here on
        expected, by_generators = reports(M)
        with monkeypatch.context() as patched:
            patched.setattr(M.A, method, lambda: value)
            lines, by_echelon = reports(M)
        assert lines == expected, M.name
        if M is passing:
            # dim_B products per b on B and dim_C on C, or one per echelon
            # row on either half
            n, ranks = M.A.dim, sum(q.space.ambient_dim - q.dim for q in (M.qb, M.qc))
            assert by_echelon - by_generators == n * (ranks - M.B.base.dim - M.C.base.dim)


def _passing_bundles():
    """Fresh passing bundles: functions and convolution of p2 and p3, and
    the M2 tensor algebroid over a non-commutative base."""
    return [build(pair_groupoid(points))
            for build in (build_function_algebroid, build_convolution_algebroid)
            for points in ([1, 2], [1, 2, 3])] + [golden_record.matrix_tensor_algebroid()]


def _solves(monkeypatch):
    """Spies on derive_antipode and stack_equations: the list of bundles
    the solver ran on and the list of unknown counts of stacked systems."""
    solved, unknowns = [], []
    derive, stacked = bialgebroid.derive_antipode, bialgebroid.stack_equations

    def derive_spy(M):
        solved.append(M)
        return derive(M)

    def stack_spy(groups, count):
        unknowns.append(count)
        return stacked(groups, count)

    monkeypatch.setattr(bialgebroid, "derive_antipode", derive_spy)
    monkeypatch.setattr(bialgebroid, "stack_equations", stack_spy)
    return solved, unknowns


@pytest.mark.parametrize("bundles, witnesses", [
    ("fixtures", {None}),
    ("sweep", {None, "antipode system is inconsistent", "derived antipode differs"}),
    ("single-term", {None, "antipode system is inconsistent"}),
])
def test_antipode_uniqueness_through_the_inverse_reports_what_the_solve_does(
        request, monkeypatch, bundles, witnesses):
    # oracle: the same suite with T_rho's inverse withheld, so that every
    # antipode-unique entry comes from derive_antipode's n^2-unknown system
    if bundles == "fixtures":
        names = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided",
                 "m_conv_mod"]
        bundles = [request.getfixturevalue(name) for name in names] + _passing_bundles()
    else:
        bundles = ([M for _, M in golden_record.sweep_bundles()] if bundles == "sweep"
                   else golden_record.single_term_mutants())
    seen = set()
    for M in bundles:
        rep = verify_regular_mha(M)
        with monkeypatch.context() as declined:
            _without_t_rho_inverse(declined, M)
            assert verify_regular_mha(M).to_json_lines() == rep.to_json_lines(), M.name
        seen.add(_failure(rep, "antipode-unique"))
    assert seen == witnesses


def test_a_passing_bundle_solves_no_antipode_system(monkeypatch, m_group, m_tensor, m_crossed,
                                                     m_twosided, m_conv_mod):
    solved, unknowns = _solves(monkeypatch)
    for M in [m_group, m_tensor, m_crossed, m_twosided, m_conv_mod, *_passing_bundles()]:
        unknowns.clear()
        assert verify_regular_mha(M).ok, M.name
        assert solved == [] and M.A.dim ** 2 not in unknowns, M.name
    # the spies do see the solve where the shortcut declines
    M = build_function_algebroid(pair_groupoid([1, 2]))
    unknowns.clear()
    _without_t_rho_inverse(monkeypatch, M)
    assert verify_regular_mha(M).ok
    assert solved == [M] and unknowns.count(M.A.dim ** 2) == 1


def test_a_passing_antipode_is_the_one_read_through_the_inverse(request, monkeypatch):
    # where M.S passed the system's equations and the gate of
    # ``_antipode_through_inverse`` holds, the shortcut returns M.S without
    # computing S' = m(R (x) id) T_rho^-1(a (x) 1); its proof makes S' == M.S,
    # checked here on the golden and recorder bundles the gate takes
    real, gated = bialgebroid._antipode_through_inverse, []

    def spy(M, canon, passed):
        out = real(M, canon, passed)
        if passed and out is not None:
            assert out == (M.S, None), M.name
            gated.append(real(M, canon, False) == (M.S, None) or M.name)
        return out

    monkeypatch.setattr(bialgebroid, "_antipode_through_inverse", spy)
    names = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided", "m_conv_mod",
             "m_h4_crossed"]
    bundles = ([request.getfixturevalue(name) for name in names] + _passing_bundles()
               + [M for _, M in golden_record._antipode_bundles()]
               + [M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants()
               + [M for _, M in golden_record.single_product_changes()])
    for M in bundles:
        verify_regular_mha(M)
    assert len(gated) > len(names) and all(ok is True for ok in gated), gated


def _without_t_rho_inverse(monkeypatch, M):
    """canonical_maps hands out no inverse of T_rho, as for a singular one."""
    canonical = bialgebroid.canonical_maps

    def singular(M, *args):
        out, rep = canonical(M, *args)
        out["T_rho"] = dict(out["T_rho"], inverse=None)
        return out, rep

    monkeypatch.setattr(bialgebroid, "canonical_maps", singular)


@pytest.mark.parametrize("gate", [
    lambda monkeypatch, M: monkeypatch.setattr(M.A, "unit", lambda: None),
    lambda monkeypatch, M: monkeypatch.setattr(M.A, "is_associative", lambda: (False, (0, 0, 0))),
    _without_t_rho_inverse,
], ids=["unit", "associative", "T_rho-inverse"])
def test_antipode_uniqueness_off_the_gates_solves_the_system(monkeypatch, gate):
    # without a unit, with A taken for non-associative, or without the
    # inverse of T_rho, the uniqueness argument does not hold, and the
    # entry comes from the solve
    M = build_convolution_algebroid(pair_groupoid([1, 2, 3]))
    gate(monkeypatch, M)
    with monkeypatch.context() as declined:
        _without_t_rho_inverse(declined, M)
        expected = verify_regular_mha(M).to_json_lines()
    solved, _ = _solves(monkeypatch)
    assert verify_regular_mha(M).to_json_lines() == expected
    assert solved == [M]


def _scaled_col(f, k, c):
    cols = [dict(f.col(j)) for j in range(f.cols)]
    cols[k] = {i: c * s for i, s in cols[k].items()}
    return LinearMap(f.rows, f.cols, cols)


def _p3_mutants():
    """Functions on p3 with one antipode column, or one left-counit column
    at a unit arrow, scaled by 2, every such column in turn."""
    g = pair_groupoid([1, 2, 3])
    M = build_function_algebroid(g)
    raw = LinearMap.from_function(M.A.dim ** 2, M.A.dim, lambda j: M.qb.lift(M.delta_B.col(j)))

    def mutant(S, eps_B):
        return RegularMHA(M.A, M.B, M.C, M.S_B, M.S_C, raw, raw, eps_B=eps_B, eps_C=M.eps_C,
                          S=S, name="mutant")
    return ([mutant(_scaled_col(M.S, k, 2), M.eps_B) for k in range(M.A.dim)]
            + [mutant(M.S, _scaled_col(M.eps_B, g.index[u], 2)) for u in g.units])


def test_failing_bundles_with_an_inverse_galois_map_solve_no_antipode_system(monkeypatch):
    # the p3 mutants and every sweep or single-term mutant whose T_rho is
    # bijective, over a unital associative A: antipode-unique is read
    # through T_rho^-1, and every report is the one the solve gives
    bundles = ([M for _, M in golden_record.sweep_bundles()]
               + golden_record.single_term_mutants())
    gated = _p3_mutants() + [
        M for M in bundles if M.A.unit() is not None and M.A.is_associative()[0]
        and canonical_maps(M)[0]["T_rho"]["inverse"] is not None]
    expected = []
    for M in gated:
        with monkeypatch.context() as declined:
            _without_t_rho_inverse(declined, M)
            expected.append(verify_regular_mha(M).to_json_lines())
    solved, _ = _solves(monkeypatch)
    assert [verify_regular_mha(M).to_json_lines() for M in gated] == expected
    assert solved == []
    witnesses = {_failure(rep, "antipode-unique") for rep in map(verify_regular_mha, gated)}
    assert witnesses == {None, "antipode system is inconsistent", "derived antipode differs"}


def test_equal_embedded_vectors_share_one_multiplication_operator():
    # on the function algebroid emb_SB(x) is a column of C.embed, a vector
    # of several terms: the structures multiplying by the two share one
    # operator, built once by the algebra
    M = build_function_algebroid(pair_groupoid([1, 2, 3]))
    for kind in "lr":
        for x in range(M.B.base.dim):
            v = M.emb_SB().col(x)
            y = next(y for y in range(M.C.base.dim) if M.C.embed.col(y) == v)
            assert len(v) > 1 and M._struct(kind, "SB").acts[x] is M._struct(kind, "C").acts[y]
