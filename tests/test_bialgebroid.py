"""Verification suites, canonical maps, antipode derivation, star structures."""

import importlib.util
import os
import sys

import pytest

from qgroupoid import algebra_core, bialgebroid
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
from qgroupoid.balanced_tensor import TripleTensor
from qgroupoid.exact_linear import (
    ONE,
    LinearMap,
    QuotientSpace,
    Scalar,
    axpy,
    kron_vec,
    stack_equations,
    unstack,
    vec_conj,
    vec_items,
)

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py"))
golden_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_record)


def test_function_algebroid_full_suite(m_fun):
    rep = verify_regular_mha(m_fun)
    assert rep.ok, str(rep)
    assert verify_star(m_fun).ok


def test_convolution_algebroid_full_suite(m_conv):
    rep = verify_regular_mha(m_conv)
    assert rep.ok, str(rep)
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
        LinearMap.from_function(n * n, n, lambda k: dict(m_fun._dc_lift[k])),
        eps_B=m_fun.eps_B, eps_C=m_fun.eps_C, S=m_fun.S,
    )
    rep = verify_left_bialgebroid(broken)
    assert rep.status_of("left-delta-bimodule") == "fail"


def test_zeroed_leg_makes_canonical_map_singular(m_fun):
    # kill the coproduct of one basis element: T_lambda loses rank
    n = m_fun.A.dim
    raw_cols = [dict(m_fun._db_lift[k]) for k in range(n)]
    raw_cols[1] = {}
    raw = LinearMap(n * n, n, raw_cols)
    broken = RegularMHA(
        m_fun.A, m_fun.B, m_fun.C, m_fun.S_B, m_fun.S_C, raw,
        LinearMap.from_function(n * n, n, lambda k: dict(m_fun._dc_lift[k])),
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
    fake._db_lift = [qb.lift(fake.delta_B.col(j)) for j in range(2)]
    fake._dc_lift = [qc.lift(fake.delta_C.col(j)) for j in range(2)]
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


def test_counit_system_keeps_law_and_module_rows_apart(m_fun, monkeypatch):
    # functions of p2: the counit's law equations span n = 4 rows and its
    # module equations dim_b = 2, and a Hom space's one group spans dim_b;
    # each equation must keep rows of its own in the stacked system
    stacked = []

    def spy(groups, unknowns):
        groups = [(width, list(equations)) for width, equations in groups]
        stacked.append((groups, unknowns))
        return stack_equations(groups, unknowns)

    monkeypatch.setattr(bialgebroid, "stack_equations", spy)
    derive_counits(m_fun)
    _hom_space(_Half(m_fun, "B"), "s")
    counit, hom = stacked[0], stacked[-1]  # the left counit, then the Hom space
    assert [width for width, _ in counit[0]] == [4, 2] and counit[1] == 8
    assert [width for width, _ in hom[0]] == [2] and hom[1] == 8
    for groups, unknowns in (counit, hom):
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
        if not triple.equal(lhs, rhs)
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


def test_delta_operator_and_delta_star_witnesses_are_the_first_in_scan_order(m_conv):
    # oracles: the generator scan (b outer) and the (a, b, c) loop, in order
    A, n, qb, qc, star = m_conv.A, m_conv.A.dim, m_conv.qb, m_conv.qc, m_conv.A.star
    seen = set()
    for col, i, j in ((0, 0, 1), (1, 1, 0), (2, 2, 3), (1, 1, 1)):
        M = _delta_b_replaced(m_conv, col, i, j)
        expected = next(
            ({"delta_of": A.labels[b], "relation": gen}
             for b in range(n)
             for gen, rel in zip(qb.generators, qb.relation_vectors())
             if not qb.space.contains_relation(bialgebroid.tensor_mul(A, M._db_lift[b], rel))),
            None)
        assert _failure(verify_regular_mha(M), "left-delta-operator") == expected
        star_qc_qb = bialgebroid.descend_componentwise(
            qc, qb, lambda i, j: kron_vec(star({i: ONE}), star({j: ONE}), n), "", antilinear=True)
        sides = (
            ((a, b, c),
             qb.rmul2(star({c: ONE})).apply(qb.rmul1(star({b: ONE})).apply(
                 M.delta_B.apply(star({a: ONE})))),
             star_qc_qb.apply(vec_conj(qc.lmul2({c: ONE}).apply(
                 qc.lmul1({b: ONE}).apply(M.delta_C.col(a))))))
            for a in range(n) for b in range(n) for c in range(n)
        )
        expected_star = bialgebroid._first_failure(sides)
        assert _failure(verify_star(M), "delta-star-compatibility") == expected_star
        seen.add((expected is None, expected_star is None))
    assert seen == {(False, False), (True, True)}


def _tilde_perturbed(which, a, b, q):
    """A fresh convolution p2 bundle whose memoized canonical_tilde(which,
    a, b) has i e_q added, so the laws that read it fail there."""
    M = build_convolution_algebroid(pair_groupoid([1, 2]))
    value = dict(M.canonical_tilde(which, a, b))
    M._tilde[(which, a, b)] = axpy(value, Scalar.rational(0, 1), {q: ONE})
    return M


def test_galois_compatibility_witness_is_the_first_of_a_full_scan():
    # oracle: the (a, b, c) loop, one pair of vectors per triple, in order
    M = _tilde_perturbed("T_lambda", 1, 2, 1)
    n, qb = M.A.dim, M.qb
    expected = bialgebroid._first_failure(
        ((a, b, c),
         qb.rmul2({c: ONE}).apply(M.canonical_tilde("T_lambda", a, b)),
         qb.rmul1({a: ONE}).apply(M.canonical_tilde("T_rho", b, c)))
        for a in range(n) for b in range(n) for c in range(n)
    )
    assert expected["at"] == (1, 2, 2)  # not in the first block, nor first in its block
    assert _failure(verify_regular_mha(M), "galois-compatibility") == expected


def test_delta_star_witness_is_the_first_of_a_full_scan():
    # an imaginary entry, so the conjugation of the stacked right side counts
    M = _tilde_perturbed("lambda_T", 1, 2, 1)
    A, n, qb, qc, star = M.A, M.A.dim, M.qb, M.qc, M.A.star
    star_qc_qb = bialgebroid.descend_componentwise(
        qc, qb, lambda i, j: kron_vec(star({i: ONE}), star({j: ONE}), n), "", antilinear=True)
    expected = bialgebroid._first_failure(
        ((a, b, c),
         qb.rmul2(star({c: ONE})).apply(qb.rmul1(star({b: ONE})).apply(
             M.delta_B.apply(star({a: ONE})))),
         star_qc_qb.apply(vec_conj(qc.lmul2({c: ONE}).apply(M.canonical_tilde("lambda_T", b, a)))))
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

    for module in (bialgebroid, algebra_core):
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


def _delta_operator_by_echelon(h):
    """The (status, witness) of h's delta-operator entry by the relation
    echelon: Delta(b) times every row, in h's order, must lie in the
    relation span; if one does not, the generators are scanned, b outer,
    for the witness."""
    A, q = h.A, h.q

    def lands(b, rel):
        return q.space.contains_relation(bialgebroid.tensor_mul(A, *h.ordered(h.lifts[b], rel)))

    if all(lands(b, row) for b in range(A.dim) for row in q.space.rref.rows.values()):
        return "pass", None
    return "fail", next({"delta_of": A.labels[b], "relation": gen}
                        for b in range(A.dim)
                        for gen, rel in zip(q.generators, q.relation_vectors())
                        if not lands(b, rel))


def _single_term_mutants():
    """Every convolution p2 bundle with e_c (x) e_k added to column c of
    Delta_B or of Delta_C: 2 * 4 * 4 of them."""
    return [golden_record.mutant_bundle(kind, c, build_convolution_algebroid, term=(c, k))
            for kind in ("delta_B", "delta_C") for c in range(4) for k in range(4)]


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
    bundles = [golden_record.matrix_tensor_algebroid(), *_single_term_mutants(),
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
    for M in [passing, *_single_term_mutants()[::5]]:
        reports(M)  # the descents the suites make are memoized from here on
        expected, by_generators = reports(M)
        with monkeypatch.context() as patched:
            patched.setattr(M.A, method, lambda: value)
            lines, by_echelon = reports(M)
        assert lines == expected, M.name
        if M is passing:
            # dim_B products per b on B and dim_C on C, or one per echelon
            # row on either half
            n, ranks = M.A.dim, M.qb.space.rref.rank + M.qc.space.rref.rank
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
    # oracle: the same suite with the shortcut declining, so that every
    # antipode-unique entry comes from derive_antipode's n^2-unknown system
    if bundles == "fixtures":
        names = ["m_fun", "m_conv", "m_group", "m_tensor", "m_crossed", "m_twosided",
                 "m_conv_mod"]
        bundles = [request.getfixturevalue(name) for name in names] + _passing_bundles()
    else:
        bundles = ([M for _, M in golden_record.sweep_bundles()] if bundles == "sweep"
                   else _single_term_mutants())
    seen = set()
    for M in bundles:
        rep = verify_regular_mha(M)
        with monkeypatch.context() as declined:
            declined.setattr(bialgebroid, "_antipode_through_inverse", lambda M, canon: False)
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
    monkeypatch.setattr(bialgebroid, "_antipode_through_inverse", lambda M, canon: False)
    assert verify_regular_mha(M).ok
    assert solved == [M] and unknowns.count(M.A.dim ** 2) == 1


def _without_t_rho_inverse(monkeypatch, M):
    """canonical_maps hands out no inverse of T_rho, as for a singular one."""
    canonical = bialgebroid.canonical_maps

    def singular(M, report=None):
        out, rep = canonical(M, report)
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
        declined.setattr(bialgebroid, "_antipode_through_inverse", lambda M, canon: False)
        expected = verify_regular_mha(M).to_json_lines()
    solved, _ = _solves(monkeypatch)
    assert verify_regular_mha(M).to_json_lines() == expected
    assert solved == [M]
