"""Golden reports on the 2-point pair groupoid, ``dual`` on 3 and 4 points
(on 3 also of the convolution algebroid modified with radical weights), and
the tensor algebroid over the 2x2 matrix algebra (a non-commutative base).

Each case runs CLI commands (``qgroupoid.cli.main`` in-process, stdout
captured), ``verify_regular_mha`` on mutant instances and on a non-associative
copy of functions p2,
``check_partial_integral`` on perturbed partial integrals,
``solve_partial_integrals`` on antipode mutants, the solved spaces no
command reports in full, the modular theory and modifier
checks of both halves, the Hopf, action and star laws on broken
copies, or the content API that no command calls, and yields the exit
code and the exact report text of every step.  The recorded texts live next to this file as ``<case>.jsonl``, the exit codes in
``exits.json``; ``test_golden.py`` compares both byte for byte.

Re-record after an intended change of a report, from the repository root:

    PYTHONPATH=src python3 tests/golden/record.py [CASE ...]

Named cases are re-recorded alone, and the other files and exit codes are
left as they are; with no name every case is.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from qgroupoid import (
    BaseEmbedding,
    BaseWeight,
    HopfAction,
    LinearMap,
    MeasuredMHA,
    Modifier,
    Multiplier,
    Rejected,
    RegularMHA,
    FiniteHopf,
    ScalarField,
    assemble_measured,
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    build_group_hopf,
    build_tensor_algebroid,
    build_two_sided,
    check_base_weight,
    check_modifier,
    check_partial_integral,
    compose_modifiers,
    convolution,
    crossed_rn_modifier,
    derive_antipode,
    derive_counits,
    disjoint_union,
    expectation_identity,
    factorize,
    faithfulness_check,
    groupoid_rn_modifier,
    haar_analysis,
    inner_modifier,
    local_projectivity,
    modify,
    modular_automorphism,
    modular_element,
    multiplier_algebra,
    orbit_algebra,
    solve_partial_integrals,
    standard_integrals,
    twosided_rn_modifier,
    uniqueness_check,
    verify_left_bialgebroid,
    verify_regular_mha,
    verify_right_bialgebroid,
    verify_star,
)
from qgroupoid.algebra_core import FiniteAlgebra, algebra_to_json
from qgroupoid.bialgebroid import _ONE_SIDED, _Half, _hom_space
from qgroupoid.cli import main
from qgroupoid.exact_linear import ONE, Scalar, axpy, vec_items
from qgroupoid.examples import (
    cyclic_group_table,
    function_algebra_z2,
    group_groupoid,
    groupoid_to_json,
    pair_groupoid,
    swap_action,
)
from qgroupoid.integration import _ergodic_characterization, translate_left
from qgroupoid.report import Report
from qgroupoid.structure_theory import _co_hom_space, convolution_counit_identity

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS = [1, 2]
POINTS_P3 = [1, 2, 3]


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _changed(f, k, add_col):
    """f with column k scaled by 2, or, given add_col, plus that column."""
    cols = [dict(f.col(j)) for j in range(f.cols)]
    cols[k] = axpy(cols[k], ONE, f.col(k if add_col is None else add_col))
    return LinearMap(f.rows, f.cols, cols)


def _with_term(f, k, term):
    """The raw comultiplication f with the basis tensor e_i (x) e_j added to
    column k, for term = (i, j), or s e_i (x) e_j for term = (i, j, s)."""
    i, j, s = term if len(term) == 3 else (*term, ONE)
    cols = [dict(f.col(c)) for c in range(f.cols)]
    cols[k] = axpy(cols[k], s, {i * f.cols + j: ONE})
    return LinearMap(f.rows, f.cols, cols)


def mutant_bundle(kind, col, build=build_function_algebroid, add_col=None, points=POINTS,
                  term=None):
    """The pair groupoid instance with one column of delta_B, delta_C, S,
    eps_B or eps_C changed by ``_changed``, or, given term, by ``_with_term``;
    eps_B, eps_C and S are passed explicitly.

    Convolution's comultiplications are group-like, e_g -> e_g (x) e_g, and
    stay coassociative when a column is scaled, so its mutants add a column.
    """
    M = build(pair_groupoid(points))
    n = M.A.dim
    raw_b = LinearMap.from_function(n * n, n, lambda j: M.qb.lift(M.delta_B.col(j)))
    raw_c = LinearMap.from_function(n * n, n, lambda j: M.qc.lift(M.delta_C.col(j)))
    parts = {"delta_B": raw_b, "delta_C": raw_c, "S": M.S, "eps_B": M.eps_B, "eps_C": M.eps_C}
    parts[kind] = (_changed(parts[kind], col, add_col) if term is None
                   else _with_term(parts[kind], col, term))
    return RegularMHA(M.A, M.B, M.C, M.S_B, M.S_C, parts["delta_B"], parts["delta_C"],
                      eps_B=parts["eps_B"], eps_C=parts["eps_C"], S=parts["S"],
                      name="mutant")


def _step(head, run):
    """(exit code, text) of one step: the head line with the extra fields
    run() returns, then its report.  A run that raises Rejected records
    its eq and message, and the report it carries."""
    try:
        extra, rep = run()
        head.update(extra)
        code = 0 if rep is None or rep.ok else 1
    except Rejected as e:
        head["rejected"] = [e.eq, str(e)]
        rep, code = e.report, 1
    lines = [json.dumps(head, sort_keys=True)] + (rep.to_json_lines() if rep else [])
    return code, "\n".join(lines) + "\n"


def _verified(M):
    """The one step of ``verify_regular_mha`` on M."""
    rep = verify_regular_mha(M)
    return [(0 if rep.ok else 1, "\n".join(rep.to_json_lines()) + "\n")]


def _mutant(kind, col, build=build_function_algebroid, add_col=None, term=None):
    """The report of ``verify_regular_mha`` on a p2 ``mutant_bundle``."""
    return _verified(mutant_bundle(kind, col, build, add_col, term=term))


def product_changed(build, i, j, value, name="product-changed"):
    """The p2 instance of ``build`` over a copy of A with e_i e_j := value,
    a vector of A.  Its comultiplications, counits and antipode are the
    instance's own, passed explicitly."""
    M = build(pair_groupoid(POINTS))
    n = M.A.dim
    table = [list(row) for row in M.A.table]
    table[i][j] = value
    A = FiniteAlgebra(table, M.A.labels, M.A.involution)
    raw_b = LinearMap.from_function(n * n, n, lambda k: M.qb.lift(M.delta_B.col(k)))
    raw_c = LinearMap.from_function(n * n, n, lambda k: M.qc.lift(M.delta_C.col(k)))
    return RegularMHA(A, BaseEmbedding(M.B.base, A, M.B.embed, name="B"),
                      BaseEmbedding(M.C.base, A, M.C.embed, name="C"),
                      M.S_B, M.S_C, raw_b, raw_c,
                      eps_B=M.eps_B, eps_C=M.eps_C, S=M.S, name=name)


def nonassociative_bundle(build=build_function_algebroid):
    """The p2 instance of ``build`` with e_0 e_1 := e_0, which is not
    associative: (e_0 e_1) e_0 = e_0 but e_0 (e_1 e_0) = 0 on functions.
    Every check gated on an associative A takes its general path here."""
    return product_changed(build, 0, 1, {0: ONE}, name="nonassociative")


def single_product_changes():
    """((build name, i, j, k), bundle) for every single-product change
    e_i e_j := e_k of functions and convolution p2, k None for 0, that
    differs from the instance's own product."""
    for build in (build_function_algebroid, build_convolution_algebroid):
        table = build(pair_groupoid(POINTS)).A.table
        n = len(table)
        for i in range(n):
            for j in range(n):
                for k in [*range(n), None]:
                    value = {} if k is None else {k: ONE}
                    if table[i][j] != value:
                        yield (build.__name__, i, j, k), product_changed(build, i, j, value)


def _derived_counits(M):
    """derive_counits on M: the columns of both counits, or the error."""
    try:
        eps_B, eps_C = derive_counits(M)
    except ValueError as e:
        return str(e)
    return [[vec_items(eps.col(a)) for a in range(eps.cols)] for eps in (eps_B, eps_C)]


def sweep_bundles():
    """((build name, kind, col, add_col), bundle) for every single-column
    mutant of functions and convolution p2: each column of delta_B,
    delta_C, S, eps_B and eps_C scaled by 2, and separately with the next
    column added."""
    for build in (build_function_algebroid, build_convolution_algebroid):
        n = build(pair_groupoid(POINTS)).A.dim
        for kind in ("delta_B", "delta_C", "S", "eps_B", "eps_C"):
            for col in range(n):
                for add_col in (None, (col + 1) % n):
                    yield ((build.__name__, kind, col, add_col),
                           mutant_bundle(kind, col, build, add_col))


def single_term_mutants():
    """Every convolution p2 bundle with e_c (x) e_k added to column c of
    Delta_B or of Delta_C: 2 * 4 * 4 of them."""
    return [mutant_bundle(kind, c, build_convolution_algebroid, term=(c, k))
            for kind in ("delta_B", "delta_C") for c in range(4) for k in range(4)]


def imaginary_term_mutant():
    """Convolution p2 with i e_(2,1) (x) e_(2,1) added to column (2,1) of
    Delta_C, eps and S passed explicitly.  The entry is imaginary, so the
    conjugation in ``verify_star``'s star (x) star counts; it fails
    ``delta-star-compatibility`` at (2, 1, 1), neither in the first block
    nor first in its block."""
    return mutant_bundle("delta_C", 2, build_convolution_algebroid,
                         term=(2, 2, Scalar.rational(0, 1)))


def _imaginary_term():
    """``verify_regular_mha`` and then ``verify_star`` on ``imaginary_term_mutant``."""
    M = imaginary_term_mutant()
    rep = verify_star(M)
    return _verified(M) + [(0 if rep.ok else 1, "\n".join(rep.to_json_lines()) + "\n")]


def _mutant_sweep():
    """Every bundle of ``sweep_bundles``.  A step holds the bundle's name
    and derive_counits outcome, then the failing verify_regular_mha entries.
    """
    steps = []
    for name, M in sweep_bundles():
        rep = verify_regular_mha(M)
        head = {"bundle": list(name), "derive_counits": _derived_counits(M)}
        lines = [json.dumps(head, sort_keys=True)]
        lines += [line for line, e in zip(rep.to_json_lines(), rep.entries)
                  if e.status == "fail"]
        steps.append((0 if rep.ok else 1, "\n".join(lines) + "\n"))
    return steps


def _perturbed_partial_integrals():
    """check_partial_integral on the standard phi_C and psi_B of functions
    and convolution p2, each with e_x added to column a, every (a, x)."""
    g = pair_groupoid(POINTS)
    steps = []
    for build, kind in ((build_function_algebroid, "groupoid-functions"),
                        (build_convolution_algebroid, "groupoid-convolution")):
        M = build(g)
        for integral in standard_integrals(kind, M, groupoid=g):
            f = integral.mapping
            for a in range(f.cols):
                for x in range(f.rows):
                    cols = [dict(f.col(j)) for j in range(f.cols)]
                    cols[a] = axpy(cols[a], ONE, {x: ONE})
                    rep = check_partial_integral(M, LinearMap(f.rows, f.cols, cols),
                                                 integral.side)
                    steps.append((0 if rep.ok else 1, "\n".join(rep.to_json_lines()) + "\n"))
    return steps


def _columns(f):
    return [vec_items(f.col(j)) for j in range(f.cols)]


def _mutant_s_integrals():
    """solve_partial_integrals on both sides of functions and convolution
    p2 with antipode column 0 scaled by 2, the bases in full: that S no
    longer carries one solution space onto the other, so
    ``antipode-swaps-sides`` fails."""
    steps = []
    for build in (build_function_algebroid, build_convolution_algebroid):
        M = mutant_bundle("S", 0, build)
        for side in ("left", "right"):
            def run(M=M, side=side):
                basis, rep = solve_partial_integrals(M, side)
                return {"basis": [_columns(f) for f in basis]}, rep
            steps.append(_step({"solve_partial_integrals": [build.__name__, "S-col0", side]},
                               run))
    return steps


def _module_spaces(M, module):
    """The Hom and co-Hom bases of one one-sided module structure of M."""
    letter, e = _ONE_SIDED[module]
    h = _Half(M, letter)
    return _hom_space(h, e), _co_hom_space(h, e)


def _antipode_bundles():
    """The tensor, crossed and two-sided bundles over Z2's Hopf algebras."""
    labels, table = cyclic_group_table(2)
    hopf = build_group_hopf(labels, table, "group")
    pointwise = FiniteAlgebra.pointwise(["u1", "u2"], involution=LinearMap.identity(2))
    ident = LinearMap.identity(2)
    c, b = function_algebra_z2(), function_algebra_z2()
    right = HopfAction(hopf, b, [ident, LinearMap.from_rows([[0, 1], [1, 0]])], side="right")
    return (
        ("tensor", build_tensor_algebroid(pointwise, pointwise, ident, ident)),
        ("crossed", build_crossed_product(c, hopf, swap_action(hopf, c))),
        ("two-sided", build_two_sided(c, hopf, b, swap_action(hopf, c), right, ident, ident)),
    )


def _solved_spaces():
    """The solution spaces of the stacked linear systems, in full.

    One step each: for functions and convolution of p2 and Z2, every
    one-sided module structure's local-projectivity verdict with its Hom
    and co-Hom bases, then the orbit algebra report with the fixed points
    of Delta_B; the multiplier algebra of functions p2; the left integrals
    of both Z2 Hopf algebras; the antipode derived on the tensor, crossed
    and two-sided bundles and on the p2 mutants with a changed counit.
    """
    labels, table = cyclic_group_table(2)
    steps = []

    def step(head, rep=None):
        lines = [json.dumps(head, sort_keys=True)]
        if rep is not None:
            lines += rep.to_json_lines()
        steps.append((0 if rep is None or rep.ok else 1, "\n".join(lines) + "\n"))

    for name, g in (("p2", pair_groupoid(POINTS)), ("z2", group_groupoid(labels, table))):
        for build in (build_function_algebroid, build_convolution_algebroid):
            M = build(g)
            verdicts, rep = local_projectivity(M)
            spaces = {}
            for module in verdicts:
                homs, cohoms = _module_spaces(M, module)
                spaces[module] = {"verdict": verdicts[module],
                                  "hom": [_columns(f) for f in homs],
                                  "co-hom": [_columns(e) for e in cohoms]}
            step({"bundle": [build.__name__, name], "modules": spaces}, rep)
            orbit, rep = orbit_algebra(M)
            fixed, _ = _ergodic_characterization(M)
            step({"bundle": [build.__name__, name],
                  "orbit": [vec_items(v) for v in orbit],
                  "fixed-points": None if fixed is None else [vec_items(v) for v in fixed]},
                 rep)
    m_alg, canonical = multiplier_algebra(build_function_algebroid(pair_groupoid(POINTS)).A)
    step({"multiplier-algebra": "functions p2",
          "table": [[vec_items(v) for v in row] for row in m_alg.table],
          "canonical": _columns(canonical)})
    for flavor in ("group", "function"):
        hopf = build_group_hopf(labels, table, flavor)
        step({"left-integrals": flavor, "basis": [vec_items(v) for v in hopf.left_integral_space()]})
    unit = _unit_arrow_index()
    mutants = [("mutant-%s-%d" % (kind, unit), mutant_bundle(kind, unit))
               for kind in ("eps_B", "eps_C")]
    for name, M in [*_antipode_bundles(), *mutants]:
        S, err = derive_antipode(M)
        step({"antipode": name, "columns": None if S is None else _columns(S), "error": err})
    return steps


def matrix_tensor_algebroid():
    """build_tensor_algebroid(M2, M2, T, T): both bases the 2x2 matrix
    algebra, on the matrix units e11, e12, e21, e22, and both base
    anti-isomorphisms the transpose.  Its bases are not commutative."""
    def mul(i, j):
        (a, b), (c, d) = divmod(i, 2), divmod(j, 2)
        return {a * 2 + d: ONE} if b == c else {}

    m2 = FiniteAlgebra.from_mul(4, mul, labels=["e11", "e12", "e21", "e22"])
    transpose = LinearMap.from_function(4, 4, lambda k: {(k % 2) * 2 + k // 2: ONE})
    return build_tensor_algebroid(m2, m2, transpose, transpose)


def _matrix_tensor():
    """The verify report of ``matrix_tensor_algebroid``, then both
    partial-integral space dimensions with the solve reports, then the
    local-projectivity verdicts with their report."""
    M = matrix_tensor_algebroid()
    steps = []

    def step(head, rep):
        lines = ([json.dumps(head, sort_keys=True)] if head else []) + rep.to_json_lines()
        steps.append((0 if rep.ok else 1, "\n".join(lines) + "\n"))

    step(None, verify_regular_mha(M))
    dims, reps = {}, Report()
    for side in ("left", "right"):
        space, rep = solve_partial_integrals(M, side)
        dims[side + "_space_dim"] = len(space)
        reps.merge(rep, prefix=side)
    step(dims, reps)
    verdicts, rep = local_projectivity(M)
    step({"modules": verdicts}, rep)
    return steps


def _skewed(X):
    """X with phi, and separately psi, replaced by the factorization of
    v . phi, v = e_(1,1) + e_(1,2) + 2 e_(2,2): each is the measured data
    of X with one total functional no longer an integral, so the checks of
    that functional's half fail while the mirror half's still pass."""
    v = {0: ONE, 1: ONE, 3: 2 * ONE}
    moved, _ = factorize(X.M, X.weight, translate_left(X.M.A, v, X.phi.omega))
    pieces = (X.M, X.weight, X.phi_C, X.psi_B)
    return (("standard", X),
            ("skew-phi", MeasuredMHA(*pieces, moved, X.psi, X.report)),
            ("skew-psi", MeasuredMHA(*pieces, X.phi, moved, X.report)))


def _one_sided_modifiers(M):
    """The inner modifiers by (u, v) = (1, 1 + e_2) and the mirror
    (1 + e_2, 1), then each with its companion twist on the other leg
    replaced by the identity, which breaks one half only."""
    one, moved = {0: ONE, 1: ONE}, {0: ONE, 1: 2 * ONE}
    ident = LinearMap.identity(M.A.dim)
    left, right = inner_modifier(M, one, moved), inner_modifier(M, moved, one)
    return (("inner-u1", left), ("inner-v1", right),
            ("inner-u1-theta_r-id", Modifier(left.theta_l, ident, left.l_theta, left.r_theta)),
            ("inner-v1-l_theta-id", Modifier(right.theta_l, right.theta_r, ident, right.r_theta)))


def _mirror_pins():
    """The full reports of both halves' modular theory and of one-sided
    modifiers, on functions p2 (weight 1, 4) and convolution p2 (weight 1, 1).

    For the measured instance and its ``_skewed`` variants: sigma on both
    sides, the modular element, uniqueness, faithfulness and the Haar
    analysis, then lambda and rho of phi and of psi, each with the
    computed maps.  Then ``check_modifier`` and ``modify`` of every
    ``_one_sided_modifiers``, with the modified bundle's maps.  A step that
    raises Rejected records its eq and message instead.
    """
    g = pair_groupoid(POINTS)
    steps = []

    def step(head, run):
        steps.append(_step(head, run))

    for build, kind, mu in ((build_function_algebroid, "groupoid-functions", {0: ONE, 1: 4 * ONE}),
                            (build_convolution_algebroid, "groupoid-convolution",
                             {0: ONE, 1: ONE})):
        M = build(g)
        phi_C, psi_B = standard_integrals(kind, M, groupoid=g)
        X = assemble_measured(M, BaseWeight(dict(mu), dict(mu)), phi_C, psi_B)
        for variant, Y in _skewed(X):
            def head(what):
                return {"bundle": [build.__name__, variant], "step": what}

            for side in ("left", "right"):
                def sigma(side=side):
                    sig = modular_automorphism(Y, side)
                    return {"sigma": _columns(sig.mapping)}, sig.report
                step(head("modular_automorphism-" + side), sigma)

            def element():
                me = modular_element(Y)
                return ({"delta_plus": vec_items(me.delta_plus),
                         "delta_minus": vec_items(me.delta_minus)}, me.report)

            def haar():
                h, rep = haar_analysis(Y)
                return {"h": None if h is None else vec_items(h)}, rep

            step(head("modular_element"), element)
            step(head("uniqueness_check"), lambda: ({}, uniqueness_check(Y)))
            step(head("faithfulness_check"), lambda: ({}, faithfulness_check(Y)))
            step(head("haar_analysis"), haar)
            for name, f in (("phi", Y.phi), ("psi", Y.psi)):
                for op_kind in ("lambda", "rho"):
                    def conv(f=f, op_kind=op_kind):
                        op = convolution(Y, f, op_kind)
                        return {"operator": _columns(op.operator)}, op.report
                    step(head("convolution-%s-%s" % (op_kind, name)), conv)
        for name, mod in _one_sided_modifiers(M):
            def modified(mod=mod):
                out = modify(M, mod)
                maps = {key: _columns(getattr(out, key))
                        for key in ("delta_B", "delta_C", "eps_B", "eps_C", "S", "S_B", "S_C")}
                return maps, Report().merge(out.modification_report)

            head = {"bundle": [build.__name__, name]}
            step(dict(head, step="check_modifier"), lambda mod=mod: ({}, check_modifier(M, mod)))
            step(dict(head, step="modify"), modified)
    return steps


def _bundle_maps(M):
    """The columns of M's embeddings, comultiplications, counits and antipodes."""
    maps = {key: _columns(getattr(M, key))
            for key in ("delta_B", "delta_C", "eps_B", "eps_C", "S", "S_B", "S_C")}
    maps.update({"B": _columns(M.B.embed), "C": _columns(M.C.embed)})
    return maps


def _z2_actions():
    """(name, acts) for F[Z2] or F(Z2) on functions on two points: the swap,
    its mirror, the trivial grading and a shear that is no action."""
    ident, zero = LinearMap.identity(2), LinearMap.zero(2, 2)
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    shear = LinearMap.from_rows([[1, 1], [0, 1]])
    return (("id-swap", [ident, swap]), ("swap-id", [swap, ident]),
            ("id-zero", [ident, zero]), ("id-shear", [ident, shear]))


def _hopf_and_weights():
    """The Hopf-algebra side and the base-weight flags, in full.

    For both Z2 Hopf algebras: ``FiniteHopf.verify`` with the modular data,
    the integral predicates on the stored integrals and on two
    non-integrals, and ``verify`` of a copy with a broken counit.  Then
    ``HopfAction.verify`` and ``is_symmetric`` on every ``_z2_actions``
    entry, on both sides, over both Hopf algebras; ``build_two_sided``
    accepted once (its maps and verify report) and rejected at each
    antipode intertwining; ``build_crossed_product``'s maps;
    ``crossed_rn_modifier`` and ``twosided_rn_modifier`` with their
    reports, D and modifier maps, and rejected inputs; ``check_base_weight``
    on weights failing each flag, and ``assemble_measured`` under a weight
    that is not positive.
    """
    labels, table = cyclic_group_table(2)
    steps = []

    def step(head, run):
        steps.append(_step(head, run))

    hopfs = {flavor: build_group_hopf(labels, table, flavor) for flavor in ("group", "function")}
    candidates = (("one-g", {1: ONE}), ("e-plus-2g", {0: ONE, 1: 2 * ONE}))
    for flavor, hopf in hopfs.items():
        def hopf_verify(hopf=hopf):
            functionals = (("phi", hopf.phi), ("psi", hopf.psi), *candidates)
            return ({"delta_mod": vec_items(hopf.delta_mod), "sigma_mod": _columns(hopf.sigma_mod),
                     "integrals": [[name, hopf.is_left_integral(f), hopf.is_right_integral(f)]
                                   for name, f in functionals]},
                    hopf.verify())
        step({"hopf": flavor}, hopf_verify)
        broken_eps = LinearMap(1, 2, [{0: ONE}, {0: 2 * ONE}])
        broken = FiniteHopf(hopf.H, hopf.delta, broken_eps, hopf.S, phi=hopf.phi, psi=hopf.psi)
        step({"hopf": flavor, "counit": "broken"}, lambda broken=broken: ({}, broken.verify()))
    for flavor, hopf in hopfs.items():
        for name, acts in _z2_actions():
            for side in ("left", "right"):
                def action(hopf=hopf, acts=acts, side=side):
                    act = HopfAction(hopf, function_algebra_z2(), acts, side=side)
                    return {"symmetric": act.is_symmetric()}, act.verify()
                step({"action": [flavor, name, side]}, action)
    hopf, ident = hopfs["group"], LinearMap.identity(2)
    swap = LinearMap.from_rows([[0, 1], [1, 0]])
    c, b = function_algebra_z2(), function_algebra_z2()
    left = swap_action(hopf, c)
    for name, right_acts, s_c in (("accepted", [ident, swap], ident),
                                  ("trivial-right", [ident, ident], ident),
                                  ("scaled-S_C", [ident, swap], LinearMap.from_rows([[1, 0], [0, 2]]))):
        def two_sided(right_acts=right_acts, s_c=s_c):
            right = HopfAction(hopf, b, right_acts, side="right")
            M = build_two_sided(c, hopf, b, left, right, ident, s_c)
            return _bundle_maps(M), verify_regular_mha(M)
        step({"build_two_sided": name}, two_sided)
    step({"build_crossed_product": "swap"},
         lambda: (_bundle_maps(build_crossed_product(c, hopf, left)), None))
    for flavor, act_name, mu in (("group", "id-swap", {0: ONE, 1: 4 * ONE}),
                                 ("group", "id-swap", {0: ONE}),
                                 ("function", "id-zero", {0: ONE, 1: 4 * ONE})):
        def crossed(flavor=flavor, act_name=act_name, mu=mu):
            act = HopfAction(hopfs[flavor], c, dict(_z2_actions())[act_name])
            mod, cocycle = crossed_rn_modifier(c, hopfs[flavor], act, mu)
            return ({"D": _columns(cocycle.values),
                     "modifier": [_columns(f) for f in mod.maps()]}, cocycle.report)
        step({"crossed_rn_modifier": [flavor, act_name, vec_items(mu)]}, crossed)
    for name, sigma in (("identity", ident), ("swap", swap)):
        def twosided(sigma=sigma):
            bundle = twosided_rn_modifier(c, hopf, left, {0: ONE, 1: 4 * ONE}, sigma)
            return ({"D": _columns(bundle["D"]), "bundle": _bundle_maps(bundle["M"]),
                     "modifier": [_columns(f) for f in bundle["modifier"].maps()]},
                    bundle["report"])
        step({"twosided_rn_modifier": name}, twosided)
    p2 = pair_groupoid(POINTS)
    fun, conv = build_function_algebroid(p2), build_convolution_algebroid(p2)
    i = Scalar.rational(0, 1)
    for name, M, mu_B, mu_C in (
            ("functions-1-4", fun, {0: ONE, 1: 4 * ONE}, {0: ONE, 1: 4 * ONE}),
            ("functions-singular", fun, {0: ONE}, {0: ONE, 1: ONE}),
            ("functions-unmatched", fun, {0: ONE, 1: 4 * ONE}, {0: ONE, 1: 2 * ONE}),
            ("functions-negative", fun, {0: ONE, 1: -ONE}, {0: ONE, 1: -ONE}),
            ("functions-imaginary", fun, {0: ONE, 1: i}, {0: ONE, 1: i}),
            ("convolution-1-4", conv, {0: ONE, 1: 4 * ONE}, {0: ONE, 1: 4 * ONE}),
            ("matrix-units-nontracial", matrix_tensor_algebroid(),
             {0: ONE, 3: 2 * ONE}, {0: ONE, 3: 2 * ONE})):
        step({"check_base_weight": name},
             lambda M=M, w=BaseWeight(mu_B, mu_C): ({}, check_base_weight(M, w)))
    negative = BaseWeight({0: ONE, 1: -ONE}, {0: ONE, 1: -ONE})
    step({"assemble_measured": "functions-negative"},
         lambda: ({}, assemble_measured(fun, negative, *standard_integrals(
             "groupoid-functions", fun, groupoid=p2)).report))
    return steps


def _restarred(M, involution=None, s_c=None):
    """M over a copy of A whose involution is ``involution``, or with S_C
    replaced by ``s_c``; every other map is M's."""
    A = FiniteAlgebra(M.A.table, M.A.labels, involution or M.A.involution)
    n = A.dim
    raw_b = LinearMap.from_function(n * n, n, lambda j: M.qb.lift(M.delta_B.col(j)))
    raw_c = LinearMap.from_function(n * n, n, lambda j: M.qc.lift(M.delta_C.col(j)))
    return RegularMHA(A, BaseEmbedding(M.B.base, A, M.B.embed, name="B"),
                      BaseEmbedding(M.C.base, A, M.C.embed, name="C"),
                      M.S_B, s_c or M.S_C, raw_b, raw_c,
                      eps_B=M.eps_B, eps_C=M.eps_C, S=M.S, name="restarred")


def _hopf_laws_and_star():
    """Laws of the Hopf layer and of ``verify_star`` that fail nowhere else.

    ``FiniteHopf.verify`` on copies of the Z2 group algebra with
    Delta(g) = g (x) g + e (x) e, with S scaled by 2, and with
    phi = e_g*; ``HopfAction.verify`` and ``is_symmetric`` of the swap
    action, over Z2 and over a copy with Delta(g) = e (x) g;
    ``crossed_rn_modifier`` with the shear acts [id, [[1, 1], [0, 1]]]
    on functions of Z2 and mu = (1, 1), whose derivative
    D_g = e_1 + 2 e_2 breaks the cocycle law; ``verify_star`` on
    functions p2 with S_C scaled by 2, with an involution of A that
    swaps e_(1,1) and e_(1,2), with column 1 of S or the unit column of
    eps_B scaled by 2, and on convolution p2 with column 2 of eps_B
    scaled by 2, which fails the eps_B(a*) law at the inverse arrow
    before the eps_C(a*) law.

    ``symmetry-compatibility`` has no failing input here: both Z2 Hopf
    algebras are cocommutative and every module algebra in the corpus is
    commutative, so sum D_(h1) (h2 . y) = sum (h1 . y) D_(h2) holds for
    any D and any action.
    """
    labels, table = cyclic_group_table(2)
    hopf = build_group_hopf(labels, table, "group")
    steps = []

    def step(head, run):
        steps.append(_step(head, run))

    doubled = LinearMap(4, 2, [hopf.delta.col(0), {0: ONE, 3: ONE}])
    lopsided = LinearMap(4, 2, [hopf.delta.col(0), {1: ONE}])
    for name, copy in (
            ("delta-g-g-plus-e-e", FiniteHopf(hopf.H, doubled, hopf.eps, hopf.S,
                                              phi=hopf.phi, psi=hopf.psi)),
            ("S-times-2", FiniteHopf(hopf.H, hopf.delta, hopf.eps, hopf.S.scale(2),
                                     phi=hopf.phi, psi=hopf.psi)),
            ("phi-e_g*", FiniteHopf(hopf.H, hopf.delta, hopf.eps, hopf.S,
                                    phi={1: ONE}, psi=hopf.psi))):
        step({"hopf": ["group", name]}, lambda copy=copy: ({}, copy.verify()))
    for name, copy in (("swap", hopf),
                       ("delta-e-g", FiniteHopf(hopf.H, lopsided, hopf.eps, hopf.S))):
        def action(copy=copy):
            act = swap_action(copy, function_algebra_z2())
            return {"symmetric": act.is_symmetric()}, act.verify()
        step({"action": ["group", name]}, action)

    def shear():
        shear = LinearMap.from_rows([[1, 1], [0, 1]])
        act = HopfAction(hopf, function_algebra_z2(), [LinearMap.identity(2), shear])
        mod, cocycle = crossed_rn_modifier(function_algebra_z2(), hopf, act, {0: ONE, 1: ONE})
        return {"D": _columns(cocycle.values)}, cocycle.report
    step({"crossed_rn_modifier": ["group", "id-shear", [[0, "1"], [1, "1"]]]}, shear)
    M = build_function_algebroid(pair_groupoid(POINTS))
    swap_01 = LinearMap.from_function(4, 4, lambda k: {(1, 0, 2, 3)[k]: ONE})
    unit = _unit_arrow_index()
    for name, bundle in (("functions-S_C-times-2", _restarred(M, s_c=M.S_C.scale(2))),
                         ("functions-star-swaps-e11-e12", _restarred(M, involution=swap_01)),
                         ("functions-S-col1", mutant_bundle("S", 1)),
                         ("functions-eps_B-unit", mutant_bundle("eps_B", unit)),
                         ("convolution-eps_B-col2",
                          mutant_bundle("eps_B", 2, build_convolution_algebroid))):
        step({"verify_star": name}, lambda bundle=bundle: ({}, verify_star(bundle)))
    return steps


def _api_reach():
    """The content API that no command calls, each call once.

    On functions p2 measured with mu = (1, 4): ``expectation_identity`` of
    the standard partial integrals and ``convolution_counit_identity``.
    On convolution p2: ``compose_modifiers`` of two ``groupoid_rn``
    modifiers of mu = (1, 2), each half of the one of mu = (1, 4), compared
    with that one map by map and checked by ``check_modifier``.
    ``verify_regular_mha`` on both instances of the disjoint union of p2
    and p1; ``verify_left_bialgebroid`` and ``verify_right_bialgebroid`` on
    the functions p2 mutant with column 0 of Delta_B scaled; and
    ``Multiplier.is_compatible`` and ``element`` on the canonical
    multipliers of functions p2, then on a pair of maps that is no
    multiplier.
    """
    g = pair_groupoid(POINTS)
    steps = []

    def step(head, run):
        steps.append(_step(head, run))

    fun, conv = build_function_algebroid(g), build_convolution_algebroid(g)
    mu = {0: ONE, 1: 4 * ONE}
    phi_C, psi_B = standard_integrals("groupoid-functions", fun, groupoid=g)
    X = assemble_measured(fun, BaseWeight(dict(mu), dict(mu)), phi_C, psi_B)
    step({"api": "expectation_identity"}, lambda: ({}, expectation_identity(fun, phi_C, psi_B)))
    step({"api": "convolution_counit_identity"}, lambda: ({}, convolution_counit_identity(X)))

    def composed():
        half, _ = groupoid_rn_modifier(g, {0: ONE, 1: 2 * ONE}, ScalarField([2]))
        whole, _ = groupoid_rn_modifier(g, mu)
        both = compose_modifiers(half, half)
        return ({"modifier": [_columns(f) for f in both.maps()],
                 "equals-mu-1-4": [f == h for f, h in zip(both.maps(), whole.maps())]},
                check_modifier(conv, both))
    step({"api": "compose_modifiers"}, composed)
    union = disjoint_union(g, pair_groupoid([1]))
    for build in (build_function_algebroid, build_convolution_algebroid):
        step({"api": "verify_regular_mha", "bundle": [build.__name__, "p2+p1"]},
             lambda build=build: ({}, verify_regular_mha(build(union))))
    mutant = mutant_bundle("delta_B", 0)
    for suite in (verify_left_bialgebroid, verify_right_bialgebroid):
        step({"api": suite.__name__, "bundle": "delta_B-col0"},
             lambda suite=suite: ({}, suite(mutant)))
    A = fun.A
    swap = LinearMap.from_function(4, 4, lambda k: {(1, 0, 2, 3)[k]: ONE})
    canonical = [Multiplier.from_element(A, {j: ONE}) for j in range(A.dim)]
    for mult in canonical + [Multiplier(A, LinearMap.identity(4), swap)]:
        def multiplier(mult=mult):
            compatible = mult.is_compatible()
            return ({"compatible": compatible,
                     "element": vec_items(mult.element()) if compatible else None}, None)
        step({"api": "Multiplier", "left": _columns(mult.left), "right": _columns(mult.right)},
             multiplier)
    return steps


def _unit_arrow_index():
    g = pair_groupoid(POINTS)
    return g.index[g.units[1]]


def cases(workdir):
    """name -> zero-argument callable returning [(exit code, text), ...]."""
    p2 = os.path.join(workdir, "p2.json")
    with open(p2, "w") as fh:
        json.dump(groupoid_to_json(pair_groupoid(POINTS)), fh)
    p3 = os.path.join(workdir, "p3.json")
    with open(p3, "w") as fh:
        json.dump(groupoid_to_json(pair_groupoid(POINTS_P3)), fh)
    artifact = os.path.join(workdir, "artifact.json")
    algebra = os.path.join(workdir, "algebra.json")
    with open(algebra, "w") as fh:
        json.dump(algebra_to_json(build_function_algebroid(pair_groupoid(POINTS)).A), fh)
    fun = ("--example", "function-algebroid", "--groupoid", p2)
    conv = ("--example", "convolution", "--groupoid", p2)

    def modify_then_measure():
        return [
            _cli("modify", *conv, "--mu", "1,4", "--recipe", "groupoid_rn",
                 "--artifact-out", artifact),
            _cli("measure", "--artifact", artifact),
        ]

    return {
        "verify-functions-p2": lambda: [_cli("verify", *fun)],
        "verify-convolution-p2": lambda: [_cli("verify", *conv)],
        "integrals-functions-p2": lambda: [_cli("integrals", *fun)],
        "integrals-mutant-S-p2": _mutant_s_integrals,
        "measure-functions-p2": lambda: [_cli("measure", *fun, "--mu", "1,4")],
        "measure-convolution-p2": lambda: [_cli("measure", *conv, "--mu", "1,4")],
        "modify-measure-convolution-p2": modify_then_measure,
        "modify-identity-convolution-p2": lambda: [_cli(
            "modify", "--example", "convolution", "--pair-groupoid", "a,b", "--mu", "1,4")],
        "measure-needs-sqrt": lambda: [_cli("measure", *conv, "--mu", "1,2",
                                            "--recipe", "groupoid_rn")],
        "build-and-report": lambda: [
            _cli("build", "--algebra", algebra),
            _cli("report", os.path.join(HERE, "verify-functions-p2.jsonl"))],
        "dual-functions-p2": lambda: [_cli("dual", *fun, "--mu", "1,4")],
        "dual-convolution-p2": lambda: [_cli("dual", *conv, "--mu", "1,1")],
        "dual-functions-p3": lambda: [_cli(
            "dual", "--example", "function-algebroid", "--groupoid", p3, "--mu", "1,4,9")],
        "dual-functions-p4": lambda: [_cli(
            "dual", "--example", "function-algebroid", "--pair-groupoid", "1,2,3,4",
            "--mu", "1,4,9,16")],
        "dual-convolution-p3-rn-radicals": lambda: [_cli(
            "dual", "--example", "convolution", "--pair-groupoid", "1,2,3", "--mu", "2,3,5",
            "--recipe", "groupoid_rn", "--sqrt", "6", "--sqrt", "10", "--sqrt", "15")],
        "mutant-delta_B-col0": lambda: _mutant("delta_B", 0),
        "mutant-delta_C-col1": lambda: _mutant("delta_C", 1),
        "mutant-convolution-delta_B-col1": lambda: _mutant(
            "delta_B", 1, build_convolution_algebroid, add_col=0),
        "mutant-convolution-delta_C-col2": lambda: _mutant(
            "delta_C", 2, build_convolution_algebroid, add_col=0),
        "mutant-convolution-delta_B-term": lambda: _mutant(
            "delta_B", 0, build_convolution_algebroid, term=(0, 1)),
        "mutant-convolution-delta_C-term": lambda: _mutant(
            "delta_C", 0, build_convolution_algebroid, term=(0, 2)),
        "mutant-convolution-delta_C-imaginary": _imaginary_term,
        "mutant-S-col1": lambda: _mutant("S", 1),
        "mutant-eps_B-unit": lambda: _mutant("eps_B", _unit_arrow_index()),
        "mutant-eps_C-unit": lambda: _mutant("eps_C", _unit_arrow_index()),
        "mutant-sweep-p2": _mutant_sweep,
        "nonassociative-functions-p2": lambda: _verified(nonassociative_bundle()),
        "partial-integrals-perturbed-p2": _perturbed_partial_integrals,
        "solved-spaces": _solved_spaces,
        "tensor-matrix-units": _matrix_tensor,
        "mirror-pins-p2": _mirror_pins,
        "hopf-and-weights": _hopf_and_weights,
        "hopf-laws-and-star": _hopf_laws_and_star,
        "api-reach-p2": _api_reach,
    }


def record(names=()):
    exits_file = os.path.join(HERE, "exits.json")
    exits = {}
    if names:
        with open(exits_file) as fh:
            exits = json.load(fh)
    with tempfile.TemporaryDirectory() as workdir:
        for name, run in sorted(cases(workdir).items()):
            if names and name not in names:
                continue
            steps = run()
            exits[name] = [code for code, _ in steps]
            with open(os.path.join(HERE, name + ".jsonl"), "w") as fh:
                fh.write("".join(text for _, text in steps))
    with open(exits_file, "w") as fh:
        json.dump(exits, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record(sys.argv[1:])
