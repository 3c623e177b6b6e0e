"""Golden reports on the 2-point pair groupoid, ``dual`` on 3 points, and
the tensor algebroid over the 2x2 matrix algebra (a non-commutative base).

Each case runs CLI commands (``qgroupoid.cli.main`` in-process, stdout
captured), ``verify_regular_mha`` on mutant instances,
``check_partial_integral`` on perturbed partial integrals, or the solved
spaces no command reports in full, and yields the exit code and the exact
report text of every step.  The recorded texts
live next to this file as ``<case>.jsonl``, the exit codes in
``exits.json``; ``test_golden.py`` compares both byte for byte.

Re-record after an intended change of a report, from the repository root:

    PYTHONPATH=src python3 tests/golden/record.py
"""

import contextlib
import io
import json
import os
import tempfile

from qgroupoid import (
    HopfAction,
    LinearMap,
    RegularMHA,
    build_convolution_algebroid,
    build_crossed_product,
    build_function_algebroid,
    build_group_hopf,
    build_tensor_algebroid,
    build_two_sided,
    check_partial_integral,
    derive_antipode,
    derive_counits,
    local_projectivity,
    multiplier_algebra,
    orbit_algebra,
    solve_partial_integrals,
    standard_integrals,
    verify_regular_mha,
)
from qgroupoid.algebra_core import FiniteAlgebra
from qgroupoid.bialgebroid import _ONE_SIDED, _Half, _hom_space
from qgroupoid.cli import main
from qgroupoid.exact_linear import ONE, axpy, vec_items
from qgroupoid.examples import (
    cyclic_group_table,
    function_algebra_z2,
    group_groupoid,
    groupoid_to_json,
    pair_groupoid,
    swap_action,
)
from qgroupoid.integration import _ergodic_characterization
from qgroupoid.report import Report
from qgroupoid.structure_theory import _co_hom_space

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
    column k, for term = (i, j)."""
    i, j = term
    cols = [dict(f.col(c)) for c in range(f.cols)]
    cols[k] = axpy(cols[k], ONE, {i * f.cols + j: ONE})
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


def _mutant(kind, col, build=build_function_algebroid, add_col=None, term=None):
    """The report of ``verify_regular_mha`` on a p2 ``mutant_bundle``."""
    rep = verify_regular_mha(mutant_bundle(kind, col, build, add_col, term=term))
    return [(0 if rep.ok else 1, "\n".join(rep.to_json_lines()) + "\n")]


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
        "measure-functions-p2": lambda: [_cli("measure", *fun, "--mu", "1,4")],
        "measure-convolution-p2": lambda: [_cli("measure", *conv, "--mu", "1,4")],
        "modify-measure-convolution-p2": modify_then_measure,
        "dual-functions-p2": lambda: [_cli("dual", *fun, "--mu", "1,4")],
        "dual-functions-p3": lambda: [_cli(
            "dual", "--example", "function-algebroid", "--groupoid", p3, "--mu", "1,4,9")],
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
        "mutant-S-col1": lambda: _mutant("S", 1),
        "mutant-eps_B-unit": lambda: _mutant("eps_B", _unit_arrow_index()),
        "mutant-eps_C-unit": lambda: _mutant("eps_C", _unit_arrow_index()),
        "mutant-sweep-p2": _mutant_sweep,
        "partial-integrals-perturbed-p2": _perturbed_partial_integrals,
        "solved-spaces": _solved_spaces,
        "tensor-matrix-units": _matrix_tensor,
    }


def record():
    exits = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, run in sorted(cases(workdir).items()):
            steps = run()
            exits[name] = [code for code, _ in steps]
            with open(os.path.join(HERE, name + ".jsonl"), "w") as fh:
                fh.write("".join(text for _, text in steps))
    with open(os.path.join(HERE, "exits.json"), "w") as fh:
        json.dump(exits, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
