"""Batch front-end: build instances from JSON, run verification suites,
compute structure data, emit JSON-line reports.

Reports are deterministic (sorted keys, canonical ordering): identical
inputs give byte-identical output.  Exit codes: 0 all checks pass, 1 a
mathematical condition fails (the failing law is named), 2 malformed
input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .algebra_core import algebra_from_json, algebra_to_json, check_algebra, scalar_to_json
from .bialgebroid import verify_regular_mha, verify_star
from .examples import (
    build_convolution_algebroid,
    build_function_algebroid,
    groupoid_from_json,
    groupoid_to_json,
    pair_groupoid,
    standard_integrals,
)
from .exact_linear import FieldExtensionNeeded, ScalarField, as_fraction, sc
from .integration import BaseWeight, assemble_measured, solve_partial_integrals
from .modification import groupoid_rn_modifier, identity_modifier, modify
from .report import JSON_ENCODER, Rejected, Report
from .structure_theory import dual_algebra, modular_automorphism, modular_element

USAGE_ERROR, MATH_ERROR = 2, 1


def _emit(report, out, extra=None):
    lines = report.to_json_lines()
    summary = {
        "summary": {
            "status": "pass" if report.ok else "fail",
            "checks": len(report.entries),
            "failures": len(report.failures()),
        }
    }
    if extra:
        summary["summary"].update(extra)
    lines.append(JSON_ENCODER.encode(summary))
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return 0 if report.ok else MATH_ERROR


def _fail(eq, message, out, hint=None):
    rep = Report()
    rep.check(False, "rejected", eq, message)
    extra = {"rejected": eq}
    if hint:
        extra["hint"] = hint
    _emit(rep, out, extra)
    return MATH_ERROR


@contextmanager
def _schema(what):
    """Malformed input read inside the block (a missing key, a value of the
    wrong type or form) ends the command as a usage error, exit code 2."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as e:
        raise SystemExit("schema error in %s: %s: %s" % (what, type(e).__name__, e))


def _load_groupoid(args):
    if getattr(args, "pair_groupoid", None):
        points = [p.strip() for p in args.pair_groupoid.split(",") if p.strip()]
        if not points:
            raise SystemExit("--pair-groupoid needs at least one point")
        with _schema("--pair-groupoid"):
            return pair_groupoid(points)
    if not getattr(args, "groupoid", None):
        raise SystemExit("a --groupoid file or --pair-groupoid list is required")
    with open(args.groupoid) as fh, _schema("--groupoid"):
        return groupoid_from_json(json.load(fh))


def _parse_mu(raw, units):
    """The unit weights by unit index, from a list of values (an
    artifact's) or from a --mu flag: a JSON file path or comma-separated
    values."""
    if raw is None:
        raise SystemExit("--mu is required for this command")
    data = raw
    if not isinstance(raw, list):
        try:
            with open(raw) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = [v.strip() for v in raw.split(",")]
    with _schema("--mu"):
        if isinstance(data, dict):
            data = [data[repr(u)] for u in units]
        if len(data) != len(units):
            raise SystemExit(
                "--mu needs %d weights (one per unit), got %d" % (len(units), len(data))
            )
        return {i: sc(Fraction(str(v))) for i, v in enumerate(data)}


def _build_instance(example, groupoid):
    if example in ("function-algebroid", "function", "functions"):
        return build_function_algebroid(groupoid), "groupoid-functions"
    if example in ("convolution-algebroid", "convolution"):
        return build_convolution_algebroid(groupoid), "groupoid-convolution"
    raise SystemExit("unknown --example %r (use function-algebroid or convolution)" % example)


def _selection(args):
    """(groupoid, example, mu, field, recipe) from CLI selectors or, where
    ``--artifact`` names one, a pipeline artifact: the groupoid, the
    example's name, the unit weights, the scalar field of the ``sqrt``
    roots and the recipe's name."""
    if getattr(args, "artifact", None):
        src = sys.stdin if args.artifact == "-" else open(args.artifact)
        try:
            pipeline = json.load(src)
        finally:
            if src is not sys.stdin:
                src.close()
        with _schema("--artifact"):
            groupoid = groupoid_from_json(pipeline["groupoid"])
            example = pipeline["example"]
            mu, roots = pipeline["mu"], pipeline.get("sqrt", [])
            if not (isinstance(mu, list) and isinstance(roots, list)):
                raise TypeError("mu and sqrt must be JSON lists")
            recipe = pipeline.get("recipe", "identity")
            field = ScalarField(roots)
    else:
        groupoid = _load_groupoid(args)
        example, mu, recipe = args.example, args.mu, args.recipe
        with _schema("--sqrt"):
            field = ScalarField(args.sqrt or [])
    return groupoid, example, _parse_mu(mu, groupoid.units), field, recipe


def _pipeline(args):
    """(M, weight, phi, psi, cocycle) from ``_selection``: the bundle after
    the recipe, its weight and standard partial integrals, and the
    recipe's cocycle or None."""
    groupoid, example, mu, field, recipe = _selection(args)
    M, integral_kind = _build_instance(example, groupoid)
    cocycle = None
    if recipe == "groupoid_rn":
        mod, cocycle = groupoid_rn_modifier(groupoid, mu, field)
        M = modify(M, mod)
    elif recipe != "identity":
        raise SystemExit("unknown --recipe %r for the CLI pipeline" % recipe)
    phi, psi = standard_integrals(integral_kind, M, groupoid=groupoid)
    weight = BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    return M, weight, phi, psi, cocycle


def cmd_build(args):
    with open(args.algebra) as fh, _schema("--algebra"):
        algebra = algebra_from_json(json.load(fh))
    return _emit(check_algebra(algebra), args.out, {"dim": algebra.dim})


def cmd_verify(args):
    groupoid = _load_groupoid(args)
    M, _ = _build_instance(args.example, groupoid)
    rep = verify_regular_mha(M)
    if M.A.involution is not None:
        rep.merge(verify_star(M), prefix="star")
    return _emit(rep, args.out, {"instance": M.name, "dim": M.A.dim})


def cmd_integrals(args):
    groupoid = _load_groupoid(args)
    M, _ = _build_instance(args.example, groupoid)
    rep = Report()
    left, lrep = solve_partial_integrals(M, "left")
    right, rrep = solve_partial_integrals(M, "right")
    rep.merge(lrep, prefix="left")
    rep.merge(rrep, prefix="right")
    return _emit(
        rep, args.out,
        {"left_space_dim": len(left), "right_space_dim": len(right)},
    )


def cmd_measure(args):
    M, weight, phi, psi, cocycle = _pipeline(args)
    X = assemble_measured(M, weight, phi, psi)
    rep = Report()
    rep.merge(X.report)
    sigma = modular_automorphism(X, "left")
    rep.merge(sigma.report, prefix="sigma")
    delta = modular_element(X)
    rep.merge(delta.report, prefix="delta")
    extra = {
        "delta_plus": {
            M.A.labels[k]: scalar_to_json(v)
            for k, v in sorted(delta.delta_plus.items())
        },
        "delta_trivial": delta.delta_plus == M.A.unit(),
    }
    if cocycle is not None:
        d_mult = all(
            sigma.mapping.col(k) == {k: cocycle.values[k]}
            for k in range(M.A.dim)
        )
        extra["sigma_is_derivative_multiplier"] = d_mult
    return _emit(rep, args.out, extra)


def cmd_modify(args):
    groupoid, example, mu, field, recipe = _selection(args)
    M, _ = _build_instance(example, groupoid)
    if recipe == "groupoid_rn":
        mod, _ = groupoid_rn_modifier(groupoid, mu, field)
    else:
        mod = identity_modifier(M)
    modified = modify(M, mod)
    rep = Report().merge(modified.modifier_report)
    rep.merge(modified.modification_report, prefix="modify")
    artifact = {
        "kind": "measured-pipeline",
        "example": example,
        "groupoid": groupoid_to_json(groupoid),
        "mu": [str(as_fraction(mu[i])) for i in range(len(groupoid.units))],
        "recipe": recipe,
        "sqrt": list(args.sqrt or []),
    }
    if args.artifact_out:
        # artifact alone on the chosen stream, so `modify --artifact-out - |
        # measure --artifact -` composes; the report moves to stderr then
        text = json.dumps(artifact, sort_keys=True) + "\n"
        if args.artifact_out == "-":
            sys.stdout.write(text)
            if args.out in (None, "-"):
                sys.stderr.write("\n".join(rep.to_json_lines()) + "\n")
                return 0 if rep.ok else MATH_ERROR
        else:
            with open(args.artifact_out, "w") as fh:
                fh.write(text)
    return _emit(rep, args.out, {"artifact": artifact})


def cmd_dual(args):
    M, weight, phi, psi, _ = _pipeline(args)
    dual = dual_algebra(assemble_measured(M, weight, phi, psi))
    return _emit(dual.report, args.out, {"dual_algebra": algebra_to_json(dual.algebra)})


def cmd_report(args):
    src = sys.stdin if args.infile == "-" else open(args.infile)
    try:
        entries = [json.loads(line) for line in src if line.strip()]
    finally:
        if src is not sys.stdin:
            src.close()
    for k, obj in enumerate(entries):
        if not isinstance(obj, dict):
            raise SystemExit("report entry %d is not a JSON object: %s" % (k + 1, json.dumps(obj)))
    entries = [obj for obj in entries if "summary" not in obj]
    failures = sum(obj.get("status") != "pass" for obj in entries)
    for obj in entries:
        sys.stdout.write("%-4s  %-44s  [%s]\n" % (obj.get("status"), obj.get("axiom"), obj.get("eq")))
    sys.stdout.write("%d checks, %d failures\n" % (len(entries), failures))
    return 0 if failures == 0 else MATH_ERROR


@functools.cache
def _parser():
    """The argument parser, built on the first ``main`` call, not at import,
    and kept for the process.  ``parse_args`` leaves it as it was: each
    call fills a fresh namespace with the defaults, and an appended option
    (``--sqrt``) starts from its default None, so a call sees nothing of
    an earlier one."""
    parser = argparse.ArgumentParser(
        prog="qgroupoid",
        description="Exact verification workbench for finite quantum groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=False, recipe=False, artifact=False):
        p.add_argument("--example", default="function-algebroid")
        p.add_argument("--groupoid", help="groupoid JSON file")
        p.add_argument("--pair-groupoid", help="comma-separated points")
        p.add_argument("--out", help="output path (default stdout)")
        if mu:
            p.add_argument("--mu", help="unit weights, CSV or JSON path")
            p.add_argument("--sqrt", type=int, action="append",
                           help="adjoin a square root (repeatable)")
        if recipe:
            p.add_argument("--recipe", default="identity",
                           choices=["identity", "groupoid_rn"])
        if artifact:
            p.add_argument("--artifact", help="pipeline artifact JSON ('-' for stdin)")

    p = sub.add_parser("build", help="validate an algebra JSON file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the full axiom suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integrals", help="solve the partial-integral spaces")
    common(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("measure", help="assemble the measured structure")
    common(p, mu=True, recipe=True, artifact=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("modify", help="apply a comultiplication modifier")
    common(p, mu=True, recipe=True)
    p.add_argument("--artifact-out",
                   help="write the pipeline artifact alone ('-' for stdout)")
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("dual", help="compute the dual convolution algebra")
    common(p, mu=True, recipe=True, artifact=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("report", help="pretty-print a JSON-lines report")
    p.add_argument("infile", nargs="?", default="-")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as e:
        sys.stderr.write("%s\n" % e)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write("schema error: %s\n" % e)
        return USAGE_ERROR
    except FieldExtensionNeeded as e:
        # the rejected quasi-invariant entry, with a hint naming every
        # square root it misses
        return _fail("quasi-invariant", str(e), args.out,
                     hint="re-run with --sqrt %s" % " --sqrt ".join(map(str, e.missing)))
    except Rejected as e:
        hint = e.hint
        if (args.command, e.eq) == ("measure", "base-weight-counital"):
            hint = "apply groupoid_rn modifier"
        return _fail(e.eq, str(e), args.out, hint=hint)


if __name__ == "__main__":
    sys.exit(main())
