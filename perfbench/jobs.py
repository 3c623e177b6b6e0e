"""The benchmark's workloads: jobs that drive qgroupoid from outside, each
with the verdict known for it in advance.

A job rebuilds its instance from the generated inputs every time it runs,
so no instance (and none of its per-instance caches) survives from one
pass into the next.  CLI jobs go through ``qgroupoid.cli.main`` with
``--out`` files; the Hopf-based instances have no CLI selector and go
through the public API.  Library functions are looked up on their module
at call time, so the traced run sees every call.
"""

import gc
import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction

import oracle
from inputs import SIZES

WORKLOADS = ("verify-ladder", "measure-dual", "modify-radical")
COMMANDS = ("verify", "integrals", "measure", "modify", "dual")


class Job:
    """One unit of work: ``run(ctx)`` returns the observed verdict, a dict
    that must agree with ``expect`` on every key it names."""

    def __init__(self, name, size, run, expect):
        self.name = name
        self.size = size  # dimension of the instance; fixed by the workload
        self.run = run
        self.expect = expect


class Context:
    """What a job needs while it runs: the program, the input files, a
    scratch directory and the per-command clock."""

    def __init__(self, qg, inputs, files, workdir):
        self.qg = qg
        self.inputs = inputs
        self.files = files
        self.workdir = workdir
        self.seconds = dict.fromkeys(COMMANDS, 0.0)
        self.output_bytes = 0
        self.report = []  # report bytes of the running job, for its digest

    @contextmanager
    def step(self, command):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[command] += time.perf_counter() - t0

    def cli(self, command, *argv, artifact_out=None):
        """Run one CLI command in-process; returns (exit code, summary,
        failing eq labels)."""
        out = os.path.join(self.workdir, "report.jsonl")
        extra = ["--artifact-out", artifact_out] if artifact_out else []
        with self.step(command):
            code = self.qg.cli.main([command, *argv, "--out", out, *extra])
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        self.output_bytes += len(data)
        self.report.append(data)
        lines = [json.loads(line) for line in data.splitlines()]
        summary = lines[-1]["summary"]
        fails = {e["eq"] for e in lines[:-1] if e["status"] != "pass"}
        return code, summary, fails

    def record(self, rep):
        """Keep an API report's bytes for the digest; returns its verdict."""
        self.report.append("\n".join(rep.to_json_lines()).encode())
        return rep.ok, {e.eq for e in rep.failures()}


def check(outcome, expect):
    """True iff the observed verdict matches the known answer."""
    for key, want in expect.items():
        if key == "fails_with":
            if want not in outcome.get("fails", ()):
                return False
        elif outcome.get(key) != want:
            return False
    return True


class PassResult:
    def __init__(self):
        self.wall_s = 0.0
        self.seconds = {}
        self.attempted = 0
        self.failed = []
        self.digests = {}
        self.outcomes = {}
        self.output_bytes = 0


def run_pass(jobs, ctx_factory, digests=None, tracer=None):
    """One full pass over a workload's jobs; ``digests`` (job name ->
    sha256 of its report bytes) adds report drift to the failures."""
    ctx = ctx_factory()
    result = PassResult()
    gc.collect()
    t0 = time.perf_counter()
    for job in jobs:
        result.attempted += 1
        ctx.report = []
        if tracer is not None:
            tracer.job = job.name
        try:
            outcome = job.run(ctx)
        except Exception:  # the pass must go on; the job counts as failed
            traceback.print_exc(file=sys.stderr)
            result.failed.append(job.name)
            continue
        digest = hashlib.sha256(b"\n".join(ctx.report)).hexdigest()
        result.digests[job.name] = digest
        result.outcomes[job.name] = outcome
        ok = check(outcome, job.expect)
        if ok and digests is not None and digests.get(job.name) != digest:
            sys.stderr.write("report drift in %s\n" % job.name)
            ok = False
        if not ok:
            sys.stderr.write(
                "wrong verdict in %s: got %r, want %r\n" % (job.name, outcome, job.expect)
            )
            result.failed.append(job.name)
    result.wall_s = time.perf_counter() - t0
    result.seconds = ctx.seconds
    result.output_bytes = ctx.output_bytes
    return result


# ---------------------------------------------------------------------------
# job bodies
# ---------------------------------------------------------------------------


def _pass_expect(**extra):
    return dict(ok=True, exit=0, fails=set(), **extra)


def _csv(values):
    return ",".join(str(v) for v in values)


def _sqrt_args(roots):
    return [a for r in roots for a in ("--sqrt", str(r))]


def _verify_cli(example, groupoid):
    def run(ctx):
        code, summary, fails = ctx.cli(
            "verify", "--example", example, "--groupoid", ctx.files[groupoid]
        )
        return dict(ok=summary["status"] == "pass", exit=code, fails=fails,
                    dim=summary["dim"])
    return run


def _verify_api(build):
    def run(ctx):
        qg = ctx.qg
        with ctx.step("verify"):
            M = build(ctx)
            rep = qg.verify_regular_mha(M)
            if M.A.involution is not None:
                rep.merge(qg.verify_star(M), prefix="star")
        ok, fails = ctx.record(rep)
        return dict(ok=ok, exit=0 if ok else 1, fails=fails, dim=M.A.dim)
    return run


def _z2_hopf(qg):
    labels, table = qg.examples.cyclic_group_table(2)
    return qg.build_group_hopf(labels, table, "group")


def _build_tensor(ctx):
    qg = ctx.qg
    FA, ident = qg.FiniteAlgebra, qg.LinearMap.identity(2)
    b = FA.pointwise(["u1", "u2"], involution=ident)
    c = FA.pointwise(["v1", "v2"], involution=ident)
    return qg.build_tensor_algebroid(b, c, ident, ident)


def _build_crossed(ctx):
    qg = ctx.qg
    hopf = _z2_hopf(qg)
    c = qg.examples.function_algebra_z2()
    return qg.build_crossed_product(c, hopf, qg.examples.swap_action(hopf, c))


def _build_twosided(ctx):
    qg = ctx.qg
    hopf = _z2_hopf(qg)
    fz2 = qg.examples.function_algebra_z2
    c, b = fz2(), fz2()
    ident = qg.LinearMap.identity(2)
    right = qg.HopfAction(
        hopf, b, [ident, qg.LinearMap.from_rows([[0, 1], [1, 0]])], side="right"
    )
    return qg.build_two_sided(
        c, hopf, b, qg.examples.swap_action(hopf, c), right, ident, ident
    )


def _function_p3_mutant(kind):
    """Functions on p3 with one antipode column, or one left-counit column
    at a unit arrow, scaled by a seeded factor."""
    def build(ctx):
        qg, inp = ctx.qg, ctx.inputs
        g = qg.pair_groupoid(inp["points"]["p3"])
        M = qg.build_function_algebroid(g)
        n, c = M.A.dim, qg.sc(inp["scale"])
        raw = qg.LinearMap.from_function(n * n, n, lambda j: M.qb.lift(M.delta_B.col(j)))
        S, eps_B = M.S, M.eps_B
        if kind == "antipode":
            S = _scale_col(qg, S, inp["antipode_col"], c)
        else:
            unit = g.units[inp["counit_unit"]]
            eps_B = _scale_col(qg, eps_B, g.index[unit], c)
        return qg.RegularMHA(M.A, M.B, M.C, M.S_B, M.S_C, raw, raw,
                             eps_B=eps_B, eps_C=M.eps_C, S=S, name="mutant")
    return build


def _scale_col(qg, f, k, c):
    cols = [dict(f.col(j)) for j in range(f.cols)]
    cols[k] = {i: c * s for i, s in cols[k].items()}
    return qg.LinearMap(f.rows, f.cols, cols)


def _integrals(groupoid, example):
    def run(ctx):
        code, summary, fails = ctx.cli(
            "integrals", "--example", example, "--groupoid", ctx.files[groupoid]
        )
        return dict(ok=summary["status"] == "pass", exit=code, fails=fails,
                    left_dim=summary["left_space_dim"],
                    right_dim=summary["right_space_dim"])
    return run


def _measure(groupoid, example, mu):
    def run(ctx):
        code, summary, fails = ctx.cli(
            "measure", "--example", example, "--groupoid", ctx.files[groupoid],
            "--mu", _csv(mu),
        )
        out = dict(ok=summary["status"] == "pass", exit=code, fails=fails,
                   rejected=summary.get("rejected"))
        if "delta_plus" in summary:
            out["delta_plus"] = {
                k: Fraction(v) for k, v in summary["delta_plus"].items()
            }
            out["delta_trivial"] = summary["delta_trivial"]
        return out
    return run


def _dual(groupoid, example, mu):
    def run(ctx):
        code, summary, fails = ctx.cli(
            "dual", "--example", example, "--groupoid", ctx.files[groupoid],
            "--mu", _csv(mu),
        )
        return dict(ok=summary["status"] == "pass", exit=code, fails=fails,
                    dual_dim=summary["dual_algebra"]["dim"])
    return run


def _rn_pipeline(groupoid, measure):
    """The README pipeline: modify --recipe groupoid_rn, then (if
    ``measure``) measure the artifact."""
    def run(ctx):
        mu = ctx.inputs["radical"][groupoid]
        artifact = os.path.join(ctx.workdir, "artifact.json")
        code, summary, fails = ctx.cli(
            "modify", "--example", "convolution", "--groupoid", ctx.files[groupoid],
            "--mu", _csv(mu), "--recipe", "groupoid_rn", *_sqrt_args(mu),
            artifact_out=artifact,
        )
        out = dict(ok=summary["status"] == "pass", exit=code, fails=fails)
        if measure:
            m_code, m_summary, m_fails = ctx.cli("measure", "--artifact", artifact)
            out = dict(ok=out["ok"] and m_summary["status"] == "pass",
                       exit=max(code, m_code), fails=fails | m_fails,
                       delta_trivial=m_summary.get("delta_trivial"),
                       sigma_is_derivative_multiplier=m_summary.get(
                           "sigma_is_derivative_multiplier"))
        os.remove(artifact)
        return out
    return run


def _missing_root(ctx):
    mu = ctx.inputs["radical"]["p3"]
    supplied = [w for i, w in enumerate(mu) if i != ctx.inputs["omit_root"]]
    code, summary, fails = ctx.cli(
        "modify", "--example", "convolution", "--groupoid", ctx.files["p3"],
        "--mu", _csv(mu), "--recipe", "groupoid_rn", *_sqrt_args(supplied),
    )
    hint = summary.get("hint", "")
    missing = sorted(int(w) for w in hint.split("--sqrt")[1:])
    return dict(ok=summary["status"] == "pass", exit=code, fails=fails,
                rejected=summary.get("rejected"), missing=missing)


def _measure_api(ctx, M, weight, phi, psi):
    """The API equivalent of the measure command."""
    qg = ctx.qg
    with ctx.step("measure"):
        X = qg.assemble_measured(M, weight, phi, psi)
        rep = qg.Report().merge(X.report)
        rep.merge(qg.modular_automorphism(X, "left").report, prefix="sigma")
        rep.merge(qg.modular_element(X).report, prefix="delta")
    return ctx.record(rep)


def _crossed_rn(ctx):
    qg = ctx.qg
    mu = {i: qg.sc(w) for i, w in enumerate(ctx.inputs["mu"]["crossed"])}
    with ctx.step("modify"):
        hopf = _z2_hopf(qg)
        c = qg.examples.function_algebra_z2()
        act = qg.examples.swap_action(hopf, c)
        mod, cocycle = qg.crossed_rn_modifier(c, hopf, act, mu)
        M = qg.build_crossed_product(c, hopf, act)
        rep = qg.check_modifier(M, mod).merge(cocycle.report, prefix="cocycle")
        Mt = qg.modify(M, mod)
        rep.merge(Mt.modification_report, prefix="modify")
    ok, fails = ctx.record(rep)
    phi, psi = qg.standard_integrals("crossed", Mt, hopf=hopf)
    weight = qg.BaseWeight(mu_B=dict(mu), mu_C=dict(mu))
    m_ok, m_fails = _measure_api(ctx, Mt, weight, phi, psi)
    ok = ok and m_ok
    return dict(ok=ok, exit=0 if ok else 1, fails=fails | m_fails)


def _twosided_rn(ctx):
    qg = ctx.qg
    mu = {i: qg.sc(w) for i, w in enumerate(ctx.inputs["mu"]["twosided"])}
    with ctx.step("modify"):
        hopf = _z2_hopf(qg)
        c = qg.examples.function_algebra_z2()
        act = qg.examples.swap_action(hopf, c)
        bundle = qg.twosided_rn_modifier(c, hopf, act, mu, qg.LinearMap.identity(2))
        M, mod = bundle["M"], bundle["modifier"]
        rep = qg.check_modifier(M, mod).merge(bundle["report"], prefix="bundle")
        Mt = qg.modify(M, mod)
        rep.merge(Mt.modification_report, prefix="modify")
    ok, fails = ctx.record(rep)
    m_ok, m_fails = _measure_api(ctx, Mt, bundle["weight"], bundle["phi_C"], bundle["psi_B"])
    ok = ok and m_ok
    return dict(ok=ok, exit=0 if ok else 1, fails=fails | m_fails)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _dim(points_key):
    return SIZES[points_key] ** 2


def build_jobs(workload, inputs):
    """The workload's jobs for the given inputs, with their known answers."""
    pts, mu = inputs["points"], inputs["mu"]
    jobs = []
    if workload == "verify-ladder":
        for example, keys in (("function-algebroid", ("p2", "p3")),
                              ("convolution", ("p2", "p3", "p4"))):
            for key in keys:
                jobs.append(Job("verify/%s/%s" % (example, key), _dim(key),
                                _verify_cli(example, key), _pass_expect(dim=_dim(key))))
            jobs.append(Job("verify/%s/z2" % example, 2, _verify_cli(example, "z2"),
                            _pass_expect(dim=2)))
        for name, size, build in (("tensor", 4, _build_tensor),
                                  ("crossed", 4, _build_crossed),
                                  ("two-sided", 8, _build_twosided)):
            jobs.append(Job("verify/%s" % name, size, _verify_api(build),
                            _pass_expect(dim=size)))
        jobs.append(Job("verify/mutant-antipode/p3", 9,
                        _verify_api(_function_p3_mutant("antipode")),
                        dict(ok=False, exit=1, fails_with="dg-antipode")))
        jobs.append(Job("verify/mutant-counit/p3", 9,
                        _verify_api(_function_p3_mutant("counit")),
                        dict(ok=False, exit=1, fails_with="left-counit")))
    elif workload == "measure-dual":
        fn = "function-algebroid"
        jobs.append(Job("integrals/p2", 4, _integrals("p2", fn),
                        _pass_expect(left_dim=2, right_dim=2)))
        jobs.append(Job("measure/p2", 4, _measure("p2", fn, mu["p2"]),
                        _pass_expect(delta_plus=oracle.function_delta_plus(pts["p2"], mu["p2"]))))
        jobs.append(Job("dual/p2", 4, _dual("p2", fn, mu["p2"]), _pass_expect(dual_dim=4)))
        jobs.append(Job("integrals/z2", 2, _integrals("z2", "convolution"),
                        _pass_expect(left_dim=1, right_dim=1)))
        jobs.append(Job("measure/z2", 2, _measure("z2", "convolution", mu["z2"]),
                        _pass_expect(delta_trivial=True)))
        jobs.append(Job("dual/z2", 2, _dual("z2", "convolution", mu["z2"]),
                        _pass_expect(dual_dim=2)))
        jobs.append(Job("integrals/p3", 9, _integrals("p3", fn),
                        _pass_expect(left_dim=3, right_dim=3)))
        for w in ("p3a", "p3b"):
            jobs.append(Job("measure/%s" % w, 9, _measure("p3", fn, mu[w]),
                            _pass_expect(delta_plus=oracle.function_delta_plus(pts["p3"], mu[w]))))
        jobs.append(Job("dual/p3a", 9, _dual("p3", fn, mu["p3a"]), _pass_expect(dual_dim=9)))
        jobs.append(Job("integrals/p4", 16, _integrals("p4", fn),
                        _pass_expect(left_dim=4, right_dim=4)))
        jobs.append(Job("measure/p4", 16, _measure("p4", fn, mu["p4"]),
                        _pass_expect(delta_plus=oracle.function_delta_plus(pts["p4"], mu["p4"]))))
        reject = not oracle.convolution_counital(mu["conv_p3"])
        jobs.append(Job("measure/convolution-p3-reject", 9,
                        _measure("p3", "convolution", mu["conv_p3"]),
                        dict(ok=not reject, exit=int(reject),
                             rejected="base-weight-counital" if reject else None)))
    elif workload == "modify-radical":
        jobs.append(Job("modify+measure/convolution-p3", 9, _rn_pipeline("p3", True),
                        _pass_expect(delta_trivial=True,
                                     sigma_is_derivative_multiplier=True)))
        jobs.append(Job("modify/convolution-p4", 16, _rn_pipeline("p4", False),
                        _pass_expect()))
        jobs.append(Job("modify+measure/crossed", 4, _crossed_rn, _pass_expect()))
        jobs.append(Job("modify+measure/two-sided", 8, _twosided_rn, _pass_expect()))
        rad = inputs["radical"]["p3"]
        supplied = [w for i, w in enumerate(rad) if i != inputs["omit_root"]]
        jobs.append(Job("modify/convolution-p3-missing-root", 9, _missing_root,
                        dict(ok=False, exit=1, rejected="quasi-invariant",
                             missing=oracle.missing_roots(rad, supplied))))
    else:
        raise ValueError("unknown workload %r" % workload)
    return jobs
