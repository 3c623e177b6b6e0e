"""Self-tests of the benchmark: its verdict checks, its seeding and its
tracer.  They use the cheap jobs of each workload (instances of
dimension at most 9), so they run in well under a minute.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import qgroupoid  # noqa: E402
import qgroupoid.cli  # noqa: E402,F401

import jobs as jobs_mod  # noqa: E402
import oracle  # noqa: E402
from inputs import make_inputs, write_groupoids  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from speed import NOMINAL_KERNEL_S, Speedometer, kernel  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

CHEAP = {
    "verify-ladder": ("verify/function-algebroid/p2", "verify/convolution/z2",
                      "verify/tensor", "verify/crossed"),
    "measure-dual": ("integrals/p2", "measure/p2", "dual/p2", "measure/z2",
                     "measure/convolution-p3-reject"),
    "modify-radical": ("modify+measure/convolution-p3", "modify+measure/crossed",
                       "modify/convolution-p3-missing-root"),
}


def cheap_jobs(workload, inputs):
    return [j for j in jobs_mod.build_jobs(workload, inputs) if j.name in CHEAP[workload]]


@pytest.fixture
def env(tmp_path):
    def make(seed):
        inputs = make_inputs(seed)
        files = write_groupoids(qgroupoid, inputs, str(tmp_path))

        def context():
            return jobs_mod.Context(qgroupoid, inputs, files, str(tmp_path))

        return inputs, context

    return make


def test_every_workload_has_its_cheap_jobs():
    inputs = make_inputs(DEFAULT_SEED)
    for workload in jobs_mod.WORKLOADS:
        assert len(cheap_jobs(workload, inputs)) == len(CHEAP[workload])


def test_flipped_verdict_counts_as_failure(env):
    inputs, context = env(DEFAULT_SEED)
    jobs = cheap_jobs("verify-ladder", inputs)
    assert jobs_mod.run_pass(jobs, context).failed == []
    jobs[0].expect["ok"] = not jobs[0].expect["ok"]
    result = jobs_mod.run_pass(jobs, context)
    assert result.failed == [jobs[0].name]
    assert len(result.failed) / result.attempted > 0


def test_report_drift_counts_as_failure(env):
    inputs, context = env(DEFAULT_SEED)
    jobs = cheap_jobs("measure-dual", inputs)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = dict(json.load(fh)["measure-dual"])
    assert jobs_mod.run_pass(jobs, context, digests).failed == []
    digests["measure/p2"] = "0" * 64
    assert jobs_mod.run_pass(jobs, context, digests).failed == ["measure/p2"]


def test_new_seed_changes_weights_not_sizes(env):
    a, b = make_inputs(1), make_inputs(2)
    assert a["mu"] != b["mu"] and a["radical"] != b["radical"]
    assert a["points"] != b["points"]
    for workload in jobs_mod.WORKLOADS:
        ja = jobs_mod.build_jobs(workload, a)
        jb = jobs_mod.build_jobs(workload, b)
        assert [(j.name, j.size) for j in ja] == [(j.name, j.size) for j in jb]
    for seed in (1, 2):
        inputs, context = env(seed)
        jobs = cheap_jobs("verify-ladder", inputs)
        result = jobs_mod.run_pass(jobs, context)
        assert result.failed == []
        for job in jobs:
            assert result.outcomes[job.name]["dim"] == job.size


def traced_pass(jobs, context):
    plain = jobs_mod.run_pass(jobs, context)
    tracer = Tracer()
    tracer.install()
    try:
        spanned = jobs_mod.run_pass(jobs, context, tracer=tracer)
    finally:
        tracer.uninstall()
    return spanned, tracer.metrics(spanned, plain)


def test_self_times_and_remainder_add_up_to_traced_wall(env):
    inputs, context = env(DEFAULT_SEED)
    spanned, metrics = traced_pass(cheap_jobs("modify-radical", inputs), context)
    assert spanned.failed == []
    total = sum(metrics[layer + ".self_s"]["value"] for layer in LAYERS)
    total += metrics["trace.remainder_s"]["value"]
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-6)
    assert metrics["trace.remainder_s"]["value"] >= 0


def test_tracer_uninstall_restores_the_program():
    before = qgroupoid.cli.verify_regular_mha, qgroupoid.exact_linear.Scalar.__mul__
    tracer = Tracer()
    tracer.install()
    assert qgroupoid.cli.verify_regular_mha is not before[0]
    assert qgroupoid.cli.verify_regular_mha is qgroupoid.bialgebroid.verify_regular_mha
    tracer.uninstall()
    after = qgroupoid.cli.verify_regular_mha, qgroupoid.exact_linear.Scalar.__mul__
    assert after == before


def _exact(metrics):
    return {
        k: v["value"] for k, v in metrics.items()
        if v["unit"] in ("count", "dim", "ratio", "bytes") and not k.startswith("trace.")
    }


TRACED_CHILD = textwrap.dedent("""
    import json, sys, tempfile
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import qgroupoid, qgroupoid.cli
    import jobs, test_perfbench as t
    inputs = t.make_inputs(t.DEFAULT_SEED)
    with tempfile.TemporaryDirectory(dir=sys.argv[3]) as d:
        files = t.write_groupoids(qgroupoid, inputs, d)
        ctx = lambda: jobs.Context(qgroupoid, inputs, files, d)
        out = {}
        for w in jobs.WORKLOADS:
            _, metrics = t.traced_pass(t.cheap_jobs(w, inputs), ctx)
            out[w] = t._exact(metrics)
    print(json.dumps(out, sort_keys=True))
""")


def test_exact_counters_repeat_across_processes(tmp_path):
    runs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_CHILD, os.path.join(ROOT, "src"), HERE,
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert runs[0] == runs[1]
    assert runs[0]["modify-radical"]["exact_linear.scalar_mul_radical.count"] > 0
    assert runs[0]["verify-ladder"]["exact_linear.scalar_mul_radical.count"] == 0
    assert runs[0]["measure-dual"]["balanced_tensor.triple_build.count"] == 0
    assert runs[0]["verify-ladder"]["integration.factorize.count"] == 0


def test_benchmark_json_lists_every_metric(env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    inputs, context = env(DEFAULT_SEED)
    _, metrics = traced_pass(cheap_jobs("measure-dual", inputs), context)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: v["unit"] for k, v in metrics.items()}


def test_oracle_known_answers():
    assert oracle.squarefree_kernel(72) == 2
    assert oracle.squarefree_kernel(6 * 35) == 210
    # README: mu = (1, 4) on points 1, 2 gives delta (1, 4, 1/4, 1)
    delta = oracle.function_delta_plus([1, 2], [1, 4])
    assert [delta[k] for k in ("(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)")] == [1, 4, 0.25, 1]
    assert oracle.missing_roots([6, 35, 143], [6, 35]) == [858, 5005]
    assert oracle.missing_roots([6, 35], [6, 35]) == []
    assert oracle.convolution_counital([3, 3]) and not oracle.convolution_counital([3, 4])


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speedometer_scales_kernel_work_to_nominal_time():
    old = signal.getsignal(signal.SIGALRM)
    with Speedometer() as speed:
        speed.start()
        t0 = time.perf_counter()
        for _ in range(400):
            kernel()
        wall = time.perf_counter() - t0
        scaled, share = speed.scale(wall)
    assert len(speed.speeds) >= 2
    assert scaled == pytest.approx((wall - speed.spent) * share)
    # 400 kernels take 400 nominal kernel times at any machine speed
    assert scaled == pytest.approx(400 * NOMINAL_KERNEL_S, rel=0.25)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is old
