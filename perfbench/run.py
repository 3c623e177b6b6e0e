"""Time-to-verdict benchmark for qgroupoid.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The untraced run (``--trace 0``) runs full passes over the workload's
jobs until ``--seconds`` have gone by, and at least two; ``scaled_wall_s``
is the median of their times scaled to a nominal machine speed (see
``speed.py``).  It measures set-up in fresh interpreters before the first
pass and after each pass, so that a slow spell of the machine moves few
of the set-up samples.  The traced run (``--trace 1``) runs one untraced
pass, the first in a fresh process (``cold_pass_s``), and one pass with
every public function and method of the program wrapped in spans, and
reports per-layer metrics.  Either way the
last line of standard output is one JSON object; everything else goes
to standard error.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import jobs as jobs_mod
from inputs import make_inputs, write_groupoids
from speed import Speedometer
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3  # per slot: before the first pass and after each pass
SETUP_TIMEOUT_S = 60
DEFAULT_SEED = 1  # digests.json holds the report digests of this seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(src, seed, workdir):
    """Wall times of fresh interpreters that import qgroupoid, generate
    the inputs and write the groupoid files."""
    times = []
    for i in range(SETUP_REPEATS):
        out = os.path.join(workdir, "setup-%d" % i)
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_step.py"), src, str(seed), out],
            stdout=subprocess.DEVNULL,
        )
        # a blocking wait returns as the child exits; Popen.wait(timeout)
        # polls with sleeps of up to 50 ms, which would quantize the sample
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError("set-up step exited with code %d" % code)
        shutil.rmtree(out)
    return times


def load_digests(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {})


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qgroupoid", "__init__.py")):
        sys.stderr.write("no qgroupoid sources under %s; run from a checkout root\n" % src)
        return 2
    sys.path.insert(0, src)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        setup = [] if args.trace else measure_setup(src, args.seed, workdir)
        import qgroupoid
        import qgroupoid.cli  # noqa: F401  (makes qgroupoid.cli an attribute)

        inputs = make_inputs(args.seed)
        files = write_groupoids(qgroupoid, inputs, workdir)
        jobs = jobs_mod.build_jobs(args.workload, inputs)
        digests = load_digests(args.workload, args.seed)

        def context():
            return jobs_mod.Context(qgroupoid, inputs, files, workdir)

        if args.trace:
            passes, metrics = traced(jobs, context, digests)
        else:
            passes, scaled = [], []
            t0 = time.perf_counter()
            with Speedometer() as speed:
                while len(passes) < 2 or time.perf_counter() - t0 < args.seconds:
                    speed.start()
                    passes.append(jobs_mod.run_pass(jobs, context, digests))
                    pass_s, share = speed.scale(passes[-1].wall_s)
                    scaled.append(pass_s)
                    sys.stderr.write("pass %d: %.3f s at %.3f of nominal speed, %.3f s scaled\n"
                                     % (len(passes), passes[-1].wall_s, share, pass_s))
                    setup += measure_setup(src, args.seed, workdir)
            metrics = end_to_end(scaled)
            metrics["setup_s"] = metric(statistics.median(setup), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def end_to_end(scaled):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "scaled_wall_s": metric(statistics.median(scaled), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def traced(jobs, context, digests):
    plain = jobs_mod.run_pass(jobs, context, digests)
    tracer = Tracer()
    tracer.install()
    try:
        spanned = jobs_mod.run_pass(jobs, context, digests, tracer=tracer)
    finally:
        tracer.uninstall()
    return [plain, spanned], tracer.metrics(spanned, plain)


if __name__ == "__main__":
    sys.exit(main())
