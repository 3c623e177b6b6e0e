"""The benchmark ladder: every CLI stage on the pair groupoids p2..p16 of
both families, one child process per stage, recorded as one JSON file.

    python3 bench/ladder.py --out BENCH_<commit>.json [--sizes 2,3,4,6,8,12,16] [--src DIR]

Run from the root of a checkout, or name one with ``--src``: the program
is imported from ``DIR/src``.  For each family (``functions``,
``convolution``) and each size k the stages are ``verify``,
``integrals``, ``measure``, ``dual`` and ``modify --recipe groupoid_rn``
on the pair groupoid on points 1..k with the weights 1, 4, 9, ..., k^2.
``measure`` and ``dual`` take the ``groupoid_rn`` recipe on convolution,
whose weights are not counital otherwise.  On functions ``modify`` is
rejected with ``left-modifier`` (exit 1): the recipe modifies the
convolution algebroid.  The square weights make no radical, so
convolution also runs ``modify-radical``: ``modify --recipe groupoid_rn``
with the first k primes as weights and one ``--sqrt`` per weight, where
every twist sqrt(mu(t)mu(s))/mu(s) is a radical ``Scalar``.

Each stage runs in a fresh interpreter that times ``qgroupoid.cli.main``
alone and reads its own peak resident memory, so no stage inherits
another's heap.  The record names the commit, the Python version, the
CPU count and ``PYTHONDONTWRITEBYTECODE``, and keeps the sha256 of each
stage's ``--out`` report: two files are a before/after pair only when
those hashes agree, and both sides should be recorded with the same
bytecode setting.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SIZES = (2, 3, 4, 6, 8, 12, 16)
FAMILIES = ("functions", "convolution")
STAGES = ("verify", "integrals", "measure", "dual", "modify")
RADICAL = "modify-radical"
# (family, stage) in the order each size runs them
RUNGS = [(family, stage) for family in FAMILIES for stage in STAGES] + [("convolution", RADICAL)]
SCHEMA = 1

# the child: time cli.main alone, then print its seconds and peak RSS
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from qgroupoid import cli
t0 = time.perf_counter()
code = cli.main(sys.argv[2:])
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "seconds": seconds, "peak_rss_mb": peak}))
"""


def first_primes(k):
    """The first k primes, 2 first."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def stage_argv(family, size, stage):
    """The CLI arguments of one stage, without ``--out``."""
    points = ",".join(str(p) for p in range(1, size + 1))
    if stage == RADICAL:
        primes = [str(p) for p in first_primes(size)]
        argv = ["modify", "--example", family, "--pair-groupoid", points,
                "--mu", ",".join(primes), "--recipe", "groupoid_rn"]
        for p in primes:
            argv += ["--sqrt", p]
        return argv
    mu = ",".join(str(p * p) for p in range(1, size + 1))
    argv = [stage, "--example", family, "--pair-groupoid", points]
    if stage in ("measure", "dual", "modify"):
        argv += ["--mu", mu]
    if stage == "modify" or (stage in ("measure", "dual") and family == "convolution"):
        argv += ["--recipe", "groupoid_rn"]
    return argv


def run_stage(src, argv, workdir):
    """One stage in a child process: its argv, exit code, seconds, peak
    RSS and the sha256 of its report."""
    out = os.path.join(workdir, "report.jsonl")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(src, "src"), *argv, "--out", out],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("stage %s failed to run:\n%s" % (" ".join(argv), proc.stderr))
    record = json.loads(proc.stdout.splitlines()[-1])
    with open(out, "rb") as fh:
        record["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    os.remove(out)
    return dict(argv=argv, **record)


def commit_of(src):
    """``git describe --always --dirty`` of the checkout, or None outside git."""
    try:
        proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=12"],
                              capture_output=True, text=True, check=False)
    except OSError:  # no git
        return None
    return proc.stdout.strip() or None


def ladder(src, sizes):
    with tempfile.TemporaryDirectory() as workdir:
        stages = [
            dict(family=family, size=size, stage=stage,
                 **run_stage(src, stage_argv(family, size, stage), workdir))
            for size in sizes for family, stage in RUNGS
        ]
    return {
        "schema": SCHEMA,
        "commit": commit_of(src),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "stages": stages,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="the BENCH JSON file to write")
    p.add_argument("--sizes", default=",".join(map(str, SIZES)),
                   help="comma-separated numbers of points")
    p.add_argument("--src", default=os.path.dirname(HERE), help="the checkout to run")
    args = p.parse_args(argv)
    sizes = [int(k) for k in args.sizes.split(",")]
    record = ladder(os.path.abspath(args.src), sizes)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
