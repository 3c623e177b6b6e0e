"""The benchmark ladder's smoke run: ``bench/ladder.py`` on p2 writes one
record per family and stage, and one for the radical rung on convolution,
each from its own child process, with the fields a before/after pair is
checked by."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ["verify", "integrals", "measure", "dual", "modify"]


def test_ladder_on_p2_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_p2.json"
    subprocess.run([sys.executable, os.path.join(ROOT, "bench", "ladder.py"),
                    "--sizes", "2", "--out", str(out)], check=True, timeout=120)
    record = json.loads(out.read_text())
    assert set(record) == {"schema", "commit", "python", "cpu_count",
                           "PYTHONDONTWRITEBYTECODE", "stages"}
    assert record["schema"] == 1
    assert record["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert record["cpu_count"] == os.cpu_count()
    assert record["PYTHONDONTWRITEBYTECODE"] == os.environ.get("PYTHONDONTWRITEBYTECODE")
    stages = record["stages"]
    assert [(s["family"], s["stage"]) for s in stages] == [
        (family, stage) for family in ("functions", "convolution") for stage in STAGES
    ] + [("convolution", "modify-radical")]
    for s in stages:
        assert set(s) == {"family", "size", "stage", "argv", "exit", "seconds",
                          "peak_rss_mb", "out_sha256"}
        assert s["size"] == 2 and s["argv"][0] == s["stage"].removesuffix("-radical")
        assert s["seconds"] > 0 and s["peak_rss_mb"] > 0
        assert len(s["out_sha256"]) == 64 and int(s["out_sha256"], 16) >= 0
    # groupoid_rn modifies the convolution algebroid only; every other stage passes
    assert [s["exit"] for s in stages] == [0, 0, 0, 0, 1] + [0] * 6
    # the radical rung's weights are the first primes, each root supplied
    assert stages[-1]["argv"] == ["modify", "--example", "convolution", "--pair-groupoid", "1,2",
                                  "--mu", "2,3", "--recipe", "groupoid_rn",
                                  "--sqrt", "2", "--sqrt", "3"]
