"""Record the report digests of the default seed into digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Every verdict must match its known
answer first; a change that alters report bytes on purpose re-records
the digests and says so.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import qgroupoid  # noqa: E402
import qgroupoid.cli  # noqa: E402,F401

import jobs as jobs_mod  # noqa: E402
from inputs import make_inputs, write_groupoids  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main():
    inputs = make_inputs(DEFAULT_SEED)
    digests = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        files = write_groupoids(qgroupoid, inputs, workdir)
        for workload in jobs_mod.WORKLOADS:
            result = jobs_mod.run_pass(
                jobs_mod.build_jobs(workload, inputs),
                lambda: jobs_mod.Context(qgroupoid, inputs, files, workdir),
            )
            if result.failed:
                sys.stderr.write("not recorded: wrong verdicts in %s\n" % result.failed)
                return 1
            digests[workload] = result.digests
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
