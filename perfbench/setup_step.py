"""One set-up as a CLI user pays it: start the interpreter, import
qgroupoid, generate the seeded inputs and write the groupoid JSON files.

    python3 perfbench/setup_step.py <src-dir> <seed> <out-dir>
"""

import os
import sys

sys.path.insert(0, sys.argv[1])

import qgroupoid  # noqa: E402

from inputs import make_inputs, write_groupoids  # noqa: E402

os.makedirs(sys.argv[3], exist_ok=True)
write_groupoids(qgroupoid, make_inputs(int(sys.argv[2])), sys.argv[3])
