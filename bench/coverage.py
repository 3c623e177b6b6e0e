"""The reach ledger: which functions of ``src/qgroupoid`` the tier-1 tests
and the golden corpus call, measured per function.

    python3 bench/coverage.py [--out LEDGER.json] [--src DIR]

Run from the root of a checkout, or name one with ``--src``.  The script
runs pytest twice, each time in a child interpreter with a
``sys.setprofile`` hook that records the code object of every Python call:
once on ``tests/golden`` (the golden corpus) and once on ``tests`` (tier-1,
which holds the corpus).  It reads every function of ``src/qgroupoid`` with
``ast``, nested ones too, and gives each one label:

- ``golden``: the golden corpus calls it;
- ``tier-1``: tier-1 calls it, the golden corpus does not;
- ``neither``: no test calls it.

The ledger is written as JSON to ``--out`` (or stdout), and a summary of
functions and lines per label, with every ``neither`` function, to
stderr.  The exit code is 1 when a function is reached by neither, or a
pytest run did not pass.  Child processes the tests start (the CLI
subprocesses of ``test_cli.py`` and ``test_ladder.py``) are not profiled.
Both runs together take 204 s on 2 cores with Python 3.11.7, where tier-1
alone takes 75 s without the hook.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LABELS = ("golden", "tier-1", "neither")

# the child: pytest under a profile hook, then the (file, first line) of
# every called code object under the package directory
CHILD = """
import json, sys, threading
codes = set()

def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

package, out = sys.argv[1], sys.argv[2]
sys.setprofile(hook)
threading.setprofile(hook)
import pytest
status = pytest.main(sys.argv[3:])
sys.setprofile(None)
called = sorted({(c.co_filename, c.co_firstlineno) for c in codes
                 if c.co_filename.startswith(package)})
with open(out, "w") as fh:
    json.dump({"status": int(status), "called": called}, fh)
"""


def functions(package):
    """(module, qualified name, first line, last line) of every function
    defined in the package's modules.  The first line is the first
    decorator's, as in the function's code object."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((name[:-3], prefix + child.name, first, child.end_lineno))
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def called(src, tests):
    """The pytest status and the set of (module, first line) of the package
    functions called by a profiled pytest run on ``tests``."""
    package = os.path.join(src, "src", "qgroupoid") + os.sep
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "called.json")
        subprocess.run([sys.executable, "-c", CHILD, package, out, "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", tests],
                       cwd=src, env=env, stdout=subprocess.DEVNULL, check=False)
        with open(out) as fh:
            record = json.load(fh)
    return record["status"], {(os.path.basename(path)[:-3], line)
                              for path, line in record["called"]}


def ledger(src):
    golden_status, golden = called(src, "tests/golden")
    tier1_status, tier1 = called(src, "tests")
    entries = []
    for module, name, first, last in functions(os.path.join(src, "src", "qgroupoid")):
        key = (module, first)
        label = "golden" if key in golden else "tier-1" if key in tier1 else "neither"
        entries.append({"function": "%s.%s" % (module, name), "line": first,
                        "lines": last - first + 1, "label": label})
    return {"pytest_status": {"golden": golden_status, "tier-1": tier1_status},
            "functions": entries}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="the ledger JSON file to write (default stdout)")
    p.add_argument("--src", default=os.path.dirname(HERE), help="the checkout to measure")
    args = p.parse_args(argv)
    record = ledger(os.path.abspath(args.src))
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    entries = record["functions"]
    for label in LABELS:
        chosen = [e for e in entries if e["label"] == label]
        sys.stderr.write("%-8s %4d functions, %5d lines\n"
                         % (label, len(chosen), sum(e["lines"] for e in chosen)))
    unreached = [e for e in entries if e["label"] == "neither"]
    for e in unreached:
        sys.stderr.write("neither: %s (line %d)\n" % (e["function"], e["line"]))
    passed = all(status == 0 for status in record["pytest_status"].values())
    return 0 if passed and not unreached else 1


if __name__ == "__main__":
    sys.exit(main())
