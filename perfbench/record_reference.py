"""Record the reference outputs every benchmark pass is checked against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the root of a checkout. Writes ``perfbench/reference/`` from the
code in ``src/`` at workloads.REFERENCE_SEED. The committed references come
from the seed code; re-record only when a change is meant to alter the
numbers, and say so where the change is described.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads                   # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        text = workload.record(workloads.REFERENCE_SEED, out_dir)
        path = os.path.join(workloads.REFERENCE_DIR, workload.reference_file)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{name}: wrote {os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
