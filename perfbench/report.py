"""Print every benchmark metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a checkout. For each workload this makes one untraced
run (end-to-end metrics) and one traced run (per-layer metrics) of run.py
and prints them with the machine fingerprint, failed_ratio and whether the
count metrics repeated. Takes about five minutes at the default length.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads                   # noqa: E402


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = json.loads(lines[-3].split(" ", 1)[1])
    info = json.loads(lines[-2].split(" ", 1)[1])
    return fingerprint, info, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    shown_fingerprint = False
    all_ok = True
    for name in args.workload or list(workloads.WORKLOADS):
        for trace in (0, 1):
            fingerprint, info, line = _run(name, args.seed, args.seconds, trace)
            if not shown_fingerprint:
                print("fingerprint", json.dumps(fingerprint))
                shown_fingerprint = True
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"\n== {name}  seed={args.seed}  {kind}  passes={info['passes']}  "
                  f"correct={line['correct']}  failed_ratio={info['failed_ratio']}")
            for point, seconds in info["point_s"].items():
                print(f"  {'point_s.' + point:34s} {seconds:14.6g} s")
            for metric, value in line["metrics"].items():
                print(f"  {metric:34s} {value['value']:14.6g} {value['unit']}")
            if trace:
                print(f"  counts repeat: within run {info['counts_repeat_in_run']}, "
                      f"across runs {info['counts_repeat_across_runs']} "
                      "(None: first traced run of this code here)")
                all_ok = all_ok and info["counts_repeat_in_run"] \
                    and info["counts_repeat_across_runs"] is not False
            all_ok = all_ok and line["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
