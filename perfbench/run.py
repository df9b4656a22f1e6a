"""relaysim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. relaysim is imported from ``src/`` of that
checkout, never from an installed copy; without ``src/relaysim`` the
benchmark exits with code 2 and prints no result.

Each run starts SETUP_SAMPLES short processes that only import relaysim and
make one warm-up call, then one measuring process (``client.py``) that does
the same and goes on to repeat the workload for ``--seconds``. ``setup_s``
is the median of all those set-up times. BLAS threads are neither pinned
nor changed; the fingerprint records what they were.

Standard output, in order:

- ``fingerprint {...}``: nproc, Python, numpy, scipy, BLAS and its threads;
- ``info {...}``: passes and their seconds, per-point seconds, failed_ratio
  with its base, and with --trace 1 whether the count metrics repeated;
- one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
  --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

``attempted`` counts grid points checked over all passes, ``failed`` those
that raised, were missing, or were outside their reference tolerance (see
workloads.py). Details go to ``.perfbench-out/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probes                      # noqa: E402
import workloads                   # noqa: E402

SETUP_SAMPLES = 3          # set-up-only processes; the measuring one adds another
CLIENT_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",          # median seconds per pass over the workload
    "setup_s": "s",         # import relaysim + one warm-up call, median
    "peak_rss_mb": "MB",    # peak RSS of the measuring process + largest child
}


def _client(root, out_dir, args, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=CLIENT_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark client failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _check_counts(out_dir, workload, result):
    """Compare this run's count metrics with the last traced run of the same
    code in this checkout; returns True, False, or None (first run)."""
    path = os.path.join(out_dir, f"counts-{workload}.json")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    if previous is not None and previous.get("code_digest") == result["code_digest"]:
        return previous["counts"] == result["counts"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code_digest": result["code_digest"], "counts": result["counts"]}, fh)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relaysim", "__init__.py")):
        print(f"no relaysim sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    setup = [_client(root, out_dir, args, ["--setup-only"])["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    result = _client(root, out_dir, args)
    setup.append(result["setup_s"])

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(result["pass_s"]), "pass_s": result["pass_s"],
            "setup_samples_s": setup, "point_s": result["point_s"],
            "failed_ratio": (f"{result['failed']}/{result['attempted']} grid points "
                             "(raised, missing or outside reference tolerance)"),
            "failed_points": result["failed_points"][:20]}
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in probes.PER_LAYER.items()}
        info["traced_pass_s"] = result["traced_pass_s"]
        info["counts_repeat_in_run"] = result["counts_repeat_in_run"]
        info["counts_repeat_across_runs"] = _check_counts(out_dir, args.workload, result)
        info["spans_file"] = os.path.relpath(result["spans_file"], root)
    else:
        values = {"wall_s": statistics.median(result["pass_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": result["fingerprint"], "info": info, "result": line}, fh,
                  indent=1)
    print("fingerprint " + json.dumps(result["fingerprint"]))
    print("info " + json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
