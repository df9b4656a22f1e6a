"""One measured process: import relaysim from the checkout, warm up, run passes.

    python3 perfbench/client.py --root . --workload NAME --seed N \
        --seconds S --trace 0|1 --out-dir DIR [--setup-only]

Prints one JSON object as its last stdout line. ``run.py`` starts this
process (several times for set-up samples) and turns its output into the
benchmark's result line; run that instead.

Set-up is the time from before ``import relaysim`` to the end of one small
warm-up call of the workload. Passes then repeat the whole workload: another
pass starts only if the time used so far plus the last pass's length stays
within the budget, and there is always at least one. With ``--trace 1`` half
the budget goes to untraced passes and half to traced ones, so the tracing
overhead is measured in the same process.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

_START = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes                      # noqa: E402  (benchmark modules only;
import tracer as tracing           # noqa: E402   neither imports numpy)
import workloads                   # noqa: E402


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import relaysim
    import relaysim.cli            # imports every layer module
    if not os.path.abspath(relaysim.__file__).startswith(src + os.sep):
        raise SystemExit(f"relaysim was imported from {relaysim.__file__}, not {src}")


def fingerprint():
    """Machine and library versions; results from different fingerprints
    are not comparable."""
    import ctypes
    import glob
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def code_digest(root):
    """Hash of the package and benchmark sources, so counts are compared
    only between runs of the same code and the same workloads."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _passes(run_pass, budget, on_pass=None):
    """Run whole passes within the budget (at least one); (walls, outputs)."""
    walls, outputs = [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        outputs.append(run_pass())
        walls.append(time.perf_counter() - start)
        if on_pass is not None:
            on_pass()
        if time.perf_counter() - begin + walls[-1] > budget:
            return walls, outputs


def _peak_rss_mb():
    """Own peak resident set plus the largest waited-for child's (pool
    workers), in MiB (ru_maxrss is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _traced_passes(workload, seed, out_dir, budget):
    tracer = tracing.Tracer()
    counters = {"pickle_bytes": 0}
    per_pass = []

    def run_pass():
        tracer.clear()
        counters["pickle_bytes"] = 0
        with tracer.span("bench.pass"):
            return workload.run_pass(seed, out_dir)

    def collect():
        per_pass.append(probes.pass_metrics(tracer.spans, counters["pickle_bytes"]))
        last_spans[:] = tracer.spans

    last_spans = []
    probes.install(tracer, counters)
    try:
        walls, outputs = _passes(run_pass, budget, collect)
    finally:
        tracer.unpatch()
    return walls, outputs, per_pass, last_spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    root = os.path.abspath(args.root)
    os.makedirs(args.out_dir, exist_ok=True)

    _import_package(root)
    workload.warm_up(args.out_dir)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "fingerprint": fingerprint(),
              "code_digest": code_digest(root)}
    reference = workloads.reference_for(workload)
    context = workload.prepare_check(args.seed, args.out_dir)
    run_pass = lambda: workload.run_pass(args.seed, args.out_dir)   # noqa: E731

    if args.trace:
        walls, outputs = _passes(run_pass, args.seconds / 2)
        traced_walls, traced_outputs, per_pass, spans = _traced_passes(
            workload, args.seed, args.out_dir, args.seconds / 2)
        layers, counts, repeat = probes.combine(per_pass, walls)
        result.update(layers=layers, counts=counts, counts_repeat_in_run=repeat,
                      traced_pass_s=traced_walls)
        spans_path = os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}-spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = spans_path
    else:
        walls, outputs = _passes(run_pass, args.seconds)
        traced_outputs = []
        result["peak_rss_mb"] = _peak_rss_mb()

    attempted = failed = 0
    failed_points = []
    for output in outputs + traced_outputs:
        n, bad = workload.check(output, args.seed, reference, context)
        attempted += n
        failed += len(bad)
        failed_points += [repr(k) for k in bad]
    point_s = {key: statistics.median(o.point_s[key] for o in outputs)
               for key in outputs[0].point_s}
    result.update(pass_s=walls, attempted=attempted, failed=failed,
                  failed_points=sorted(set(failed_points)), point_s=point_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
