"""The benchmark's workloads: what one pass runs and how its output is checked.

Every workload is a closed loop with one client: one process evaluates grid
points one after another through the package's public functions, the way a
user runs a sweep. relaysim is imported lazily inside the functions here so
that the caller can time the import as part of set-up.

Correctness. Each pass's output is compared point by point with reference
outputs recorded from the seed code at REFERENCE_SEED (``reference/``):

- closed-form values (``sum_rate_approx``, the CSV ``rate_closed`` and
  ``mse_closed`` columns) do not depend on the seed and must match to
  CLOSED_RTOL relative at every seed;
- Monte Carlo values must match to MC_RTOL relative (rounding level) at
  REFERENCE_SEED. At any other seed they must lie within MC_Z standard
  errors (both runs' errors combined) of the reference, and their reported
  spread within a factor of two of the reference spread;
- ``rel_gap`` must equal |rate_mc - rate_closed| / rate_closed of its row;
- the CSV trailer must name the seed and trial count that were asked for;
- on rate-sweep-parallel the CSV must be byte-identical to the serial CSV
  of the same arguments (README determinism contract).

A point fails if its call raised, it is missing, or a value is outside its
tolerance.
"""

import csv
import io
import json
import math
import os
import time
import traceback

REFERENCE_SEED = 42
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
CLOSED_RTOL = 1e-10
MC_RTOL = 1e-9
MC_Z = 6.0
CI_Z = 1.96     # rate_mc_ci is a 95% halfwidth


def _rel_close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


class Output:
    """What one pass produced: rows keyed by grid point (a point whose call
    raised has none), the raw CSV text (CLI workloads) and per-point seconds
    (closed-form workload)."""

    def __init__(self, rows, text=None, point_s=None):
        self.rows = rows
        self.text = text
        self.point_s = point_s or {}


# ---------------------------------------------------------------------------
# closed form at large N

class ClosedFormLargeN:
    name = "closed-form-large-n"
    why = ("O(N^3) correlation/estimation/analysis work of sum_rate_approx at "
           "N=256..1024, models built from scratch; link and channel idle")
    reference_file = "closed_form.json"
    n_values = (256, 512, 1024)

    def warm_up(self, out_dir):
        from relaysim import analysis, config
        analysis.sum_rate_approx(config.table_defaults().with_updates(N=64))

    def prepare_check(self, seed, out_dir):
        return None

    def run_pass(self, seed, out_dir):
        from relaysim import analysis, config
        rows, point_s = {}, {}
        for n in self.n_values:
            start = time.perf_counter()
            try:
                report = analysis.sum_rate_approx(
                    config.table_defaults().with_updates(N=n, seed=seed))
            except Exception:       # a failing point stays local to its point
                traceback.print_exc()
                continue
            finally:
                point_s[f"N{n}"] = time.perf_counter() - start
            rows[n] = {"sum_rate": float(report.sum_rate),
                       "per_user_rate": [float(v) for v in report.per_user_rate]}
        return Output(rows, point_s=point_s)

    def record(self, seed, out_dir):
        out = self.run_pass(seed, out_dir)
        return json.dumps({"seed": seed, "n_values": list(self.n_values),
                           "points": {str(n): v for n, v in out.rows.items()}},
                          indent=1) + "\n"

    def load_reference(self, text):
        points = json.loads(text)["points"]
        return {int(n): v for n, v in points.items()}

    def check(self, output, seed, reference, context=None):
        """(attempted, failed keys) for one pass."""
        failed = []
        for n, ref in reference.items():
            got = output.rows.get(n)
            if got is None:
                failed.append(n)
                continue
            values = [got["sum_rate"]] + got["per_user_rate"]
            expect = [ref["sum_rate"]] + ref["per_user_rate"]
            if len(values) != len(expect) or not all(
                    _rel_close(v, e, CLOSED_RTOL) for v, e in zip(values, expect)):
                failed.append(n)
        extra = [n for n in output.rows if n not in reference]
        return len(reference) + len(extra), failed + extra


# ---------------------------------------------------------------------------
# CLI sweeps writing CSV files

def parse_csv(text):
    """(header, data rows, trailer dict) of a relaysim CSV."""
    lines = text.splitlines()
    data = [line for line in lines[1:] if not line.startswith("#")]
    trailer = {}
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            trailer[key] = value
    header = next(csv.reader([lines[0]])) if lines else []
    return header, list(csv.reader(io.StringIO("\n".join(data)))), trailer


class _CsvSweep:
    """A CLI subcommand run once per pass on its grid, CSV written to a file.

    Subclasses give the argv, the key columns that name a grid point, and
    for each value column its kind: "closed" (seed-free closed form), "mc"
    (Monte Carlo mean, with the column holding its error and that column's
    scale to one standard error), "spread" (the error column itself) or
    "derived" (checked by ``derived``).
    """

    keys = ()
    columns = {}

    def argv(self, seed, out_path):
        raise NotImplementedError

    def warm_up_argv(self, out_path):
        raise NotImplementedError

    def _csv_path(self, out_dir, tag):
        return os.path.join(out_dir, f"{self.name}-{tag}.csv")

    def warm_up(self, out_dir):
        from relaysim import cli
        path = self._csv_path(out_dir, f"warmup-{os.getpid()}")
        try:
            if cli.main(self.warm_up_argv(path)) != 0:
                raise RuntimeError(f"{self.name} warm-up call failed")
        finally:
            if os.path.exists(path):
                os.remove(path)

    def _run(self, argv_seed, out_dir, tag):
        from relaysim import cli
        path = self._csv_path(out_dir, tag)
        if os.path.exists(path):
            os.remove(path)
        try:
            code = cli.main(self.argv(argv_seed, path))
        except Exception:           # counted by check() as every point missing
            traceback.print_exc()
            code = None
        if code != 0 or not os.path.exists(path):
            return Output({}, text="")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return Output(self.rows_of(text), text=text)

    def run_pass(self, seed, out_dir):
        return self._run(seed, out_dir, f"seed{seed}")

    def prepare_check(self, seed, out_dir):
        return None

    def record(self, seed, out_dir):
        return self.run_pass(seed, out_dir).text

    def records(self, text):
        """{grid point key: {column: field text}} of a CSV."""
        header, data, _ = parse_csv(text)
        return {tuple(record[header.index(k)] for k in self.keys): dict(zip(header, record))
                for record in data}

    def rows_of(self, text):
        return {key: {c: float(record[c]) for c in self.columns}
                for key, record in self.records(text).items()}

    def load_reference(self, text):
        return {"rows": self.rows_of(text), "trailer": parse_csv(text)[2]}

    def _row_ok(self, got, ref, seed):
        for column, kind in self.columns.items():
            value, expect = got[column], ref[column]
            if kind == "closed":
                ok = _rel_close(value, expect, CLOSED_RTOL)
            elif kind == "derived":
                ok = self.derived(column, got)
            elif seed == REFERENCE_SEED:
                ok = _rel_close(value, expect, MC_RTOL)
            elif kind == "mc":
                err_column, scale = self.errors[column]
                bound = MC_Z * math.hypot(got[err_column], ref[err_column]) / scale
                ok = abs(value - expect) <= bound
            else:
                ok = 0.5 * expect <= value <= 2.0 * expect
            if not ok:
                return False
        return True

    def derived(self, column, row):
        return True

    def check(self, output, seed, reference, context=None):
        """(attempted, failed keys) for one pass."""
        ref_rows = reference["rows"]
        trailer = parse_csv(output.text)[2] if output.text else {}
        trailer_ok = (trailer.get("seed") == str(seed)
                      and trailer.get("trials") == reference["trailer"].get("trials"))
        failed = []
        for key, ref in ref_rows.items():
            got = output.rows.get(key)
            if got is None or not trailer_ok or not self._row_ok(got, ref, seed):
                failed.append(key)
        extra = [k for k in output.rows if k not in ref_rows]
        return len(ref_rows) + len(extra), failed + extra


class RateSweep(_CsvSweep):
    """``relaysim rate-vs-n`` with the given worker count; ``args`` narrows
    the default grid (N 64/128/256 x bits 1/2/ideal, both engines, 500
    trials)."""

    keys = ("N", "q1", "q2")
    columns = {"rate_mc": "mc", "rate_mc_ci": "spread",
               "rate_closed": "closed", "rel_gap": "derived"}
    errors = {"rate_mc": ("rate_mc_ci", CI_Z)}

    def __init__(self, name, why, workers, args, reference_file):
        self.name = name
        self.why = why
        self.workers = workers
        self.args = list(args)
        self.reference_file = reference_file

    def argv(self, seed, out_path):
        return ["rate-vs-n", "--workers", str(self.workers), "--seed", str(seed),
                "--out", out_path, *self.args]

    def warm_up_argv(self, out_path):
        return ["rate-vs-n", "--workers", str(self.workers), "--n-values", "64",
                "--bits", "2", "--trials", "16", "--out", out_path]

    def derived(self, column, row):
        closed = row["rate_closed"]
        return _rel_close(row[column], abs(row["rate_mc"] - closed) / closed, 1e-12)

    def prepare_check(self, seed, out_dir):
        """Serial CSV of the same arguments, which a parallel pass must
        reproduce byte for byte (untimed)."""
        if self.workers == 1:
            return None
        serial = RateSweep(self.name, self.why, 1, self.args, self.reference_file)
        return serial._run(seed, out_dir, f"serial-seed{seed}").text

    def check(self, output, seed, reference, context=None):
        attempted, failed = super().check(output, seed, reference)
        if context is not None and output.text != context:
            serial = self.records(context)
            mismatched = set(failed)
            mismatched.update(key for key, record in self.records(output.text).items()
                              if serial.get(key) != record)
            if _trailer_lines(output.text) != _trailer_lines(context):
                mismatched.update(reference["rows"])
            failed = sorted(mismatched, key=repr)
        return attempted, failed


def _trailer_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


class MseSweep(_CsvSweep):
    """``relaysim mse-sweep`` on its default grid (both hops x bits 1/2/3/ideal
    x pilot power 0..40 dB, 500 pilot trials per point)."""

    name = "pilot-mse-sweep"
    why = ("physical quantized pilot chain (simulate_pilot, draw, aqnm_quantize) "
           "20000 times at N=128/M=256; the only workload that exercises quantizer")
    reference_file = "mse_sweep.csv"
    keys = ("hop", "axis_value", "q")
    columns = {"mse_sim": "mc", "mse_sim_stderr": "spread", "mse_closed": "closed"}
    errors = {"mse_sim": ("mse_sim_stderr", 1.0)}

    def argv(self, seed, out_path):
        return ["mse-sweep", "--seed", str(seed), "--out", out_path]

    def warm_up_argv(self, out_path):
        return ["mse-sweep", "--powers-db", "10", "--bits", "2", "--trials", "16",
                "--out", out_path]


WORKLOADS = {w.name: w for w in (
    ClosedFormLargeN(),
    RateSweep("rate-sweep-serial",
              "default rate-vs-n grid, one worker, 500 trials: Monte Carlo "
              "(run_trial, complex_normal) dominates, closed form a minor share",
              workers=1, args=(), reference_file="rate_vs_n.csv"),
    # one point per pass: at N=64 and 128 the pool path's time varies up to
    # 3x between repeats (the workers' BLAS threads spin against each other
    # on two cores); at N=256 by about 13 %, and a median over many
    # one-point passes is steadier than one over a few longer passes
    RateSweep("rate-sweep-parallel",
              "rate-vs-n at N=256, 2 bits, 100 trials, --workers 2: pool per point, "
              "prep pickled per block, unpinned BLAS threads in workers",
              workers=2, args=("--n-values", "256", "--bits", "2", "--trials", "100"),
              reference_file="rate_vs_n_parallel.csv"),
    MseSweep(),
)}


def reference_for(workload):
    with open(os.path.join(REFERENCE_DIR, workload.reference_file), encoding="utf-8") as fh:
        return workload.load_reference(fh.read())
