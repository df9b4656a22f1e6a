"""Tests of the benchmark itself (not of relaysim).

    python3 -m pytest -q perfbench

They use tiny grids so they finish in seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probes                      # noqa: E402
import run                         # noqa: E402
import tracer as tracing           # noqa: E402
import workloads                   # noqa: E402


@pytest.fixture
def out_dir():
    path = os.path.join(ROOT, ".perfbench-out", "tests")
    os.makedirs(path, exist_ok=True)
    return path


def _tiny(workers=1):
    return workloads.RateSweep("tiny", "tiny grid", workers,
                               ("--n-values", "64", "--bits", "1,2", "--trials", "20"),
                               reference_file=None)


def test_seed_changes_monte_carlo_but_not_closed_form(out_dir):
    sweep = _tiny()
    a = sweep.run_pass(1, out_dir).rows
    b = sweep.run_pass(2, out_dir).rows
    assert a.keys() == b.keys() and len(a) == 2
    for key in a:
        assert a[key]["rate_closed"] == b[key]["rate_closed"]
        assert a[key]["rate_mc"] != b[key]["rate_mc"]
    closed = workloads.ClosedFormLargeN()
    closed.n_values = (64,)
    assert closed.run_pass(1, out_dir).rows == closed.run_pass(2, out_dir).rows


def test_other_seed_passes_statistical_check(out_dir):
    sweep = _tiny()
    reference = sweep.load_reference(sweep.run_pass(workloads.REFERENCE_SEED, out_dir).text)
    assert sweep.check(sweep.run_pass(3, out_dir), 3, reference) == (2, [])


def _corrupt(text, column, factor):
    header, *rest = text.splitlines(keepends=True)
    index = header.strip().split(",").index(column)
    fields = rest[0].rstrip("\n").split(",")
    fields[index] = repr(float(fields[index]) * factor)
    return header + ",".join(fields) + "\n" + "".join(rest[1:])


@pytest.mark.parametrize("column,factor", [("rate_closed", 1 + 1e-8), ("rate_mc", 1 + 1e-6)])
def test_corrupted_reference_is_a_failed_point(out_dir, column, factor):
    sweep = _tiny()
    output = sweep.run_pass(workloads.REFERENCE_SEED, out_dir)
    reference = sweep.load_reference(output.text)
    assert sweep.check(output, workloads.REFERENCE_SEED, reference) == (2, [])
    bad = sweep.load_reference(_corrupt(output.text, column, factor))
    attempted, failed = sweep.check(output, workloads.REFERENCE_SEED, bad)
    assert attempted == 2 and len(failed) == 1


def test_corrupted_closed_form_reference_is_a_failed_point(out_dir):
    closed = workloads.ClosedFormLargeN()
    closed.n_values = (256,)
    output = closed.run_pass(5, out_dir)
    stored = workloads.reference_for(closed)
    reference = {256: stored[256]}
    assert closed.check(output, 5, reference) == (1, [])
    bad = {256: dict(stored[256], sum_rate=stored[256]["sum_rate"] * (1 + 1e-9))}
    assert closed.check(output, 5, bad) == (1, [256])


def test_parallel_csv_must_match_serial_bytes(out_dir):
    sweep = _tiny(workers=2)
    serial = sweep.prepare_check(4, out_dir)
    output = sweep.run_pass(4, out_dir)
    assert output.text == serial
    reference = sweep.load_reference(output.text)
    assert sweep.check(output, 4, reference, serial) == (2, [])
    altered = _corrupt(serial, "rate_mc", 1 + 1e-15)
    attempted, failed = sweep.check(output, 4, reference, altered)
    assert attempted == 2 and len(failed) == 1


def test_missing_or_failed_output_counts_every_point(out_dir):
    sweep = _tiny()
    reference = sweep.load_reference(sweep.run_pass(workloads.REFERENCE_SEED, out_dir).text)
    empty = workloads.Output({}, text="")
    assert sweep.check(empty, 9, reference) == (2, [("64", "1", "1"), ("64", "2", "2")])


def test_spans_nest_and_self_times_are_never_negative():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    def boom():
        raise ValueError("x")

    leaf = tracer.wrap(leaf, "a.leaf")
    boom = tracer.wrap(boom, "b.boom")

    def middle():
        leaf(1)
        try:
            boom()
        except ValueError:
            pass
        return leaf(2)

    middle = tracer.wrap(middle, "a.middle")
    with tracer.span("bench.pass"):
        middle()
        middle()
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    root = tracer.spans[0]
    assert sum(own) == root[2] - root[1]
    for name, start, end, parent, _ in tracer.spans[1:]:
        outer = tracer.spans[parent]
        assert outer[1] <= start <= end <= outer[2]
    metrics = probes.pass_metrics(tracer.spans, 0)
    assert metrics["other.self_s"] >= 0


def _traced_tiny_pass(out_dir):
    tracer = tracing.Tracer()
    counters = {"pickle_bytes": 0}
    sweep = _tiny()
    import relaysim.cli            # noqa: F401  (install wraps loaded modules)
    probes.install(tracer, counters)
    try:
        with tracer.span("bench.pass"):
            sweep.run_pass(11, out_dir)
    finally:
        tracer.unpatch()
    return tracer.spans, counters


def test_traced_pass_accounts_for_all_time_and_counts_repeat(out_dir):
    import numpy.linalg
    original = numpy.linalg.eigh
    spans, counters = _traced_tiny_pass(out_dir)
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    root = spans[0]
    assert sum(own) == root[2] - root[1]
    first = probes.pass_metrics(spans, counters["pickle_bytes"])
    layer_total = sum(first[f"{layer}.self_s"] for layer in probes.LAYERS)
    assert layer_total + first["other.self_s"] == pytest.approx(first["trace.wall_s"], rel=1e-9)
    assert first["linalg.eigh_calls"] > 0 and first["link.run_trial_calls"] == 40
    spans2, counters2 = _traced_tiny_pass(out_dir)
    second = probes.pass_metrics(spans2, counters2["pickle_bytes"])
    assert {k: first[k] for k in probes.COUNT_METRICS} == {k: second[k] for k in probes.COUNT_METRICS}
    assert numpy.linalg.eigh is original


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_sources(out_dir):
    bare = os.path.join(out_dir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "rate-sweep-serial", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
