"""End-to-end command-line checks: CSV shape, determinism, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from relaysim import cli, quantizer


def _run(argv):
    return cli.main(argv)


def _read_csv(path):
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return data[0].split(","), [ln.split(",") for ln in data[1:]], meta


def test_mse_sweep_csv_shape(tmp_path):
    out = tmp_path / "mse.csv"
    code = _run(["mse-sweep", "--powers-db", "0,20", "--bits", "1,ideal",
                 "--hop", "first", "--trials", "25", "--out", str(out)])
    assert code == 0
    header, rows, meta = _read_csv(out)
    assert header == ["hop", "axis_value", "q", "mse_sim", "mse_sim_stderr",
                      "mse_closed"]
    assert len(rows) == 4
    assert {row[2] for row in rows} == {"1", "ideal"}
    assert all(row[0] == "first" for row in rows)
    assert [m.split("=", 1)[0] for m in meta] == ["# seed", "# trials",
                                                  "# version", "# config"]
    config = json.loads(meta[-1].split("=", 1)[1])
    assert config["N"] == 128


def test_single_trial_mse_sweep_writes_nan_stderr(tmp_path):
    out = tmp_path / "one.csv"
    assert _run(["mse-sweep", "--powers-db", "10", "--bits", "1,ideal",
                 "--trials", "1", "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    assert [row[header.index("mse_sim_stderr")] for row in rows] == ["nan"] * 4
    assert all(float(row[header.index("mse_sim")]) > 0.0 for row in rows)


def test_runs_are_byte_identical(tmp_path):
    argv = ["rate-vs-n", "--n-values", "48", "--bits", "2", "--trials", "16"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(argv + ["--out", str(a)]) == 0
    assert _run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_csv(tmp_path):
    argv = ["rate-vs-n", "--n-values", "48", "--bits", "2", "--trials", "16"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert _run(argv + ["--out", str(serial)]) == 0
    assert _run(argv + ["--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_grid_reshape_does_not_change_rows(tmp_path):
    # results are keyed by grid values, so a one-hop sweep must reproduce
    # the matching rows of a both-hop sweep exactly
    both, first = tmp_path / "both.csv", tmp_path / "first.csv"
    common = ["mse-sweep", "--powers-db", "0,10", "--bits", "1",
              "--trials", "12"]
    assert _run(common + ["--hop", "both", "--out", str(both)]) == 0
    assert _run(common + ["--hop", "first", "--out", str(first)]) == 0
    _, rows_both, _ = _read_csv(both)
    _, rows_first, _ = _read_csv(first)
    first_rows_of_both = [r for r in rows_both if r[0] == "first"]
    assert first_rows_of_both == rows_first


def test_engine_selection_flags(tmp_path):
    out = tmp_path / "closed.csv"
    assert _run(["rate-vs-n", "--n-values", "48", "--bits", "2",
                 "--closed-form-only", "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    assert rows[0][header.index("rate_mc")] == "nan"
    assert float(rows[0][header.index("rate_closed")]) > 0.0
    out2 = tmp_path / "mc.csv"
    assert _run(["rate-vs-n", "--n-values", "48", "--bits", "2",
                 "--trials", "10", "--mc-only", "--out", str(out2)]) == 0
    header2, rows2, _ = _read_csv(out2)
    assert rows2[0][header2.index("rate_closed")] == "nan"
    assert float(rows2[0][header2.index("rate_mc")]) > 0.0


def test_power_scaling_emits_regime_and_limit(tmp_path):
    out = tmp_path / "scaling.csv"
    assert _run(["power-scaling", "--n-values", "64,128", "--exponents",
                 "1:1,0.5:0.5", "--closed-form-only", "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    regimes = {row[header.index("regime")] for row in rows}
    assert regimes == {"jointly-limited", "unbounded"}
    limits = {row[header.index("regime")]: row[header.index("rate_limit")]
              for row in rows}
    assert limits["unbounded"] == "inf"
    assert float(limits["jointly-limited"]) > 0.0


def test_adc_impact_csv(tmp_path):
    out = tmp_path / "adc.csv"
    assert _run(["adc-impact", "--n-values", "64", "--deltas", "1",
                 "--bits-pairs", "3:1,1:3", "--closed-form-only",
                 "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    assert len(rows) == 2
    assert {(r[header.index("q1")], r[header.index("q2")]) for r in rows} \
        == {("3", "1"), ("1", "3")}


def test_config_file_layering(tmp_path):
    cfg_path = tmp_path / "scn.json"
    cfg_path.write_text(json.dumps({"E_U-dB": 10, "q1": "ideal", "K": 4,
                                    "betas": [1, 1, 1, 1]}))
    out = tmp_path / "out.csv"
    assert _run(["rate-vs-n", "--config", str(cfg_path), "--n-values", "48",
                 "--bits", "ideal", "--closed-form-only",
                 "--out", str(out)]) == 0
    _, _, meta = _read_csv(out)
    config = json.loads(meta[-1].split("=", 1)[1])
    assert config["E_U"] == pytest.approx(10.0)
    assert config["q1"] == "ideal"
    assert config["K"] == 4


def test_usage_errors_exit_one(tmp_path, capsys):
    assert _run(["no-such-command"]) == 1
    assert _run(["mse-sweep", "--powers-db", ""]) == 1
    assert _run(["rate-vs-n", "--closed-form-only", "--mc-only"]) == 1
    # worker counts below one are refused, not run serially
    assert _run(["rate-vs-n", "--workers", "0"]) == 1
    assert _run(["rate-vs-n", "--workers", "-3"]) == 1
    assert _run(["mse-sweep", "--bits", "0"]) == 1
    # empty or unreadable ADC resolution lists, in both commands that take one
    assert _run(["rate-vs-n", "--bits", ",", "--closed-form-only"]) == 1
    assert _run(["rate-vs-n", "--bits", "", "--closed-form-only"]) == 1
    assert _run(["rate-vs-n", "--bits", "2,two", "--closed-form-only"]) == 1
    assert _run(["mse-sweep", "--bits", ","]) == 1
    # non-numeric sweep values
    assert _run(["rate-vs-n", "--n-values", "1.5"]) == 1
    assert _run(["mse-sweep", "--powers-db", "abc"]) == 1
    assert _run(["power-scaling", "--exponents", "1:x"]) == 1
    assert _run(["correlation-impact", "--deltas", "two"]) == 1
    assert _run(["correlation-impact", "--coefficients", "0:0.8,x:0"]) == 1
    assert _run(["adc-impact", "--deltas", "0.5,?"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert _run(["rate-vs-n", "--config", str(bad)]) == 1
    # gains that are not positive and finite are configuration errors, not
    # numerical failures of the model built from them
    for text in ('{"K": 2, "betas": [-1.0, 0.5]}', '{"K": 2, "betas": [NaN, 0.5]}',
                 '{"eta": -0.5}'):
        bad.write_text(text)
        assert _run(["rate-vs-n", "--n-values", "64", "--closed-form-only",
                     "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_numerical_failure_exits_two(capsys):
    # the default ten-user scenario cannot support a separable error model
    # at N = 32; both engines must refuse identically
    code = _run(["rate-vs-n", "--n-values", "32", "--bits", "2",
                 "--closed-form-only"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_validate_subcommand(capsys):
    assert _run(["validate", "--filter", "lloydmax"]) == 0
    out = capsys.readouterr().out
    assert "PASS lloydmax-table" in out
    assert "1/1 checks passed" in out
    assert _run(["validate", "--filter", "zzz"]) == 1


def test_validate_subcommand_detects_failures(capsys, monkeypatch):
    monkeypatch.setitem(quantizer.DISTORTION_TABLE, 2, 0.5)
    assert _run(["validate", "--filter", "lloydmax"]) == 3
    out = capsys.readouterr().out
    assert "FAIL lloydmax-table" in out
    assert "0/1 checks passed" in out


_COLD_START = """
import sys
sys.path.insert(0, sys.argv[2])
import relaysim.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy imported"
assert relaysim.cli.main(["rate-vs-n", "--n-values", "48", "--bits", "2",
                          "--trials", "8", "--out", sys.argv[1]]) == 0
assert "concurrent.futures.process" not in sys.modules, "pool imported"
assert "multiprocessing" not in sys.modules, "multiprocessing imported"
import concurrent.futures
assert relaysim.link.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
"""


def test_cold_start_imports_no_scipy_and_serial_runs_no_pool(tmp_path):
    # a fresh interpreter, because this test session has imported both
    package_parent = pathlib.Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "out.csv"),
                           str(package_parent)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
