"""End-to-end command-line checks: CSV shape, determinism, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from relaysim import analysis, channel, cli, config as cfg, estimation, link, quantizer
from relaysim.quantizer import IDEAL

RATE_COMMANDS = ("rate-vs-n", "power-scaling", "correlation-impact", "adc-impact")


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


@pytest.mark.parametrize("argv", [
    ["rate-vs-n", "--n-values", "48", "--bits", "2"],
    ["power-scaling", "--n-values", "48"],
    ["correlation-impact", "--n-values", "48"],
    ["adc-impact", "--n-values", "48"],
    ["mse-sweep", "--hop", "first", "--bits", "2", "--powers-db", "10"],
], ids=lambda argv: argv[0])
def test_csv_regenerates_from_its_config_line(tmp_path, argv):
    # the '# config=' JSON as --config, with the same grid flags and no
    # --seed or --trials, writes the same bytes
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert _run(argv + ["--trials", "3", "--seed", "7", "--out", str(first)]) == 0
    config = tmp_path / "config.json"
    config.write_text(_read_csv(first)[2][-1].split("=", 1)[1])
    assert _run(argv + ["--config", str(config), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


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


# per rate subcommand: a 2 x 2 grid, its points in row order, its header
_GRIDS = {
    "rate-vs-n": (["--n-values", "64,128", "--bits", "2,ideal"],
                  [dict(N=n, q1=q, q2=q) for n in (64, 128) for q in (2, IDEAL)],
                  "N,q1,q2,rate_mc,rate_mc_ci,rate_closed,rel_gap"),
    "power-scaling": (["--n-values", "64,128", "--exponents", "1:1,0.5:0.5"],
                      [dict(N=n, a=e, b=e) for e in (1.0, 0.5) for n in (64, 128)],
                      "N,a,b,rate_closed,rate_mc,rate_mc_ci,regime,rate_limit"),
    "correlation-impact": (["--n-values", "64", "--deltas", "1,2",
                            "--coefficients", "0:0.5,0.5:0"],
                           [dict(N=64, delta=d, r_R=r, r_B=0.5 - r)
                            for d in (1.0, 2.0) for r in (0.0, 0.5)],
                           "N,delta,r_R,r_B,rate_closed,rate_mc,rate_mc_ci"),
    "adc-impact": (["--n-values", "64", "--deltas", "1,2", "--bits-pairs", "3:1,ideal:2"],
                   [dict(N=64, delta=d, q1=q1, q2=q2)
                    for d in (1.0, 2.0) for q1, q2 in ((3, 1), (IDEAL, 2))],
                   "N,delta,q1,q2,rate_closed,rate_mc,rate_mc_ci"),
}


def _expected_cell(column, point):
    scn = cfg.table_defaults().with_updates(**point)
    if column in ("q1", "q2"):
        return quantizer.bits_label(point[column])
    if column == "N":
        return str(point[column])
    if column in point:
        return repr(float(point[column]))
    if column == "rate_closed":
        return repr(float(analysis.sum_rate_approx(scn).sum_rate))
    if column == "regime":
        return analysis.power_scaling_limit(scn)[0]
    if column == "rate_limit":
        return repr(float(analysis.asymptotic_sum_rate(scn)))
    return "nan"        # rate_mc, rate_mc_ci and rel_gap without Monte Carlo


@pytest.mark.parametrize("command", RATE_COMMANDS)
def test_rate_rows_follow_their_grid_points(tmp_path, command):
    grid_argv, points, header_text = _GRIDS[command]
    out = tmp_path / "rows.csv"
    assert _run([command, *grid_argv, "--closed-form-only", "--out", str(out)]) == 0
    header, rows, _ = _read_csv(out)
    assert header == header_text.split(",")
    assert rows == [[_expected_cell(c, point) for c in header] for point in points]


def test_zero_closed_rate_writes_nan_gap(tmp_path):
    # a valid scenario whose rates underflow to exactly 0
    scn = tmp_path / "faint.json"
    scn.write_text('{"E_U": 1e-30}')
    argv = ["rate-vs-n", "--n-values", "64", "--bits", "2", "--config", str(scn)]
    for engines in (["--closed-form-only"], ["--trials", "4"]):
        out = tmp_path / "faint.csv"
        assert _run(argv + engines + ["--out", str(out)]) == 0
        header, rows, _ = _read_csv(out)
        assert rows[0][header.index("rate_closed")] == "0.0"
        assert rows[0][header.index("rel_gap")] == "nan"


def _sweep_options(parser):
    """{subcommand: {option string: default}} of every sweep subparser."""
    commands = next(a for a in parser._actions if a.dest == "command").choices
    return {name: {opt: action.default for action in sub._actions if action.dest != "help"
                   for opt in action.option_strings}
            for name, sub in commands.items() if name != "validate"}


def test_sweep_options_and_defaults_are_pinned():
    common = {"--config": None, "--seed": None, "--trials": None, "--out": None}
    rate = {**common, "--closed-form-only": False, "--mc-only": False, "--workers": 1}
    assert _sweep_options(cli.build_parser()) == {
        "mse-sweep": {**common, "--powers-db": "0,10,20,30,40",
                      "--bits": "1,2,3,ideal", "--hop": "both"},
        "rate-vs-n": {**rate, "--n-values": "64,128,256", "--bits": "1,2,ideal"},
        "power-scaling": {**rate, "--n-values": "128,256,512,1024", "--exponents": "1:1"},
        "correlation-impact": {**rate, "--n-values": "200", "--deltas": "0.5,2",
                               "--coefficients": "0:0.8,0.8:0"},
        "adc-impact": {**rate, "--n-values": "200", "--deltas": "0.5,2",
                       "--bits-pairs": "3:1,1:3"},
    }


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
    for command in RATE_COMMANDS:
        assert _run([command, "--closed-form-only", "--mc-only"]) == 1
    # worker counts below one are refused, not run serially
    assert _run(["rate-vs-n", "--workers", "0"]) == 1
    assert _run(["rate-vs-n", "--workers", "-3"]) == 1
    # the pilot sweep has no engine to choose and never took a worker
    # count, so it takes neither
    assert _run(["mse-sweep", "--workers", "2"]) == 1
    assert _run(["mse-sweep", "--closed-form-only"]) == 1
    assert _run(["mse-sweep", "--mc-only"]) == 1
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
    # a value with more or fewer sides than its axis is refused, not read
    # with a side dropped or copied
    assert _run(["power-scaling", "--closed-form-only", "--n-values", "128",
                 "--exponents", "1::1"]) == 1
    assert _run(["correlation-impact", "--closed-form-only", "--n-values", "64",
                 "--coefficients", ":0:0.8:"]) == 1
    assert _run(["adc-impact", "--closed-form-only", "--n-values", "64",
                 "--bits-pairs", "3"]) == 1
    assert _run(["rate-vs-n", "--closed-form-only", "--n-values", "64", "--bits", "1:2"]) == 1
    # non-finite sweep values, in configuration fields and in pilot powers
    assert _run(["power-scaling", "--closed-form-only", "--n-values", "128",
                 "--exponents", "nan:1"]) == 1
    for deltas in ("nan", "inf"):
        assert _run(["correlation-impact", "--closed-form-only", "--deltas", deltas]) == 1
    assert _run(["correlation-impact", "--closed-form-only", "--coefficients", "0:nan"]) == 1
    for powers in ("nan", "inf", "10,-inf"):
        assert _run(["mse-sweep", "--powers-db", powers]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert _run(["rate-vs-n", "--config", str(bad)]) == 1
    # gains that are not positive and finite are configuration errors, not
    # numerical failures of the model built from them
    for text in ('{"K": 2, "betas": [-1.0, 0.5]}', '{"K": 2, "betas": [NaN, 0.5]}',
                 '{"eta": -0.5}', '{"E_U": NaN}', '{"E_U": 1e999}', '{"E_U-dB": 1e5}',
                 '{"E_U": 1' + '0' * 400 + '}', '{"d_users": [0.0, 200.0], "K": 2}',
                 '{"d_users": null}'):
        bad.write_text(text)
        assert _run(["rate-vs-n", "--n-values", "64", "--closed-form-only",
                     "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "configuration error: d_users must be positive, got (0.0, 200.0)" in err
    assert "configuration error: d_users must be given when betas is not" in err
    assert "configuration error: --bits: empty sweep value list" in err


@pytest.mark.parametrize("command", RATE_COMMANDS)
def test_unreadable_axis_value_exits_one_naming_its_field(capsys, command):
    # a grid value is read as the same field in a config file is, so each
    # side of an axis value that cannot be read is named by its field
    _, axes, _ = cli._RATE_SWEEPS[command]
    for flag, fields, default, _ in axes:
        sides = default.split(",")[0].split(":")
        for side, side_fields in enumerate(fields.split(":")):
            value = ":".join("x" if i == side else text for i, text in enumerate(sides))
            assert _run([command, "--closed-form-only", flag, value]) == 1
            assert capsys.readouterr().err.startswith(
                f"configuration error: field {side_fields.split()[0]}: expected ")


def test_seed_and_trials_are_refused_before_any_point(tmp_path, capsys):
    # --seed and --trials are read as config fields, so a seed outside 64
    # bits stops a closed-form run too, before any point or CSV
    out = tmp_path / "r.csv"
    argv = ["rate-vs-n", "--closed-form-only", "--n-values", "64", "--out", str(out)]
    for seed in ("-1", str(2 ** 64)):
        assert _run(argv + ["--seed", seed]) == 1
        assert capsys.readouterr().err == \
            f"configuration error: seed must be in [0, 2**64), got {seed}\n"
    assert _run(argv + ["--trials", "1.5"]) == 1
    assert capsys.readouterr().err == \
        "configuration error: field trials: expected an integer, got '1.5'\n"
    assert not out.exists()


_SEEDED_RUNS = {
    "rate-vs-n": ["rate-vs-n", "--n-values", "64", "--bits", "2", "--trials", "2"],
    "mse-sweep": ["mse-sweep", "--hop", "first", "--bits", "2", "--powers-db", "10",
                  "--trials", "2"],
    "validate": ["validate", "--filter", "lemma1"],
}


@pytest.mark.parametrize("command", list(_SEEDED_RUNS))
def test_seeds_outside_64_bits_exit_one(capsys, command):
    # a seed is used as given, never wrapped modulo 2**64 onto another
    # seed's streams
    argv = _SEEDED_RUNS[command]
    for seed in (-1, 2 ** 64):
        assert _run(argv + ["--seed", str(seed)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
    assert _run(argv + ["--seed", str(2 ** 64 - 1)]) == 0


@pytest.mark.parametrize("name_filter", [None, "lloyd", "energy"])
def test_validate_refuses_a_seed_outside_64_bits_before_any_check(capsys, name_filter):
    # the seed is refused once, with the sweeps' message, whichever checks
    # the filter selects: also those that draw nothing
    argv = ["validate"] + (["--filter", name_filter] if name_filter else [])
    for seed in (-1, 2 ** 64):
        assert _run(argv + ["--seed", str(seed)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: seed must be in [0, 2**64), got {seed}\n"


def test_mse_powers_sharing_a_stream_key_exit_one_before_any_point(capsys, monkeypatch):
    # a point's stream is keyed by its power to 6 significant digits, so two
    # powers closer than that would draw the same normals; a power given
    # twice is the same point twice
    points = []
    monkeypatch.setattr(estimation, "pilot_mse", lambda *args: points.append(args) or (0.0, 0.0))
    argv = ["mse-sweep", "--hop", "first", "--bits", "2", "--trials", "2", "--powers-db"]
    assert _run(argv + ["10,10.0000001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "10.0 and 10.0000001" in err
    assert points == []
    assert _run(argv + ["10,10.0"]) == 0
    assert len(points) == 2



def test_mse_sweep_grid_values_are_read_as_fields_before_any_point(capsys, monkeypatch):
    # --bits sets q1 and q2, --powers-db P1-dB and P2-dB: each value is read
    # as the same field in a config file, and every point before the first runs
    points = []
    monkeypatch.setattr(estimation, "pilot_mse", lambda *args: points.append(args) or (0.0, 0.0))
    for flag, value, message in (
            ("--powers-db", "10,abc", "field P1-dB: expected a number, got 'abc'"),
            ("--bits", "2,1:2", "--bits: expected a single value, got '1:2'"),
            ("--bits", "2,0", "field q1: expected a bit count >= 1 or 'ideal', got 0")):
        assert _run(["mse-sweep", "--trials", "2", flag, value]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert points == []


def test_mse_sweep_reads_bits_none_as_ideal(tmp_path):
    outs = [tmp_path / f"{word}.csv" for word in ("NONE", "ideal")]
    for word, out in zip(("NONE", "ideal"), outs):
        assert _run(["mse-sweep", "--bits", f"2,{word}", "--powers-db", "0,20",
                     "--trials", "3", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

def test_decibels_that_overflow_exit_one_naming_the_value(tmp_path, capsys, monkeypatch):
    # one dB conversion serves the config file and mse-sweep; a value whose
    # linear form overflows, or underflows to zero, is bad input, refused
    # before any point runs
    points = []
    monkeypatch.setattr(estimation, "pilot_mse", lambda *args: points.append(args) or (0.0, 0.0))
    for db, fate in (("4000", "overflows a float"), ("-4000", "underflows to zero")):
        assert _run(["mse-sweep", "--hop", "first", "--bits", "2", "--trials", "2",
                     "--powers-db", f"10,{db}"]) == 1
        assert points == []
        assert capsys.readouterr().err == \
            f"configuration error: field P1-dB: {float(db)!r} dB {fate}\n"
        scn = tmp_path / "loud.json"
        scn.write_text(f'{{"P1-dB": {db}}}')
        assert _run(["rate-vs-n", "--n-values", "64", "--closed-form-only",
                     "--config", str(scn)]) == 1
        assert capsys.readouterr().err == \
            f"configuration error: field P1-dB: {db} dB {fate}\n"


@pytest.mark.parametrize("argv, flag, value, column", [
    (["correlation-impact", "--closed-form-only"], "--coefficients",
     "-0.5:0.8,0.8:-0.5", "r_R"),
    (["mse-sweep", "--hop", "first", "--bits", "1", "--trials", "3"], "--powers-db",
     "-10,0", "axis_value"),
], ids=["coefficients", "powers-db"])
def test_sweep_list_may_start_with_a_negative_value(tmp_path, argv, flag, value, column):
    # a separate value that starts with "-" and a digit is the option's
    # value, not a flag: the same CSV as the --flag=value form
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert _run(argv + [flag, value, "--out", str(spaced)]) == 0
    assert _run(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    header, rows, _ = _read_csv(spaced)
    assert float(rows[0][header.index(column)]) < 0.0


@pytest.mark.parametrize("command", ["mse-sweep", "rate-vs-n", "power-scaling",
                                     "correlation-impact", "adc-impact"])
def test_sweep_without_users_exits_one(tmp_path, capsys, command):
    empty = tmp_path / "k0.json"
    empty.write_text('{"K": 0}')
    assert _run([command, "--config", str(empty), "--trials", "2"]) == 1
    assert "at least one user" in capsys.readouterr().err


def test_unwritable_out_path_exits_one_before_any_point(tmp_path, capsys, monkeypatch):
    points = []
    monkeypatch.setattr(cli, "_rate_pair", lambda *args: points.append(args))
    monkeypatch.setattr(cli.estimation, "pilot_mse", lambda *args: points.append(args))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert _run(["rate-vs-n", "--closed-form-only", "--n-values", "64",
                     "--bits", "2", "--out", str(out)]) == 1
        assert _run(["mse-sweep", "--out", str(out)]) == 1
    assert points == []
    err = capsys.readouterr().err
    assert err.count("configuration error: cannot write --out") == 4
    assert "Traceback" not in err


def test_invalid_grid_point_exits_one_before_any_point(tmp_path, capsys, monkeypatch):
    # every point's scenario is built before the first point runs, so N = 8,
    # too few antennas for the default ten users, stops the sweep before
    # N = 256 runs either engine
    calls = []

    def engine(*args, **kwargs):
        calls.append(args)
        return types.SimpleNamespace(sum_rate=1.0, ci_halfwidth=0.0)

    monkeypatch.setattr(cli, "sum_rate_approx", engine)
    monkeypatch.setattr(link, "ergodic_sum_rate_mc", engine)
    out = tmp_path / "r.csv"
    assert _run(["rate-vs-n", "--n-values", "256,8", "--bits", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "configuration error: K = 10 users need K <= min(N, M) = min(8, 16)\n"
    assert calls == [] and not out.exists()


def test_numerical_failure_exits_two(capsys):
    # the default ten-user scenario cannot support a separable error model
    # at N = 32; both engines must refuse identically
    code = _run(["rate-vs-n", "--n-values", "32", "--bits", "2",
                 "--closed-form-only"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    '{"betas": [1e-170, 1e-170, 1e-170, 1e-170, 1e-170, 1e-170, 1e-170, 1e-170, '
    '1e-170, 1e-170]}',
    '{"eta": 1e160}',
], ids=["kappa-denominator-underflows", "relay-gain-squared-overflows"])
def test_arithmetic_failure_exits_two(tmp_path, capsys, config):
    scn = tmp_path / "extreme.json"
    scn.write_text(config)
    code = _run(["rate-vs-n", "--n-values", "128", "--bits", "2", "--closed-form-only",
                 "--config", str(scn)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err



def test_resolution_past_the_float_range_runs_as_ideal(tmp_path):
    # from 538 bits the distortion is 0.0, the ideal limit, even where
    # 2 ** (-2 q) has no float
    huge = "1" + "0" * 400
    for argv, column in (
            (["rate-vs-n", "--closed-form-only", "--n-values", "64"], "rate_closed"),
            (["mse-sweep", "--hop", "first", "--powers-db", "10", "--trials", "2"],
             "mse_closed")):
        cells = []
        for bits in (huge, "ideal"):
            out = tmp_path / f"{argv[0]}-{bits[:5]}.csv"
            assert _run(argv + ["--bits", bits, "--out", str(out)]) == 0
            header, rows, _ = _read_csv(out)
            cells.append(rows[0][header.index(column)])
        assert cells[0] == cells[1]


@pytest.mark.parametrize("engine", ["--closed-form-only", "--mc-only"])
def test_sinr_whose_every_term_underflows_exits_two(tmp_path, capsys, engine):
    # a relay gain of 1e-170 takes every SINR term below the smallest float:
    # 0/0 is a numerical failure, not a NaN rate
    scn, out = tmp_path / "faint.json", tmp_path / "faint.csv"
    argv = ["rate-vs-n", engine, "--n-values", "64", "--bits", "2", "--trials", "8",
            "--config", str(scn), "--out", str(out)]
    scn.write_text('{"eta": 1e-170}')
    assert _run(argv) == 2
    assert capsys.readouterr().err.startswith("numerical failure: SINR 0/0: ")
    assert not out.exists()
    # a gain of 1e-100 keeps the terms apart from zero: the rate is 0.0
    scn.write_text('{"eta": 1e-100}')
    assert _run(argv) == 0
    header, rows, _ = _read_csv(out)
    column = "rate_closed" if engine == "--closed-form-only" else "rate_mc"
    assert float(rows[0][header.index(column)]) == 0.0


@pytest.mark.parametrize("config, message", [
    ('{"d_users": [1e-300, 1, 1, 1, 1, 1, 1, 1, 1, 1]}',
     "field d_users: path-loss gain (100 / 1e-300) ** 3.8 overflows a float"),
    ('{"d_RB": 1e-300}', "field d_RB: path-loss gain (100 / 1e-300) ** 3.8 overflows a float"),
    ('{"d_ref": 1e300}', "field d_users: path-loss gain (1e+300 / 182) ** 3.8 overflows a float"),
    ('{"d_users": [1e300, 1, 1, 1, 1, 1, 1, 1, 1, 1]}',
     "field d_users: path-loss gain (100 / 1e+300) ** 3.8 underflows to zero"),
    ('{"d_RB": 1e300}', "field d_RB: path-loss gain (100 / 1e+300) ** 3.8 underflows to zero"),
    ('{"nu": 1e6}', "field d_users: path-loss gain (100 / 182) ** 1e+06 underflows to zero"),
], ids=["user-distance", "relay-distance", "reference-distance", "user-distance-underflow",
        "relay-distance-underflow", "exponent-underflow"])
def test_path_loss_gain_past_the_float_range_exits_one(tmp_path, capsys, monkeypatch,
                                                       config, message):
    # the gain (d_ref / d) ** nu itself has no float, or underflows to zero:
    # bad input, refused with the field named before any point runs
    calls = []
    monkeypatch.setattr(cli, "sum_rate_approx", lambda *args, **kwargs: calls.append(args))
    scn, out = tmp_path / "far.json", tmp_path / "far.csv"
    scn.write_text(config)
    assert _run(["rate-vs-n", "--n-values", "64", "--bits", "2", "--trials", "8",
                 "--config", str(scn), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("config, message", [
    ('{"nu": 800}', "amplification denominator is non-positive"),
    ('{"d_users": [1e30, 1, 1, 1, 1, 1, 1, 1, 1, 1]}', "error-side transmit matrix is indefinite"),
], ids=["steep-exponent", "far-user"])
def test_path_loss_gain_that_is_still_a_float_is_a_model_refusal(tmp_path, capsys, config,
                                                                 message):
    # nu = 800 gives gains from about 1e-319 (the relay) to 1e-209, and a
    # user at 1e30 m one of about 1e-106: still floats, so the scenario is
    # built and its model refused, a numerical failure. The users' gains
    # leave kappa no power in the first case; in the second the far user
    # leaves the error model indefinite
    scn, out = tmp_path / "steep.json", tmp_path / "steep.csv"
    scn.write_text(config)
    assert _run(["rate-vs-n", "--n-values", "64", "--bits", "2", "--trials", "8",
                 "--config", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")
    assert not out.exists()


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


def test_validate_subcommand_reports_a_check_that_raises(capsys, monkeypatch):
    # a raising check is one failed check (exit 3), not a crash of the suite
    def broken(model):
        raise AssertionError("receive-side split does not sum to the true correlation")

    monkeypatch.setattr(estimation.EstimateModel, "validate", broken)
    assert _run(["validate"]) == 3
    out = capsys.readouterr().out
    assert "FAIL energy-split" in out
    assert "5/6 checks passed" in out


_COLD_START = """
import sys
import threading
sys.path.insert(0, sys.argv[3])
import relaysim.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy imported"
argv = ["rate-vs-n", "--n-values", "48", "--bits", "2", "--trials", "40"]
assert relaysim.cli.main(argv + ["--out", sys.argv[1]]) == 0
assert relaysim.cli.main(argv + ["--workers", "2", "--out", sys.argv[2]]) == 0
pools = ("concurrent.futures.process", "multiprocessing")
assert not [m for m in pools if m in sys.modules], "a run imported a process pool"
assert threading.enumerate() == [threading.main_thread()], "a thread outlived main"
"""


def _package_parent():
    return str(pathlib.Path(cli.__file__).resolve().parent.parent)


def test_cold_start_imports_no_scipy_and_serial_runs_no_pool(tmp_path):
    # a fresh interpreter, because this test session has imported all of
    # them; 40 trials at N = 48 are several chunks, and --workers 2 runs
    # them the same way, to the same bytes; sample's filler thread is
    # joined before main returns
    scn = cfg.table_defaults().with_updates(N=48)
    assert channel.chunk_size(link._trial_draws(scn)) < 20
    serial, two = tmp_path / "serial.csv", tmp_path / "two.csv"
    done = subprocess.run([sys.executable, "-c", _COLD_START, str(serial), str(two),
                           _package_parent()], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert two.read_bytes() == serial.read_bytes()


_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
import relaysim.cli
sys.exit(relaysim.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", [
    ["mse-sweep", "--trials", "40"],
    ["correlation-impact", "--trials", "40"],
], ids=["mse-sweep", "correlation-impact"])
def test_csv_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path, argv):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it; the
    # pilot chain and the rate trials (N = 200 here) run under a one-thread
    # pin (channel._one_blas_thread), and what runs outside it, the models
    # and the closed form, rounds alike on one BLAS thread and on two
    written = []
    for name, threads in (("one.csv", "1"), ("default.csv", None)):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-c", _MAIN, _package_parent(), *argv,
                               "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["rate-vs-n", "--closed-form-only", "--n-values", "64", "--bits", "2"],
    ["mse-sweep", "--hop", "first", "--bits", "2", "--powers-db", "10", "--trials", "2"],
    ["validate", "--filter", "lloydmax"],
], ids=["rate-vs-n", "mse-sweep", "validate"])
def test_closed_stdout_stops_quietly_with_sigpipe_status(argv, unbuffered):
    # stdout is a pipe whose reader has gone: the run stops as a shell
    # reports a process a closed pipe stopped, 128 + SIGPIPE, and prints
    # nothing, whether the output meets the pipe at a write or at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-c", _MAIN, _package_parent(), *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("argv", [
    ["correlation-impact", "--deltas", "2", "--coefficients", "0.8:0", "--trials", "20"],
    ["mse-sweep", "--bits", "1,ideal", "--powers-db", "0,30", "--trials", "20"],
    ["rate-vs-n", "--n-values", "64,128", "--bits", "1,ideal", "--trials", "20"],
])
def test_blas_pin_changes_no_number(tmp_path, monkeypatch, argv):
    # the rate trials and their factor build (N < 512 here) and the pilot
    # chain run pinned to one BLAS thread; without the pin they run on the
    # count the process started with and fill on the calling thread, and
    # write the same bytes
    pinned, free = tmp_path / "pinned.csv", tmp_path / "free.csv"
    assert cli.main(argv + ["--out", str(pinned)]) == 0
    monkeypatch.setattr(channel, "_openblas_threads", lambda: None)
    assert cli.main(argv + ["--out", str(free)]) == 0
    assert free.read_bytes() == pinned.read_bytes()
