"""Acceptance sweep: one test per headline capability, each printing a verdict.

Every test exercises the full advertised tolerance at the full advertised
operating point; nothing here is scaled down.  The verdict lines land in the
terminal summary via the acceptance_log fixture.
"""

import time

import numpy as np

from relaysim import analysis, cli, config as cfg, estimation, link, quantizer
from relaysim.channel import substream
from relaysim.quantizer import IDEAL, AdcSpec

_TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


def _verdict(log, ok, index, name, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion-{index} {name}: {detail}"
    log(line)
    assert ok, line


def test_criterion_1_distortion_table(acceptance_log):
    start = time.perf_counter()
    worst = max(abs(quantizer.lloyd_max_distortion(q) - rho)
                for q, rho in _TABLE.items())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 1.0
    _verdict(acceptance_log, ok, 1, "distortion-table",
             f"max |rho - reference| = {worst:.3e} "
             f"(threshold 1e-3, {elapsed:.2f}s)")


def test_criterion_2_product_moment_oracle(acceptance_log):
    start = time.perf_counter()
    rng = substream(101, "acceptance-lemma")
    worst = 0.0
    for pair in range(20):
        m, inner, qrows, cols = rng.integers(2, 9, size=4)
        p_mat = (rng.standard_normal((m, inner))
                 + 1j * rng.standard_normal((m, inner))) / 2.0
        q_mat = (rng.standard_normal((qrows, cols))
                 + 1j * rng.standard_normal((qrows, cols))) / 2.0
        j = int(rng.integers(cols))
        i = j if pair % 2 == 0 else int(rng.integers(cols))
        closed = analysis.lemma1_moments(p_mat, q_mat, i, j)
        mean, se = analysis.lemma1_moments_mc(p_mat, q_mat, i, j, 100_000, rng)
        devs = [
            abs(mean["inner_first"] - closed["inner_first"])
            / max(se["inner_first"], 1e-12),
            abs(mean["inner_second"] - closed["inner_second"])
            / max(se["inner_second"], 1e-12),
            float(np.max(np.abs(mean["row_first"] - closed["row_first"])
                         / np.maximum(se["row_first"], 1e-12))),
            float(np.max(np.abs(mean["row_second"] - closed["row_second"])
                         / np.maximum(se["row_second"], 1e-12))),
        ]
        worst = max(worst, max(devs))
    elapsed = time.perf_counter() - start
    ok = worst < 5.0 and elapsed < 30.0
    _verdict(acceptance_log, ok, 2, "product-moments",
             f"worst deviation {worst:.2f} se over 20 pairs x 4 moments "
             f"(threshold 5 se, {elapsed:.1f}s)")


def test_criterion_3_estimation_mse_grid(acceptance_log):
    start = time.perf_counter()
    scn = cfg.table_defaults()          # N=128, M=256, K=10
    hops = dict(zip(("first", "second"), cfg.scenario_hops(scn)))
    trials = 200
    worst = 0.0
    one_bit_curves = {"first": {}, "second": {}}
    for name, hop in hops.items():
        for bits in (1, 2, 3, IDEAL):
            adc = AdcSpec.from_bits(bits)
            for p_db in (0.0, 10.0, 20.0, 30.0, 40.0):
                power = 10.0 ** (p_db / 10.0)
                rng = substream(scn.seed, "acceptance-mse", name,
                                "ideal" if bits is IDEAL else str(bits),
                                f"{p_db:g}")
                sim, se = estimation.pilot_mse(hop, adc, power, trials, rng)
                closed = estimation.mse_closed_form(hop, adc, power) / (
                    scn.K * hop.shape[0])
                worst = max(worst, abs(sim - closed) / se)
                if bits == 1:
                    one_bit_curves[name][p_db] = sim
    floors = [curve[40.0] / curve[30.0] for curve in one_bit_curves.values()]
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and min(floors) >= 0.9 and elapsed < 120.0
    _verdict(acceptance_log, ok, 3, "estimation-mse",
             f"worst sim-vs-closed deviation {worst:.2f} se over 40 points "
             f"(threshold 3 se), one-bit floor ratios "
             f"{floors[0]:.3f}/{floors[1]:.3f} (threshold 0.9), {elapsed:.1f}s")


def test_criterion_4_rate_approximation_tightness(acceptance_log):
    start = time.perf_counter()
    trials = 500
    worst_gap = 0.0
    worst_term = 0.0
    term_names = ("signal", "interference", "noise_relay", "noise_bs")
    for n in (64, 128, 256):
        for bits in (1, 2, IDEAL):
            scn = cfg.table_defaults().with_updates(N=n, q1=bits, q2=bits,
                                                    trials=trials)
            models = cfg.scenario_models(scn)
            closed = analysis.sum_rate_approx(scn, models=models)
            stacks = link.trial_outcomes(scn, models)
            sinr = stacks["signal"] / (stacks["interference"]
                                       + stacks["noise_relay"]
                                       + stacks["noise_bs"])
            mc_rate = float(scn.mu * np.log2(1.0 + sinr).sum(axis=1).mean())
            worst_gap = max(worst_gap,
                            abs(mc_rate - closed.sum_rate) / closed.sum_rate)
            for name in term_names:
                stack = stacks[name]
                se = stack.std(axis=0, ddof=1) / np.sqrt(trials)
                dev = np.abs(stack.mean(axis=0) - getattr(closed, name)) / se
                worst_term = max(worst_term, float(dev.max()))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.05 and worst_term < 5.0 and elapsed < 600.0
    _verdict(acceptance_log, ok, 4, "rate-approximation",
             f"worst rate gap {100 * worst_gap:.2f}% over 9 operating points "
             f"(threshold 5%), worst per-term deviation {worst_term:.2f} se "
             f"(threshold 5 se), {elapsed:.1f}s")


def test_criterion_5_power_scaling_limits(acceptance_log):
    start = time.perf_counter()
    base = cfg.ScenarioConfig(K=10, delta=2.0, q1=2, q2=2, csi="perfect",
                              betas=(1.0,) * 10, eta=1.0,
                              E_U=1.0, E_R=10.0 ** 0.5, r_R=0.8, r_B=0.8)
    # matched scaling: the finite-system SINR approaches the joint limit
    matched = base.with_updates(N=1024, a=1.0, b=1.0)
    sinr = float(analysis.sum_rate_approx(matched).sinr()[0])
    regime, limits = analysis.power_scaling_limit(matched)
    dev = abs(sinr - limits[0]) / limits[0]
    # overdriven scaling: the rate must have collapsed by N = 1024
    fast = {n: analysis.sum_rate_approx(
        base.with_updates(N=n, a=1.2, b=1.2)).sum_rate for n in (128, 1024)}
    ratio = fast[1024] / fast[128]
    elapsed = time.perf_counter() - start
    ok = (regime == "jointly-limited" and dev <= 0.15
          and ratio < 0.5 and elapsed < 180.0)
    _verdict(acceptance_log, ok, 5, "power-scaling",
             f"matched-scaling SINR within {100 * dev:.2f}% of the "
             f"{regime} value (threshold 15%), overdriven rate ratio "
             f"R(1024)/R(128) = {ratio:.3f} (threshold 0.5), {elapsed:.1f}s")


def test_criterion_6_correlation_crossover(acceptance_log):
    start = time.perf_counter()
    base = cfg.table_defaults().with_updates(N=200)
    rates = {}
    for delta in (0.5, 2.0):
        for r_r, r_b in ((0.0, 0.8), (0.8, 0.0)):
            scn = base.with_updates(delta=delta, r_R=r_r, r_B=r_b)
            rates[(delta, r_r, r_b)] = analysis.sum_rate_approx(scn).sum_rate
    wide_b = rates[(2.0, 0.0, 0.8)]     # destination-side correlation only
    wide_r = rates[(2.0, 0.8, 0.0)]     # relay-side correlation only
    narrow_b = rates[(0.5, 0.0, 0.8)]
    narrow_r = rates[(0.5, 0.8, 0.0)]
    dev_b = abs(wide_b - 9.8) / 9.8
    dev_r = abs(wide_r - 8.4) / 8.4
    elapsed = time.perf_counter() - start
    ok = (wide_b > wide_r and narrow_b < narrow_r
          and dev_b <= 0.15 and dev_r <= 0.15)
    _verdict(acceptance_log, ok, 6, "correlation-crossover",
             f"delta=2: {wide_b:.3f} > {wide_r:.3f}, delta=0.5: "
             f"{narrow_b:.3f} < {narrow_r:.3f}; magnitude deviations "
             f"{100 * dev_b:.1f}%/{100 * dev_r:.1f}% (threshold 15%), "
             f"{elapsed:.1f}s")


def test_criterion_7_adc_crossover(acceptance_log):
    start = time.perf_counter()
    base = cfg.table_defaults().with_updates(N=200)
    rates = {}
    for delta in (0.5, 2.0):
        for q1, q2 in ((3, 1), (1, 3)):
            scn = base.with_updates(delta=delta, q1=q1, q2=q2)
            rates[(delta, q1, q2)] = analysis.sum_rate_approx(scn).sum_rate
    elapsed = time.perf_counter() - start
    ok = (rates[(2.0, 3, 1)] > rates[(2.0, 1, 3)]
          and rates[(0.5, 3, 1)] < rates[(0.5, 1, 3)])
    _verdict(acceptance_log, ok, 7, "adc-crossover",
             f"delta=2: {rates[(2.0, 3, 1)]:.3f} > {rates[(2.0, 1, 3)]:.3f}, "
             f"delta=0.5: {rates[(0.5, 3, 1)]:.3f} < "
             f"{rates[(0.5, 1, 3)]:.3f}, {elapsed:.1f}s")


def test_criterion_8_moment_growth_exponents(acceptance_log):
    start = time.perf_counter()
    n_values = np.array([64, 128, 256, 512], dtype=float)
    signal_raw = []
    interference_raw = []
    for n in n_values:
        scn = cfg.table_defaults().with_updates(N=int(n), csi="perfect")
        report = analysis.sum_rate_approx(scn)
        chi = analysis.chi_factor(scn, report.kappa)
        signal_raw.append(report.signal / chi)
        interference_raw.append(report.interference / chi)
    log_n = np.log(n_values)
    s_slopes = np.array([np.polyfit(log_n, np.log([row[k] for row in signal_raw]), 1)[0]
                         for k in range(10)])
    i_slopes = np.array([np.polyfit(log_n, np.log([row[k] for row in interference_raw]), 1)[0]
                         for k in range(10)])
    elapsed = time.perf_counter() - start
    ok = (np.all(np.abs(s_slopes - 4.0) <= 0.2)
          and np.all(np.abs(i_slopes - 3.0) <= 0.2))
    _verdict(acceptance_log, ok, 8, "moment-growth",
             f"signal slopes in [{s_slopes.min():.3f}, {s_slopes.max():.3f}] "
             f"(target 4.0 +/- 0.2), interference slopes in "
             f"[{i_slopes.min():.3f}, {i_slopes.max():.3f}] "
             f"(target 3.0 +/- 0.2), {elapsed:.1f}s")


def test_criterion_9_byte_identical_outputs(acceptance_log, tmp_path):
    start = time.perf_counter()
    commands = {
        "mse-sweep": ["mse-sweep", "--powers-db", "0,20", "--bits", "1",
                      "--hop", "first", "--trials", "10"],
        "rate-vs-n": ["rate-vs-n", "--n-values", "48", "--bits", "2",
                      "--trials", "16"],
        "power-scaling": ["power-scaling", "--n-values", "128,256",
                          "--closed-form-only"],
        "correlation-impact": ["correlation-impact", "--n-values", "64",
                               "--deltas", "2", "--closed-form-only"],
        "adc-impact": ["adc-impact", "--n-values", "48", "--deltas", "2",
                       "--bits-pairs", "3:1,1:3", "--trials", "10"],
    }
    mismatches = []
    for name, argv in commands.items():
        first = tmp_path / f"{name}-1.csv"
        second = tmp_path / f"{name}-2.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            mismatches.append(f"{name}: rerun")
    for name in ("rate-vs-n", "adc-impact"):
        parallel = tmp_path / f"{name}-w3.csv"
        assert cli.main(commands[name] + ["--workers", "3",
                                          "--out", str(parallel)]) == 0
        if parallel.read_bytes() != (tmp_path / f"{name}-1.csv").read_bytes():
            mismatches.append(f"{name}: workers")
    elapsed = time.perf_counter() - start
    ok = not mismatches
    _verdict(acceptance_log, ok, 9, "determinism",
             "all 5 commands byte-identical across reruns and worker counts"
             f" ({elapsed:.1f}s)" if ok else f"mismatches: {mismatches}")
