"""Oracle suite cross-checking every closed form against simulation.

Each check pits an analytic expression against an independent Monte Carlo
estimate (or an exact invariant) and reports the worst deviation in the
units of its threshold: standard errors for stochastic checks, absolute or
relative error for deterministic ones.  The suite is the runtime analogue
of the unit tests and backs the `validate` CLI subcommand.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import analysis
from . import config as cfg
from . import estimation, link, quantizer
from .channel import complex_normal, substream
from .correlation import exponential_correlation
from .quantizer import bits_label

_TINY = 1e-300


@dataclass(frozen=True)
class CheckResult:
    """One validation check outcome."""

    name: str
    passed: bool
    deviation: float
    threshold: float
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: deviation={self.deviation:.4g} "
                f"(threshold {self.threshold:.4g}, {self.elapsed:.2f}s) {self.detail}")


def _check_lloydmax_table(seed, table):
    worst = 0.0
    worst_bits = 1
    for bits in sorted(table):
        measured = quantizer.lloyd_max_distortion(bits)
        dev = abs(measured - table[bits])
        if dev > worst:
            worst, worst_bits = dev, bits
    return worst, 1e-3, f"worst at q={worst_bits}"


def _check_lemma1(seed, table):
    rng = substream(seed, "validate-lemma1")
    worst = 0.0
    worst_tag = ""
    for pair in range(6):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        p_mat = complex_normal(rng, (m, m))
        q_mat = complex_normal(rng, (n, n))
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        exact = analysis.lemma1_moments(p_mat, q_mat, i, j)
        mc = analysis.lemma1_moments_mc(p_mat, q_mat, i, j, 40000, rng)
        devs = {
            "inner1": abs(mc.inner_first - exact.inner_first)
                      / max(mc.inner_first_se, _TINY),
            "inner2": abs(mc.inner_second - exact.inner_second)
                      / max(mc.inner_second_se, _TINY),
            "row1": np.max(np.abs(mc.row_first - exact.row_first)
                           / np.maximum(mc.row_first_se, _TINY)),
            "row2": np.max(np.abs(mc.row_second - exact.row_second)
                           / np.maximum(mc.row_second_se, _TINY)),
        }
        for tag, dev in devs.items():
            if dev > worst:
                worst, worst_tag = float(dev), f"pair {pair} moment {tag}"
    return worst, 5.0, f"worst at {worst_tag} (standard errors)"


_ORACLE_SCENARIO = dict(N=32, delta=1.5, K=5, q1=2, q2=1, trials=1200)


def _moment_predictions(prep, scn):
    hop1, hop2 = prep.hop1, prep.hop2
    cross = analysis.cross_moment(hop1, hop2)
    return {
        "desired": analysis.desired_signal_moment(hop1, hop2),
        "leakage": analysis.leakage_moment(hop1, hop2),
        "cross": cross.sum(axis=1) - np.diag(cross),
        "chain": analysis.chain_norm_moment(hop1, hop2),
        "relay_quant": analysis.relay_quant_moment(
            hop1, hop2, scn.adc1, scn.P_U, scn.sigma_R2),
        "bs_vector": analysis.bs_vector_moment(hop2),
        "bs_quant": analysis.bs_quant_moment(
            hop2, scn.adc2, scn.P_R, scn.sigma_B2),
    }


_MOMENT_FIELDS = {"desired": "desired_raw", "leakage": "leakage_raw",
                  "cross": "cross_raw", "chain": "chain_raw",
                  "relay_quant": "relay_quant_raw", "bs_vector": "bs_vector_raw",
                  "bs_quant": "bs_quant_raw"}


def _check_moment_oracles(seed, table):
    scn = cfg.ScenarioConfig(seed=seed, **_ORACLE_SCENARIO)
    prep = link.prepare(scn)
    predicted = _moment_predictions(prep, scn)
    stacks = link.trial_outcomes(prep, scn.trials, seed)
    worst = 0.0
    worst_tag = ""
    for name, field in _MOMENT_FIELDS.items():
        samples = stacks[field]
        mean = samples.mean(axis=0)
        se = samples.std(ddof=1, axis=0) / np.sqrt(scn.trials)
        dev = np.max(np.abs(mean - predicted[name]) / np.maximum(se, _TINY))
        if dev > worst:
            worst, worst_tag = float(dev), name
    return worst, 5.0, f"worst term {worst_tag} over {scn.trials} trials (standard errors)"


def _check_kappa(seed, table):
    scn = cfg.ScenarioConfig(seed=seed, **_ORACLE_SCENARIO)
    prep = link.prepare(scn)
    closed = prep.kappa
    mc = link.amplification_factor_mc(scn, trials=1500, seed=seed, prep=prep)
    dev = abs(mc - closed) / closed
    return float(dev), 0.02, f"closed {closed:.6g} vs simulated {mc:.6g} (relative)"


def _check_mse(seed, table):
    rng = substream(seed, "validate-mse")
    n, k = 64, 5
    m = 96
    delta_gains = np.array([1.0, 0.8, 1.3, 0.6, 1.1])
    recv1 = exponential_correlation(0.6, n)
    recv2 = exponential_correlation(0.5, m)
    tx2 = exponential_correlation(0.6 ** (n / k), k)
    eta = 0.9
    tau = 8
    noise = 1.3
    worst = 0.0
    worst_tag = ""
    for bits in (1, quantizer.IDEAL):
        adc = quantizer.AdcSpec.from_bits(bits)
        for power_db in (10.0, 30.0):
            power = 10.0 ** (power_db / 10.0)
            sim, se = estimation.pilot_mse_first_hop(
                recv1, delta_gains, adc, tau, power, noise, 200, rng)
            closed = estimation.mse_first_hop_closed_form(
                recv1, delta_gains, adc, tau, power, noise) / (n * k)
            dev = abs(sim - closed) / max(se, _TINY)
            if dev > worst:
                worst, worst_tag = float(dev), f"hop1 q={bits_label(bits)} P={power_db:g}dB"
            sim, se = estimation.pilot_mse_second_hop(
                recv2, tx2, eta, adc, tau, power, noise, 200, rng)
            closed = estimation.mse_second_hop_closed_form(
                recv2, eta, adc, tau, power, noise, k) / (m * k)
            dev = abs(sim - closed) / max(se, _TINY)
            if dev > worst:
                worst, worst_tag = float(dev), f"hop2 q={bits_label(bits)} P={power_db:g}dB"
    return worst, 3.0, f"worst at {worst_tag} (standard errors)"


def _check_energy_split(seed, table):
    worst = 0.0
    worst_tag = ""
    for q1, q2 in ((1, 1), (3, 2), (quantizer.IDEAL, quantizer.IDEAL)):
        scn = cfg.ScenarioConfig(N=48, delta=1.5, K=6, q1=q1, q2=q2, seed=seed)
        t_rr, t_br, t_rt = cfg.scenario_matrices(scn)
        hop1, hop2 = cfg.scenario_models(scn)
        hop1.validate(t_rr, np.diag(scn.user_gains()))
        hop2.validate(t_br, t_rt)
        total1 = (np.trace(hop1.receive_hat).real * np.trace(hop1.transmit_hat).real
                  + np.trace(hop1.receive_err).real * np.trace(hop1.transmit_err).real)
        dev1 = abs(total1 / (scn.N * scn.user_gains().sum()) - 1.0)
        total2 = (np.trace(hop2.receive_hat).real * np.trace(hop2.transmit_hat).real
                  + np.trace(hop2.receive_err).real * np.trace(hop2.transmit_err).real)
        dev2 = abs(total2 / (scn.M * scn.K) - 1.0)
        dev = max(dev1, dev2)
        if dev > worst:
            worst, worst_tag = float(dev), f"q1={bits_label(q1)} q2={bits_label(q2)}"
    return worst, 1e-8, f"worst energy mismatch at {worst_tag} (relative)"


_CHECKS = (
    ("lloydmax-table", _check_lloydmax_table),
    ("lemma1-mc", _check_lemma1),
    ("moment-oracles", _check_moment_oracles),
    ("kappa-mc", _check_kappa),
    ("mse-closed-form", _check_mse),
    ("energy-split", _check_energy_split),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_validation(seed: int = cfg.DEFAULT_SEED, name_filter=None,
                   distortion_table=None):
    """Run the oracle suite and return a list of CheckResult.

    name_filter selects checks by substring match on their names.  The
    distortion_table argument overrides the reference quantizer table and
    exists so a corrupted table demonstrably fails the suite.
    """
    table = dict(quantizer.DISTORTION_TABLE if distortion_table is None
                 else distortion_table)
    results = []
    for name, check in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        deviation, threshold, detail = check(seed, table)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name=name, passed=deviation <= threshold,
                                   deviation=deviation, threshold=threshold,
                                   detail=detail, elapsed=elapsed))
    return results
