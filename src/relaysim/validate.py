"""Oracle suite cross-checking every closed form against simulation.

Each check pits an analytic expression against an independent Monte Carlo
estimate (or an exact invariant) and reports the worst deviation in the
units of its threshold: standard errors for stochastic checks, absolute or
relative error for deterministic ones.  The suite is the runtime analogue
of the unit tests and backs the `validate` CLI subcommand.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis
from . import config as cfg
from . import estimation, link, quantizer
from .channel import complex_normal, mean_and_stderr, substream
from .correlation import exponential_correlation
from .errors import NumericalError
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


def _check_lloydmax_table(run):
    worst = 0.0
    worst_bits = 1
    for bits, tabulated in sorted(quantizer.DISTORTION_TABLE.items()):
        dev = abs(quantizer.lloyd_max_distortion(bits) - tabulated)
        if dev > worst:
            worst, worst_bits = dev, bits
    return worst, f"worst at q={worst_bits}"


def _check_lemma1(run):
    rng = substream(run.seed, "validate-lemma1")
    worst, worst_tag = 0.0, ""
    for pair in range(6):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        p_mat = complex_normal(rng, (m, m))
        q_mat = complex_normal(rng, (n, n))
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        exact = analysis.lemma1_moments(p_mat, q_mat, i, j)
        mean, se = analysis.lemma1_moments_mc(p_mat, q_mat, i, j, 40000, rng)
        for name, predicted in exact.items():
            dev = np.max(np.abs(mean[name] - predicted) / np.maximum(se[name], _TINY))
            if dev > worst:
                worst, worst_tag = float(dev), f"pair {pair} moment {name}"
    return worst, f"worst at {worst_tag} (standard errors)"


# 1500 trials keep the sampled kappa within its 0.02 relative threshold
_ORACLE_SCENARIO = dict(N=32, delta=1.5, K=5, q1=2, q2=1, trials=1500)


class _Run:
    """The seed of one validation run and the rate trials that its
    moment-oracles and kappa-mc checks share."""

    def __init__(self, seed):
        self.seed = seed

    @cached_property
    def oracle(self):
        """(scenario, models, trial_outcomes stacks) of _ORACLE_SCENARIO."""
        scn = cfg.ScenarioConfig(seed=self.seed, **_ORACLE_SCENARIO)
        models = cfg.scenario_models(scn)
        return scn, models, link.trial_outcomes(scn, models)


def _check_moment_oracles(run):
    scn, models, stacks = run.oracle
    worst, worst_tag = 0.0, ""
    for name, predicted in analysis.moments(*models, scn).items():
        mean, se = mean_and_stderr(stacks[name])
        dev = np.max(np.abs(mean - predicted) / np.maximum(se, _TINY))
        if dev > worst:
            worst, worst_tag = float(dev), name
    return worst, f"worst term {worst_tag} over {scn.trials} trials (standard errors)"


def _check_kappa(run):
    scn, _, stacks = run.oracle
    closed, mc = stacks["kappa"], analysis.amplification_factor(scn, stacks)
    dev = abs(mc - closed) / closed
    return float(dev), f"closed {closed:.6g} vs simulated {mc:.6g} (relative)"


def _check_mse(run):
    rng = substream(run.seed, "validate-mse")
    n, k, m = 64, 5, 96
    tau, noise = 8, 1.3
    hops = (("hop1", estimation.HopStatistics(
                0.6, n, np.diag([1.0, 0.8, 1.3, 0.6, 1.1]), tau, noise)),
            ("hop2", estimation.HopStatistics(
                0.5, m, exponential_correlation(0.6 ** (n / k), k), tau, noise,
                gain=0.9, streams=k)))
    worst, worst_tag = 0.0, ""
    for bits in (1, quantizer.IDEAL):
        adc = quantizer.AdcSpec.from_bits(bits)
        for power_db in (10.0, 30.0):
            power = cfg.db_to_linear(power_db, "power")
            for name, hop in hops:
                sim, se = estimation.pilot_mse(hop, adc, power, 200, rng)
                closed = estimation.mse_closed_form(hop, adc, power) / (k * hop.shape[0])
                dev = abs(sim - closed) / max(se, _TINY)
                if dev > worst:
                    worst, worst_tag = float(dev), f"{name} q={bits_label(bits)} P={power_db:g}dB"
    return worst, f"worst at {worst_tag} (standard errors)"


def _check_energy_split(run):
    worst, worst_tag = 0.0, ""
    for q1, q2 in ((1, 1), (3, 2), (quantizer.IDEAL, quantizer.IDEAL)):
        scn = cfg.ScenarioConfig(N=48, delta=1.5, K=6, q1=q1, q2=q2, seed=run.seed)
        for model in cfg.scenario_models(scn):
            dev = model.validate()
            if dev > worst:
                worst, worst_tag = dev, f"q1={bits_label(q1)} q2={bits_label(q2)}"
    return worst, f"worst per-user energy residual at {worst_tag} (relative)"


# (name, check, threshold): check(run) gives (deviation, detail)
_CHECKS = (
    ("lloydmax-table", _check_lloydmax_table, 1e-3),
    ("lemma1-mc", _check_lemma1, 5.0),
    ("moment-oracles", _check_moment_oracles, 5.0),
    ("kappa-mc", _check_kappa, 0.02),
    ("mse-closed-form", _check_mse, 3.0),
    ("energy-split", _check_energy_split, 1e-8),
)


def run_validation(seed: int = cfg.DEFAULT_SEED, name_filter=None):
    """Run the oracle suite and return a list of CheckResult.

    name_filter selects checks by substring match on their names. A check
    that raises AssertionError, NumericalError or ArithmeticError fails,
    with an infinite deviation and the error as its detail, and the rest
    still run. A seed outside [0, 2**64) is refused (ConfigError) before
    any check runs.
    """
    cfg.check_seed(seed)
    results = []
    run = _Run(seed)
    for name, check, threshold in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            deviation, detail = check(run)
        except (AssertionError, NumericalError, ArithmeticError) as exc:
            deviation, detail = np.inf, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name=name, passed=deviation <= threshold,
                                   deviation=deviation, threshold=threshold,
                                   detail=detail, elapsed=elapsed))
    return results
