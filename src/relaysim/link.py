"""Monte Carlo trial engine for the two-hop quantized relay uplink.

Each trial draws the per-hop channel estimates and errors from their
equivalent-form distributions, forms the matched-filter combiners from the
estimates, and accumulates the per-user powers in the post-combining SINR.
Thermal and quantization noise enter in conditional expectation given the
channel draw (quadratic forms against the diagonal AQNM covariances);
sample_quantization_noise=True instead draws the quantization noise.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis
from . import config as cfg
from .channel import complex_normal, left_multiply, substream
from .correlation import psd_sqrt


@dataclass(frozen=True)
class PreparedScenario:
    """Scenario plus the factored matrices trials need."""

    scenario: object
    hop1: object
    hop2: object
    sqrt_recv1_hat: np.ndarray
    sqrt_recv1_err: np.ndarray
    sqrt_recv2_hat: np.ndarray
    sqrt_recv2_err: np.ndarray
    sqrt_tx2_hat: np.ndarray
    sqrt_tx2_err: np.ndarray
    kappa: float
    chi: float


def prepare(scenario, models=None):
    """Factor the scenario's estimate models for fast repeated sampling."""
    if models is None:
        hop1, hop2 = cfg.scenario_models(scenario)
    else:
        hop1, hop2 = models
    kappa = analysis.kappa_closed_form(hop1, scenario.adc1, scenario.P_U,
                                       scenario.P_R, scenario.sigma_R2)
    chi = (scenario.adc1.alpha ** 2 * scenario.adc2.alpha ** 2
           * kappa ** 2 * scenario.P_U)
    sqrt_recv1_hat, sqrt_recv1_err = hop1.receive_sqrt()
    sqrt_recv2_hat, sqrt_recv2_err = hop2.receive_sqrt()
    return PreparedScenario(
        scenario=scenario, hop1=hop1, hop2=hop2,
        sqrt_recv1_hat=sqrt_recv1_hat, sqrt_recv1_err=sqrt_recv1_err,
        sqrt_recv2_hat=sqrt_recv2_hat, sqrt_recv2_err=sqrt_recv2_err,
        sqrt_tx2_hat=psd_sqrt(hop2.transmit_hat),
        sqrt_tx2_err=psd_sqrt(hop2.transmit_err),
        kappa=kappa, chi=chi)


@dataclass(frozen=True)
class TrialOutcome:
    """Per-user raw magnitudes and assembled SINR powers for one draw.

    The raw fields are the unscaled moments the closed forms predict
    (desired chain squared, leakage squared, summed cross-user squares,
    chain norm, relay quantization quadratic form, combiner norm,
    destination quantization quadratic form); the power fields carry the
    kappa/alpha/power scale factors.
    """

    desired_raw: np.ndarray
    leakage_raw: np.ndarray
    cross_raw: np.ndarray
    chain_raw: np.ndarray
    relay_quant_raw: np.ndarray
    bs_vector_raw: np.ndarray
    bs_quant_raw: np.ndarray
    signal: np.ndarray
    interference: np.ndarray
    noise_relay: np.ndarray
    noise_bs: np.ndarray

    def sinr(self):
        return self.signal / (self.interference + self.noise_relay + self.noise_bs)


def run_trial(prep, rng, sample_quantization_noise=False):
    """One Monte Carlo draw of all per-user SINR terms."""
    scn = prep.scenario
    k = scn.K
    gains_hat = prep.hop1.gains_hat
    gains_err = prep.hop1.gains_err
    n = prep.sqrt_recv1_hat.shape[0]
    m = prep.sqrt_recv2_hat.shape[0]
    # draw order is fixed: estimate then error, first hop then second
    f_hat = left_multiply(prep.sqrt_recv1_hat, complex_normal(rng, (n, k))) * np.sqrt(gains_hat)
    f_err = left_multiply(prep.sqrt_recv1_err, complex_normal(rng, (n, k))) * np.sqrt(gains_err)
    g_hat = np.sqrt(prep.hop2.relay_gain) * (
        left_multiply(prep.sqrt_recv2_hat, complex_normal(rng, (m, k))) @ prep.sqrt_tx2_hat)
    g_err = np.sqrt(prep.hop2.relay_gain) * (
        left_multiply(prep.sqrt_recv2_err, complex_normal(rng, (m, k))) @ prep.sqrt_tx2_err)
    f_full = f_hat + f_err
    g_full = g_hat + g_err

    gram_g = g_hat.conj().T @ g_full            # k x k: g_hat_k^H g_j
    gram_g_hat = g_hat.conj().T @ g_hat
    chain_est = gram_g_hat @ (f_hat.conj().T @ f_hat)   # desired amplitudes on diag
    half_chain = g_hat.conj().T @ g_full @ f_hat.conj().T   # k x n
    chain_full = half_chain @ f_full             # k x k: g_hat_k^H G F_hat^H f_j

    desired_raw = np.abs(np.diag(chain_est)) ** 2
    leakage_amp = np.diag(chain_full) - np.diag(chain_est)
    leakage_raw = np.abs(leakage_amp) ** 2
    cross_abs = np.abs(chain_full) ** 2
    cross_raw = cross_abs.sum(axis=1) - np.diag(cross_abs)
    chain_raw = np.sum(np.abs(half_chain) ** 2, axis=1)
    bs_vector_raw = np.sum(np.abs(g_hat) ** 2, axis=0)

    adc1, adc2 = scn.adc1, scn.adc2
    relay_row_power = scn.P_U * np.sum(np.abs(f_full) ** 2, axis=1) + scn.sigma_R2
    bs_row_power = (scn.P_R / k) * np.sum(np.abs(g_full) ** 2, axis=1) + scn.sigma_B2
    if sample_quantization_noise and not adc1.is_ideal:
        nq1 = complex_normal(rng, n, adc1.alpha * adc1.rho * relay_row_power)
        relay_quant_raw = np.abs(half_chain @ nq1) ** 2
    else:
        relay_quant_raw = (np.abs(half_chain) ** 2
                           @ (adc1.alpha * adc1.rho * relay_row_power))
    if sample_quantization_noise and not adc2.is_ideal:
        nq2 = complex_normal(rng, m, adc2.alpha * adc2.rho * bs_row_power)
        bs_quant_raw = np.abs(g_hat.conj().T @ nq2) ** 2
    else:
        bs_quant_raw = (np.abs(g_hat.T) ** 2
                        @ (adc2.alpha * adc2.rho * bs_row_power))

    a1, a2 = adc1.alpha, adc2.alpha
    kappa2 = prep.kappa ** 2
    signal = prep.chi * desired_raw
    interference = prep.chi * (leakage_raw + cross_raw)
    noise_relay = (a1 ** 2 * a2 ** 2 * kappa2 * scn.sigma_R2 * chain_raw
                   + a2 ** 2 * kappa2 * relay_quant_raw)
    noise_bs = a2 ** 2 * scn.sigma_B2 * bs_vector_raw + bs_quant_raw
    return TrialOutcome(desired_raw=desired_raw, leakage_raw=leakage_raw,
                        cross_raw=cross_raw, chain_raw=chain_raw,
                        relay_quant_raw=relay_quant_raw,
                        bs_vector_raw=bs_vector_raw, bs_quant_raw=bs_quant_raw,
                        signal=signal, interference=interference,
                        noise_relay=noise_relay, noise_bs=noise_bs)


_TRIAL_FIELDS = ("desired_raw", "leakage_raw", "cross_raw", "chain_raw",
                 "relay_quant_raw", "bs_vector_raw", "bs_quant_raw",
                 "signal", "interference", "noise_relay", "noise_bs")


def _trial_block(prep, seed, indices, sample_quantization_noise):
    """Outcome arrays for a block of trial indices (worker entry point)."""
    k = prep.scenario.K
    block = {name: np.empty((len(indices), k)) for name in _TRIAL_FIELDS}
    for row, trial_index in enumerate(indices):
        rng = substream(seed, "rate-trial", trial_index)
        out = run_trial(prep, rng, sample_quantization_noise)
        for name in _TRIAL_FIELDS:
            block[name][row] = getattr(out, name)
    return block


def trial_outcomes(prep, trials, seed, workers=1, sample_quantization_noise=False):
    """Stacked per-trial outcome arrays, bit-identical for any worker count.

    Trials are keyed by their index through the RNG substream contract, and
    blocks are reassembled in index order, so splitting across processes
    cannot change any result.
    """
    indices = list(range(trials))
    if workers <= 1 or trials < 4:
        blocks = [_trial_block(prep, seed, indices, sample_quantization_noise)]
    else:
        n_blocks = min(workers * 4, trials)
        splits = np.array_split(np.asarray(indices), n_blocks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_trial_block, prep, seed, list(split),
                                   sample_quantization_noise)
                       for split in splits if len(split)]
            blocks = [f.result() for f in futures]
    return {name: np.concatenate([b[name] for b in blocks], axis=0)
            for name in _TRIAL_FIELDS}


def ergodic_sum_rate_mc(scenario, trials=None, seed=None, workers=1,
                        sample_quantization_noise=False, prep=None):
    """Monte Carlo ergodic sum rate with a 95% confidence halfwidth."""
    if scenario.K == 0:
        return analysis._empty_report(scenario.mu, "monte-carlo")
    trials = scenario.trials if trials is None else int(trials)
    seed = scenario.seed if seed is None else int(seed)
    if prep is None:
        prep = prepare(scenario)
    stacks = trial_outcomes(prep, trials, seed, workers=workers,
                            sample_quantization_noise=sample_quantization_noise)
    sinr = stacks["signal"] / (stacks["interference"] + stacks["noise_relay"]
                               + stacks["noise_bs"])
    per_trial_sum = np.log2(1.0 + sinr).sum(axis=1)
    mu = scenario.mu
    sum_rate = float(mu * per_trial_sum.mean())
    if trials > 1:
        ci = float(1.96 * mu * per_trial_sum.std(ddof=1) / np.sqrt(trials))
    else:
        ci = float("nan")
    per_user = mu * np.log2(1.0 + sinr).mean(axis=0)
    return analysis.RateReport(
        signal=stacks["signal"].mean(axis=0),
        interference=stacks["interference"].mean(axis=0),
        noise_relay=stacks["noise_relay"].mean(axis=0),
        noise_bs=stacks["noise_bs"].mean(axis=0),
        per_user_rate=per_user, sum_rate=sum_rate, mu=mu,
        kappa=prep.kappa, chi=prep.chi, provenance="monte-carlo",
        ci_halfwidth=ci, trials=trials)


def amplification_factor_mc(scenario, trials=2000, seed=None, prep=None):
    """Monte Carlo estimate of the relay amplification factor.

    Samples the three power expectations in the relay constraint over
    equivalent-form channel draws with the matched-filter combiner.
    """
    seed = scenario.seed if seed is None else int(seed)
    if prep is None:
        prep = prepare(scenario)
    scn = prep.scenario
    k = scn.K
    n = prep.sqrt_recv1_hat.shape[0]
    gains_hat = prep.hop1.gains_hat
    gains_err = prep.hop1.gains_err
    adc1 = scn.adc1
    signal = quant = noise = 0.0
    for t in range(trials):
        rng = substream(seed, "amplification", t)
        f_hat = left_multiply(prep.sqrt_recv1_hat, complex_normal(rng, (n, k))) * np.sqrt(gains_hat)
        f_err = left_multiply(prep.sqrt_recv1_err, complex_normal(rng, (n, k))) * np.sqrt(gains_err)
        f_full = f_hat + f_err
        cross = f_hat.conj().T @ f_full
        signal += float(np.vdot(cross, cross).real)
        row_energy = np.sum(np.abs(f_full) ** 2, axis=1)
        quant += float(np.sum(np.abs(f_hat.T) ** 2 @ row_energy[:, None]))
        noise += float(np.vdot(f_hat, f_hat).real)
    signal /= trials
    quant /= trials
    noise /= trials
    denom = (adc1.alpha ** 2 * scn.P_U * signal
             + adc1.alpha * (1.0 - adc1.alpha) * scn.P_U * quant
             + adc1.alpha * scn.sigma_R2 * noise)
    return float(np.sqrt(scn.P_R / denom))
