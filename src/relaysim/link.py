"""Monte Carlo trial engine for the two-hop quantized relay uplink.

Each trial draws the per-hop channel estimates and errors from their
equivalent-form distributions, forms the matched-filter combiners from the
estimates, and accumulates the per-user powers in the post-combining SINR.
Thermal and quantization noise enter in conditional expectation given the
channel draw (quadratic forms against the diagonal AQNM covariances);
sample_quantization_noise=True instead draws the quantization noise.

Trials run in chunks of channel.chunk_size trials, each in two stages. The
draw stage fills one row of standard normals per trial from the trial's
own substream (seed, "rate-trial", index), in the order the trial consumes
them. The combine stage maps the chunk to outcomes: each receive square
root meets all its trials as one GEMM, the Gram products and diagonals run
on (b, ., .) stacks. Chunks start at multiples of the chunk size and the
last one is padded with rows of zeros, so a trial's arithmetic depends on
its index alone, never on the trial count or on the worker count.
"""

from dataclasses import dataclass
import sys

import numpy as np

from . import analysis
from . import config as cfg
from .channel import (chunk_size, complex_stack, draw_hop, left_multiply,
                      normals_per_trial, split_normals, substream)
from .errors import ConfigError


@dataclass(frozen=True)
class PreparedScenario:
    """Scenario plus exactly what trials read: the receive square-root
    factors of both hops, the first hop's per-user amplitudes, the second
    hop's transmit square roots and relay gain, kappa and chi. It is what
    every pool block is handed, so it carries no eigendata. An error's
    receive factor is None where that error is exactly zero (genie CSI):
    trials still draw its normals, but multiply nothing by zero."""

    scenario: object
    sqrt_recv1_hat: np.ndarray
    sqrt_recv1_err: object
    amp1_hat: np.ndarray
    amp1_err: np.ndarray
    sqrt_recv2_hat: np.ndarray
    sqrt_recv2_err: object
    sqrt_tx2_hat: np.ndarray
    sqrt_tx2_err: np.ndarray
    relay_gain: float
    kappa: float
    chi: float


def _error_root(root):
    return root if root.any() else None


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
    sqrt_tx2_hat, sqrt_tx2_err = hop2.transmit_sqrt()
    return PreparedScenario(
        scenario=scenario,
        sqrt_recv1_hat=sqrt_recv1_hat, sqrt_recv1_err=_error_root(sqrt_recv1_err),
        amp1_hat=np.sqrt(hop1.scalars.tx_hat_diag),
        amp1_err=np.sqrt(hop1.scalars.tx_err_diag),
        sqrt_recv2_hat=sqrt_recv2_hat, sqrt_recv2_err=_error_root(sqrt_recv2_err),
        sqrt_tx2_hat=sqrt_tx2_hat, sqrt_tx2_err=sqrt_tx2_err,
        relay_gain=hop2.relay_gain, kappa=kappa, chi=chi)


def _trial_draws(prep, sample_quantization_noise=False):
    """Shapes of what one rate trial draws, in stream order: estimate then
    error, first hop then second, then the sampled quantization noise at
    the relay and at the base station (non-ideal ADCs only); each real
    parts first, then imaginary parts."""
    scn = prep.scenario
    n, m, k = prep.sqrt_recv1_hat.shape[0], prep.sqrt_recv2_hat.shape[0], scn.K
    draws = [(n, k)] * 4 + [(m, k)] * 4
    if sample_quantization_noise:
        for adc, rows in ((scn.adc1, n), (scn.adc2, m)):
            if not adc.is_ideal:
                draws += [(rows,)] * 2
    return draws


def _fill(normals, seed, tag, start, stop):
    """Draw stage: row i gets trial start + i's normals from its own
    substream, in one call; rows past the last trial are zero."""
    for row, index in zip(normals, range(start, stop)):
        substream(seed, tag, index).standard_normal(out=row)
    normals[stop - start:] = 0.0


def _receive_draw(root, re, im):
    """root @ CN(0, 1) for every trial of a chunk, (n, b, k); exact zeros
    without a GEMM where the root is None (a vanishing error)."""
    if root is None:
        return np.zeros((re.shape[1], len(re), re.shape[2]), dtype=np.complex128)
    return left_multiply(root, complex_stack(re, im))


def _first_hop(prep, parts):
    """(f_hat, f_err) stacks, (n, b, k), from the first hop's four parts."""
    f_hat = _receive_draw(prep.sqrt_recv1_hat, *parts[:2]) * prep.amp1_hat
    f_err = _receive_draw(prep.sqrt_recv1_err, *parts[2:4]) * prep.amp1_err
    return f_hat, f_err


def _second_hop(root, tx_sqrt, gain, re, im):
    if root is None:
        return _receive_draw(None, re, im)
    return draw_hop(root, tx_sqrt, gain, h=complex_stack(re, im))


def _channel_stacks(prep, parts):
    """(f_hat, f_err, g_hat, g_err), each (b, n, k) or (b, m, k), from the
    split normals of a chunk of rate trials."""
    f_hat, f_err = _first_hop(prep, parts)
    g_hat = _second_hop(prep.sqrt_recv2_hat, prep.sqrt_tx2_hat, prep.relay_gain, *parts[4:6])
    g_err = _second_hop(prep.sqrt_recv2_err, prep.sqrt_tx2_err, prep.relay_gain, *parts[6:8])
    return tuple(x.transpose(1, 0, 2) for x in (f_hat, f_err, g_hat, g_err))


def _sampled_noise(var, re, im):
    """(b, n, 1) complex noise of per-element variance var (b, n)."""
    return (np.sqrt(var / 2.0) * (re + 1j * im))[..., None]


def _combine(prep, parts):
    """Combine stage: every outcome field, (b, K), of a chunk of trials."""
    scn = prep.scenario
    k = scn.K
    f_hat, f_err, g_hat, g_err = _channel_stacks(prep, parts)
    f_full = f_hat + f_err
    g_full = g_hat + g_err

    g_hat_h = g_hat.conj().swapaxes(1, 2)
    f_hat_h = f_hat.conj().swapaxes(1, 2)
    gram_g = g_hat_h @ g_full                   # k x k: g_hat_k^H g_j
    gram_g_hat = g_hat_h @ g_hat
    chain_est = gram_g_hat @ (f_hat_h @ f_hat)  # desired amplitudes on diag
    half_chain = gram_g @ f_hat_h               # k x n
    chain_full = half_chain @ f_full            # k x k: g_hat_k^H G F_hat^H f_j

    est_diag = np.diagonal(chain_est, axis1=1, axis2=2)
    desired_raw = np.abs(est_diag) ** 2
    leakage_raw = np.abs(np.diagonal(chain_full, axis1=1, axis2=2) - est_diag) ** 2
    cross_abs = np.abs(chain_full) ** 2
    cross_raw = cross_abs.sum(axis=2) - np.diagonal(cross_abs, axis1=1, axis2=2)
    chain_raw = np.sum(np.abs(half_chain) ** 2, axis=2)
    bs_vector_raw = np.sum(np.abs(g_hat) ** 2, axis=1)

    adc1, adc2 = scn.adc1, scn.adc2
    relay_row_power = scn.P_U * np.sum(np.abs(f_full) ** 2, axis=2) + scn.sigma_R2
    bs_row_power = (scn.P_R / k) * np.sum(np.abs(g_full) ** 2, axis=2) + scn.sigma_B2
    relay_var = adc1.alpha * adc1.rho * relay_row_power
    bs_var = adc2.alpha * adc2.rho * bs_row_power
    sampled = parts[8:]         # drawn quantization noise, relay's first
    if sampled and not adc1.is_ideal:
        nq1 = _sampled_noise(relay_var, *sampled[:2])
        sampled = sampled[2:]
        relay_quant_raw = np.abs(half_chain @ nq1)[..., 0] ** 2
    else:
        relay_quant_raw = (np.abs(half_chain) ** 2 @ relay_var[..., None])[..., 0]
    if sampled:
        nq2 = _sampled_noise(bs_var, *sampled)
        bs_quant_raw = np.abs(g_hat_h @ nq2)[..., 0] ** 2
    else:
        bs_quant_raw = (np.abs(g_hat.swapaxes(1, 2)) ** 2 @ bs_var[..., None])[..., 0]

    a1, a2 = adc1.alpha, adc2.alpha
    kappa2 = prep.kappa ** 2
    return dict(
        desired_raw=desired_raw, leakage_raw=leakage_raw, cross_raw=cross_raw,
        chain_raw=chain_raw, relay_quant_raw=relay_quant_raw,
        bs_vector_raw=bs_vector_raw, bs_quant_raw=bs_quant_raw,
        signal=prep.chi * desired_raw,
        interference=prep.chi * (leakage_raw + cross_raw),
        noise_relay=(a1 ** 2 * a2 ** 2 * kappa2 * scn.sigma_R2 * chain_raw
                     + a2 ** 2 * kappa2 * relay_quant_raw),
        noise_bs=a2 ** 2 * scn.sigma_B2 * bs_vector_raw + bs_quant_raw)


_TRIAL_FIELDS = ("desired_raw", "leakage_raw", "cross_raw", "chain_raw",
                 "relay_quant_raw", "bs_vector_raw", "bs_quant_raw",
                 "signal", "interference", "noise_relay", "noise_bs")


def _trial_block(prep, seed, trials, size, starts, sample_quantization_noise):
    """Outcome arrays of the chunks of size trials that begin at starts, out
    of trials in all (worker entry point)."""
    draws = _trial_draws(prep, sample_quantization_noise)
    normals = np.empty((size, normals_per_trial(draws)))
    rows = sum(min(size, trials - start) for start in starts)
    block = {name: np.empty((rows, prep.scenario.K)) for name in _TRIAL_FIELDS}
    row = 0
    for start in starts:
        count = min(size, trials - start)
        _fill(normals, seed, "rate-trial", start, start + count)
        out = _combine(prep, split_normals(normals, *draws))
        for name in _TRIAL_FIELDS:
            block[name][row:row + count] = out[name][:count]
        row += count
    return block


def trial_outcomes(prep, trials, seed, workers=1, sample_quantization_noise=False):
    """Stacked per-trial outcome arrays, bit-identical for any worker count.

    Trials are keyed by their index through the RNG substream contract, and
    run in fixed chunks that begin at multiples of the chunk size; pool
    blocks are runs of whole chunks, reassembled in index order, so
    splitting across processes cannot change any result.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be at least 1, got {workers}")
    size = chunk_size(_trial_draws(prep, sample_quantization_noise))
    starts = list(range(0, trials, size))
    if workers == 1 or len(starts) < 2:
        blocks = [_trial_block(prep, seed, trials, size, starts, sample_quantization_noise)]
    else:
        splits = np.array_split(np.asarray(starts), min(workers * 4, len(starts)))
        # looked up on the module, which imports it here on first use
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            futures = [pool.submit(_trial_block, prep, seed, trials, size,
                                   split.tolist(), sample_quantization_noise)
                       for split in splits]
            blocks = [f.result() for f in futures]
    return {name: np.concatenate([b[name] for b in blocks], axis=0)
            for name in _TRIAL_FIELDS}


def __getattr__(name):
    """Import the process pool on first use, so that a serial run never
    loads multiprocessing; once imported it stays a module attribute that
    callers may replace."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


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
    equivalent-form channel draws with the matched-filter combiner, in
    chunks like trial_outcomes (trial t draws from (seed, "amplification",
    t)).
    """
    seed = scenario.seed if seed is None else int(seed)
    if prep is None:
        prep = prepare(scenario)
    scn = prep.scenario
    adc1 = scn.adc1
    draws = _trial_draws(prep)[:4]
    size = chunk_size(draws)
    normals = np.empty((size, normals_per_trial(draws)))
    sums = np.zeros(3)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        _fill(normals, seed, "amplification", start, start + count)
        f_hat, f_err = (x.transpose(1, 0, 2)[:count] for x in
                        _first_hop(prep, split_normals(normals, *draws)))
        f_full = f_hat + f_err
        f_hat_h = f_hat.conj().swapaxes(1, 2)
        cross = f_hat_h @ f_full
        row_energy = np.sum(np.abs(f_full) ** 2, axis=2)
        sums += (np.sum(np.abs(cross) ** 2),
                 np.sum(np.abs(f_hat_h) ** 2 @ row_energy[..., None]),
                 np.sum(np.abs(f_hat) ** 2))
    signal, quant, noise = sums / trials
    denom = (adc1.alpha ** 2 * scn.P_U * signal
             + adc1.alpha * (1.0 - adc1.alpha) * scn.P_U * quant
             + adc1.alpha * scn.sigma_R2 * noise)
    return float(np.sqrt(scn.P_R / denom))
