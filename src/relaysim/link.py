"""Monte Carlo trial engine for the two-hop quantized relay uplink.

Each trial draws the per-hop channel estimates and errors from their
equivalent-form distributions, with the square-root factors that
estimation.model_factors builds once per trial_outcomes call, forms the
matched-filter combiners from the estimates, and samples the raw moments
of the SINR and of kappa whose expectations the closed form computes
(analysis.moments, same names). The closed form's own assemblies turn the
stacks into SINR terms at the closed-form kappa (analysis.sinr_terms) and
into a sampled kappa (analysis.amplification_factor). Thermal and
quantization noise enter in conditional expectation given the channel
draw (quadratic forms against the diagonal AQNM covariances), never drawn.

Trials run through channel.sample, each trial's row of normals from its
own substream (seed, "rate-trial", index). _channel_stacks draws each
hop's estimate and error from a chunk of rows by channel.draw_hop, each
receive square root meeting all its trials as one GEMM; _combine reads
those four stacks alone and returns the raw fields that sample stacks.
"""

import numpy as np

from . import analysis, estimation
from . import config as cfg
from .channel import complex_stack, draw_hop, mean_and_stderr, sample, substream


def _trial_draws(scn):
    """Shapes of what one rate trial draws, in stream order: estimate then
    error, first hop then second; each real parts first, then imaginary
    parts."""
    return [(scn.N, scn.K)] * 4 + [(scn.M, scn.K)] * 4


def _substreams(seed):
    """Fill for channel.sample: row i gets trial start + i's normals from
    its own substream (seed, "rate-trial", start + i), in one call."""
    def fill(rows, start):
        for index, row in enumerate(rows, start):
            substream(seed, "rate-trial", index).standard_normal(out=row)
    return fill


def _channel_stacks(factors, parts):
    """(f_hat, f_err, g_hat, g_err), each (b, n, k) or (b, m, k), from the
    split normals of a chunk of rate trials (_trial_draws), drawn by draw_hop
    with one (receive root, transmit root, gain) of factors each; exact
    zeros, without a GEMM, where the root is None (genie CSI's error)."""
    return tuple(np.zeros(re.shape, dtype=np.complex128) if root is None else
                 draw_hop(root, tx_sqrt, gain, h=complex_stack(re, im)).transpose(1, 0, 2)
                 for (root, tx_sqrt, gain), re, im in zip(factors, parts[0::2], parts[1::2]))


def _combine(scn, f_hat, f_err, g_hat, g_err):
    """Combine stage: the raw fields, (b, K), of a chunk's channel stacks."""
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

    # the first hop's powers of the relay's combined signal F_hat^H r
    kappa_signal_raw = np.sum(np.abs(f_hat_h @ f_full) ** 2, axis=2)
    f_row_energy = np.sum(np.abs(f_full) ** 2, axis=2)
    kappa_quant_raw = (np.abs(f_hat_h) ** 2 @ f_row_energy[..., None])[..., 0]
    kappa_noise_raw = np.sum(np.abs(f_hat) ** 2, axis=1)

    adc1, adc2 = scn.adc1, scn.adc2
    relay_row_power = scn.P_U * f_row_energy + scn.sigma_R2
    bs_row_power = (scn.P_R / scn.K) * np.sum(np.abs(g_full) ** 2, axis=2) + scn.sigma_B2
    relay_var = adc1.alpha * adc1.rho * relay_row_power
    bs_var = adc2.alpha * adc2.rho * bs_row_power
    relay_quant_raw = (np.abs(half_chain) ** 2 @ relay_var[..., None])[..., 0]
    bs_quant_raw = (np.abs(g_hat.swapaxes(1, 2)) ** 2 @ bs_var[..., None])[..., 0]

    return dict(
        desired_raw=desired_raw, leakage_raw=leakage_raw, cross_raw=cross_raw,
        chain_raw=chain_raw, relay_quant_raw=relay_quant_raw,
        bs_vector_raw=bs_vector_raw, bs_quant_raw=bs_quant_raw,
        kappa_signal_raw=kappa_signal_raw, kappa_quant_raw=kappa_quant_raw,
        kappa_noise_raw=kappa_noise_raw)


def trial_outcomes(scenario, models):
    """Stacked per-trial outcome arrays over the scenario's trials and seed:
    the raw fields of the closed form's moments (analysis.moments), the four
    SINR terms they give, and the closed-form kappa those terms use.

    Trials are keyed by their index through the RNG substream contract and
    run through channel.sample, which stacks the ten raw fields _combine
    returns under their own names.
    """
    kappa = analysis.amplification_factor(scenario, analysis.moments(*models, scenario))
    # built here, not in the first chunk's stage, which raised peak RSS 0.6 MB
    factors = [(root, tx_sqrt, model.hop.gain) for model in models
               for root, tx_sqrt in zip(*estimation.model_factors(model))]
    raw = sample(_trial_draws(scenario), scenario.trials, _substreams(scenario.seed),
                 lambda *parts: _combine(scenario, *_channel_stacks(factors, parts)))
    return dict(raw, **analysis.sinr_terms(raw, scenario, kappa), kappa=kappa)


def ergodic_sum_rate_mc(scenario, models=None):
    """Monte Carlo ergodic sum rate with a 95% confidence halfwidth over the
    scenario's trials and seed, drawn from its estimate models (built here
    unless given)."""
    models = cfg.scenario_models(scenario) if models is None else models
    stacks = trial_outcomes(scenario, models)
    rates = np.log2(1.0 + analysis.sinr_of(stacks))
    mu = scenario.mu
    mean, ci = mean_and_stderr(rates.sum(axis=1), 1.96 * mu)
    return analysis.RateReport(
        **{name: stacks[name].mean(axis=0)
           for name in ("signal", "interference", "noise_relay", "noise_bs")},
        per_user_rate=mu * rates.mean(axis=0), sum_rate=float(mu * mean),
        kappa=stacks["kappa"], ci_halfwidth=float(ci))
