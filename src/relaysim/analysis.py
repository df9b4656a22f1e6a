"""Closed-form per-user rate terms, separable-moment identities, asymptotics.

The closed forms are deterministic: given the per-hop estimate models, each
per-user power in the post-combining SINR (desired signal, estimation-error
leakage plus cross-user interference, relay-side noise carried through the
second hop, destination-side noise) reduces to traces, Frobenius norms, and
diagonals of the model matrices, and so does the relay's amplification
factor kappa. The same identities double as Monte Carlo oracles for the
trial engine. The one sampler here, lemma1_moments_mc, is Lemma 1's own
Monte Carlo oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import config as cfg
from .channel import complex_stack, draw_hop, mean_and_stderr, sample
from .correlation import exponential_split_diagonals
from .errors import NumericalError


# ---------------------------------------------------------------------------
# separable-channel moment identities (Y = P X Q, X iid CN(0, 1))

def lemma1_moments(p_mat, q_mat, i, j):
    """Closed-form second and fourth moments of Y = P X Q for column pair
    (i, j), keyed by name:

    inner_first   E{y_i^H y_j}
    inner_second  E{|y_i^H y_j|^2}
    row_first     E{conj(Y[m, i]) Y[m, j]} for every row m
    row_second    E{|Y[m, i]|^2 |Y[m, j]|^2} for every row m

    With rho = Q^H Q and left Gram diag taken from P P^H (reduces to the
    P^H P diagonal whenever P is Hermitian, which covers every use of a PSD
    square root in this package):

    (i)  E{y_i^H y_j} = rho_ij tr(P^H P)
    (ii) E{|y_i^H y_j|^2} = |rho_ij|^2 tr(P^H P)^2 + rho_ii rho_jj ||P^H P||_F^2
    (iii) E{conj(y_mi) y_mj} = rho_ij (P P^H)_mm and
          E{|y_mi|^2 |y_mj|^2} = (P P^H)_mm^2 (rho_ii rho_jj + |rho_ij|^2)
    """
    p_mat = np.asarray(p_mat, dtype=np.complex128)
    q_mat = np.asarray(q_mat, dtype=np.complex128)
    gram = p_mat.conj().T @ p_mat
    rho = q_mat.conj().T @ q_mat
    tr_gram = float(np.trace(gram).real)
    fro_gram = float(np.vdot(gram, gram).real)
    left_diag = np.sum(np.abs(p_mat) ** 2, axis=1)       # diag(P P^H)
    rho_ij = complex(rho[i, j])
    rho_ii = float(rho[i, i].real)
    rho_jj = float(rho[j, j].real)
    return dict(
        inner_first=rho_ij * tr_gram,
        inner_second=float(abs(rho_ij) ** 2 * tr_gram ** 2 + rho_ii * rho_jj * fro_gram),
        row_first=rho_ij * left_diag,
        row_second=left_diag ** 2 * (rho_ii * rho_jj + abs(rho_ij) ** 2))


def lemma1_moments_mc(p_mat, q_mat, i, j, draws, rng):
    """Monte Carlo counterpart of lemma1_moments: (means, standard errors)
    over draws samples of Y = P X Q, as two dicts keyed like it.

    Samples take the trial engines' path: rng fills each chunk of
    channel.sample, one draw of X per row (real parts, then imaginary
    parts), and Y comes out of channel.draw_hop, so the oracle checks that
    sampler against the closed form too.
    """
    shape = (p_mat.shape[1], q_mat.shape[0])

    def stage(re, im):
        y = draw_hop(p_mat, q_mat, 1.0, complex_stack(re, im)).transpose(1, 0, 2)
        rows = np.conj(y[:, :, i]) * y[:, :, j]
        inner = np.sum(rows, axis=1)
        return dict(inner_first=inner, inner_second=np.abs(inner) ** 2, row_first=rows,
                    row_second=np.abs(y[:, :, i]) ** 2 * np.abs(y[:, :, j]) ** 2)

    stacks = sample([shape] * 2, draws, lambda rows, _: rng.standard_normal(out=rows), stage)
    stats = {name: mean_and_stderr(stack) for name, stack in stacks.items()}
    return ({name: mean for name, (mean, _) in stats.items()},
            {name: se for name, (_, se) in stats.items()})


# ---------------------------------------------------------------------------
# moments from each model's receive sums and transmit diagonals

def _receive_sums(model):
    """tr(receive_hat), ||receive_hat||_F^2, tr(receive_hat @ receive_err)
    and the sums of diag(receive_hat)^2 and diag(receive_hat) diag(receive_err)
    of one model, from its split and one O(n) pivot sweep."""
    f, g = model.split
    diag_hat, diag_err = exponential_split_diagonals(model.hop.r, model.hop.n, *model.obs)
    return (float(f.sum()), float(f @ f), float(f @ g),
            float(np.sum(diag_hat ** 2)), float(np.sum(diag_hat * diag_err)))


def moments(hop1, hop2, scenario):
    """The ten per-user moments: the expectations over the channel of the
    trial engine's raw fields of the same names (link._combine), with
    A_k = g_hat_k^H G F_hat^H. Seven make up the post-combining SINR:

      desired_raw     E{|g_hat_k^H G_hat F_hat^H f_hat_k|^2}
      leakage_raw     E{|A_k f_k - g_hat_k^H G_hat F_hat^H f_hat_k|^2}
      cross_raw       sum over j != k of E{|A_k f_j|^2}
      chain_raw       E{||A_k||^2}
      relay_quant_raw E{|A_k n_q1|^2}, relay quantization noise
      bs_vector_raw   E{||g_hat_k||^2}
      bs_quant_raw    E{|g_hat_k^H n_q2|^2}, destination quantization noise

    and three, first-hop powers of the relay's combined signal, fix kappa:

      kappa_signal_raw  sum over j of E{|f_hat_k^H f_j|^2}
      kappa_quant_raw   E{sum_n |f_hat[n, k]|^2 ||f[n, :]||^2}
      kappa_noise_raw   E{||f_hat_k||^2}

    The hop-2 pair matrix pair[k, i] = E{|g_hat_k^H g_hat_i|^2} / gain^2 is
    formed once. The cross matrix E{|A_k f_j|^2} over (k, j) is the sum of
    an own part, from the estimates alone, and an error part, from the
    estimation errors of either hop; their diagonals are the desired signal
    and the leakage.
    """
    tr1, fro1, cross1, diag_sq1, diag_mix1 = _receive_sums(hop1)
    tr2, fro2, cross2, diag_sq2, diag_mix2 = _receive_sums(hop2)
    # contiguous copies: numpy rounds sums over np.diag's strided views differently
    bh, bt, th, te = (np.diag(t).real.copy() for model in (hop1, hop2)
                      for t in (model.transmit_hat, model.transmit_err))
    g2 = hop2.hop.gain ** 2
    abs_sq = np.abs(hop2.transmit_hat) ** 2
    pair = abs_sq * tr2 ** 2 + np.outer(th, th) * fro2
    pair_full = pair + np.outer(th, te) * cross2     # true g_i on the right
    pair_b = pair @ bh
    pair_full_b = pair_full @ bh
    err_mix = float(te @ bh)
    own = g2 * (pair * bh ** 2 * tr1 ** 2 + np.outer(pair_b, bh) * fro1)
    err = g2 * (np.outer(pair_b, bt) * cross1
                + np.outer(th, te * bh ** 2 * tr1 ** 2
                           + (bh * fro1 + bt * cross1) * err_mix) * cross2)
    cross = own + err
    chain = g2 * tr1 * pair_full_b
    sum_bh, sum_bt = float(bh.sum()), float(bt.sum())
    relay_quant = g2 * (diag_sq1 * (pair_full @ (bh * (bh + sum_bh)))
                        + diag_mix1 * sum_bt * pair_full_b)
    bs_vector = hop2.hop.gain * th * tr2
    bs_quant = g2 * (diag_sq2 * (abs_sq.sum(axis=1) + th * th.sum())
                     + th * diag_mix2 * te.sum())
    a1, a2 = scenario.adc1.alpha, scenario.adc2.alpha
    return dict(
        desired_raw=np.diag(own), leakage_raw=np.diag(err),
        cross_raw=cross.sum(axis=1) - np.diag(cross), chain_raw=chain,
        relay_quant_raw=a1 * (1.0 - a1) * (scenario.P_U * relay_quant
                                           + scenario.sigma_R2 * chain),
        bs_vector_raw=bs_vector,
        bs_quant_raw=a2 * (1.0 - a2) * ((scenario.P_R / scenario.K) * bs_quant
                                        + scenario.sigma_B2 * bs_vector),
        kappa_signal_raw=bh * (bh * tr1 ** 2 + fro1 * sum_bh + cross1 * sum_bt),
        kappa_quant_raw=bh * ((bh + sum_bh) * diag_sq1 + sum_bt * diag_mix1),
        kappa_noise_raw=tr1 * bh)


def amplification_factor(scenario, raw):
    """Relay amplification factor kappa that meets the relay power
    constraint, from the three first-hop power moments of the combined
    signal in raw (kappa_signal_raw, kappa_quant_raw, kappa_noise_raw):
    per-user K-vectors of the closed form, or (trials, K) stacks of the
    trial engine, whose per-trial sums are averaged."""
    signal, quant, noise = (float(np.mean(np.sum(raw[name], axis=-1)))
                            for name in ("kappa_signal_raw", "kappa_quant_raw",
                                         "kappa_noise_raw"))
    a1 = scenario.adc1.alpha
    denom = (a1 ** 2 * scenario.P_U * signal
             + a1 * (1.0 - a1) * scenario.P_U * quant
             + a1 * scenario.sigma_R2 * noise)
    if denom <= 0.0:
        raise ZeroDivisionError("amplification denominator is non-positive")
    return float(np.sqrt(scenario.P_R / denom))


# ---------------------------------------------------------------------------
# per-user SINR terms and reports

def chi_factor(scenario, kappa):
    """chi = alpha1^2 alpha2^2 kappa^2 P_U, the scale of the desired signal
    and of the interference."""
    return scenario.adc1.alpha ** 2 * scenario.adc2.alpha ** 2 * kappa ** 2 * scenario.P_U


def sinr_terms(raw, scenario, kappa):
    """(signal, interference, noise_relay, noise_bs), keyed by name, from
    the seven SINR moments of raw: closed-form K-vectors or (b, K) trial
    stacks."""
    a1, a2 = scenario.adc1.alpha, scenario.adc2.alpha
    chi = chi_factor(scenario, kappa)
    return dict(
        signal=chi * raw["desired_raw"],
        interference=chi * (raw["leakage_raw"] + raw["cross_raw"]),
        noise_relay=(a1 ** 2 * a2 ** 2 * kappa ** 2 * scenario.sigma_R2 * raw["chain_raw"]
                     + a2 ** 2 * kappa ** 2 * raw["relay_quant_raw"]),
        noise_bs=a2 ** 2 * scenario.sigma_B2 * raw["bs_vector_raw"] + raw["bs_quant_raw"])


def sinr_of(terms):
    """Post-combining SINR of the four terms keyed as sinr_terms keys them;
    a SINR whose interference and noise all underflow to zero is refused."""
    rest = terms["interference"] + terms["noise_relay"] + terms["noise_bs"]
    if np.any(rest == 0.0):
        raise NumericalError(f"SINR {np.max(terms['signal'][rest == 0.0]):g}/0: its "
                             "interference and noise terms all underflow to zero")
    return terms["signal"] / rest


@dataclass(frozen=True)
class RateReport:
    """Sum-rate result with its per-user decomposition."""

    signal: np.ndarray
    interference: np.ndarray
    noise_relay: np.ndarray
    noise_bs: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float
    kappa: float
    ci_halfwidth: float = 0.0

    def sinr(self):
        return sinr_of(vars(self))


def sum_rate_approx(scenario, models=None):
    """Closed-form ergodic sum-rate approximation for a scenario: the SINR
    terms of the separable moments, and the rates they give at pre-log
    factor mu.

    Uses the scenario's CSI mode: LMMSE equivalent-form models by default,
    genie models when scenario.csi == "perfect". Either way each receive
    array enters through its eigenvalues and two O(n) pivot sweeps, so the
    closed form stays cheap at antenna counts in the thousands.
    """
    hop1, hop2 = cfg.scenario_models(scenario) if models is None else models
    raw = moments(hop1, hop2, scenario)
    kappa = amplification_factor(scenario, raw)
    terms = sinr_terms(raw, scenario, kappa)
    per_user = scenario.mu * np.log2(1.0 + sinr_of(terms))
    return RateReport(**terms, per_user_rate=per_user, sum_rate=float(per_user.sum()),
                      kappa=kappa)


# ---------------------------------------------------------------------------
# power-scaling asymptotics

def power_scaling_limit(scenario):
    """(regime, limits): the large-N per-user SINR limits of the scenario,
    whose powers scale as P_U = E_U / N^a and P_R = E_R / M^b, under genie
    CSI and vanishing transmit correlation on the selected relay antennas.

    The regime depends on (a, b) alone, so one regime holds for every user.
    limits is a length-K float64 array from the scenario's user gains:
    zeros when the regime is vanishing, inf when it is unbounded.
    """
    a, b = scenario.a, scenario.b
    if a > 1.0 or b > 1.0:
        return "vanishing", np.zeros(scenario.K)
    if a < 1.0 and b < 1.0:
        return "unbounded", np.full(scenario.K, np.inf)
    gains = scenario.user_gains()
    a1, a2 = scenario.adc1.alpha, scenario.adc2.alpha
    relay_gain, e_u, e_r = scenario.relay_gain(), scenario.E_U, scenario.E_R
    relay_noise_var, bs_noise_var = scenario.sigma_R2, scenario.sigma_B2
    sum_g, sum_sq = float(np.sum(gains)), float(np.sum(gains ** 2))

    def each(limit):
        # one user at a time in Python floats: numpy's beta ** 2 over the
        # array can round one ulp away from the scalar power
        return np.array([limit(float(beta)) for beta in gains])

    if a < 1.0:         # b == 1
        return "relay-limited", each(
            lambda beta: a2 * beta ** 2 * relay_gain * e_r / (bs_noise_var * sum_sq))
    if b < 1.0:         # a == 1
        return "user-limited", each(lambda beta: a1 * beta * e_u / relay_noise_var)
    return "jointly-limited", each(
        lambda beta: a1 * a2 * beta ** 2 * relay_gain * e_u * e_r
        / (a2 * beta * relay_gain * relay_noise_var * e_r
           + bs_noise_var * (a1 * e_u * sum_sq + relay_noise_var * sum_g)))


def asymptotic_sum_rate(scenario):
    """mu * sum_k log2(1 + limit_k); inf when the limits are unbounded."""
    _, limits = power_scaling_limit(scenario)
    return float(scenario.mu * sum(np.log2(1.0 + limit) for limit in limits))
