"""Closed-form per-user rate terms, separable-moment identities, asymptotics.

Everything here is deterministic: given the per-hop estimate models, each
per-user power in the post-combining SINR (desired signal, estimation-error
leakage plus cross-user interference, relay-side noise carried through the
second hop, destination-side noise) reduces to traces, Frobenius norms, and
diagonals of the model matrices. The same identities double as Monte Carlo
oracles for the trial engine.
"""

from dataclasses import dataclass, field

import numpy as np

from . import config as cfg
from .channel import complex_normal


# ---------------------------------------------------------------------------
# separable-channel moment identities (Y = P X Q, X iid CN(0, 1))

@dataclass(frozen=True)
class Lemma1Moments:
    """Analytic moments of Y = P X Q for column pair (i, j).

    inner_first  = E{y_i^H y_j}
    inner_second = E{|y_i^H y_j|^2}
    row_first[m]  = E{conj(Y[m, i]) Y[m, j]}
    row_second[m] = E{|Y[m, i]|^2 |Y[m, j]|^2}
    """

    inner_first: complex
    inner_second: float
    row_first: np.ndarray
    row_second: np.ndarray


def lemma1_moments(p_mat, q_mat, i, j):
    """Closed-form second and fourth moments of Y = P X Q.

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
    inner_first = rho_ij * tr_gram
    inner_second = abs(rho_ij) ** 2 * tr_gram ** 2 + rho_ii * rho_jj * fro_gram
    row_first = rho_ij * left_diag
    row_second = left_diag ** 2 * (rho_ii * rho_jj + abs(rho_ij) ** 2)
    return Lemma1Moments(inner_first=inner_first, inner_second=float(inner_second),
                         row_first=row_first, row_second=row_second)


@dataclass(frozen=True)
class Lemma1MonteCarlo:
    """Sample estimates of the Lemma1Moments quantities, with standard errors."""

    inner_first: complex
    inner_first_se: float
    inner_second: float
    inner_second_se: float
    row_first: np.ndarray
    row_first_se: np.ndarray
    row_second: np.ndarray
    row_second_se: np.ndarray
    draws: int


def lemma1_moments_mc(p_mat, q_mat, i, j, draws, rng, chunk=20000):
    """Monte Carlo counterpart of lemma1_moments (chunked for memory)."""
    p_mat = np.asarray(p_mat, dtype=np.complex128)
    q_mat = np.asarray(q_mat, dtype=np.complex128)
    m = p_mat.shape[0]
    inner_dim = p_mat.shape[1]
    s_inner = 0.0 + 0.0j
    s_abs2 = 0.0
    s_abs2_sq = 0.0
    s_row = np.zeros(m, dtype=np.complex128)
    s_row_sq = np.zeros(m)
    s_row4 = np.zeros(m)
    s_row4_sq = np.zeros(m)
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        x = complex_normal(rng, (b, inner_dim, q_mat.shape[0]))
        y = (p_mat @ x) @ q_mat
        yi = y[:, :, i]
        yj = y[:, :, j]
        inner = np.sum(np.conj(yi) * yj, axis=1)
        s_inner += inner.sum()
        abs2 = np.abs(inner) ** 2
        s_abs2 += float(abs2.sum())
        s_abs2_sq += float(np.sum(abs2 ** 2))
        rowprod = np.conj(yi) * yj
        s_row += rowprod.sum(axis=0)
        s_row_sq += np.sum(np.abs(rowprod) ** 2, axis=0)
        row4 = (np.abs(yi) ** 2) * (np.abs(yj) ** 2)
        s_row4 += row4.sum(axis=0)
        s_row4_sq += np.sum(row4 ** 2, axis=0)
        done += b
    n = float(draws)

    def _se_complex(total, total_sq):
        mean = total / n
        var = max(total_sq / n - abs(mean) ** 2, 0.0)
        return mean, float(np.sqrt(var / n))

    def _se_real(total, total_sq):
        mean = total / n
        var = np.maximum(total_sq / n - mean ** 2, 0.0)
        return mean, np.sqrt(var / n)

    inner_mean, inner_se = _se_complex(s_inner, s_abs2)
    abs2_mean, abs2_se = _se_real(s_abs2, s_abs2_sq)
    row_mean = s_row / n
    row_var = np.maximum(s_row_sq / n - np.abs(row_mean) ** 2, 0.0)
    row_se = np.sqrt(row_var / n)
    row4_mean, row4_se = _se_real(s_row4, s_row4_sq)
    return Lemma1MonteCarlo(
        inner_first=complex(inner_mean), inner_first_se=inner_se,
        inner_second=float(abs2_mean), inner_second_se=float(abs2_se),
        row_first=row_mean, row_first_se=row_se,
        row_second=row4_mean, row_second_se=row4_se, draws=draws)


# ---------------------------------------------------------------------------
# moments from the per-model scalar summaries (EstimateModel.scalars)

def _pair_moment_matrix(h2):
    """gm[k, i] = E{|g_hat_k^H g_hat_i|^2} / gain^2 from the separable moments."""
    abs_sq = np.abs(h2.tx_hat) ** 2
    outer = np.outer(h2.tx_hat_diag, h2.tx_hat_diag)
    return abs_sq * h2.tr_hat ** 2 + outer * h2.fro_hat


def _pair_moment_full(h2):
    """Same with the true (estimate + error) column on the right side."""
    gm = _pair_moment_matrix(h2)
    return gm + np.outer(h2.tx_hat_diag, h2.tx_err_diag) * h2.cross


def desired_signal_moment(hop1, hop2):
    """E{|g_hat_k^H G_hat F_hat^H f_hat_k|^2}, per user."""
    h1, h2 = hop1.scalars, hop2.scalars
    bh = h1.tx_hat_diag
    gm = _pair_moment_matrix(h2)
    return h2.gain ** 2 * (np.diag(gm) * bh ** 2 * h1.tr_hat ** 2
                           + bh * h1.fro_hat * (gm @ bh))


def leakage_moment(hop1, hop2):
    """E{|B1|^2}: estimation-error leakage of the own-user chain, per user."""
    h1, h2 = hop1.scalars, hop2.scalars
    bh, bt = h1.tx_hat_diag, h1.tx_err_diag
    gm = _pair_moment_matrix(h2)
    th = h2.tx_hat_diag
    te = h2.tx_err_diag
    err_mix = float(te @ bh)
    return h2.gain ** 2 * (
        bt * h1.cross * (gm @ bh)
        + th * h2.cross * (te * bh ** 2 * h1.tr_hat ** 2 + bh * h1.fro_hat * err_mix)
        + th * bt * h2.cross * h1.cross * err_mix)


def cross_moment(hop1, hop2):
    """E{|g_hat_k^H G F_hat^H f_j|^2} as a K x K matrix over (k, j).

    Row k, column j gives the interference moment of user j's full channel
    through user k's combiners; the diagonal equals desired + leakage.
    """
    h1, h2 = hop1.scalars, hop2.scalars
    bh, bt = h1.tx_hat_diag, h1.tx_err_diag
    gm = _pair_moment_matrix(h2)
    th = h2.tx_hat_diag
    te = h2.tx_err_diag
    err_mix = float(te @ bh)
    gm_b = gm @ bh
    own = gm * (bh ** 2)[None, :] * h1.tr_hat ** 2
    shared = np.outer(gm_b, bh) * h1.fro_hat
    err_f = np.outer(gm_b, bt) * h1.cross
    err_g = np.outer(th, te * bh ** 2) * h2.cross * h1.tr_hat ** 2 \
        + np.outer(th, bh) * h2.cross * h1.fro_hat * err_mix
    err_both = np.outer(th, bt) * h2.cross * h1.cross * err_mix
    return h2.gain ** 2 * (own + shared + err_f + err_g + err_both)


def chain_norm_moment(hop1, hop2):
    """E{||g_hat_k^H G F_hat^H||^2}, per user."""
    h1, h2 = hop1.scalars, hop2.scalars
    bh = h1.tx_hat_diag
    gm = _pair_moment_matrix(h2)
    th = h2.tx_hat_diag
    te = h2.tx_err_diag
    return h2.gain ** 2 * h1.tr_hat * (gm @ bh + th * h2.cross * float(te @ bh))


def relay_quant_moment(hop1, hop2, adc1, data_power, relay_noise_var):
    """E{|g_hat_k^H G F_hat^H n_q1|^2}: relay quantization noise after combining."""
    h1, h2 = hop1.scalars, hop2.scalars
    bh, bt = h1.tx_hat_diag, h1.tx_err_diag
    gmf = _pair_moment_full(h2)
    sum_bh = float(bh.sum())
    sum_bt = float(bt.sum())
    s_hh = float(np.sum(h1.diag_hat ** 2))
    s_he = float(np.sum(h1.diag_hat * h1.diag_err))
    per_user = (s_hh * (gmf @ (bh * (bh + sum_bh)))
                + s_he * sum_bt * (gmf @ bh))
    bracket = h2.gain ** 2 * per_user
    chain = chain_norm_moment(hop1, hop2)
    return adc1.alpha * (1.0 - adc1.alpha) * (data_power * bracket
                                              + relay_noise_var * chain)


def bs_vector_moment(hop2):
    """E{||g_hat_k||^2}, per user."""
    h2 = hop2.scalars
    return h2.gain * h2.tx_hat_diag * h2.tr_hat


def bs_quant_moment(hop2, adc2, relay_power, bs_noise_var):
    """E{|g_hat_k^H n_q2|^2}: destination quantization noise after combining."""
    h2 = hop2.scalars
    k = h2.k
    th = h2.tx_hat_diag
    te = h2.tx_err_diag
    abs_sq = np.abs(h2.tx_hat) ** 2
    s_bb = float(np.sum(h2.diag_hat ** 2))
    s_be = float(np.sum(h2.diag_hat * h2.diag_err))
    inner = abs_sq.sum(axis=1) + th * th.sum()
    per_user = h2.gain ** 2 * (s_bb * inner + th * s_be * float(te.sum()))
    vec = bs_vector_moment(hop2)
    return adc2.alpha * (1.0 - adc2.alpha) * ((relay_power / k) * per_user
                                              + bs_noise_var * vec)


def kappa_closed_form(hop1, adc1, data_power, relay_power, relay_noise_var):
    """Relay amplification factor from the closed-form power expectations.

    The relay transmit power constraint fixes kappa through three traces of
    the combined first-hop signal: the matched-filtered signal energy, the
    quantization-noise energy, and the thermal-noise energy.
    """
    h1 = hop1.scalars
    bh, bt = h1.tx_hat_diag, h1.tx_err_diag
    sum_bh = float(bh.sum())
    sum_bt = float(bt.sum())
    signal = float(np.sum(bh * (bh * h1.tr_hat ** 2 + h1.fro_hat * sum_bh
                                + h1.cross * sum_bt)))
    s_hh = float(np.sum(h1.diag_hat ** 2))
    s_he = float(np.sum(h1.diag_hat * h1.diag_err))
    quant = float(np.sum(bh * ((bh + sum_bh) * s_hh + sum_bt * s_he)))
    noise = h1.tr_hat * sum_bh
    denom = (adc1.alpha ** 2 * data_power * signal
             + adc1.alpha * (1.0 - adc1.alpha) * data_power * quant
             + adc1.alpha * relay_noise_var * noise)
    if denom <= 0.0:
        raise ZeroDivisionError("amplification denominator is non-positive")
    return float(np.sqrt(relay_power / denom))


# ---------------------------------------------------------------------------
# per-user SINR terms and reports

@dataclass(frozen=True)
class RateTerms:
    """Per-user powers entering the SINR, plus the raw moments behind them."""

    signal: np.ndarray
    interference: np.ndarray
    noise_relay: np.ndarray
    noise_bs: np.ndarray
    moments: dict = field(default_factory=dict, repr=False)

    def sinr(self):
        return self.signal / (self.interference + self.noise_relay + self.noise_bs)


@dataclass(frozen=True)
class RateReport:
    """Sum-rate result with its per-user decomposition and provenance."""

    signal: np.ndarray
    interference: np.ndarray
    noise_relay: np.ndarray
    noise_bs: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float
    mu: float
    kappa: float
    chi: float
    provenance: str              # "closed-form" or "monte-carlo"
    ci_halfwidth: float = 0.0
    trials: int = 0

    def sinr(self):
        denom = self.interference + self.noise_relay + self.noise_bs
        return self.signal / denom


def rate_terms(hop1, hop2, adc1, adc2, data_power, relay_power,
               relay_noise_var, bs_noise_var, kappa):
    """Assemble the four per-user powers from the separable moments."""
    a1, a2 = adc1.alpha, adc2.alpha
    chi = a1 ** 2 * a2 ** 2 * kappa ** 2 * data_power
    desired = desired_signal_moment(hop1, hop2)
    leak = leakage_moment(hop1, hop2)
    cross = cross_moment(hop1, hop2)
    cross_sum = cross.sum(axis=1) - np.diag(cross)
    chain = chain_norm_moment(hop1, hop2)
    rq = relay_quant_moment(hop1, hop2, adc1, data_power, relay_noise_var)
    vec = bs_vector_moment(hop2)
    bq = bs_quant_moment(hop2, adc2, relay_power, bs_noise_var)
    signal = chi * desired
    interference = chi * (leak + cross_sum)
    noise_relay = (a1 ** 2 * a2 ** 2 * kappa ** 2 * relay_noise_var * chain
                   + a2 ** 2 * kappa ** 2 * rq)
    noise_bs = a2 ** 2 * bs_noise_var * vec + bq
    moments = {"desired": desired, "leakage": leak, "cross": cross,
               "chain_norm": chain, "relay_quant": rq, "bs_vector": vec,
               "bs_quant": bq}
    return RateTerms(signal=signal, interference=interference,
                     noise_relay=noise_relay, noise_bs=noise_bs,
                     moments=moments), chi


def report_from_terms(terms, mu, kappa, chi, provenance,
                      ci_halfwidth=0.0, trials=0):
    sinr = terms.sinr()
    per_user = mu * np.log2(1.0 + sinr)
    return RateReport(signal=terms.signal, interference=terms.interference,
                      noise_relay=terms.noise_relay, noise_bs=terms.noise_bs,
                      per_user_rate=per_user, sum_rate=float(per_user.sum()),
                      mu=mu, kappa=kappa, chi=chi, provenance=provenance,
                      ci_halfwidth=ci_halfwidth, trials=trials)


def _empty_report(mu, provenance):
    empty = np.zeros(0)
    return RateReport(signal=empty, interference=empty, noise_relay=empty,
                      noise_bs=empty, per_user_rate=empty, sum_rate=0.0,
                      mu=mu, kappa=0.0, chi=0.0, provenance=provenance)


def sum_rate_approx(scenario, models=None):
    """Closed-form ergodic sum-rate approximation for a scenario.

    Uses the scenario's CSI mode: LMMSE equivalent-form models by default,
    genie models when scenario.csi == "perfect". Genie models carry their
    receive scalars in closed form, so perfect CSI stays cheap at antenna
    counts in the thousands.
    """
    if scenario.K == 0:
        return _empty_report(scenario.mu, "closed-form")
    if models is None:
        hop1, hop2 = cfg.scenario_models(scenario)
    else:
        hop1, hop2 = models
    kappa = kappa_closed_form(hop1, scenario.adc1, scenario.P_U,
                              scenario.P_R, scenario.sigma_R2)
    terms, chi = rate_terms(hop1, hop2, scenario.adc1, scenario.adc2,
                            scenario.P_U, scenario.P_R, scenario.sigma_R2,
                            scenario.sigma_B2, kappa)
    return report_from_terms(terms, scenario.mu, kappa, chi, "closed-form")


# ---------------------------------------------------------------------------
# power-scaling asymptotics

@dataclass(frozen=True)
class AsymptoticLimit:
    """Limiting per-user SINR when P_U = E_U / N^a and P_R = E_R / M^b."""

    regime: str
    value: float
    zeta: float = None


def power_scaling_limit(gains, relay_gain, adc1, adc2, relay_noise_var,
                        bs_noise_var, a, b, e_u, e_r, user):
    """Large-N SINR limit for one user under genie CSI and vanishing
    transmit correlation on the selected relay antennas."""
    gains = np.asarray(gains, dtype=np.float64)
    beta = float(gains[user])
    a1, a2 = adc1.alpha, adc2.alpha
    if a < 0.0 or b < 0.0:
        raise ValueError("scaling exponents must be non-negative")
    if a > 1.0 or b > 1.0:
        return AsymptoticLimit(regime="vanishing", value=0.0)
    if a < 1.0 and b < 1.0:
        return AsymptoticLimit(regime="unbounded", value=float("inf"))
    if a < 1.0 and b == 1.0:
        value = a2 * beta ** 2 * relay_gain * e_r / (bs_noise_var * float(np.sum(gains ** 2)))
        return AsymptoticLimit(regime="relay-limited", value=float(value))
    if b < 1.0 and a == 1.0:
        value = a1 * beta * e_u / relay_noise_var
        return AsymptoticLimit(regime="user-limited", value=float(value))
    # a == b == 1
    zeta = (a2 * beta * relay_gain * relay_noise_var * e_r
            + bs_noise_var * (a1 * e_u * float(np.sum(gains ** 2))
                              + relay_noise_var * float(np.sum(gains))))
    value = a1 * a2 * beta ** 2 * relay_gain * e_u * e_r / zeta
    return AsymptoticLimit(regime="jointly-limited", value=float(value),
                           zeta=float(zeta))


def asymptotic_sum_rate(scenario):
    """mu * sum_k log2(1 + limit_k); inf when any user's limit is unbounded."""
    gains = scenario.user_gains()
    total = 0.0
    for k in range(scenario.K):
        lim = power_scaling_limit(gains, scenario.relay_gain(), scenario.adc1,
                                  scenario.adc2, scenario.sigma_R2,
                                  scenario.sigma_B2, scenario.a, scenario.b,
                                  scenario.E_U, scenario.E_R, k)
        if np.isinf(lim.value):
            return float("inf")
        total += np.log2(1.0 + lim.value)
    return float(scenario.mu * total)
