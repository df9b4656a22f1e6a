"""LMMSE channel estimation through low-resolution ADCs, per hop.

Both hops share the same structure: orthogonal pilots are transmitted, the
receiver quantizes (AQNM), despreads with the conjugate pilot matrix, and
applies the LMMSE filter built from the observation covariance. The
resulting estimate and its error are each distributed as a separable
correlated Rayleigh channel ("equivalent form"), with receive-side matrices
splitting the true receive correlation and transmit-side matrices scaled so
the per-user energy budget is conserved exactly. Rate analysis and Monte
Carlo trials both consume that equivalent form, via EstimateModel.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import complex_normal, draw_first_hop, draw_second_hop, left_multiply
from .correlation import psd_sqrt
from .errors import DegenerateEstimateError, IllConditionedError
from .quantizer import aqnm_quantize

# refuse to build LMMSE filters from observation covariances with a worse
# spectral condition number than this
MAX_CONDITION = 1e14


@dataclass(frozen=True)
class PilotConfig:
    """Pilot lengths, powers, and the orthonormal pilot matrices."""

    tau1: int
    tau2: int
    power1: float
    power2: float
    phi: np.ndarray       # tau1 x K, phi^H phi = I
    theta: np.ndarray     # tau2 x K, theta^H theta = I

    @classmethod
    def build(cls, tau1, tau2, power1, power2, n_users):
        return cls(tau1=int(tau1), tau2=int(tau2),
                   power1=float(power1), power2=float(power2),
                   phi=orthonormal_pilots(tau1, n_users),
                   theta=orthonormal_pilots(tau2, n_users))

    def __post_init__(self):
        for name, mat, tau in (("phi", self.phi, self.tau1),
                               ("theta", self.theta, self.tau2)):
            if mat.shape[0] != tau:
                raise ValueError(f"{name} must have {tau} rows, got {mat.shape[0]}")
            gram = mat.conj().T @ mat
            if not np.allclose(gram, np.eye(mat.shape[1]), atol=1e-12):
                raise ValueError(f"{name} columns are not orthonormal")
        if self.power1 <= 0.0 or self.power2 <= 0.0:
            raise ValueError("pilot powers must be positive")


def orthonormal_pilots(tau, n_users):
    """First n_users columns of the unitary tau-point DFT matrix."""
    tau = int(tau)
    n_users = int(n_users)
    if n_users < 0 or tau < max(n_users, 1):
        raise ValueError(f"pilot length {tau} cannot carry {n_users} orthogonal pilots")
    t = np.arange(tau)[:, None]
    k = np.arange(n_users)[None, :]
    return np.exp(-2j * np.pi * t * k / tau) / np.sqrt(tau)


class _HopScalars:
    """Traces, norms, and diagonals of one model's receive split, read off
    its eigendata, plus its transmit side: every scalar the closed forms
    consume."""

    def __init__(self, model):
        f, g = model.spectrum_hat, model.spectrum_err
        self.tr_hat = float(f.sum())
        self.fro_hat = float(f @ f)
        self.cross = float(f @ g)         # tr(receive_hat @ receive_err)
        self.diag_hat, self.diag_err = (np.abs(model.basis) ** 2
                                        @ np.stack((f, g), axis=1)).T
        self.tx_hat = model.transmit_hat
        self.tx_hat_diag = np.diag(model.transmit_hat).real.copy()
        self.tx_err_diag = np.diag(model.transmit_err).real.copy()
        self.gain = float(model.relay_gain)
        self.k = self.tx_hat.shape[0]


@dataclass(frozen=True)
class EstimateModel:
    """Equivalent-form description of an LMMSE channel estimate.

    The true receive correlation R = U diag(lam) U^H splits in its own
    eigenbasis: the estimate keeps receive_hat = U diag(f) U^H and the error
    receive_err = U diag(g) U^H, with f + g = lam (f = lam and g = 0 under
    genie CSI). The model stores R, U (basis), f (spectrum_hat) and g
    (spectrum_err); receive_hat and receive_err are rebuilt on demand, and
    `scalars` reads every trace, norm and diagonal the closed forms need
    from the eigendata without an n x n product.

    The estimate is receive_hat^(1/2) @ H1 @ sqrt(transmit_hat) and the
    error receive_err^(1/2) @ H2 @ sqrt(transmit_err) with H1, H2 iid
    CN(0, 1) and independent; relay_gain multiplies the second hop only
    (1.0 for the first hop). transmit_hat / transmit_err are K x K
    (diagonal for the first hop, where they hold the per-user gains).
    """

    receive_corr: np.ndarray
    basis: np.ndarray
    spectrum_hat: np.ndarray
    spectrum_err: np.ndarray
    transmit_hat: np.ndarray
    transmit_err: np.ndarray
    relay_gain: float = 1.0

    @property
    def receive_err(self):
        return (self.basis * self.spectrum_err) @ self.basis.conj().T

    @property
    def receive_hat(self):
        return self.receive_corr - self.receive_err

    @property
    def gains_hat(self):
        return np.diag(self.transmit_hat).real.copy()

    @property
    def gains_err(self):
        return np.diag(self.transmit_err).real.copy()

    @cached_property
    def scalars(self):
        return _HopScalars(self)

    def receive_sqrt(self):
        """(receive_hat^(1/2), receive_err^(1/2)) from the eigendata."""
        u = self.basis
        return tuple((u * np.sqrt(s)) @ u.conj().T
                     for s in (self.spectrum_hat, self.spectrum_err))

    def validate(self, receive_corr, transmit_truth, rtol=1e-8):
        """Check the construction identities against the true statistics.

        The eigendata must reassemble the true receive correlation
        (U diag(f + g) U^H), all four matrices must be PSD (within
        tolerance), and the per-user energy split must be exact:
        hat_gain * tr(receive_hat) + err_gain * tr(receive_err) equals
        n * true_gain entrywise (times relay_gain on the second hop).
        """
        n = self.basis.shape[0]
        u = self.basis
        total = (u * (self.spectrum_hat + self.spectrum_err)) @ u.conj().T
        if not np.allclose(total, receive_corr, atol=1e-10 * max(1.0, abs(np.trace(receive_corr)))):
            raise AssertionError("receive-side split does not sum to the true correlation")
        for mat in (self.receive_hat, self.receive_err, self.transmit_hat, self.transmit_err):
            w = np.linalg.eigvalsh(mat)
            if w.size and w[0] < -1e-10 * max(float(w[-1]), 1.0):
                raise AssertionError("estimate-model matrix is not PSD")
        lhs = (np.trace(self.receive_hat).real * self.transmit_hat
               + np.trace(self.receive_err).real * self.transmit_err) * self.relay_gain
        rhs = n * self.relay_gain * transmit_truth
        scale = max(float(np.abs(rhs).max()), 1e-300)
        if not np.allclose(lhs, rhs, atol=rtol * scale):
            raise AssertionError("per-user energy split is not conserved")


def _observation_constants(adc, tau, power, noise_var, total_gain, n_users):
    """(a, c) of one despread pilot-observation column's covariance a R + c I.

    total_gain is sum(gains) on the first hop and the relay gain on the
    second; the hops differ in nothing else.
    """
    a = adc.alpha ** 2 * tau * power * total_gain
    c = n_users * adc.alpha * ((1.0 - adc.alpha) * power * total_gain + noise_var)
    return a, c


def _observation_eigenvalues(lam, a, c):
    """a * lam + c, refused when its condition number is too large."""
    denom = a * lam + c
    cond = float(denom.max() / denom.min()) if denom.size else 1.0
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise IllConditionedError(
            f"observation covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")
    return denom


def _lmmse_filter(recv_corr, a, c, scale):
    """scale * recv_corr @ inv(a * recv_corr + c * I) in the eigenbasis."""
    w, u = np.linalg.eigh(recv_corr)
    return (u * (scale * w / _observation_eigenvalues(w, a, c))) @ u.conj().T


def lmmse_filter_first_hop(recv_corr, gains, adc, tau, power, noise_var):
    """LMMSE filter mapping despread observations to the channel estimate."""
    gains = np.asarray(gains, dtype=np.float64)
    total_gain = float(gains.sum())
    a, c = _observation_constants(adc, tau, power, noise_var, total_gain, gains.size)
    return _lmmse_filter(recv_corr, a, c, adc.alpha * np.sqrt(tau * power) * total_gain)


def lmmse_filter_second_hop(recv_corr, relay_gain, adc, tau, power, noise_var, n_users):
    a, c = _observation_constants(adc, tau, power, noise_var, relay_gain, n_users)
    return _lmmse_filter(recv_corr, a, c,
                         adc.alpha * np.sqrt(tau * power * n_users) * relay_gain)


def _error_spectrum_sum(recv_corr, a, c):
    """tr of the error receive matrix, sum(c lam / (a lam + c))."""
    lam = np.linalg.eigvalsh(recv_corr)
    return float(np.sum(c * lam / (a * lam + c)))


def mse_first_hop_closed_form(recv_corr, gains, adc, tau, power, noise_var):
    """Total MSE E{||estimate - channel||_F^2} for the first hop."""
    gains = np.asarray(gains, dtype=np.float64)
    total_gain = float(gains.sum())
    a, c = _observation_constants(adc, tau, power, noise_var, total_gain, gains.size)
    return total_gain * _error_spectrum_sum(recv_corr, a, c)


def mse_second_hop_closed_form(recv_corr, relay_gain, adc, tau, power, noise_var, n_users):
    """Total MSE for the second hop (independent of the transmit-side correlation)."""
    a, c = _observation_constants(adc, tau, power, noise_var, relay_gain, n_users)
    return n_users * relay_gain * _error_spectrum_sum(recv_corr, a, c)


def simulate_pilot_first_hop(recv_corr, gains, adc, tau, power, noise_var, rng,
                             pilots=None, recv_sqrt=None, lmmse=None):
    """Draw a channel, run the quantized pilot phase, return (channel, estimate).

    The per-antenna variance fed to the quantizer is the realized
    time-averaged pilot power power * diag(F F^H) + noise_var, constant over
    the pilot block because the pilot columns are orthonormal.
    """
    gains = np.asarray(gains, dtype=np.float64)
    k = gains.size
    if pilots is None:
        pilots = orthonormal_pilots(tau, k)
    if recv_sqrt is None:
        recv_sqrt = psd_sqrt(recv_corr)
    if lmmse is None:
        lmmse = lmmse_filter_first_hop(recv_corr, gains, adc, tau, power, noise_var)
    chan = draw_first_hop(recv_corr, gains, rng, recv_sqrt=recv_sqrt)
    received = (np.sqrt(tau * power) * chan @ pilots.T
                + complex_normal(rng, (recv_sqrt.shape[0], tau), noise_var))
    row_power = power * np.sum(np.abs(chan) ** 2, axis=1) + noise_var
    quantized = aqnm_quantize(received, adc, row_power[:, None], rng)
    despread = quantized @ np.conj(pilots)
    return chan, left_multiply(lmmse, despread)


def simulate_pilot_second_hop(recv_corr, tx_corr, relay_gain, adc, tau, power,
                              noise_var, rng, pilots=None, recv_sqrt=None,
                              tx_sqrt=None, lmmse=None):
    """Second-hop counterpart; pilots are sent from the K selected relay
    antennas at per-antenna power power / K."""
    k = tx_corr.shape[0]
    if pilots is None:
        pilots = orthonormal_pilots(tau, k)
    if recv_sqrt is None:
        recv_sqrt = psd_sqrt(recv_corr)
    if tx_sqrt is None:
        tx_sqrt = psd_sqrt(tx_corr)
    if lmmse is None:
        lmmse = lmmse_filter_second_hop(recv_corr, relay_gain, adc, tau, power,
                                        noise_var, k)
    chan = draw_second_hop(relay_gain, recv_corr, tx_corr, rng,
                           recv_sqrt=recv_sqrt, tx_sqrt=tx_sqrt)
    received = (np.sqrt(tau * power / k) * chan @ pilots.T
                + complex_normal(rng, (recv_sqrt.shape[0], tau), noise_var))
    row_power = (power / k) * np.sum(np.abs(chan) ** 2, axis=1) + noise_var
    quantized = aqnm_quantize(received, adc, row_power[:, None], rng)
    despread = quantized @ np.conj(pilots)
    return chan, left_multiply(lmmse, despread)


def _receive_split(recv_corr, a, c):
    """Eigenbasis U of recv_corr, the estimate and error spectra
    f = a lam^2 / (a lam + c) and g = c lam / (a lam + c), and the energy
    sums (sum f, sum g, sum f h, sum g h) with h = a lam / (a lam + c).

    The error sums come from g itself, never as a difference of large
    numbers, so they stay accurate as pilot power grows without bound.
    """
    lam, u = np.linalg.eigh(recv_corr)
    lam = np.clip(lam, 0.0, None)
    denom = _observation_eigenvalues(lam, a, c)
    h = a * lam / denom
    f = h * lam
    g = c * lam / denom
    return u, f, g, (float(f.sum()), float(g.sum()), float(f @ h), float(g @ h))


def _check_energies(sum_f, sum_g):
    if sum_f <= 0.0:
        raise DegenerateEstimateError("estimate energy collapsed to zero")
    if sum_g <= 0.0:
        raise DegenerateEstimateError("error energy collapsed to zero")


def equivalent_form_first_hop(recv_corr, gains, adc, tau, power, noise_var):
    """Separable equivalent form of the first-hop estimate and its error.

    The receive correlation splits spectrally (see EstimateModel). With T =
    sum(gains), the unnormalized per-user estimate energies are
    gains * sum(f h) + (T / K) sum(g h) and the error energies their
    complement n * gains minus that; both are rescaled so that estimate and
    error energies add up to the true per-user energy exactly.
    """
    gains = np.asarray(gains, dtype=np.float64)
    total_gain = float(gains.sum())
    k = gains.size
    if k == 0:
        raise ValueError("need at least one user")
    if total_gain <= 0.0:
        raise DegenerateEstimateError("total large-scale gain is zero")
    a, c = _observation_constants(adc, tau, power, noise_var, total_gain, k)
    u, f, g, (sum_f, sum_g, sum_fh, sum_gh) = _receive_split(recv_corr, a, c)
    _check_energies(sum_f, sum_g)
    shared = (total_gain / k) * sum_gh
    gains_hat = (gains * sum_fh + shared) / sum_f
    gains_err = (gains * (sum_g + sum_gh) - shared) / sum_g
    return EstimateModel(receive_corr=recv_corr, basis=u, spectrum_hat=f,
                         spectrum_err=g, transmit_hat=np.diag(gains_hat),
                         transmit_err=np.diag(gains_err), relay_gain=1.0)


def equivalent_form_second_hop(recv_corr, tx_corr, relay_gain, adc, tau, power,
                               noise_var):
    """Separable equivalent form of the second-hop estimate and its error.

    Same split as the first hop, with the transmit correlation in place of
    the per-user gains: the estimate's transmit matrix is proportional to
    sum(f h) tx_corr + sum(g h) I and the error's to the remainder
    m tx_corr minus that. The error side must stay PSD.
    """
    k = tx_corr.shape[0]
    if relay_gain <= 0.0:
        raise DegenerateEstimateError("relay large-scale gain is zero")
    a, c = _observation_constants(adc, tau, power, noise_var, relay_gain, k)
    u, f, g, (sum_f, sum_g, sum_fh, sum_gh) = _receive_split(recv_corr, a, c)
    _check_energies(sum_f, sum_g)
    eye = np.eye(k)
    tx_hat = (sum_fh * tx_corr + sum_gh * eye) / sum_f
    tx_err = ((sum_g + sum_gh) * tx_corr - sum_gh * eye) / sum_g
    w = np.linalg.eigvalsh(tx_err)
    if w[0] < -1e-10 * max(float(w[-1]), 1e-300):
        raise DegenerateEstimateError(
            "error-side transmit matrix is indefinite (min eigenvalue "
            f"{w[0]:.3e}); the separable error model needs weaker transmit "
            "correlation or more receive antennas per user")
    return EstimateModel(receive_corr=recv_corr, basis=u, spectrum_hat=f,
                         spectrum_err=g, transmit_hat=tx_hat,
                         transmit_err=tx_err, relay_gain=float(relay_gain))


def _perfect_model(recv_corr, transmit, relay_gain):
    """Genie CSI: the estimate is the truth and the error is zero."""
    lam, u = np.linalg.eigh(recv_corr)
    lam = np.clip(lam, 0.0, None)
    k = transmit.shape[0]
    return EstimateModel(receive_corr=recv_corr, basis=u, spectrum_hat=lam,
                         spectrum_err=np.zeros_like(lam), transmit_hat=transmit,
                         transmit_err=np.zeros((k, k)), relay_gain=float(relay_gain))


def perfect_model_first_hop(recv_corr, gains):
    """EstimateModel for genie CSI: estimate equals truth, error is zero."""
    return _perfect_model(recv_corr, np.diag(np.asarray(gains, dtype=np.float64)), 1.0)


def perfect_model_second_hop(recv_corr, tx_corr, relay_gain):
    return _perfect_model(recv_corr, tx_corr, relay_gain)


def pilot_mse_first_hop(recv_corr, gains, adc, tau, power, noise_var, trials, rng):
    """Simulated per-element MSE of the first-hop estimator, with stderr."""
    gains = np.asarray(gains, dtype=np.float64)
    n = recv_corr.shape[0]
    k = gains.size
    pilots = orthonormal_pilots(tau, k)
    recv_sqrt = psd_sqrt(recv_corr)
    lmmse = lmmse_filter_first_hop(recv_corr, gains, adc, tau, power, noise_var)
    errs = np.empty(trials)
    for t in range(trials):
        chan, est = simulate_pilot_first_hop(
            recv_corr, gains, adc, tau, power, noise_var, rng,
            pilots=pilots, recv_sqrt=recv_sqrt, lmmse=lmmse)
        errs[t] = np.sum(np.abs(est - chan) ** 2) / (n * k)
    return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))


def pilot_mse_second_hop(recv_corr, tx_corr, relay_gain, adc, tau, power,
                         noise_var, trials, rng):
    """Simulated per-element MSE of the second-hop estimator, with stderr."""
    m = recv_corr.shape[0]
    k = tx_corr.shape[0]
    pilots = orthonormal_pilots(tau, k)
    recv_sqrt = psd_sqrt(recv_corr)
    tx_sqrt = psd_sqrt(tx_corr)
    lmmse = lmmse_filter_second_hop(recv_corr, relay_gain, adc, tau, power,
                                    noise_var, k)
    errs = np.empty(trials)
    for t in range(trials):
        chan, est = simulate_pilot_second_hop(
            recv_corr, tx_corr, relay_gain, adc, tau, power, noise_var, rng,
            pilots=pilots, recv_sqrt=recv_sqrt, tx_sqrt=tx_sqrt, lmmse=lmmse)
        errs[t] = np.sum(np.abs(est - chan) ** 2) / (m * k)
    return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))
