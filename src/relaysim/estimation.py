"""LMMSE channel estimation through low-resolution ADCs, one path for both hops.

Each hop's channel is sqrt(gain) R^(1/2) H Theta^(1/2) with H iid CN(0, 1),
described once by a HopStatistics record. Orthogonal pilots are
transmitted, the receiver quantizes (AQNM), despreads with the conjugate
pilot matrix, and applies the LMMSE filter built from the observation
covariance. The resulting estimate and its error are each distributed as a
separable correlated Rayleigh channel ("equivalent form"), with
receive-side matrices splitting the true receive correlation and
transmit-side matrices scaled so the per-user energy budget is conserved
exactly. Rate analysis and Monte Carlo trials both consume that equivalent
form, via EstimateModel.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import complex_normal, draw_hop, left_multiply
from .correlation import (exp_frobenius_sq, exponential_correlation,
                          exponential_spectrum, psd_sqrt)
from .errors import DegenerateEstimateError, IllConditionedError
from .quantizer import aqnm_quantize

# refuse to build LMMSE filters from observation covariances with a worse
# spectral condition number than this
MAX_CONDITION = 1e14


def orthonormal_pilots(tau, n_users):
    """First n_users columns of the unitary tau-point DFT matrix."""
    tau = int(tau)
    n_users = int(n_users)
    if n_users < 0 or tau < max(n_users, 1):
        raise ValueError(f"pilot length {tau} cannot carry {n_users} orthogonal pilots")
    t = np.arange(tau)[:, None]
    k = np.arange(n_users)[None, :]
    return np.exp(-2j * np.pi * t * k / tau) / np.sqrt(tau)


@dataclass(frozen=True)
class HopStatistics:
    """True second-order statistics of one hop and its pilot phase.

    The channel is sqrt(gain) * R^(1/2) @ H @ transmit^(1/2) with H iid
    CN(0, 1) and R = exponential_correlation(r, n) the receive correlation:
    transmit is diag(per-user gains) on the first hop (gain 1) and the
    relay's transmit correlation on the second (gain eta). Pilots of length
    tau carry power / streams per stream: streams is 1 on the first hop,
    where each user has its own budget, and K on the second, where the
    relay splits its budget over K antennas. noise_var is the receiver's
    thermal noise variance.

    The closed-form eigendecomposition of R (spectrum) serves the LMMSE
    filter, the closed-form MSE, the equivalent form and the square-root
    factor the pilot simulation draws with; R itself (recv_corr) is built
    only when asked for.
    """

    r: complex
    n: int
    transmit: np.ndarray
    tau: int
    noise_var: float
    gain: float = 1.0
    streams: int = 1

    @property
    def shape(self):
        """(receive antennas, K) of the channel matrix."""
        return self.n, self.transmit.shape[0]

    @property
    def trace(self):
        return float(np.trace(self.transmit).real)

    @property
    def total_gain(self):
        """gain tr(transmit) / streams, the scale of the received pilot
        energy: sum of the user gains on the first hop, eta on the second."""
        return self.gain * (self.trace / self.streams)

    @property
    def recv_corr(self):
        return exponential_correlation(self.r, self.n)

    @cached_property
    def spectrum(self):
        """(lam, U) of the receive correlation."""
        return exponential_spectrum(self.r, self.n)

    @cached_property
    def recv_sqrt(self):
        lam, u = self.spectrum
        return (u * np.sqrt(lam)) @ u.conj().T

    @cached_property
    def tx_sqrt(self):
        return psd_sqrt(self.transmit)

    @cached_property
    def pilots(self):
        return orthonormal_pilots(self.tau, self.shape[1])


class _HopScalars:
    """Traces, norms, and diagonals of one model's receive split, plus its
    transmit side: every scalar the closed forms consume.

    LMMSE models read them off their eigendata. Genie models take them in
    closed form from the exponential model (unit diagonal, trace n,
    Frobenius norm exp_frobenius_sq, no error), so no receive-size matrix
    is built.
    """

    def __init__(self, model):
        if model.split is not None:
            u, f, g = model.split
            self.tr_hat = float(f.sum())
            self.fro_hat = float(f @ f)
            self.cross = float(f @ g)         # tr(receive_hat @ receive_err)
            self.diag_hat, self.diag_err = (np.abs(u) ** 2
                                            @ np.stack((f, g), axis=1)).T
        else:
            r, n = model.recv
            self.tr_hat = float(n)
            self.fro_hat = exp_frobenius_sq(r, n)
            self.cross = 0.0
            self.diag_hat, self.diag_err = np.ones(n), 0.0
        self.tx_hat = model.transmit_hat
        self.tx_hat_diag = np.diag(model.transmit_hat).real.copy()
        self.tx_err_diag = np.diag(model.transmit_err).real.copy()
        self.gain = float(model.relay_gain)
        self.k = self.tx_hat.shape[0]


@dataclass(frozen=True)
class EstimateModel:
    """Equivalent-form description of an LMMSE channel estimate.

    The true receive correlation R = exponential_correlation(*recv) =
    U diag(lam) U^H splits in its own eigenbasis: the estimate keeps
    receive_hat = U diag(f) U^H and the error receive_err = U diag(g) U^H,
    with f + g = lam. An LMMSE model stores split = (U, f, g). A genie-CSI
    model (estimate = truth, f = lam, g = 0) has no split and takes its
    eigendata from exponential_spectrum on first use. R, receive_hat and
    receive_err are built on demand, and `scalars` holds every trace, norm
    and diagonal the closed forms need, computed without an n x n product.

    The estimate is receive_hat^(1/2) @ H1 @ sqrt(transmit_hat) and the
    error receive_err^(1/2) @ H2 @ sqrt(transmit_err) with H1, H2 iid
    CN(0, 1) and independent; relay_gain multiplies the second hop only
    (1.0 for the first hop). transmit_hat / transmit_err are K x K
    (diagonal for the first hop, where they hold the per-user gains).
    """

    transmit_hat: np.ndarray
    transmit_err: np.ndarray
    recv: tuple
    relay_gain: float = 1.0
    split: tuple = None

    @property
    def eigendata(self):
        """(U, f, g) of the receive split; a genie model builds it on first use."""
        return self._genie_eigendata if self.split is None else self.split

    @cached_property
    def _genie_eigendata(self):
        lam, u = exponential_spectrum(*self.recv)
        return u, lam, np.zeros_like(lam)

    @property
    def receive_err(self):
        u, _, g = self.eigendata
        return (u * g) @ u.conj().T

    @property
    def receive_hat(self):
        return exponential_correlation(*self.recv) - self.receive_err

    @cached_property
    def scalars(self):
        return _HopScalars(self)

    def receive_sqrt(self):
        """(receive_hat^(1/2), receive_err^(1/2)) from the eigendata."""
        u, f, g = self.eigendata
        return tuple((u * np.sqrt(s)) @ u.conj().T for s in (f, g))

    def validate(self, hop, rtol=1e-8):
        """Check the construction identities against the hop's true statistics.

        The eigendata must reassemble the true receive correlation
        (U diag(f + g) U^H), all four matrices must be PSD (within
        tolerance), and the per-user energy split must be exact:
        (hat_transmit * tr(receive_hat) + err_transmit * tr(receive_err))
        * relay_gain equals n * gain * transmit entrywise.
        """
        u, f, g = self.eigendata
        n = u.shape[0]
        total = (u * (f + g)) @ u.conj().T
        recv = hop.recv_corr
        if not np.allclose(total, recv, atol=1e-10 * max(1.0, abs(np.trace(recv)))):
            raise AssertionError("receive-side split does not sum to the true correlation")
        for mat in (self.receive_hat, self.receive_err, self.transmit_hat, self.transmit_err):
            w = np.linalg.eigvalsh(mat)
            if w.size and w[0] < -1e-10 * max(float(w[-1]), 1.0):
                raise AssertionError("estimate-model matrix is not PSD")
        lhs = (np.trace(self.receive_hat).real * self.transmit_hat
               + np.trace(self.receive_err).real * self.transmit_err) * self.relay_gain
        rhs = n * hop.gain * hop.transmit
        scale = max(float(np.abs(rhs).max()), 1e-300)
        if not np.allclose(lhs, rhs, atol=rtol * scale):
            raise AssertionError("per-user energy split is not conserved")


def _observation_constants(hop, adc, power):
    """(a, c) of one despread pilot-observation column's covariance a R + c I."""
    total_gain = hop.total_gain
    a = adc.alpha ** 2 * hop.tau * power * total_gain
    c = hop.shape[1] * adc.alpha * ((1.0 - adc.alpha) * power * total_gain + hop.noise_var)
    return a, c


def _observation_eigenvalues(lam, a, c):
    """a * lam + c, refused when its condition number is too large."""
    denom = a * lam + c
    cond = float(denom.max() / denom.min()) if denom.size else 1.0
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise IllConditionedError(
            f"observation covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")
    return denom


def _receive_split(hop, adc, power):
    """Eigenbasis U of the receive correlation, the estimate and error
    spectra f = a lam^2 / (a lam + c) and g = c lam / (a lam + c), and the
    filter gains h = a lam / (a lam + c).

    The error spectrum is formed directly, never as a difference of large
    numbers, so it stays accurate as pilot power grows without bound.
    """
    a, c = _observation_constants(hop, adc, power)
    lam, u = hop.spectrum
    denom = _observation_eigenvalues(lam, a, c)
    h = a * lam / denom
    return u, h * lam, c * lam / denom, h


def lmmse_filter(hop, adc, power):
    """LMMSE filter mapping despread observations to the channel estimate,
    scale * R @ inv(a R + c I) applied in the eigenbasis of R."""
    a, c = _observation_constants(hop, adc, power)
    lam, u = hop.spectrum
    scale = adc.alpha * np.sqrt(hop.tau * power * hop.streams) * hop.total_gain
    return (u * (scale * lam / _observation_eigenvalues(lam, a, c))) @ u.conj().T


def mse_closed_form(hop, adc, power):
    """Total MSE E{||estimate - channel||_F^2} of the hop's LMMSE estimate.

    Equals gain tr(transmit) sum(g): it does not depend on the transmit
    matrix beyond its trace.
    """
    g = _receive_split(hop, adc, power)[2]
    return hop.total_gain * hop.streams * float(g.sum())


def simulate_pilot(hop, adc, power, rng, lmmse=None):
    """Draw a channel, run the quantized pilot phase, return (channel, estimate).

    The per-antenna variance fed to the quantizer is the realized
    time-averaged pilot power (power / streams) * ||row||^2 + noise_var,
    constant over the pilot block because the pilot columns are
    orthonormal.
    """
    if lmmse is None:
        lmmse = lmmse_filter(hop, adc, power)
    pilots = hop.pilots
    chan = draw_hop(hop.recv_sqrt, hop.tx_sqrt, hop.gain, rng)
    received = (np.sqrt(hop.tau * power / hop.streams) * chan @ pilots.T
                + complex_normal(rng, (hop.shape[0], hop.tau), hop.noise_var))
    row_power = (power / hop.streams) * np.sum(np.abs(chan) ** 2, axis=1) + hop.noise_var
    quantized = aqnm_quantize(received, adc, row_power[:, None], rng)
    despread = quantized @ np.conj(pilots)
    return chan, left_multiply(lmmse, despread)


def pilot_mse(hop, adc, power, trials, rng):
    """Simulated per-element MSE of the hop's estimator, with stderr."""
    n, k = hop.shape
    lmmse = lmmse_filter(hop, adc, power)
    errs = np.empty(trials)
    for t in range(trials):
        chan, est = simulate_pilot(hop, adc, power, rng, lmmse=lmmse)
        errs[t] = np.sum(np.abs(est - chan) ** 2) / (n * k)
    return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(trials))


def equivalent_form(hop, adc, power):
    """Separable equivalent form of the hop's estimate and its error.

    The receive correlation splits spectrally (see EstimateModel). With
    Theta the transmit matrix and K its size, the unnormalized estimate
    transmit matrix is sum(f h) Theta + (tr(Theta) / K) sum(g h) I and the
    error's its complement (sum(g) + sum(g h)) Theta minus the same shared
    term; each is normalized by its receive trace, so estimate and error
    energies add up to the true per-user energy exactly. The error side
    must stay PSD: a weak user (first hop) or strong transmit correlation
    (second hop) with few receive antennas per stream can push it
    indefinite, and then no separable error model exists.
    """
    k = hop.shape[1]
    if hop.total_gain <= 0.0:
        raise DegenerateEstimateError("large-scale gain is zero")
    u, f, g, h = _receive_split(hop, adc, power)
    sum_f, sum_g, sum_fh, sum_gh = float(f.sum()), float(g.sum()), float(f @ h), float(g @ h)
    if sum_f <= 0.0:
        raise DegenerateEstimateError("estimate energy collapsed to zero")
    if sum_g <= 0.0:
        raise DegenerateEstimateError("error energy collapsed to zero")
    shared = (hop.trace / k) * sum_gh * np.eye(k)
    tx_hat = (sum_fh * hop.transmit + shared) / sum_f
    tx_err = ((sum_g + sum_gh) * hop.transmit - shared) / sum_g
    w = np.linalg.eigvalsh(tx_err)
    if w[0] < -1e-10 * max(float(w[-1]), 1e-300):
        raise DegenerateEstimateError(
            "error-side transmit matrix is indefinite (min eigenvalue "
            f"{w[0]:.3e}); the separable error model needs a flatter "
            "transmit-side spectrum or more receive antennas per stream")
    return EstimateModel(transmit_hat=tx_hat, transmit_err=tx_err, recv=(hop.r, hop.n),
                         relay_gain=float(hop.gain), split=(u, f, g))


def perfect_model(r, n, transmit, relay_gain=1.0):
    """EstimateModel for genie CSI on exponential_correlation(r, n): the
    estimate is the truth and the error is zero."""
    k = transmit.shape[0]
    return EstimateModel(transmit_hat=transmit, transmit_err=np.zeros((k, k)),
                         recv=(r, int(n)), relay_gain=float(relay_gain))
