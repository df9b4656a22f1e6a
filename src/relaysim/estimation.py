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

from .channel import (chunk_size, complex_stack, draw_hop, left_multiply,
                      normals_per_trial, split_normals)
from .correlation import (exponential_basis, exponential_correlation,
                          exponential_eigenvalues, exponential_split_diagonals)
from .errors import DegenerateEstimateError, IllConditionedError
from .quantizer import aqnm_quantize

# refuse to build LMMSE filters from observation covariances with a worse
# spectral condition number than this
MAX_CONDITION = 1e14


def _root(s, u):
    """u diag(sqrt(s)) u^H: the square root of the Hermitian matrix with
    eigenvalues s and orthonormal eigenvectors u."""
    return (u * np.sqrt(s)) @ u.conj().T


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

    The closed-form eigenvalues of R (spectrum) serve the closed-form MSE
    and the equivalent form in O(n). Its eigenvectors (basis), O(n^2), are
    built only for the LMMSE filter and the square-root factor the pilot
    simulation draws with, and R itself (recv_corr) only when asked for.
    The K x K transmit matrix is decomposed once (tx_spectrum); its
    eigenbasis also diagonalizes the estimate and error transmit matrices
    of the equivalent form.
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
        """(lam, theta): ascending eigenvalues of the receive correlation
        and their angles."""
        return exponential_eigenvalues(self.r, self.n)

    @cached_property
    def basis(self):
        """Eigenvectors U of the receive correlation, one per eigenvalue."""
        return exponential_basis(self.r, self.spectrum[1])

    @cached_property
    def tx_spectrum(self):
        """(mu, V): ascending eigenvalues and eigenvectors of the transmit
        matrix."""
        return np.linalg.eigh(self.transmit)

    @cached_property
    def recv_sqrt(self):
        return _root(self.spectrum[0], self.basis)

    @cached_property
    def tx_sqrt(self):
        return _root(*self.tx_spectrum)

    @cached_property
    def pilots(self):
        return orthonormal_pilots(self.tau, self.shape[1])


class _HopScalars:
    """Traces, norms, and diagonals of one model's receive split, plus its
    transmit side: every scalar the closed forms consume, from the
    eigenvalues and one O(n) pivot sweep, never from the eigenvectors."""

    def __init__(self, model):
        f, g = model.split
        self.tr_hat = float(f.sum())
        self.fro_hat = float(f @ f)
        self.cross = float(f @ g)             # tr(receive_hat @ receive_err)
        self.diag_hat, self.diag_err = exponential_split_diagonals(
            model.hop.r, model.hop.n, *model.obs)
        self.tx_hat = model.transmit_hat
        self.tx_hat_diag = np.diag(model.transmit_hat).real.copy()
        self.tx_err_diag = np.diag(model.transmit_err).real.copy()
        self.gain = model.relay_gain
        self.k = self.tx_hat.shape[0]


@dataclass(frozen=True)
class EstimateModel:
    """Equivalent-form description of a channel estimate of one hop.

    The hop's true receive correlation R = hop.recv_corr =
    U diag(lam) U^H splits in its own eigenbasis: the estimate keeps
    receive_hat = U diag(f) U^H and the error receive_err = U diag(g) U^H,
    with f = a lam^2 / (a lam + c) and g = c lam / (a lam + c), so
    f + g = lam. obs = (a, c) are the constants of the pilot observation
    covariance a R + c I; genie CSI (estimate = truth) is c = 0, which
    gives f = lam and g = 0 exactly. `scalars` holds every trace, norm and
    diagonal the closed forms need, computed from lam and obs alone; U
    (eigendata), R, receive_hat and receive_err are built on demand.

    The estimate is receive_hat^(1/2) @ H1 @ sqrt(transmit_hat) and the
    error receive_err^(1/2) @ H2 @ sqrt(transmit_err) with H1, H2 iid
    CN(0, 1) and independent; relay_gain (the hop's gain) multiplies the
    second hop only (1.0 for the first hop). transmit_hat / transmit_err
    are K x K (diagonal for the first hop, where they hold the per-user
    gains).
    """

    hop: HopStatistics
    transmit_hat: np.ndarray
    transmit_err: np.ndarray
    obs: tuple = (1.0, 0.0)

    @property
    def relay_gain(self):
        return float(self.hop.gain)

    @cached_property
    def split(self):
        """(f, g): estimate and error spectra of the receive split."""
        return _spectral_split(self.hop.spectrum[0], *self.obs)[:2]

    @property
    def eigendata(self):
        """(U, f, g) of the receive split; U is the hop's basis."""
        return (self.hop.basis,) + self.split

    @property
    def receive_err(self):
        u, _, g = self.eigendata
        return (u * g) @ u.conj().T

    @property
    def receive_hat(self):
        return self.hop.recv_corr - self.receive_err

    @cached_property
    def scalars(self):
        return _HopScalars(self)

    def receive_sqrt(self):
        """(receive_hat^(1/2), receive_err^(1/2)) from the eigendata."""
        u, f, g = self.eigendata
        return _root(f, u), _root(g, u)

    def transmit_sqrt(self):
        """(transmit_hat^(1/2), transmit_err^(1/2)) in the eigenbasis V of
        the hop's transmit matrix, which diagonalizes both: their spectra
        are diag(V^H T V), with rounding below zero on the error side
        clamped."""
        v = self.hop.tx_spectrum[1]
        spectra = (np.einsum("ij,ij->j", v.conj(), t @ v).real
                   for t in (self.transmit_hat, self.transmit_err))
        return tuple(_root(np.maximum(s, 0.0), v) for s in spectra)

    def validate(self, rtol=1e-8):
        """Check the construction identities against the hop's true statistics.

        The eigendata must reassemble the true receive correlation
        (U diag(f + g) U^H), all four matrices must be PSD (within
        tolerance), and the per-user energy split must be exact:
        (hat_transmit * tr(receive_hat) + err_transmit * tr(receive_err))
        * relay_gain equals n * gain * transmit entrywise.
        """
        hop = self.hop
        u, f, g = self.eigendata
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
        rhs = hop.n * hop.gain * hop.transmit
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


def _spectral_split(lam, a, c):
    """Estimate and error spectra f = a lam^2 / (a lam + c) and
    g = c lam / (a lam + c), and the filter gains h = a lam / (a lam + c).

    The error spectrum is formed directly, never as a difference of large
    numbers, so it stays accurate as pilot power grows without bound.
    """
    denom = a * lam + c
    h = a * lam / denom
    return h * lam, c * lam / denom, h


def _receive_split(hop, a, c):
    """Split (f, g, h) of the hop's receive spectrum for an observation
    covariance a R + c I, refused when that is ill conditioned."""
    lam = hop.spectrum[0]
    _observation_eigenvalues(lam, a, c)
    return _spectral_split(lam, a, c)


def lmmse_filter(hop, adc, power):
    """LMMSE filter mapping despread observations to the channel estimate,
    scale * R @ inv(a R + c I) applied in the eigenbasis of R."""
    a, c = _observation_constants(hop, adc, power)
    lam, u = hop.spectrum[0], hop.basis
    scale = adc.alpha * np.sqrt(hop.tau * power * hop.streams) * hop.total_gain
    return (u * (scale * lam / _observation_eigenvalues(lam, a, c))) @ u.conj().T


def mse_closed_form(hop, adc, power):
    """Total MSE E{||estimate - channel||_F^2} of the hop's LMMSE estimate.

    Equals gain tr(transmit) sum(g): it does not depend on the transmit
    matrix beyond its trace.
    """
    g = _receive_split(hop, *_observation_constants(hop, adc, power))[1]
    return hop.total_gain * hop.streams * float(g.sum())


def _pilot_draws(hop, adc):
    """Shapes of what one pilot trial draws, in stream order: the channel's
    iid part H and the receiver noise, then the quantization noise unless
    the ADC is ideal; each real parts first, then imaginary parts."""
    n, k = hop.shape
    return [(n, k)] * 2 + [(n, hop.tau)] * (2 if adc.is_ideal else 4)


def _sum_abs2(x, kept):
    """Sums of |x|^2 over the axes of a three-axis complex stack that the
    einsum labels kept (of "ijk") leave out, read as real and imaginary
    parts."""
    parts = x.view(np.float64)
    return np.einsum(f"ijk,ijk->{kept}", parts, parts)


def simulate_pilot(hop, adc, power, normals, lmmse=None):
    """Run the quantized pilot phase on a chunk of trials and return the
    (channel, estimate) stacks, each (b, n, k).

    normals holds one row of standard normals per trial, laid out as one
    trial draws them (_pilot_draws). The per-antenna variance fed to the
    quantizer is the realized time-averaged pilot power (power / streams)
    * ||row||^2 + noise_var, constant over the pilot block because the
    pilot columns are orthonormal. The chunk runs in the (n, b, .) layout
    of complex_stack: each receive factor (the channel's square root and
    the LMMSE filter) meets it as one GEMM, and so do the pilots.
    """
    if lmmse is None:
        lmmse = lmmse_filter(hop, adc, power)
    n, k = hop.shape
    pilots = hop.pilots
    h_re, h_im, w_re, w_im, *quant = split_normals(normals, *_pilot_draws(hop, adc))
    chan = draw_hop(hop.recv_sqrt, hop.tx_sqrt, hop.gain, h=complex_stack(h_re, h_im))
    received = ((np.sqrt(hop.tau * power / hop.streams) * chan).reshape(-1, k) @ pilots.T
                ).reshape(n, -1, hop.tau)
    received += complex_stack(w_re, w_im, np.sqrt(hop.noise_var / 2.0))
    row_power = (power / hop.streams) * _sum_abs2(chan, "ij") + hop.noise_var
    quantized = aqnm_quantize(received, adc, row_power[..., None],
                              normals=[q.transpose(1, 0, 2) for q in quant] or None)
    despread = (quantized.reshape(-1, hop.tau) @ np.conj(pilots)).reshape(n, -1, k)
    return chan.transpose(1, 0, 2), left_multiply(lmmse, despread).transpose(1, 0, 2)


def pilot_mse(hop, adc, power, trials, rng):
    """Simulated per-element MSE of the hop's estimator, with its standard
    error (NaN for a single trial).

    Trials run in chunks of channel.chunk_size. rng fills each chunk's
    normals in one call, row by row, so every trial sees the numbers it
    would draw on its own; the last chunk is padded with rows of zeros, so
    no trial's arithmetic depends on how many trials follow it.
    """
    n, k = hop.shape
    lmmse = lmmse_filter(hop, adc, power)
    draws = _pilot_draws(hop, adc)
    size = chunk_size(draws)
    normals = np.empty((size, normals_per_trial(draws)))
    errs = np.empty(trials)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        rng.standard_normal(out=normals[:count])
        normals[count:] = 0.0
        chan, est = simulate_pilot(hop, adc, power, normals, lmmse=lmmse)
        errs[start:start + count] = _sum_abs2(est[:count] - chan[:count], "i") / (n * k)
    stderr = errs.std(ddof=1) / np.sqrt(trials) if trials > 1 else np.nan
    return float(errs.mean()), float(stderr)


def equivalent_form(hop, adc, power):
    """Separable equivalent form of the hop's estimate and its error.

    The receive correlation splits spectrally (see EstimateModel). With
    Theta the transmit matrix and K its size, the unnormalized estimate
    transmit matrix is sum(f h) Theta + (tr(Theta) / K) sum(g h) I and the
    error's its complement (sum(g) + sum(g h)) Theta minus the same shared
    term; each is normalized by its receive trace, so estimate and error
    energies add up to the true per-user energy exactly. Both share
    Theta's eigenvectors, and the error side is PSD exactly when
    margin = mu_min(Theta) / (tr(Theta) / K) - sum(g h) / (sum(g) + sum(g h))
    is non-negative: a weak user (first hop, Theta = diag(beta)) or strong
    transmit correlation (second hop) with few receive antennas per
    stream can push it negative, and then no separable error model
    exists.
    """
    k = hop.shape[1]
    if hop.total_gain <= 0.0:
        raise DegenerateEstimateError("large-scale gain is zero")
    a, c = _observation_constants(hop, adc, power)
    f, g, h = _receive_split(hop, a, c)
    sum_f, sum_g, sum_fh, sum_gh = float(f.sum()), float(g.sum()), float(f @ h), float(g @ h)
    if sum_f <= 0.0:
        raise DegenerateEstimateError("estimate energy collapsed to zero")
    if sum_g <= 0.0:
        raise DegenerateEstimateError("error energy collapsed to zero")
    mean_gain = hop.trace / k
    margin = hop.tx_spectrum[0][0] / mean_gain - sum_gh / (sum_g + sum_gh)
    if margin < 0.0:
        raise DegenerateEstimateError(
            f"error-side transmit matrix is indefinite (margin {margin:.3e}); "
            "the separable error model needs a flatter transmit-side "
            "spectrum or more receive antennas per stream")
    shared = mean_gain * sum_gh * np.eye(k)
    tx_hat = (sum_fh * hop.transmit + shared) / sum_f
    tx_err = ((sum_g + sum_gh) * hop.transmit - shared) / sum_g
    return EstimateModel(hop, tx_hat, tx_err, obs=(a, c))


def perfect_model(hop):
    """EstimateModel for genie CSI on the hop: the estimate is the truth
    and the error is zero (c = 0)."""
    k = hop.shape[1]
    return EstimateModel(hop, hop.transmit, np.zeros((k, k)))
