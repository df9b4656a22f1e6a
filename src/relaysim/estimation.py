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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (CentroRoot, _one_blas_thread, _sum_abs2, complex_stack, draw_hop,
                      left_multiply, mean_and_stderr, sample)
from .correlation import (exponential_basis, exponential_correlation, exponential_eigenvalues,
                          exponential_half_basis)
from .errors import DegenerateEstimateError, IllConditionedError, NumericalError
from .quantizer import aqnm_quantize

# observation refuses covariances of a worse spectral condition number
MAX_CONDITION = 1e14


def _root(s, u, overwrite=False):
    """u diag(sqrt(s)) u^H: the square root of the Hermitian matrix with
    eigenvalues s and orthonormal eigenvectors u.

    It is the Gram product w w^H of w = u diag(s^(1/4)), which numpy runs
    as one symmetric rank-k update for real u, so a real root comes out
    exactly symmetric. overwrite scales u itself into w instead of a copy.
    """
    w = np.multiply(u, s ** 0.25, out=u if overwrite else None)
    return w @ w.conj().T


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

    The record holds no receive-size matrix: the closed-form eigenvalues
    of R (spectrum) serve the closed-form MSE and the equivalent form in
    O(n), and a call that needs R's eigenvectors or R (recv_corr) builds
    them and keeps none. The K x K transmit matrix is decomposed once
    (tx_spectrum); its eigenbasis also diagonalizes the estimate and error
    transmit matrices of the equivalent form.
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
    def tx_spectrum(self):
        """(mu, V): ascending eigenvalues and eigenvectors of the transmit
        matrix."""
        return np.linalg.eigh(self.transmit)

    @cached_property
    def pilots(self):
        return orthonormal_pilots(self.tau, self.shape[1])


@dataclass(frozen=True)
class EstimateModel:
    """Equivalent-form description of a channel estimate of one hop.

    The hop's true receive correlation R = U diag(lam) U^H splits in its
    own eigenbasis: the estimate keeps receive_hat = U diag(f) U^H and the
    error receive_err = U diag(g) U^H, with f = a lam^2 / (a lam + c) and
    g = c lam / (a lam + c), so f + g = lam. obs = (a, c) are the constants
    of the pilot observation covariance a R + c I and split = (f, g), both
    as `observation` formed them; genie CSI (estimate = truth) is c = 0,
    f = lam and g = 0 exactly. transmit_hat / transmit_err are K x K
    (diagonal for the first hop, where they hold the per-user gains). The
    record keeps no receive-size matrix and no square root: validate builds
    what it checks, and model_factors the roots the trials draw with.
    """

    hop: HopStatistics
    transmit_hat: np.ndarray
    transmit_err: np.ndarray
    obs: tuple
    split: tuple

    def validate(self):
        """Check the construction identities against the hop's true statistics.

        The split must reassemble the true receive correlation
        (U diag(f + g) U^H), all four matrices must be PSD (within
        tolerance), and the per-user energy split must be exact:
        (hat_transmit * tr(receive_hat) + err_transmit * tr(receive_err))
        * gain equals n * gain * transmit entrywise. Returns the largest
        entrywise residual of that split over its largest entry (above 1e-8 raises).
        """
        hop, (f, g) = self.hop, self.split
        u = exponential_basis(hop.r, hop.spectrum[1])
        total = (u * (f + g)) @ u.conj().T
        recv = hop.recv_corr
        if not np.allclose(total, recv, rtol=0.0, atol=1e-10 * max(1.0, abs(np.trace(recv)))):
            raise AssertionError("receive-side split does not sum to the true correlation")
        receive_err = (u * g) @ u.conj().T
        receive_hat = recv - receive_err
        for mat in (receive_hat, receive_err, self.transmit_hat, self.transmit_err):
            w = np.linalg.eigvalsh(mat)
            if w.size and w[0] < -1e-10 * max(float(w[-1]), 1.0):
                raise AssertionError("estimate-model matrix is not PSD")
        lhs = (np.trace(receive_hat).real * self.transmit_hat
               + np.trace(receive_err).real * self.transmit_err) * hop.gain
        rhs = hop.n * hop.gain * hop.transmit
        residual = float(np.abs(lhs - rhs).max()) / max(float(np.abs(rhs).max()), 1e-300)
        if not residual <= 1e-8:
            raise AssertionError("per-user energy split is not conserved")
        return residual


def observation(hop, adc, power):
    """One despread pilot observation of the hop: ((a, c), (f, g, h)).

    (a, c) are the constants of one column's covariance a R + c I, refused
    when that is ill conditioned. (f, g, h) split the receive spectrum
    lam: the estimate and error spectra f = a lam^2 / (a lam + c) and
    g = c lam / (a lam + c), and the filter gains h = a lam / (a lam + c).
    The error spectrum is formed directly, never as a difference of large
    numbers, so it stays accurate as pilot power grows without bound. The
    split and the condition number use (a, c) scaled exactly by a power of
    two to put the larger near 1: only an a or c that overflows is refused.
    """
    total_gain = hop.total_gain
    a = adc.alpha ** 2 * hop.tau * power * total_gain
    c = hop.shape[1] * adc.alpha * ((1.0 - adc.alpha) * power * total_gain + hop.noise_var)
    if not math.isfinite(max(a, c)):
        raise NumericalError(f"observation constants overflow: a = {a:.3e}, c = {c:.3e}")
    shift = -math.frexp(max(a, c))[1]
    scaled_a, scaled_c = math.ldexp(a, shift), math.ldexp(c, shift)
    lam = hop.spectrum[0]
    denom = scaled_a * lam + scaled_c
    cond = float(denom.max() / denom.min()) if denom.size else 1.0
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise IllConditionedError(
            f"observation covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")
    h = scaled_a * lam / denom
    return (a, c), (h * lam, scaled_c * lam / denom, h)


def pilot_factors(hop, adc, power):
    """(recv_sqrt, tx_sqrt, lmmse): the channel's roots R^(1/2) and
    transmit^(1/2), and the LMMSE filter scale * R @ inv(a R + c I) from
    despread observations to the estimate. The filter is formed in R's
    eigenbasis U, then U is scaled in place into R^(1/2): at most three
    receive-size arrays are alive at once, and U is dropped. The chain
    draws unscaled, so a power where scale or a lam + c overflows is refused."""
    (a, c), _ = observation(hop, adc, power)
    lam, theta = hop.spectrum
    scale = adc.alpha * np.sqrt(hop.tau * power * hop.streams) * hop.total_gain
    if not math.isfinite(max(scale, a * float(lam[-1]) + c)):
        raise NumericalError(f"pilot chain overflows a float at pilot power {power:.3e}")
    u = exponential_basis(hop.r, theta)
    lmmse = (u * (scale * lam / (a * lam + c))) @ u.conj().T
    return _root(lam, u, overwrite=True), _root(*hop.tx_spectrum), lmmse


def _centro_root(s, halves, phase, overwrite=False):
    """The CentroRoot of U diag(sqrt(s)) U^H from U's half-size blocks and
    row phase (exponential_half_basis): one real Gram product per block."""
    return CentroRoot(*(_root(s[cols], u, overwrite) for u, cols in halves), phase)


def model_factors(model):
    """((receive_hat^(1/2), receive_err^(1/2)), (transmit_hat^(1/2),
    transmit_err^(1/2))), the roots draw_hop draws the model's estimate and
    error with, built per call and kept nowhere.

    The receive roots are CentroRoots: the real half-size blocks of the
    |r| matrix's roots, built from half the rows of its eigenvectors, and
    the row phase of r (none for r >= 0). They hold half the memory of
    dense roots (2.5 MiB for the two models at N = 256, M = 512; 40 MiB at
    N = 1024) and meet each chunk as two real GEMMs of half size, at any
    r. The error's receive root is None, and never built, where the error
    is zero (c = 0); it is formed first, then the blocks are scaled in
    place into the estimate's. The transmit roots are taken in the
    eigenbasis V of the hop's transmit matrix, which diagonalizes both:
    their spectra are diag(V^H T V), with rounding below zero on the error
    side clamped. The pilot chain (pilot_factors) and Lemma 1's oracle keep
    dense roots: a split pilot chain ran mse-sweep slower under its
    one-thread hold.
    """
    hop, (f, g) = model.hop, model.split
    halves, phase = exponential_half_basis(hop.r, hop.spectrum[1])
    err = _centro_root(g, halves, phase) if model.obs[1] else None
    receive = _centro_root(f, halves, phase, overwrite=True), err
    v = hop.tx_spectrum[1]
    spectra = (np.einsum("ij,ij->j", v.conj(), t @ v).real
               for t in (model.transmit_hat, model.transmit_err))
    return receive, tuple(_root(np.maximum(s, 0.0), v) for s in spectra)


def mse_closed_form(hop, adc, power):
    """Total MSE E{||estimate - channel||_F^2} of the hop's LMMSE estimate.

    Equals gain tr(transmit) sum(g): it does not depend on the transmit
    matrix beyond its trace.
    """
    _, (_, g, _) = observation(hop, adc, power)
    return hop.total_gain * hop.streams * float(g.sum())


def _pilot_draws(hop, adc):
    """Shapes of what one pilot trial draws, in stream order: the channel's
    iid part H and the receiver noise, then the quantization noise unless
    the ADC is ideal; each real parts first, then imaginary parts."""
    n, k = hop.shape
    return [(n, k)] * 2 + [(n, hop.tau)] * (2 if adc.is_ideal else 4)


def simulate_pilot(hop, adc, power, parts, factors):
    """Run the quantized pilot phase on a chunk of trials and return the
    (channel, estimate) stacks, each (b, n, k).

    parts are the chunk's split draws, one (b,) + shape stack per shape of
    _pilot_draws(hop, adc), in order. The per-antenna variance fed to the
    quantizer is the realized time-averaged pilot power (power / streams)
    * ||row||^2 + noise_var, constant over the pilot block because the
    pilot columns are orthonormal. The chunk runs in the (n, b, .) layout
    of complex_stack: each receive factor of pilot_factors (the channel's
    root and the LMMSE filter) meets it as one GEMM, and so do the pilots.
    """
    n, k = hop.shape
    (recv_sqrt, tx_sqrt, lmmse), pilots = factors, hop.pilots
    h_re, h_im, w_re, w_im, *quant = parts
    chan = draw_hop(recv_sqrt, tx_sqrt, hop.gain, h=complex_stack(h_re, h_im))
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

    Trials run through channel.sample, whose stage returns each trial's
    squared error. rng fills each chunk's normals in one call, row by row,
    so every trial sees the numbers it would draw on its own.
    """
    n, k = hop.shape
    draws = _pilot_draws(hop, adc)
    # the factors' GEMMs run under the pin too: threaded, they would leave
    # OpenBLAS's worker spinning into the trials, on the core that sample's
    # fill worker needs
    with _one_blas_thread(draws):
        factors = pilot_factors(hop, adc, power)

        def stage(*parts):
            chan, est = simulate_pilot(hop, adc, power, parts, factors)
            return {"mse": _sum_abs2(est - chan, "i") / (n * k)}

        errs = sample(draws, trials, lambda rows, _: rng.standard_normal(out=rows),
                      stage)["mse"]
    return tuple(map(float, mean_and_stderr(errs)))


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
    obs, (f, g, h) = observation(hop, adc, power)
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
    return EstimateModel(hop, tx_hat, tx_err, obs, (f, g))


def perfect_model(hop):
    """EstimateModel for genie CSI on the hop: the estimate is the truth
    and the error is zero (c = 0)."""
    k = hop.shape[1]
    lam = hop.spectrum[0]
    return EstimateModel(hop, hop.transmit, np.zeros((k, k)), (1.0, 0.0),
                         (lam, np.zeros_like(lam)))
