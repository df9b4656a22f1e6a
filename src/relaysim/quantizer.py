"""Additive quantization-noise model (AQNM) for low-resolution ADCs.

An ADC pair quantizing a complex sample y with per-sample variance v is
modelled as alpha * y + n_q, where alpha = 1 - rho, rho is the normalized
MMSE distortion of the scalar quantizer, and n_q is circularly symmetric
Gaussian with variance alpha * (1 - alpha) * v, uncorrelated with y.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy import special

from .errors import ConvergenceError

# Ideal (infinite-resolution) ADC sentinel: distortion_factor(IDEAL) == 0.
IDEAL = None


def bits_label(bits):
    """CSV and report label of a resolution: its bit count, or 'ideal'."""
    return "ideal" if bits is IDEAL else str(bits)


# Normalized MMSE distortion of the optimal scalar quantizer for a unit
# variance Gaussian input, per resolution in bits. Beyond 5 bits the
# asymptotic law (sqrt(3) pi / 2) * 2^(-2 q) takes over.
DISTORTION_TABLE = {
    1: 0.3634,
    2: 0.1175,
    3: 0.03454,
    4: 0.009497,
    5: 0.002499,
}


def distortion_factor(bits):
    """Distortion rho for a given ADC resolution.

    bits may be a positive integer or IDEAL (no quantization, rho = 0).
    Resolutions 1..5 use the tabulated optimal values; 6 bits and up use the
    high-resolution asymptote.
    """
    if bits is IDEAL:
        return 0.0
    if bits != int(bits) or bits < 1:
        raise ValueError(f"ADC resolution must be a positive integer or IDEAL, got {bits!r}")
    bits = int(bits)
    if bits in DISTORTION_TABLE:
        return DISTORTION_TABLE[bits]
    return math.sqrt(3.0) * math.pi / 2.0 * 2.0 ** (-2 * bits)


@dataclass(frozen=True)
class AdcSpec:
    """Resolution plus the derived AQNM constants."""

    bits: object        # positive int, or IDEAL
    rho: float
    alpha: float

    @classmethod
    def from_bits(cls, bits):
        rho = distortion_factor(bits)
        return cls(bits=bits, rho=rho, alpha=1.0 - rho)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"distortion must lie in [0, 1), got {self.rho}")
        if self.alpha + self.rho != 1.0:
            raise ValueError("alpha and rho must sum to exactly 1")

    @property
    def is_ideal(self):
        return self.rho == 0.0


def aqnm_quantize(y, adc, signal_var, rng):
    """Apply the AQNM map alpha * y + n_q elementwise.

    Parameters
    ----------
    y : array_like, complex
        Samples to quantize, any shape.
    adc : AdcSpec
    signal_var : array_like
        Per-element variance of y (broadcastable to y's shape). The noise
        variance is alpha * (1 - alpha) * signal_var per element, split
        evenly between real and imaginary parts.
    rng : numpy.random.Generator
    """
    y = np.asarray(y, dtype=np.complex128)
    var = np.broadcast_to(np.asarray(signal_var, dtype=np.float64), y.shape)
    if np.any(var < 0.0):
        raise ValueError("signal variances must be non-negative")
    if adc.is_ideal:
        return y.copy()
    scale = np.sqrt(adc.alpha * adc.rho * var / 2.0)
    noise = scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return adc.alpha * y + noise


def _std_normal_cdf(x):
    return 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))


def _std_normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def lloyd_max_distortion(bits, tol=1e-10, max_iter=10000):
    """Normalized MMSE distortion of the Lloyd-Max quantizer for N(0, 1).

    Alternates centroid and midpoint-threshold updates until the largest
    centroid shift falls below tol, then returns
    E{(x - Q(x))^2} = 1 - sum_i p_i c_i^2.
    """
    if bits != int(bits) or bits < 1:
        raise ValueError(f"resolution must be a positive integer, got {bits!r}")
    levels = 2 ** int(bits)
    # equal-probability quantile midpoints make a good symmetric start
    probs = (np.arange(levels) + 0.5) / levels
    centroids = math.sqrt(2.0) * special.erfinv(2.0 * probs - 1.0)
    for _ in range(max_iter):
        edges = np.empty(levels + 1)
        edges[0] = -np.inf
        edges[-1] = np.inf
        edges[1:-1] = 0.5 * (centroids[:-1] + centroids[1:])
        cdf = _std_normal_cdf(edges)
        pdf = _std_normal_pdf(edges[1:-1])
        cell_prob = np.diff(cdf)
        # integral of x phi(x) over each cell: phi(lower) - phi(upper)
        cell_mean = np.empty(levels)
        cell_mean[0] = -pdf[0]
        cell_mean[-1] = pdf[-1]
        if levels > 2:
            cell_mean[1:-1] = pdf[:-1] - pdf[1:]
        if np.any(cell_prob <= 0.0):
            raise ConvergenceError("quantizer cell collapsed to zero probability")
        new_centroids = cell_mean / cell_prob
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            return float(1.0 - np.sum(cell_prob * centroids ** 2))
    raise ConvergenceError(
        f"Lloyd-Max iteration did not converge within {max_iter} iterations "
        f"(last shift {shift:.3e})")
