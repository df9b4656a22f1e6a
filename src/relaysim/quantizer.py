"""Additive quantization-noise model (AQNM) for low-resolution ADCs.

An ADC pair quantizing a complex sample y with per-sample variance v is
modelled as alpha * y + n_q, where alpha = 1 - rho, rho is the normalized
MMSE distortion of the scalar quantizer, and n_q is circularly symmetric
Gaussian with variance alpha * (1 - alpha) * v, uncorrelated with y.
"""

from dataclasses import dataclass
import math

import numpy as np

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
    high-resolution asymptote, which is 0.0, the ideal limit, from 538 bits.
    """
    if bits is IDEAL:
        return 0.0
    if bits != int(bits) or bits < 1:
        raise ValueError(f"ADC resolution must be a positive integer or IDEAL, got {bits!r}")
    bits = int(bits)
    if bits in DISTORTION_TABLE:
        return DISTORTION_TABLE[bits]
    return math.sqrt(3.0) * math.pi / 2.0 * math.ldexp(1.0, -2 * bits)


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


def aqnm_quantize(y, adc, signal_var, normals=None):
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
    normals : (array, array)
        The noise's real and imaginary standard normals, each of y's
        shape, already drawn. An ideal ADC adds no noise and takes none.
    """
    y = np.asarray(y, dtype=np.complex128)
    var = np.asarray(signal_var, dtype=np.float64)
    np.broadcast_to(var, y.shape)       # refuses a shape that does not fit y
    if np.any(var < 0.0):
        raise ValueError("signal variances must be non-negative")
    if adc.is_ideal:
        return y.copy()
    if normals is None:
        raise ValueError("a non-ideal ADC needs the noise's standard normals")
    # the noise is scale * (re + 1j im), assembled part by part
    scale = np.sqrt(adc.alpha * adc.rho * var / 2.0)
    out = np.empty(y.shape, dtype=np.complex128)
    np.multiply(scale, normals[0], out=out.real)
    np.multiply(scale, normals[1], out=out.imag)
    out += adc.alpha * y
    return out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _std_normal_cdf(x):
    # math.erfc over a few cell edges keeps scipy off the import path, and
    # unlike 1 + erf it keeps its relative accuracy in the lower tail
    return 0.5 * np.asarray(_erfc(np.asarray(x) / -math.sqrt(2.0)), dtype=np.float64)


def _std_normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _solve_tridiagonal(sub, diag, sup, rhs):
    """Thomas algorithm for a diagonally dominant tridiagonal system."""
    sub, diag, sup, rhs = (v.tolist() for v in (sub, diag, sup, rhs))
    for i in range(1, len(diag)):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
    return np.array(rhs)


LLOYD_MAX_TOL = 1e-10
LLOYD_MAX_ITER = 10000


def lloyd_max_distortion(bits):
    """Normalized MMSE distortion of the Lloyd-Max quantizer for N(0, 1).

    Seeks the fixed point of the Lloyd map c -> T(c), the cell centroids of
    the midpoint thresholds, by Newton steps on T(c) - c (the plain step
    c <- T(c) slows like 4^q: 92 677 steps at 8 bits). T_i depends on its
    two edges only, so the Jacobian is tridiagonal and diagonally dominant.
    From the equal-probability start Newton takes at most 7 steps for
    1..16 bits. Stops when the largest centroid shift |T(c) - c| falls
    below LLOYD_MAX_TOL, then returns E{(x - Q(x))^2} = 1 - sum_i p_i
    T_i(c)^2; gives up after LLOYD_MAX_ITER steps. The shift falls at every
    step until it reaches its rounding floor (about 6e-15 at 6 bits, 3e-14
    at 8), so a step that does not lower it raises ConvergenceError at
    once: a tolerance below that floor cannot be met.
    """
    if bits != int(bits) or bits < 1:
        raise ValueError(f"resolution must be a positive integer, got {bits!r}")
    levels = 2 ** int(bits)
    # equal-probability quantile midpoints make a good symmetric start;
    # statistics is imported here, as only this check needs it
    from statistics import NormalDist
    unit = NormalDist()
    centroids = np.array([unit.inv_cdf((i + 0.5) / levels) for i in range(levels)])
    largest = math.inf
    for _ in range(LLOYD_MAX_ITER):
        edges = 0.5 * (centroids[:-1] + centroids[1:])
        # Phi(edge) - [edge > 0] from the smaller tail, so that no far cell
        # subtracts two values near 1; the cell across 0 adds the 1 back
        tail = _std_normal_cdf(-np.abs(edges))
        upper = edges > 0.0
        signed = np.concatenate(([0.0], np.where(upper, -tail, tail), [0.0]))
        cell_prob = np.diff(signed) + np.diff(np.concatenate(([0.0], upper, [1.0])))
        pdf = _std_normal_pdf(edges)
        if np.any(cell_prob <= 0.0):
            raise ConvergenceError("quantizer cell collapsed to zero probability")
        # integral of x phi(x) over each cell: phi(lower) - phi(upper)
        mapped = (np.append(0.0, pdf) - np.append(pdf, 0.0)) / cell_prob
        shift = mapped - centroids
        previous, largest = largest, float(np.max(np.abs(shift)))
        if largest < LLOYD_MAX_TOL:
            return float(1.0 - np.sum(cell_prob * mapped ** 2))
        if largest >= previous:
            raise ConvergenceError(
                f"Lloyd-Max iteration stalled at shift {largest:.3e}, not "
                f"below tol {LLOYD_MAX_TOL:.3e}")
        # dT_i/d(edge) is phi(edge) (T_i - edge) / p_i up to sign, for the
        # cell above and the cell below each edge; an edge moves by half of
        # either neighbouring centroid's move
        above = 0.5 * pdf * (mapped[1:] - edges) / cell_prob[1:]
        below = 0.5 * pdf * (edges - mapped[:-1]) / cell_prob[:-1]
        diag = np.append(0.0, above) + np.append(below, 0.0) - 1.0
        centroids = centroids - _solve_tridiagonal(above, diag, below, shift)
    raise ConvergenceError(
        f"Lloyd-Max iteration did not converge within {LLOYD_MAX_ITER} iterations "
        f"(last shift {largest:.3e})")
