"""Spatial correlation matrices and the small linear-algebra helpers built on them.

The antenna arrays at both ends of each hop follow the exponential
correlation model: entry (i, j) equals r**(j - i) above the diagonal and the
conjugate mirror below it, with |r| < 1. The relay transmit side uses K out
of N antennas, equally spaced, which raises the effective neighbour
coefficient to r**(N / K).
"""

import numpy as np

from .errors import NotPSDError

# eigenvalues below -PSD_RTOL * max(eig) mean "not PSD"; anything in
# [-tol, 0) is clamped to zero before taking square roots
PSD_RTOL = 1e-10


def exponential_correlation(r, n):
    """Exponential correlation matrix of size n x n with coefficient r.

    Parameters
    ----------
    r : complex or float
        Neighbour correlation coefficient, |r| < 1.
    n : int
        Number of antennas.

    Returns
    -------
    ndarray, shape (n, n)
        Hermitian PSD matrix with unit diagonal: real symmetric float64 when
        r has no imaginary part, complex128 otherwise. Keeping real inputs
        real lets every eigendecomposition of the matrix run in real
        arithmetic.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    r = complex(r)
    if abs(r) >= 1.0:
        raise ValueError(f"correlation coefficient must satisfy |r| < 1, got |r| = {abs(r)}")
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None]          # j - i
    if r.imag == 0.0:
        return r.real ** np.abs(lag)
    upper = r ** np.abs(lag)
    return np.where(lag >= 0, upper, np.conj(upper))


def select_transmit_correlation(r, n_total, n_selected):
    """Transmit-side correlation seen by n_selected equally spaced antennas.

    Picking every (n_total // n_selected)-th element of an exponentially
    correlated array is again exponentially correlated with coefficient
    r**(n_total / n_selected); the non-integer exponent keeps the dependence
    on the selection ratio smooth.
    """
    n_total = int(n_total)
    n_selected = int(n_selected)
    if not 1 <= n_selected <= n_total:
        raise ValueError(
            f"selected antenna count must be in [1, {n_total}], got {n_selected}")
    r = complex(r)
    if abs(r) >= 1.0:
        raise ValueError(f"correlation coefficient must satisfy |r| < 1, got |r| = {abs(r)}")
    if r == 0:
        r_eff = 0.0 + 0.0j
    else:
        r_eff = r ** (n_total / n_selected)
    return exponential_correlation(r_eff, n_selected)


def psd_sqrt(mat):
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_RTOL * lam_max, 0) are clamped to zero; anything
    more negative raises NotPSDError.
    """
    mat = np.asarray(mat)
    w, u = np.linalg.eigh(mat)
    lam_max = float(w[-1]) if w.size else 0.0
    floor = -PSD_RTOL * max(lam_max, 0.0)
    if w.size and float(w[0]) < floor:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} vs max {lam_max:.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def exp_frobenius_sq(r, n):
    """Closed-form squared Frobenius norm of exponential_correlation(r, n).

    Equals n + 2 * sum_{d=1}^{n-1} (n - d) |r|^(2d); evaluating the geometric
    sums directly keeps large-n perfect-CSI sweeps free of n x n matrices.
    As n grows the per-antenna value approaches (1 + |r|^2) / (1 - |r|^2).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    rho = abs(complex(r)) ** 2
    if rho >= 1.0:
        raise ValueError(f"correlation coefficient must satisfy |r| < 1, got |r|^2 = {rho}")
    if rho == 0.0:
        return float(n)
    # sum_{d=1}^{n-1} rho^d and sum_{d=1}^{n-1} d rho^d
    s1 = rho * (1.0 - rho ** (n - 1)) / (1.0 - rho)
    s2 = rho * (1.0 - n * rho ** (n - 1) + (n - 1) * rho ** n) / (1.0 - rho) ** 2
    return float(n + 2.0 * (n * s1 - s2))
