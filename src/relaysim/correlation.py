"""Spatial correlation matrices, their closed-form spectra and norms.

The antenna arrays at both ends of each hop follow the exponential
correlation model: entry (i, j) equals r**(j - i) above the diagonal and the
conjugate mirror below it, with |r| < 1. Its eigendecomposition is known in
closed form (exponential_eigenvalues, exponential_basis), so no receive
array is handed to a dense eigensolver but by the PSD checks of the oracle
EstimateModel.validate, and the diagonals of its LMMSE estimate/error split
take one O(n) pivot sweep each way (exponential_split_diagonals). The relay
transmit side uses K out of N antennas, equally spaced, which raises the
effective neighbour coefficient to r**(N / K).
"""

import math

import numpy as np


def _checked(r, n):
    """(complex r, int n) of an exponential array, refusing n < 1 and |r| >= 1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    r = complex(r)
    if abs(r) >= 1.0:
        raise ValueError(f"correlation coefficient must satisfy |r| < 1, got |r| = {abs(r)}")
    return r, n


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
    r, n = _checked(r, n)
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None]          # j - i
    if r.imag == 0.0:
        return r.real ** np.abs(lag)
    upper = r ** np.abs(lag)
    return np.where(lag >= 0, upper, np.conj(upper))


def _sinusoid_phase(theta, a):
    """phi(theta) = atan2(a sin theta, 1 - a cos theta) and sin(theta / 2).

    1 - a cos theta is formed as (1 - a) + 2 a sin^2(theta / 2), free of
    cancellation as a -> 1 and theta -> 0.
    """
    half = np.sin(0.5 * theta)
    return np.arctan2(a * np.sin(theta), (1.0 - a) + 2.0 * a * half * half), half


# cap on the angle solve's vectorised _sinusoid_phase passes: what 30
# bisection and 3 Newton steps cost; no |r| < 1 tried needs more than 14
_MAX_ANGLE_PASSES = 33
_EPS = np.finfo(np.float64).eps


def exponential_eigenvalues(r, n):
    """Ascending eigenvalues lam of exponential_correlation(r, n) and their
    angles theta, in closed form and O(n).

    With a = |r|, the matrix a**|i - j| has a tridiagonal inverse (Kac,
    Murdock and Szego, 1953), so its eigenvectors are the sinusoids
    x_k = sin(k theta + phi(theta)), k = 1..n (phi as in _sinusoid_phase),
    and its eigenvalues are
    lam = (1 - a^2) / ((1 - a)^2 + 4 a sin^2(theta / 2)); the n angles are
    the roots of F(theta) = (n + 1) theta + 2 phi(theta) - j pi, j = 1..n.
    F is concave on [0, pi] and increases with slope > n, and root j lies
    in [(j - 1) pi, j pi] / (n + 1). Each angle starts from one fixed-point
    step off the top of its bracket, theta = (j pi - 2 phi(hi)) / (n + 1),
    and then takes safeguarded Newton steps (rtsafe, Press et al.): a step
    that leaves the bracket, or moves more than half as far as the one
    before, is replaced by bisection, at the bracket's geometric mean once
    its low end is positive, which is what pulls the smallest angles in
    when |r| -> 1 makes phi steep. An angle stops once its step is within
    a few ulps of theta or of the rounding floor of F, and the solve stops
    once every angle has: 4 vectorised passes on the default arrays, never
    more than 33. The phase of r does not change the eigenvalues.
    exponential_basis turns the same angles into the eigenvectors.
    """
    r, n = _checked(r, n)
    a = abs(r)
    # eigenvalues fall as theta grows, so descending j gives ascending lam
    target = np.pi * np.arange(n, 0, -1, dtype=np.float64)
    lo, hi = (target - np.pi) / (n + 1), target / (n + 1)
    theta = np.clip((target - 2.0 * _sinusoid_phase(hi, a)[0]) / (n + 1), lo, hi)
    # the loop works on the angles still moving, at their indices active
    active, t, moved = np.arange(n), theta.copy(), hi - lo
    for _ in range(_MAX_ANGLE_PASSES - 1):
        phi, half = _sinusoid_phase(t, a)
        excess = (n + 1) * t + 2.0 * phi - target
        lo, hi = np.where(excess < 0.0, t, lo), np.where(excess > 0.0, t, hi)
        gap = (1.0 - a) ** 2 + 4.0 * a * half * half
        slope = (n + 1) + 2.0 * a * ((1.0 - a) - 2.0 * half * half) / gap
        newton = t - excess / slope
        kept = (lo <= newton) & (newton <= hi) & (np.abs(newton - t) <= 0.5 * moved)
        step = np.where(kept, newton, np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * (lo + hi)))
        moved = np.abs(step - t)
        theta[active] = step
        # F is only known to about eps * j pi, which moves theta by that / slope
        going = moved > 4.0 * _EPS * (step + target / slope)
        if not going.any():
            break
        active, t, lo, hi, target, moved = (
            x[going] for x in (active, step, lo, hi, target, moved))
    half = np.sin(0.5 * theta)
    lam = (1.0 - a) * (1.0 + a) / ((1.0 - a) ** 2 + 4.0 * a * half * half)
    return lam, theta


def exponential_basis(r, theta):
    """Orthonormal eigenvectors U of exponential_correlation(r, n), one
    column per angle of exponential_eigenvalues(r, n), in O(n^2).

    Column j is the normalised sinusoid sin(k theta_j + phi(theta_j)),
    k = 1..n. A complex or negative r only rotates the basis,
    U = diag(exp(-i k arg r)) V, which stays real for real r. Together with
    the eigenvalues it agrees with numpy.linalg.eigh of the dense matrix to
    about n * 1e-16 (tested to 1e-12 for |r| <= 0.999999 and n <= 300).
    """
    r, n = _checked(r, len(theta))
    phi = _sinusoid_phase(theta, abs(r))[0]
    u = np.outer(np.arange(1, n + 1, dtype=np.float64), theta)
    u += phi
    np.sin(u, out=u)
    u /= np.sqrt(np.einsum("ij,ij->j", u, u))
    if r.imag != 0.0:
        return np.exp(-1j * np.angle(r) * np.arange(n))[:, None] * u
    if r.real < 0.0:
        u[1::2] *= -1.0
    return u


def exponential_split_diagonals(r, n, a, c):
    """Diagonals of R - E and of E = c (a I + c R^-1)^-1, in O(n), where
    R = exponential_correlation(r, n), a >= 0, c >= 0 and a + c > 0.

    E = c R (a R + c I)^-1 is the LMMSE error covariance of an observation
    with covariance a R + c I, and R - E the estimate's. With rho = |r|
    (the phase of r does not change either diagonal) and s = 1 - rho^2,
    s (a I + c R^-1) is tridiagonal with diagonal b + c s + c rho^2 per
    neighbour (b = s a) and off-diagonal -c rho. One forward and one
    backward pivot sweep give the Schur-complement gains
    Delta_i = rho^2 c delta_(i-1) / (c + delta_(i-1)), delta_i = b + Delta_i,
    delta_1 = b (and E_i the same from row n), so with
    D = c s + b + Delta + E the diagonals are (b + Delta + E) / D and
    c s / D. The gains converge to the recursion's fixed point: a sweep
    stops at the first gain equal bitwise to the one before, because from
    there the recursion repeats it, and fills its remaining rows with that
    gain (row 14 on the default first hop, row 18 on the second, at any
    n). Every term is a sum of non-negative numbers, so neither
    diagonal loses accuracy to cancellation, not even as rho -> 1 or
    1 - diag(E) -> 0 (tested to 2e-15 against a 50-digit oracle). c = 0
    gives exactly 1 and 0. Both diagonals depend on a / c alone, so (a, c)
    is first scaled by a power of two, exactly, to put the larger near 1;
    then no product of the sweep overflows, at any pilot power.
    """
    r, n = _checked(r, n)
    rho = abs(r)
    s = (1.0 - rho) * (1.0 + rho)
    shift = -math.frexp(max(a, c))[1]
    b = s * math.ldexp(a, shift)
    c = math.ldexp(c, shift)
    w = rho * rho * c
    gains = np.zeros((2, n))
    for sweep in (gains[0], gains[1, ::-1]):
        delta, last = b, 0.0
        for i in range(1, n):
            gain = w * delta / (c + delta)
            if gain == last:
                # a repeated gain repeats delta, so every later row repeats it
                sweep[i:] = gain
                break
            sweep[i] = last = gain
            delta = b + gain
    kept = b + gains[0] + gains[1]
    denom = c * s + kept
    return kept / denom, c * s / denom


def select_transmit_correlation(r, n_total, n_selected):
    """Transmit-side correlation seen by n_selected equally spaced antennas.

    Picking every (n_total // n_selected)-th element of an exponentially
    correlated array is again exponentially correlated with coefficient
    r**(n_total / n_selected); the non-integer exponent keeps the dependence
    on the selection ratio smooth.
    """
    r, n_total = _checked(r, n_total)
    n_selected = int(n_selected)
    if not 1 <= n_selected <= n_total:
        raise ValueError(
            f"selected antenna count must be in [1, {n_total}], got {n_selected}")
    return exponential_correlation(r ** (n_total / n_selected), n_selected)


def exp_frobenius_sq(r, n):
    """Closed-form squared Frobenius norm of exponential_correlation(r, n).

    Equals n + 2 * sum_{d=1}^{n-1} (n - d) |r|^(2d), from the geometric
    sums directly. No product path calls it: it is the reference that the
    genie estimate's Frobenius norm, sum(lam^2), is checked against. As n
    grows the per-antenna value approaches (1 + |r|^2) / (1 - |r|^2).
    """
    r, n = _checked(r, n)
    rho = abs(r) ** 2
    if rho == 0.0:
        return float(n)
    # sum_{d=1}^{n-1} rho^d and sum_{d=1}^{n-1} d rho^d
    s1 = rho * (1.0 - rho ** (n - 1)) / (1.0 - rho)
    s2 = rho * (1.0 - n * rho ** (n - 1) + (n - 1) * rho ** n) / (1.0 - rho) ** 2
    return float(n + 2.0 * (n * s1 - s2))
