"""Correlation-matrix construction and linear-algebra helper checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import config as cfg
from relaysim import correlation as corr


def test_zero_coefficient_gives_identity():
    mat = corr.exponential_correlation(0.0, 7)
    np.testing.assert_allclose(mat, np.eye(7), atol=0.0)


def test_two_by_two_eigenvalues():
    mat = corr.exponential_correlation(0.5, 2)
    w = np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(np.sort(w), [0.5, 1.5], rtol=1e-12)


def test_entry_pattern_complex_coefficient():
    r = 0.3 + 0.4j
    n = 6
    mat = corr.exponential_correlation(r, n)
    for i in range(n):
        for j in range(n):
            expected = r ** (j - i) if j >= i else np.conj(r ** (i - j))
            assert mat[i, j] == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
    np.testing.assert_allclose(np.diag(mat).real, 1.0, atol=0.0)


def test_psd_across_coefficients():
    for r in (0.0, 0.5, 0.9, 0.99, 0.3 + 0.4j, -0.7):
        mat = corr.exponential_correlation(r, 32)
        w = np.linalg.eigvalsh(mat)
        assert w[0] >= -1e-12


def test_coefficient_magnitude_must_be_subunit():
    with pytest.raises(ValueError):
        corr.exponential_correlation(1.0, 4)
    with pytest.raises(ValueError):
        corr.exponential_correlation(-1.2, 4)
    # the antenna selection and the closed-form norm refuse through the
    # same argument check
    for build in (corr.exponential_correlation, corr.exp_frobenius_sq,
                  lambda r, n: corr.select_transmit_correlation(r, n, 1)):
        with pytest.raises(ValueError, match=r"must satisfy \|r\| < 1"):
            build(0.6 + 0.8j, 4)
        with pytest.raises(ValueError, match="matrix size must be >= 1"):
            build(0.5, 0)


def test_closed_form_frobenius_matches_matrix():
    for r in (0.0, 0.4, 0.8, 0.3 - 0.2j):
        for n in (1, 2, 17, 256):
            mat = corr.exponential_correlation(r, n)
            direct = np.vdot(mat, mat).real
            closed = corr.exp_frobenius_sq(r, n)
            assert closed == pytest.approx(direct, rel=1e-9)


def test_frobenius_per_antenna_limit():
    # the per-antenna squared norm approaches (1 + r^2) / (1 - r^2)
    r = 0.8
    limit = (1.0 + r ** 2) / (1.0 - r ** 2)
    at_256 = corr.exp_frobenius_sq(r, 256) / 256
    idx = np.arange(256)
    brute = np.sum(r ** (2.0 * np.abs(idx[:, None] - idx[None, :]))) / 256
    assert at_256 == pytest.approx(brute, rel=1e-12)
    assert abs(at_256 - limit) / limit < 0.10
    for coeff in (0.4, 0.8):
        lim = (1.0 + coeff ** 2) / (1.0 - coeff ** 2)
        at_512 = corr.exp_frobenius_sq(coeff, 512) / 512
        assert abs(at_512 - lim) / lim < 0.02


def test_transmit_selection_coefficient():
    n, k = 128, 10
    picked = corr.select_transmit_correlation(0.8, n, k)
    expected = corr.exponential_correlation(0.8 ** (n / k), k)
    np.testing.assert_allclose(picked, expected, atol=1e-14)
    # uncorrelated input stays uncorrelated regardless of the ratio
    for zero in (0.0, 0j):
        np.testing.assert_array_equal(corr.select_transmit_correlation(zero, n, k),
                                      np.eye(k))


# the closed-form spectrum against numpy's dense eigensolver: real,
# negative, complex and purely imaginary coefficients up to |r| = 0.999999
_MAX_ABS = 0.999999
_coefficients = st.one_of(
    st.floats(-_MAX_ABS, _MAX_ABS),
    st.builds(lambda a, angle: a * np.exp(1j * angle),
              st.floats(0.0, _MAX_ABS), st.floats(-np.pi, np.pi)),
    st.builds(lambda a: 1j * a, st.floats(-_MAX_ABS, _MAX_ABS)),
)


@settings(max_examples=150, deadline=None)
@given(r=_coefficients, n=st.integers(1, 300))
@example(r=0.0, n=1)
@example(r=0.0, n=300)
@example(r=_MAX_ABS, n=300)
@example(r=-_MAX_ABS, n=300)
@example(r=-1j * _MAX_ABS, n=300)
@example(r=_MAX_ABS, n=1)
@example(r=-_MAX_ABS, n=2)
@example(r=_MAX_ABS, n=64)
@example(r=0.8 ** (2048 / 10), n=10)      # the transmit side at N = 2048, K = 10
@example(r=0.8 ** (2048 / 10), n=300)
def test_exponential_spectrum_matches_dense_eigh(r, n):
    mat = corr.exponential_correlation(r, n)
    lam, theta = corr.exponential_eigenvalues(r, n)
    u = corr.exponential_basis(r, theta)
    oracle = np.linalg.eigh(mat)[0]
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - oracle).max() <= 1e-12 * oracle[-1]
    assert np.abs((u * lam) @ u.conj().T - mat).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
    assert np.iscomplexobj(u) == (complex(r).imag != 0.0)


def test_exponential_eigenvalues_match_dense_eigvalsh_at_large_n():
    # the dense basis checks above lose about n * 1e-16 and are run up to
    # n = 300; the eigenvalues alone stay within 1e-12 of the largest one
    r, n = _MAX_ABS, 4096
    oracle = np.linalg.eigvalsh(corr.exponential_correlation(r, n))
    lam = corr.exponential_eigenvalues(r, n)[0]
    assert np.abs(lam - oracle).max() <= 1e-12 * oracle[-1]


def _count_phase_passes(monkeypatch):
    """List that grows by one per vectorised _sinusoid_phase pass."""
    passes = []
    phase = corr._sinusoid_phase
    monkeypatch.setattr(corr, "_sinusoid_phase",
                        lambda theta, a: passes.append(np.size(theta)) or phase(theta, a))
    return passes


def test_angle_solve_pass_counts(monkeypatch):
    passes = _count_phase_passes(monkeypatch)
    for n in (128, 1024):
        for hop in cfg.scenario_hops(cfg.table_defaults().with_updates(N=n)):
            passes.clear()
            hop.spectrum
            assert 2 <= len(passes) <= 8, (hop.n, len(passes))
    # 30 bisection and 3 Newton steps took 33 passes; at these extremes the
    # solve stops on its own before that many
    for r in (0.0, 1e-300, 0.8 ** (2048 / 10), 0.8, -0.99, _MAX_ABS, -1j * _MAX_ABS,
              np.nextafter(1.0, 0.0)):
        for n in (1, 2, 3, 10, 64, 300, 4096):
            passes.clear()
            lam = corr.exponential_eigenvalues(r, n)[0]
            assert len(passes) < 33, (r, n)
            assert np.all(np.diff(lam) >= 0.0) and np.all(np.isfinite(lam))


# diagonals of the LMMSE split E = c (a I + c R^-1)^-1 and R - E: a
# 50-digit oracle built from the Kac-Murdock-Szego inverse of R, and the
# eigenvector path |U|^2 @ f, |U|^2 @ g they replace

def _kms_inverse(rho, n):
    """Diagonal and off-diagonal of R^-1 for R = rho**|i - j|, checked
    against R (run inside mpmath.workdps)."""
    rho = mpmath.mpf(rho)
    s = 1 - rho ** 2
    diag = [(1 + rho ** 2) / s] * n
    diag[0] = diag[-1] = 1 / s if n > 1 else mpmath.mpf(1)
    off = -rho / s
    recv = [[rho ** abs(i - j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            row = diag[i] * recv[i][j]
            row += off * (recv[i - 1][j] if i > 0 else 0)
            row += off * (recv[i + 1][j] if i < n - 1 else 0)
            assert abs(row - (i == j)) < mpmath.mpf(10) ** -40
    return diag, off


def _split_diagonals_oracle(inverse, a, c):
    """(diag(R - E), diag(E)) from the leading and trailing principal
    minors of the tridiagonal a I + c R^-1 (Usmani's formula)."""
    diag, off = inverse
    n = len(diag)
    a, c = mpmath.mpf(a), mpmath.mpf(c)
    d = [a + c * x for x in diag]
    e2 = (c * off) ** 2
    lead = [mpmath.mpf(1), d[0]]
    for i in range(1, n):
        lead.append(d[i] * lead[-1] - e2 * lead[-2])
    trail = [mpmath.mpf(1), d[-1]]
    for i in range(n - 2, -1, -1):
        trail.append(d[i] * trail[-1] - e2 * trail[-2])
    trail = trail[::-1]                          # trail[i]: rows i..n-1
    err = [c * lead[i] * trail[i + 1] / lead[n] for i in range(n)]
    return [float(1 - x) for x in err], [float(x) for x in err]


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, 0.99, 0.999999])
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_split_diagonals_match_high_precision_oracle(rho, n):
    # a / c from 1e-10 to 1e10, then genie CSI (c = 0), against 50 digits;
    # the phase of r does not enter, so the oracle runs at the |r| the
    # sweep sees
    r = rho * np.exp(0.3j)
    with mpmath.workdps(50):
        inverse = _kms_inverse(abs(r), n)
        for a, c in [(10.0 ** p, 1.0) for p in range(-10, 11)] + [(1.0, 0.0)]:
            hat, err = corr.exponential_split_diagonals(r, n, a, c)
            want_hat, want_err = _split_diagonals_oracle(inverse, a, c)
            np.testing.assert_allclose(hat, want_hat, rtol=2e-15, atol=0.0)
            np.testing.assert_allclose(err, want_err, rtol=2e-15, atol=0.0)
    hat, err = corr.exponential_split_diagonals(r, n, 1.0, 0.0)
    assert np.all(hat == 1.0) and np.all(err == 0.0)


def _full_sweep_split_diagonals(rho, n, a, c):
    """exponential_split_diagonals with both pivot sweeps run over every row."""
    s = (1.0 - rho) * (1.0 + rho)
    b, w = s * a, rho * rho * c
    gains = np.zeros((2, n))
    for sweep in (gains[0], gains[1, ::-1]):
        delta = b
        for i in range(1, n):
            gain = w * delta / (c + delta)
            sweep[i] = gain
            delta = b + gain
    kept = b + gains[0] + gains[1]
    return kept / (c * s + kept), c * s / (c * s + kept)


@pytest.mark.parametrize("rho", [0.0, 0.8, 0.999999])
def test_split_sweeps_that_stop_early_match_the_full_sweeps_bitwise(rho):
    # a sweep stops at the recursion's fixed point; the rows it skips must
    # hold exactly what the full sweep computes
    for n in (1, 2, 3, 40, 2 ** 14):
        for a, c in [(10.0 ** p, 1.0) for p in range(-10, 11, 2)] + [(0.0, 1.0), (1.0, 0.0)]:
            hat, err = corr.exponential_split_diagonals(rho, n, a, c)
            want_hat, want_err = _full_sweep_split_diagonals(rho, n, a, c)
            np.testing.assert_array_equal(hat, want_hat)
            np.testing.assert_array_equal(err, want_err)


@pytest.mark.parametrize("rho", [0.0, 0.8, 0.999999])
def test_split_diagonals_depend_on_the_ratio_alone_bitwise(rho):
    # (a, c) scaled by 2^k gives the same diagonals bit for bit, even where
    # the unscaled sweep's products would overflow or underflow
    for a, c in [(10.0 ** p, 1.0) for p in range(-10, 11, 5)] + [(1.0, 0.0), (0.0, 1.0)]:
        hat, err = corr.exponential_split_diagonals(rho, 40, a, c)
        for k in (-900, -500, -40, 40, 500, 900):
            scaled = corr.exponential_split_diagonals(rho, 40, math.ldexp(a, k), math.ldexp(c, k))
            np.testing.assert_array_equal(scaled[0], hat)
            np.testing.assert_array_equal(scaled[1], err)


@settings(max_examples=100, deadline=None)
@given(r=_coefficients, n=st.integers(1, 300),
       log_a=st.floats(-10.0, 10.0), log_c=st.floats(-5.0, 5.0))
@example(r=_MAX_ABS, n=300, log_a=0.0, log_c=-3.0)
@example(r=-0.5 + 0.5j, n=300, log_a=-10.0, log_c=0.0)
def test_split_diagonals_match_the_eigenvector_path(r, n, log_a, log_c):
    a, c = 10.0 ** log_a, 10.0 ** log_c
    lam, theta = corr.exponential_eigenvalues(r, n)
    weights = np.abs(corr.exponential_basis(r, theta)) ** 2
    f, g = a * lam ** 2 / (a * lam + c), c * lam / (a * lam + c)
    hat, err = corr.exponential_split_diagonals(r, n, a, c)
    np.testing.assert_allclose(hat, weights @ f, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(err, weights @ g, rtol=1e-12, atol=0.0)
