"""Correlation-matrix construction and linear-algebra helper checks."""

import numpy as np
import pytest

from relaysim import correlation as corr
from relaysim.errors import NotPSDError


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


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(5)
    for r in (0.0, 0.6, 0.95):
        mat = corr.exponential_correlation(r, 24)
        root = corr.psd_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-10)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-10)
    # a generic random PSD matrix should also round-trip
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    psd = g @ g.conj().T
    root = corr.psd_sqrt(psd)
    np.testing.assert_allclose(root @ root, psd, atol=1e-8 * np.abs(psd).max())


def test_psd_sqrt_rejects_indefinite():
    mat = np.diag([1.0, -0.5])
    with pytest.raises(NotPSDError):
        corr.psd_sqrt(mat)


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
    np.testing.assert_allclose(corr.select_transmit_correlation(0.0, n, k),
                               np.eye(k), atol=0.0)
