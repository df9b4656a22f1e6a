"""Quantizer model checks: distortion table, AQNM statistics, Lloyd-Max."""

import math
import time

import mpmath
import numpy as np
import pytest

from relaysim import quantizer as qz
from relaysim.channel import substream
from relaysim.errors import ConvergenceError


def test_distortion_table_entries():
    assert qz.distortion_factor(1) == pytest.approx(0.3634, abs=1e-6)
    assert qz.distortion_factor(2) == pytest.approx(0.1175, abs=1e-6)
    assert qz.distortion_factor(3) == pytest.approx(0.03454, abs=1e-7)
    assert qz.distortion_factor(4) == pytest.approx(0.009497, abs=1e-8)
    assert qz.distortion_factor(5) == pytest.approx(0.002499, abs=1e-8)
    assert qz.distortion_factor(qz.IDEAL) == 0.0


def test_high_resolution_formula():
    # beyond the tabulated range the distortion falls as 4^-q
    for bits in (6, 8, 12):
        expected = (np.sqrt(3.0) * np.pi / 2.0) * 2.0 ** (-2 * bits)
        assert qz.distortion_factor(bits) == pytest.approx(expected, rel=1e-12)
    assert qz.distortion_factor(7) == pytest.approx(qz.distortion_factor(6) / 4)



def test_high_resolution_formula_is_bitwise_the_power_of_two_and_zero_past_floats():
    # the asymptote is the same float 2.0 ** (-2 q) gives wherever that power
    # exists, and the ideal limit 0.0 where its exponent leaves the float range
    for bits in range(6, 601):
        assert qz.distortion_factor(bits) == math.sqrt(3.0) * math.pi / 2.0 * 2.0 ** (-2 * bits)
    assert qz.distortion_factor(537) > 0.0
    assert qz.distortion_factor(538) == qz.distortion_factor(10 ** 400) == 0.0
    assert qz.AdcSpec.from_bits(10 ** 400).is_ideal

def test_distortion_monotone_and_continuous_at_transition():
    values = [qz.distortion_factor(b) for b in range(1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # the asymptotic formula at q=6 should sit near a quarter of the q=5 entry
    ratio = qz.distortion_factor(6) / qz.distortion_factor(5)
    assert 0.25 * 0.65 < ratio < 0.25 * 1.35


def test_adc_spec():
    adc = qz.AdcSpec.from_bits(2)
    assert adc.bits == 2
    assert adc.rho == pytest.approx(0.1175)
    assert adc.alpha == pytest.approx(0.8825)
    assert not adc.is_ideal
    ideal = qz.AdcSpec.from_bits(qz.IDEAL)
    assert ideal.is_ideal and ideal.alpha == 1.0 and ideal.rho == 0.0
    with pytest.raises(ValueError):
        qz.AdcSpec.from_bits(0)


def test_aqnm_noise_variance():
    adc = qz.AdcSpec.from_bits(1)
    rng = substream(21, "aqnm-noise")
    n = 200000
    var = 3.0
    y = np.sqrt(var / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    out = qz.aqnm_quantize(y, adc, var, (rng.standard_normal(n), rng.standard_normal(n)))
    noise = out - adc.alpha * y
    measured = np.mean(np.abs(noise) ** 2)
    assert measured == pytest.approx(adc.alpha * adc.rho * var, rel=0.02)
    # quantizer output power alpha^2 var + alpha rho var = alpha var
    assert np.mean(np.abs(out) ** 2) == pytest.approx(adc.alpha * var, rel=0.02)


def test_aqnm_per_element_variances():
    adc = qz.AdcSpec.from_bits(2)
    rng = substream(22, "aqnm-vector")
    var = np.array([0.5, 2.0, 8.0])
    y = np.zeros((30000, 3), dtype=np.complex128)
    normals = (rng.standard_normal(y.shape), rng.standard_normal(y.shape))
    out = qz.aqnm_quantize(y, adc, var[None, :], normals)
    measured = np.mean(np.abs(out) ** 2, axis=0)
    np.testing.assert_allclose(measured, adc.alpha * adc.rho * var, rtol=0.05)


def test_aqnm_ideal_passthrough():
    adc = qz.AdcSpec.from_bits(qz.IDEAL)
    rng = substream(23, "aqnm-ideal")
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    out = qz.aqnm_quantize(y, adc, np.ones(64))
    np.testing.assert_array_equal(out, y)
    # a non-ideal ADC has no noise to add without its drawn normals
    with pytest.raises(ValueError, match="standard normals"):
        qz.aqnm_quantize(y, qz.AdcSpec.from_bits(1), np.ones(64))


def test_lloyd_max_one_bit_analytic():
    # the optimal 1-bit quantizer of a standard normal has distortion 1 - 2/pi
    assert qz.lloyd_max_distortion(1) == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-9)


def test_lloyd_max_tracks_table():
    for bits in (2, 4):
        assert qz.lloyd_max_distortion(bits) == pytest.approx(
            qz.DISTORTION_TABLE[bits], abs=1e-3)


# recorded with the plain Lloyd iteration on scipy.special's erf/erfinv
_LLOYD_MAX_PINS = {
    1: 0.3633802276324186,
    2: 0.11748184782932924,
    3: 0.03454776078850408,
    4: 0.009501008008191869,
    5: 0.002504668355674866,
    6: 0.0006442396653176807,
}


def test_lloyd_max_matches_pinned_values():
    for bits, pinned in _LLOYD_MAX_PINS.items():
        assert qz.lloyd_max_distortion(bits) == pytest.approx(pinned, rel=0, abs=1e-14)


def test_lloyd_max_converges_at_high_resolution(monkeypatch):
    # plain Lloyd needs 25 643 and 92 677 steps here; these are its values,
    # which Newton reaches within ten steps
    monkeypatch.setattr(qz, "LLOYD_MAX_ITER", 10)
    assert qz.lloyd_max_distortion(7) == pytest.approx(1.6347822998030725e-4, rel=1e-10)
    assert qz.lloyd_max_distortion(8) == pytest.approx(4.118508286721223e-5, rel=1e-10)
    # far cells hold ~1e-7 of the mass at 12 bits
    assert qz.lloyd_max_distortion(12) == pytest.approx(
        math.sqrt(3.0) * math.pi / 2.0 * 4.0 ** -12, rel=1e-3)
    monkeypatch.undo()
    # the high-resolution law (sqrt(3) pi / 2) 4^-q is approached from below
    ratios = [qz.lloyd_max_distortion(bits) / (math.sqrt(3.0) * math.pi / 2.0 * 4.0 ** -bits)
              for bits in (6, 7, 8)]
    assert ratios == pytest.approx([0.970, 0.984, 0.992], abs=5e-4)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_lloyd_max_guards(monkeypatch):
    for bad in (0, 1.5, -2):
        with pytest.raises(ValueError):
            qz.lloyd_max_distortion(bad)
    for steps in (2, 0):
        monkeypatch.setattr(qz, "LLOYD_MAX_ITER", steps)
        with pytest.raises(ConvergenceError, match=f"within {steps} iterations"):
            qz.lloyd_max_distortion(3)
    monkeypatch.undo()
    # a normal law without tails leaves the outer cells empty
    monkeypatch.setattr(qz, "_std_normal_cdf", np.zeros_like)
    with pytest.raises(ConvergenceError, match="zero probability"):
        qz.lloyd_max_distortion(2)


def test_lloyd_max_stops_when_the_shift_stalls(monkeypatch):
    # a tolerance below the rounding floor of the shift (about 6e-15 at 6
    # bits, 3e-14 at 8) cannot be met; the Newton loop must notice within a
    # few steps instead of running all LLOYD_MAX_ITER of them
    steps = []
    solve = qz._solve_tridiagonal

    def counting(*args):
        steps.append(1)
        return solve(*args)

    monkeypatch.setattr(qz, "_solve_tridiagonal", counting)
    for bits, tol in ((6, 1e-15), (8, 1e-14)):
        monkeypatch.setattr(qz, "LLOYD_MAX_TOL", tol)
        steps.clear()
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="stalled"):
            qz.lloyd_max_distortion(bits)
        assert time.perf_counter() - start < 0.1
        assert len(steps) <= 12


def test_std_normal_cdf_matches_high_precision_oracle():
    x = np.linspace(-10.0, 10.0, 4001)
    with mpmath.workdps(50):
        exact = np.array([float(mpmath.ncdf(mpmath.mpf(v))) for v in x])
    got = qz._std_normal_cdf(x)
    assert np.max(np.abs(got - exact)) <= 4e-16
    # relative accuracy in the lower tail, which far quantizer cells need
    lower = x <= 0.0
    assert np.max(np.abs(got[lower] / exact[lower] - 1.0)) <= 5e-14
    assert qz._std_normal_cdf(-np.inf) == 0.0
    assert qz._std_normal_cdf(np.inf) == 1.0
    assert qz._std_normal_cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
