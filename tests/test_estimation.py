"""LMMSE estimation checks: covariances, closed-form MSE, equivalent forms."""

import numpy as np
import pytest

from relaysim import estimation as est
from relaysim.channel import substream
from relaysim.correlation import exponential_correlation, select_transmit_correlation
from relaysim.errors import DegenerateEstimateError, IllConditionedError
from relaysim.quantizer import IDEAL, AdcSpec

IDEAL_ADC = AdcSpec.from_bits(IDEAL)
TWO_BIT = AdcSpec.from_bits(2)
ONE_BIT = AdcSpec.from_bits(1)


def test_pilots_are_orthonormal():
    for tau, k in ((10, 10), (16, 5), (7, 7)):
        phi = est.orthonormal_pilots(tau, k)
        np.testing.assert_allclose(phi.conj().T @ phi, np.eye(k), atol=1e-12)


def test_pilot_config_checks_orthonormality():
    pc = est.PilotConfig.build(tau1=10, tau2=12, power1=5.0, power2=7.0, n_users=4)
    assert pc.phi.shape == (10, 4)
    assert pc.theta.shape == (12, 4)
    with pytest.raises(ValueError):
        est.PilotConfig(tau1=4, tau2=4, power1=1.0, power2=1.0,
                        phi=np.ones((4, 2)), theta=est.orthonormal_pilots(4, 2))


def test_lmmse_filter_identity_case():
    # T = I, single user with unit gain, tau = P = sigma^2 = 1, ideal ADC:
    # a = 1 and c = 1 on either hop, so the observation covariance is 2 I
    # and the filter T (a T + c I)^-1 is exactly I / 2
    for lmmse in (est.lmmse_filter_first_hop(np.eye(3), [1.0], IDEAL_ADC, 1, 1.0, 1.0),
                  est.lmmse_filter_second_hop(np.eye(3), 1.0, IDEAL_ADC, 1, 1.0, 1.0, 1)):
        np.testing.assert_allclose(lmmse, 0.5 * np.eye(3), atol=1e-14)


def test_closed_form_mse_identity_case():
    # same setting with N = 4: every eigenvalue contributes a/(a+c) = 1/2,
    # so the total MSE is beta * (N - 2) = 2
    mse = est.mse_first_hop_closed_form(np.eye(4), [1.0], IDEAL_ADC, 1, 1.0, 1.0)
    assert mse == pytest.approx(2.0, rel=1e-12)


def test_mse_decreases_with_power_and_resolution():
    recv = exponential_correlation(0.6, 32)
    gains = np.array([1.0, 0.7, 1.4])
    grid = [est.mse_first_hop_closed_form(recv, gains, TWO_BIT, 8, p, 1.5)
            for p in (1.0, 10.0, 100.0)]
    assert grid[0] > grid[1] > grid[2]
    coarse = est.mse_first_hop_closed_form(recv, gains, ONE_BIT, 8, 10.0, 1.5)
    fine = est.mse_first_hop_closed_form(recv, gains, IDEAL_ADC, 8, 10.0, 1.5)
    assert coarse > fine


def test_one_bit_mse_floor_value():
    # as P grows with a 1-bit ADC, a/c approaches s = alpha tau / (K (1-alpha))
    # and the MSE approaches sum(beta) * (N - sum s lam^2 / (s lam + 1))
    recv = exponential_correlation(0.7, 24)
    gains = np.array([0.9, 1.2])
    tau, k = 6, 2
    alpha = ONE_BIT.alpha
    s = alpha * tau / (k * (1.0 - alpha))
    lam = np.linalg.eigvalsh(recv)
    floor = gains.sum() * (24 - np.sum(s * lam ** 2 / (s * lam + 1.0)))
    at_big_power = est.mse_first_hop_closed_form(
        recv, gains, ONE_BIT, tau, 1e8, 1.0)
    assert at_big_power == pytest.approx(floor, rel=1e-3)


def test_simulated_mse_matches_closed_form_first_hop():
    recv = exponential_correlation(0.6, 48)
    gains = np.array([1.0, 0.5, 1.5, 0.8])
    rng = substream(31, "mse-hop1")
    for adc, power in ((ONE_BIT, 10.0), (TWO_BIT, 100.0), (IDEAL_ADC, 100.0)):
        sim, se = est.pilot_mse_first_hop(recv, gains, adc, 8, power, 1.2,
                                          250, rng)
        closed = est.mse_first_hop_closed_form(recv, gains, adc, 8, power,
                                               1.2) / (48 * 4)
        assert abs(sim - closed) < 3.0 * se


def test_simulated_mse_matches_closed_form_second_hop():
    recv = exponential_correlation(0.5, 40)
    tx = select_transmit_correlation(0.6, 40, 4)
    rng = substream(32, "mse-hop2")
    eta = 0.8
    for adc, power in ((ONE_BIT, 10.0), (IDEAL_ADC, 50.0)):
        sim, se = est.pilot_mse_second_hop(recv, tx, eta, adc, 8, power, 1.1,
                                           250, rng)
        closed = est.mse_second_hop_closed_form(recv, eta, adc, 8, power,
                                                1.1, 4) / (40 * 4)
        assert abs(sim - closed) < 3.0 * se


def test_equivalent_form_first_hop_invariants():
    recv = exponential_correlation(0.8, 32)
    gains = np.array([1.0, 0.6, 1.3])
    model = est.equivalent_form_first_hop(recv, gains, TWO_BIT, 8, 50.0, 1.5)
    model.validate(recv, np.diag(gains))
    # captured energy matches the closed-form MSE through the split
    mse = est.mse_first_hop_closed_form(recv, gains, TWO_BIT, 8, 50.0, 1.5)
    err_energy = np.trace(model.receive_err).real * model.gains_err.sum()
    assert err_energy == pytest.approx(mse, rel=1e-10)


def test_equivalent_form_second_hop_invariants():
    recv = exponential_correlation(0.7, 36)
    tx = select_transmit_correlation(0.7, 36, 4)
    eta = 0.9
    model = est.equivalent_form_second_hop(recv, tx, eta, TWO_BIT, 8, 40.0, 1.2)
    model.validate(recv, tx)
    mse = est.mse_second_hop_closed_form(recv, eta, TWO_BIT, 8, 40.0, 1.2, 4)
    err_energy = (eta * np.trace(model.receive_err).real
                  * np.trace(model.transmit_err).real)
    assert err_energy == pytest.approx(mse, rel=1e-10)


def test_equivalent_form_approaches_perfect_with_clean_pilots():
    recv = exponential_correlation(0.5, 24)
    gains = np.array([1.0, 0.8])
    model = est.equivalent_form_first_hop(recv, gains, IDEAL_ADC, 8, 1e9, 1.0)
    perfect = est.perfect_model_first_hop(recv, gains)
    np.testing.assert_allclose(model.receive_hat, perfect.receive_hat, atol=1e-6)
    assert np.trace(model.receive_err).real < 1e-6


def test_perfect_models():
    recv = exponential_correlation(0.6, 16)
    gains = np.array([1.0, 0.5])
    model = est.perfect_model_first_hop(recv, gains)
    np.testing.assert_array_equal(model.receive_hat, recv)
    assert np.all(model.gains_err == 0.0)
    tx = select_transmit_correlation(0.6, 16, 2)
    model2 = est.perfect_model_second_hop(recv, tx, 0.7)
    model2.validate(recv, tx)
    assert model2.relay_gain == 0.7


def test_degenerate_error_model_raises():
    # too few receive antennas per user with strong transmit correlation:
    # the residual error matrix stops being PSD and the model must refuse
    recv = exponential_correlation(0.8, 32)
    tx = select_transmit_correlation(0.8, 32, 10)
    with pytest.raises(DegenerateEstimateError):
        est.equivalent_form_second_hop(recv, tx, 1.0, TWO_BIT, 10, 316.0, 1.4)


def test_singular_observation_covariance_raises():
    recv = np.diag([1.0, 1e-20, 1.0, 1.0])
    with pytest.raises(IllConditionedError):
        est.equivalent_form_first_hop(recv, [1.0], IDEAL_ADC, 4, 1.0, 0.0)


def test_pilot_simulation_shapes():
    recv = exponential_correlation(0.5, 12)
    gains = np.array([1.0, 0.9, 1.1])
    rng = substream(33, "shapes")
    chan, estimate = est.simulate_pilot_first_hop(
        recv, gains, TWO_BIT, 6, 10.0, 1.0, rng)
    assert chan.shape == (12, 3) and estimate.shape == (12, 3)
    tx = select_transmit_correlation(0.5, 12, 3)
    chan2, estimate2 = est.simulate_pilot_second_hop(
        recv, tx, 0.8, TWO_BIT, 6, 10.0, 1.0, rng)
    assert chan2.shape == (12, 3) and estimate2.shape == (12, 3)
