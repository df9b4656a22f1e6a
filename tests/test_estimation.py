"""LMMSE estimation checks: filters, closed-form MSE, equivalent forms."""

import numpy as np
import pytest

from relaysim import channel, config as cfg, estimation as est
from relaysim.channel import substream
from relaysim.correlation import exponential_correlation, select_transmit_correlation
from relaysim.errors import DegenerateEstimateError, IllConditionedError
from relaysim.quantizer import IDEAL, AdcSpec, aqnm_quantize

IDEAL_ADC = AdcSpec.from_bits(IDEAL)
TWO_BIT = AdcSpec.from_bits(2)
ONE_BIT = AdcSpec.from_bits(1)


def _first_hop(r, n, gains, tau, noise_var):
    return est.HopStatistics(r, n, np.diag(np.asarray(gains, dtype=np.float64)),
                             tau, noise_var)


def _second_hop(r, n, tx, relay_gain, tau, noise_var):
    return est.HopStatistics(r, n, tx, tau, noise_var, gain=relay_gain,
                             streams=tx.shape[0])


def test_pilots_are_orthonormal():
    for tau, k in ((10, 10), (16, 5), (7, 7)):
        phi = est.orthonormal_pilots(tau, k)
        np.testing.assert_allclose(phi.conj().T @ phi, np.eye(k), atol=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.6, 0.95, -0.7, 0.3 + 0.4j])
def test_hop_square_roots_roundtrip(r):
    # recv_sqrt comes from the closed-form spectrum, tx_sqrt from the
    # transmit eigenbasis; both are Hermitian square roots
    hops = (_first_hop(r, 24, [1.0, 0.05, 2.5], 3, 1.0),
            _second_hop(r, 24, select_transmit_correlation(r, 24, 6), 0.8, 6, 1.0))
    for hop in hops:
        for root, mat in ((hop.recv_sqrt, hop.recv_corr), (hop.tx_sqrt, hop.transmit)):
            np.testing.assert_allclose(root @ root, mat, atol=1e-12 * np.abs(mat).max())
            np.testing.assert_allclose(root, root.conj().T, atol=1e-14)
    # a diagonal transmit matrix has the elementwise root
    np.testing.assert_allclose(hops[0].tx_sqrt, np.diag(np.sqrt([1.0, 0.05, 2.5])),
                               atol=1e-15)


def test_lmmse_filter_identity_case():
    # T = I, single user with unit gain, tau = P = sigma^2 = 1, ideal ADC:
    # a = 1 and c = 1 on either hop, so the observation covariance is 2 I
    # and the filter T (a T + c I)^-1 is exactly I / 2
    for hop in (_first_hop(0.0, 3, [1.0], 1, 1.0),
                _second_hop(0.0, 3, np.eye(1), 1.0, 1, 1.0)):
        np.testing.assert_allclose(est.lmmse_filter(hop, IDEAL_ADC, 1.0),
                                   0.5 * np.eye(3), atol=1e-14)


def test_closed_form_mse_identity_case():
    # same setting with N = 4: every eigenvalue contributes a/(a+c) = 1/2,
    # so the total MSE is beta * (N - 2) = 2
    mse = est.mse_closed_form(_first_hop(0.0, 4, [1.0], 1, 1.0), IDEAL_ADC, 1.0)
    assert mse == pytest.approx(2.0, rel=1e-12)


def test_mse_decreases_with_power_and_resolution():
    hop = _first_hop(0.6, 32, [1.0, 0.7, 1.4], 8, 1.5)
    grid = [est.mse_closed_form(hop, TWO_BIT, p) for p in (1.0, 10.0, 100.0)]
    assert grid[0] > grid[1] > grid[2]
    coarse = est.mse_closed_form(hop, ONE_BIT, 10.0)
    fine = est.mse_closed_form(hop, IDEAL_ADC, 10.0)
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
    at_big_power = est.mse_closed_form(_first_hop(0.7, 24, gains, tau, 1.0), ONE_BIT, 1e8)
    assert at_big_power == pytest.approx(floor, rel=1e-3)


@pytest.mark.parametrize("hop, seed, cases", [
    pytest.param(_first_hop(0.6, 48, [1.0, 0.5, 1.5, 0.8], 8, 1.2),
                 (31, "mse-hop1"),
                 ((ONE_BIT, 10.0), (TWO_BIT, 100.0), (IDEAL_ADC, 100.0)), id="first"),
    pytest.param(_second_hop(0.5, 40, select_transmit_correlation(0.6, 40, 4), 0.8, 8, 1.1),
                 (32, "mse-hop2"), ((ONE_BIT, 10.0), (IDEAL_ADC, 50.0)), id="second"),
])
def test_simulated_mse_matches_closed_form(hop, seed, cases):
    rng = substream(*seed)
    n, k = hop.shape
    for adc, power in cases:
        sim, se = est.pilot_mse(hop, adc, power, 250, rng)
        closed = est.mse_closed_form(hop, adc, power) / (n * k)
        assert abs(sim - closed) < 3.0 * se


@pytest.mark.parametrize("hop, power", [
    pytest.param(_first_hop(0.8, 32, [1.0, 0.6, 1.3], 8, 1.5),
                 50.0, id="first"),
    pytest.param(_second_hop(0.7, 36, select_transmit_correlation(0.7, 36, 4), 0.9, 8, 1.2),
                 40.0, id="second"),
])
def test_equivalent_form_invariants(hop, power):
    model = est.equivalent_form(hop, TWO_BIT, power)
    model.validate()
    # captured energy matches the closed-form MSE through the split
    mse = est.mse_closed_form(hop, TWO_BIT, power)
    err_energy = (model.relay_gain * np.trace(model.receive_err).real
                  * np.trace(model.transmit_err).real)
    assert err_energy == pytest.approx(mse, rel=1e-10)


def test_equivalent_form_approaches_perfect_with_clean_pilots():
    gains = np.array([1.0, 0.8])
    hop = _first_hop(0.5, 24, gains, 8, 1.0)
    model = est.equivalent_form(hop, IDEAL_ADC, 1e9)
    perfect = est.perfect_model(hop)
    np.testing.assert_allclose(model.receive_hat, perfect.receive_hat, atol=1e-6)
    assert np.trace(model.receive_err).real < 1e-6


def test_perfect_models():
    recv = exponential_correlation(0.6, 16)
    gains = np.array([1.0, 0.5])
    model = est.perfect_model(_first_hop(0.6, 16, gains, 2, 1.0))
    np.testing.assert_array_equal(model.receive_hat, recv)
    assert np.all(model.scalars.tx_err_diag == 0.0)
    tx = select_transmit_correlation(0.6, 16, 2)
    model2 = est.perfect_model(_second_hop(0.6, 16, tx, 0.7, 2, 1.0))
    model2.validate()
    assert model2.relay_gain == 0.7


def test_degenerate_error_model_raises():
    # too few receive antennas per user with strong transmit correlation:
    # the residual error matrix stops being PSD and the model must refuse
    tx = select_transmit_correlation(0.8, 32, 10)
    with pytest.raises(DegenerateEstimateError, match="indefinite"):
        est.equivalent_form(_second_hop(0.8, 32, tx, 1.0, 10, 1.4), TWO_BIT, 316.0)
    # the first hop's counterpart: a user far below the mean gain
    hop = _first_hop(0.8, 64, [1.0, 0.1], 10, 10.0 ** 0.22)
    with pytest.raises(DegenerateEstimateError, match="indefinite"):
        est.equivalent_form(hop, TWO_BIT, 100.0)


@pytest.mark.parametrize("r, smallest", [
    (0.0, 10), (0.5, 13), (0.8, 36), (0.9, 71), (0.95, 140)])
def test_smallest_accepted_antenna_count(r, smallest):
    # README's table: the default scenario with r_R = r_B = r accepts N from
    # `smallest` upward and refuses N - 1 (r = 0 is accepted at N = K)
    base = cfg.table_defaults().with_updates(r_R=r, r_B=r)
    cfg.scenario_models(base.with_updates(N=smallest))
    if smallest > base.K:
        with pytest.raises(DegenerateEstimateError, match="margin"):
            cfg.scenario_models(base.with_updates(N=smallest - 1))


def test_singular_observation_covariance_raises():
    # noiseless ideal-ADC pilots observe a R alone; at r = 1 - 1e-13 its
    # smallest eigenvalue (1 - r) / (1 + r) puts the condition number near
    # 1e15, past MAX_CONDITION
    hop = _first_hop(1.0 - 1e-13, 64, [1.0], 4, 0.0)
    with pytest.raises(IllConditionedError):
        est.equivalent_form(hop, IDEAL_ADC, 1.0)


def test_pilot_simulation_shapes():
    rng = substream(33, "shapes")
    hops = (_first_hop(0.5, 12, [1.0, 0.9, 1.1], 6, 1.0),
            _second_hop(0.5, 12, select_transmit_correlation(0.5, 12, 3), 0.8, 6, 1.0))
    for hop in hops:
        draws = est._pilot_draws(hop, TWO_BIT)
        normals = rng.standard_normal((5, channel.normals_per_trial(draws)))
        chan, estimate = est.simulate_pilot(hop, TWO_BIT, 10.0, normals)
        assert chan.shape == (5, 12, 3) and estimate.shape == (5, 12, 3)


def _pilot_trial(hop, adc, power, rng, lmmse):
    """One pilot trial drawn the documented way, one draw after another:
    the channel (draw_hop), the receiver noise (complex_normal), then the
    quantization noise (aqnm_quantize)."""
    chan = channel.draw_hop(hop.recv_sqrt, hop.tx_sqrt, hop.gain, rng)
    received = (np.sqrt(hop.tau * power / hop.streams) * chan @ hop.pilots.T
                + channel.complex_normal(rng, (hop.shape[0], hop.tau), hop.noise_var))
    row_power = (power / hop.streams) * np.sum(np.abs(chan) ** 2, axis=1) + hop.noise_var
    quantized = aqnm_quantize(received, adc, row_power[:, None], rng)
    return chan, lmmse @ (quantized @ np.conj(hop.pilots))


_ORACLE_HOPS = [
    pytest.param(_first_hop(0.6, 20, [1.0, 0.5, 1.5], 6, 1.2), id="first"),
    pytest.param(_second_hop(0.5 + 0.3j, 24, select_transmit_correlation(0.5 + 0.3j, 24, 3),
                             0.8, 6, 1.1), id="second-complex-r"),
]


@pytest.mark.parametrize("trials_per_chunk", [None, 7])
@pytest.mark.parametrize("adc", [ONE_BIT, IDEAL_ADC], ids=["1bit", "ideal"])
@pytest.mark.parametrize("hop", _ORACLE_HOPS)
def test_stacked_pilot_chain_follows_the_stream_order(monkeypatch, hop, adc, trials_per_chunk):
    # the stacked chain must consume the shared stream exactly as trials
    # drawn one at a time do, in one chunk or in several (the last ragged)
    trials, power = 30, 20.0
    if trials_per_chunk is not None:
        draws = est._pilot_draws(hop, adc)
        monkeypatch.setattr(channel, "CHUNK_BYTES",
                            8 * channel.normals_per_trial(draws) * trials_per_chunk)
    lmmse = est.lmmse_filter(hop, adc, power)
    rng = substream(12, "oracle")
    n, k = hop.shape
    errs = np.array([np.sum(np.abs(est_ - chan) ** 2) / (n * k) for chan, est_ in
                     (_pilot_trial(hop, adc, power, rng, lmmse) for _ in range(trials))])
    stacked = est.pilot_mse(hop, adc, power, trials, substream(12, "oracle"))
    oracle = (errs.mean(), errs.std(ddof=1) / np.sqrt(trials))
    assert stacked == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_single_trial_pilot_chunks_agree_with_default_chunks(monkeypatch):
    hop = _second_hop(0.7, 24, select_transmit_correlation(0.7, 24, 3), 0.9, 6, 1.0)
    default = est.pilot_mse(hop, TWO_BIT, 30.0, 40, substream(8, "chunks"))
    monkeypatch.setattr(channel, "CHUNK_BYTES", 1)
    single = est.pilot_mse(hop, TWO_BIT, 30.0, 40, substream(8, "chunks"))
    assert single == pytest.approx(default, rel=1e-12, abs=0.0)


def test_single_pilot_trial_has_nan_stderr_and_no_warning():
    # pytest turns RuntimeWarnings into errors: a one-trial spread must be
    # NaN by construction, not by numpy's degrees-of-freedom warning
    hop = _first_hop(0.5, 12, [1.0, 0.9], 4, 1.0)
    mse, stderr = est.pilot_mse(hop, TWO_BIT, 10.0, 1, substream(2, "one"))
    assert np.isfinite(mse) and mse > 0.0
    assert np.isnan(stderr)
