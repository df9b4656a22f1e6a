"""LMMSE estimation checks: filters, closed-form MSE, equivalent forms."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from relaysim import analysis, channel, config as cfg, estimation as est
from relaysim.channel import substream
from relaysim.correlation import (exponential_basis, exponential_correlation,
                                  select_transmit_correlation)
from relaysim.errors import (ConfigError, DegenerateEstimateError, IllConditionedError,
                             NumericalError)
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


def _receive_err(model):
    """The model's error receive matrix U diag(g) U^H."""
    u = exponential_basis(model.hop.r, model.hop.spectrum[1])
    return (u * model.split[1]) @ u.conj().T


def test_pilots_are_orthonormal():
    for tau, k in ((10, 10), (16, 5), (7, 7)):
        phi = est.orthonormal_pilots(tau, k)
        np.testing.assert_allclose(phi.conj().T @ phi, np.eye(k), atol=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.6, 0.95, -0.7, 0.3 + 0.4j])
def test_hop_square_roots_roundtrip(r):
    # pilot_factors' recv_sqrt comes from the closed-form spectrum, its
    # tx_sqrt from the transmit eigenbasis; both are Hermitian square roots
    hops = (_first_hop(r, 24, [1.0, 0.05, 2.5], 3, 1.0),
            _second_hop(r, 24, select_transmit_correlation(r, 24, 6), 0.8, 6, 1.0))
    roots = [est.pilot_factors(hop, TWO_BIT, 10.0)[:2] for hop in hops]
    for hop, (recv_sqrt, tx_sqrt) in zip(hops, roots):
        for root, mat in ((recv_sqrt, hop.recv_corr), (tx_sqrt, hop.transmit)):
            np.testing.assert_allclose(root @ root, mat, atol=1e-12 * np.abs(mat).max())
            np.testing.assert_allclose(root, root.conj().T, atol=1e-14)
    # a diagonal transmit matrix has the elementwise root
    np.testing.assert_allclose(roots[0][1], np.diag(np.sqrt([1.0, 0.05, 2.5])),
                               atol=1e-15)


def test_lmmse_filter_identity_case():
    # T = I, single user with unit gain, tau = P = sigma^2 = 1, ideal ADC:
    # a = 1 and c = 1 on either hop, so the observation covariance is 2 I
    # and the filter T (a T + c I)^-1 is exactly I / 2
    for hop in (_first_hop(0.0, 3, [1.0], 1, 1.0),
                _second_hop(0.0, 3, np.eye(1), 1.0, 1, 1.0)):
        np.testing.assert_allclose(est.pilot_factors(hop, IDEAL_ADC, 1.0)[2],
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
    assert model.validate() <= 1e-8
    # captured energy matches the closed-form MSE through the split
    mse = est.mse_closed_form(hop, TWO_BIT, power)
    err_energy = (model.hop.gain * np.trace(_receive_err(model)).real
                  * np.trace(model.transmit_err).real)
    assert err_energy == pytest.approx(mse, rel=1e-10)


def test_validate_refuses_a_split_two_parts_per_million_off():
    # the reconstruction check has no relative slack: numpy's default rtol
    # of 1e-5 would let this estimate spectrum through
    model = est.equivalent_form(_first_hop(0.7, 24, [1.0, 0.8], 6, 1.0), TWO_BIT, 30.0)
    f, g = model.split
    with pytest.raises(AssertionError, match="does not sum"):
        dataclasses.replace(model, split=(f * (1.0 + 2e-6), g)).validate()


def test_validate_builds_each_receive_matrix_once(monkeypatch):
    # R and the eigenbasis U are n x n builds; the error's receive matrix is
    # formed from that U and the estimate's is their difference, so one of
    # each serves every check, and the residual is bitwise the one that
    # difference gives
    model = est.equivalent_form(_first_hop(0.7, 24, [1.0, 0.8], 6, 1.0), TWO_BIT, 30.0)
    hop, built = model.hop, []
    correlation, basis = est.exponential_correlation, est.exponential_basis
    monkeypatch.setattr(est, "exponential_correlation",
                        lambda r, n: built.append("R") or correlation(r, n))
    monkeypatch.setattr(est, "exponential_basis",
                        lambda r, theta: built.append("U") or basis(r, theta))
    residual = model.validate()
    assert sorted(built) == ["R", "U"]
    receive_err = _receive_err(model)
    lhs = (np.trace(model.hop.recv_corr - receive_err).real * model.transmit_hat
           + np.trace(receive_err).real * model.transmit_err) * hop.gain
    rhs = hop.n * hop.gain * hop.transmit
    assert residual == float(np.abs(lhs - rhs).max()) / float(np.abs(rhs).max())



def test_validate_builds_one_eigenbasis_per_default_model(monkeypatch):
    # the split-sum check and the error's receive matrix share one U
    models = cfg.scenario_models(cfg.ScenarioConfig())
    sizes, basis = [], est.exponential_basis
    monkeypatch.setattr(est, "exponential_basis",
                        lambda r, theta: sizes.append(len(theta)) or basis(r, theta))
    for model in models:
        model.validate()
    assert sizes == [128, 256]

def test_equivalent_form_approaches_perfect_with_clean_pilots():
    gains = np.array([1.0, 0.8])
    hop = _first_hop(0.5, 24, gains, 8, 1.0)
    model = est.equivalent_form(hop, IDEAL_ADC, 1e9)
    perfect = est.perfect_model(hop)
    np.testing.assert_allclose(model.hop.recv_corr - _receive_err(model),
                               perfect.hop.recv_corr - _receive_err(perfect), atol=1e-6)
    assert np.trace(_receive_err(model)).real < 1e-6


def test_perfect_models():
    recv = exponential_correlation(0.6, 16)
    gains = np.array([1.0, 0.5])
    model = est.perfect_model(_first_hop(0.6, 16, gains, 2, 1.0))
    np.testing.assert_array_equal(model.hop.recv_corr - _receive_err(model), recv)
    assert np.all(np.diag(model.transmit_err) == 0.0)
    tx = select_transmit_correlation(0.6, 16, 2)
    model2 = est.perfect_model(_second_hop(0.6, 16, tx, 0.7, 2, 1.0))
    assert model2.validate() <= 1e-8
    assert model2.hop.gain == 0.7


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


@pytest.mark.parametrize("reader", [
    est.equivalent_form, est.pilot_factors, est.mse_closed_form,
    lambda hop, adc, power: est.pilot_mse(hop, adc, power, 2, substream(1, "singular")),
], ids=["equivalent_form", "lmmse_filter", "mse_closed_form", "pilot_mse"])
def test_singular_observation_covariance_raises(reader):
    # noiseless ideal-ADC pilots observe a R alone; at r = 1 - 1e-13 its
    # smallest eigenvalue (1 - r) / (1 + r) puts the condition number near
    # 1e15, past MAX_CONDITION, and every reader refuses through observation
    hop = _first_hop(1.0 - 1e-13, 64, [1.0], 4, 0.0)
    with pytest.raises(IllConditionedError, match="condition number"):
        reader(hop, IDEAL_ADC, 1.0)


def test_observation_constants_that_overflow_are_named():
    # past pilot power 3.2e307 on the default first hop a itself is inf: that
    # is what the refusal names, not a condition number
    hop = cfg.scenario_hops(cfg.table_defaults())[0]
    message = r"^observation constants overflow: a = inf, c = 7\.423e\+307$"
    with pytest.raises(NumericalError, match=message) as info:
        est.observation(hop, TWO_BIT, 1e308)
    assert not isinstance(info.value, IllConditionedError)


def test_pilot_chain_refuses_a_power_where_its_own_arithmetic_overflows():
    # observation holds at pilot power 1e307, but the pilot chain draws and
    # filters unscaled: a lam + c overflows on the default first hop and the
    # filter's scale on the second, and each is refused rather than run into
    # a wrong or NaN MSE; at 1e306 the first hop still meets its closed form
    scn = cfg.table_defaults()
    hops = cfg.scenario_hops(scn)
    for hop in hops:
        est.observation(hop, TWO_BIT, 1e307)
        with pytest.raises(NumericalError,
                           match=r"^pilot chain overflows a float at pilot power 1\.000e\+307$"):
            est.pilot_mse(hop, TWO_BIT, 1e307, 2, substream(1, "overflow"))
    mean, stderr = est.pilot_mse(hops[0], TWO_BIT, 1e306, 20, substream(1, "overflow"))
    closed = est.mse_closed_form(hops[0], TWO_BIT, 1e306) / (hops[0].n * scn.K)
    assert abs(mean - closed) < 4.0 * stderr


def test_equivalent_form_keeps_the_one_observation(monkeypatch):
    # the split is formed once, by observation, and the model holds the
    # very arrays it returned instead of recomputing them
    calls = []
    original = est.observation

    def counting(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(est, "observation", counting)
    hop = _first_hop(0.7, 24, [1.0, 0.8], 6, 1.0)
    model = est.equivalent_form(hop, TWO_BIT, 30.0)
    [(obs, (f, g, _))] = calls
    assert model.obs == obs
    assert model.split[0] is f and model.split[1] is g
    # and the moment table's receive sums read those arrays
    assert analysis._receive_sums(model)[:3] == (float(f.sum()), float(f @ f), float(f @ g))


def test_pilot_simulation_shapes():
    rng = substream(33, "shapes")
    hops = (_first_hop(0.5, 12, [1.0, 0.9, 1.1], 6, 1.0),
            _second_hop(0.5, 12, select_transmit_correlation(0.5, 12, 3), 0.8, 6, 1.0))
    for hop in hops:
        draws = est._pilot_draws(hop, TWO_BIT)
        normals = rng.standard_normal((5, channel.normals_per_trial(draws)))
        parts = channel.split_normals(normals, *draws)
        chan, estimate = est.simulate_pilot(hop, TWO_BIT, 10.0, parts,
                                            est.pilot_factors(hop, TWO_BIT, 10.0))
        assert chan.shape == (5, 12, 3) and estimate.shape == (5, 12, 3)


def _pilot_trial(hop, adc, power, rng, factors):
    """One pilot trial drawn the documented way, one draw after another:
    the channel's H, the receiver noise (complex_normal each), then the
    quantization noise's real and imaginary parts (non-ideal ADCs only)."""
    recv_sqrt, tx_sqrt, lmmse = factors
    chan = channel.draw_hop(recv_sqrt, tx_sqrt, hop.gain,
                            channel.complex_normal(rng, hop.shape))
    received = (np.sqrt(hop.tau * power / hop.streams) * chan @ hop.pilots.T
                + channel.complex_normal(rng, (hop.shape[0], hop.tau), hop.noise_var))
    row_power = (power / hop.streams) * np.sum(np.abs(chan) ** 2, axis=1) + hop.noise_var
    normals = None if adc.is_ideal else (rng.standard_normal(received.shape),
                                         rng.standard_normal(received.shape))
    quantized = aqnm_quantize(received, adc, row_power[:, None], normals)
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
    factors = est.pilot_factors(hop, adc, power)
    rng = substream(12, "oracle")
    n, k = hop.shape
    errs = np.array([np.sum(np.abs(est_ - chan) ** 2) / (n * k) for chan, est_ in
                     (_pilot_trial(hop, adc, power, rng, factors) for _ in range(trials))])
    stacked = est.pilot_mse(hop, adc, power, trials, substream(12, "oracle"))
    oracle = (errs.mean(), errs.std(ddof=1) / np.sqrt(trials))
    assert stacked == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_pilot_mse_keeps_no_receive_size_array():
    # one pilot point builds its receive eigenbasis, forms the filter in it
    # and scales it in place into the channel's root: three M x M arrays at
    # most beside the two chunk buffers, and none is kept after the call
    scn = cfg.table_defaults().with_updates(N=512)
    hop = cfg.scenario_hops(scn)[1]
    draws = est._pilot_draws(hop, scn.adc2)
    buffers = 2 * 8 * channel.chunk_size(draws) * channel.normals_per_trial(draws)
    tracemalloc.start()
    try:
        est.pilot_mse(hop, scn.adc2, scn.P2, 4, substream(1, "memory"))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hop.n == scn.M
    assert peak < 3 * scn.M ** 2 * 8 + buffers + 2 ** 19
    assert kept < scn.M ** 2 * 8
    assert not {"basis", "recv_sqrt", "tx_sqrt"} & set(hop.__dict__)


def test_single_trial_pilot_chunks_agree_with_default_chunks(monkeypatch):
    hop = _second_hop(0.7, 24, select_transmit_correlation(0.7, 24, 3), 0.9, 6, 1.0)
    default = est.pilot_mse(hop, TWO_BIT, 30.0, 40, substream(8, "chunks"))
    monkeypatch.setattr(channel, "CHUNK_BYTES", 1)
    single = est.pilot_mse(hop, TWO_BIT, 30.0, 40, substream(8, "chunks"))
    assert single == pytest.approx(default, rel=1e-12, abs=0.0)


def test_single_pilot_trial_has_nan_stderr_and_no_warning():
    # pytest turns RuntimeWarnings into errors: a one-trial spread must be
    # NaN by construction, not by numpy's degrees-of-freedom warning; the
    # same for a single draw of Lemma 1's oracle
    hop = _first_hop(0.5, 12, [1.0, 0.9], 4, 1.0)
    mse, stderr = est.pilot_mse(hop, TWO_BIT, 10.0, 1, substream(2, "one"))
    assert np.isfinite(mse) and mse > 0.0
    assert np.isnan(stderr)
    mean, se = analysis.lemma1_moments_mc(np.eye(3), np.eye(2), 0, 1, 1, substream(2, "one"))
    for field in ("inner_first", "inner_second", "row_first", "row_second"):
        assert np.all(np.isfinite(mean[field]))
        assert np.all(np.isnan(se[field]))


def _refuse_trials(trials):
    """The pilot chain and Lemma 1's oracle refuse a trial count alike."""
    hop = _first_hop(0.5, 12, [1.0, 0.9], 4, 1.0)
    with pytest.raises(ConfigError, match="trials must be >= 1 and whole"):
        est.pilot_mse(hop, TWO_BIT, 10.0, trials, substream(2, "none"))
    with pytest.raises(ConfigError, match="trials must be >= 1 and whole"):
        analysis.lemma1_moments_mc(np.eye(3), np.eye(2), 0, 1, trials, substream(2, "none"))


@pytest.mark.parametrize("trials", [0, -2])
def test_pilot_trial_count_below_one_is_refused(trials):
    _refuse_trials(trials)


@pytest.mark.parametrize("trials", [2.7, float("nan")])
def test_pilot_trial_count_that_is_not_whole_is_refused(trials):
    _refuse_trials(trials)
