"""Monte Carlo engine checks: bookkeeping, determinism, and consistency."""

import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from relaysim import analysis, channel, config as cfg, estimation as est, link
from relaysim.channel import substream
from relaysim.errors import ConfigError, DegenerateEstimateError
from relaysim.quantizer import IDEAL

_SCN = cfg.ScenarioConfig(N=20, delta=1.5, K=3, tau1=6, tau2=6, q1=2, q2=2,
                          betas=(1.0, 0.7, 1.2), eta=0.9, r_R=0.5, r_B=0.4,
                          trials=60, seed=5)


def test_trial_bookkeeping_identities():
    prep = link.prepare(_SCN)
    scn = prep.scenario
    a1, a2 = scn.adc1.alpha, scn.adc2.alpha
    out = link.trial_outcomes(prep, 7, scn.seed)
    np.testing.assert_allclose(out["signal"], prep.chi * out["desired_raw"],
                               rtol=1e-12)
    np.testing.assert_allclose(
        out["interference"], prep.chi * (out["leakage_raw"] + out["cross_raw"]),
        rtol=1e-12)
    np.testing.assert_allclose(
        out["noise_relay"],
        a1 ** 2 * a2 ** 2 * prep.kappa ** 2 * scn.sigma_R2 * out["chain_raw"]
        + a2 ** 2 * prep.kappa ** 2 * out["relay_quant_raw"], rtol=1e-12)
    np.testing.assert_allclose(
        out["noise_bs"],
        a2 ** 2 * scn.sigma_B2 * out["bs_vector_raw"] + out["bs_quant_raw"],
        rtol=1e-12)
    sinr = out["signal"] / (out["interference"] + out["noise_relay"] + out["noise_bs"])
    assert np.all(sinr > 0.0)


def _trial_size(prep):
    return channel.chunk_size(link._trial_draws(prep))


def _budget_for(monkeypatch, prep, trials_per_chunk):
    """Shrink the chunk budget so that a chunk holds trials_per_chunk trials."""
    per_trial = channel.normals_per_trial(link._trial_draws(prep))
    monkeypatch.setattr(channel, "CHUNK_BYTES", 8 * per_trial * trials_per_chunk)
    assert _trial_size(prep) == trials_per_chunk


def test_worker_count_does_not_change_results():
    prep = link.prepare(_SCN)
    serial = link.trial_outcomes(prep, 24, seed=9, workers=1)
    parallel = link.trial_outcomes(prep, 24, seed=9, workers=3)
    for name, stack in serial.items():
        np.testing.assert_array_equal(stack, parallel[name])


def test_chunk_boundaries_do_not_follow_the_worker_split(monkeypatch):
    # 37 trials in chunks of 4: ten chunks, the last one ragged, dealt out
    # to 1, 2, 3 and 5 processes in whole chunks
    prep = link.prepare(_SCN)
    _budget_for(monkeypatch, prep, 4)
    serial = link.trial_outcomes(prep, 37, seed=9, workers=1)
    for workers in (2, 3, 5):
        pooled = link.trial_outcomes(prep, 37, seed=9, workers=workers)
        for name, stack in serial.items():
            assert stack.shape == (37, _SCN.K)
            np.testing.assert_array_equal(stack, pooled[name])


def test_single_trial_chunks_agree_with_default_chunks(monkeypatch):
    prep = link.prepare(_SCN)
    assert _trial_size(prep) > 30
    default = link.trial_outcomes(prep, 30, seed=9)
    monkeypatch.setattr(channel, "CHUNK_BYTES", 1)
    assert _trial_size(prep) == 1
    single = link.trial_outcomes(prep, 30, seed=9)
    for name, stack in default.items():
        np.testing.assert_allclose(single[name], stack, rtol=1e-12, atol=0.0)


def test_worker_count_below_one_is_refused():
    prep = link.prepare(_SCN)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="at least 1"):
            link.trial_outcomes(prep, 8, seed=9, workers=workers)


def test_pool_class_is_looked_up_on_the_module(monkeypatch):
    # link imports its pool on first use; a class set on the module
    # (as a tracing harness does) must still be the one trial_outcomes runs
    from concurrent.futures import Future
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(link, "ProcessPoolExecutor", InlinePool)
    prep = link.prepare(_SCN)
    # a pool opens only for more than one chunk of trials
    _budget_for(monkeypatch, prep, 5)
    serial = link.trial_outcomes(prep, 12, seed=9, workers=1)
    pooled = link.trial_outcomes(prep, 12, seed=9, workers=2)
    assert opened == [2]
    for name, stack in serial.items():
        np.testing.assert_array_equal(stack, pooled[name])


def test_trials_are_keyed_by_index_not_position():
    # the first trials of a long run must replay a short run exactly
    prep = link.prepare(_SCN)
    short = link.trial_outcomes(prep, 8, seed=9)
    long = link.trial_outcomes(prep, 16, seed=9)
    for name, stack in short.items():
        np.testing.assert_array_equal(stack, long[name][:8])


def test_trials_are_keyed_by_index_across_chunks(monkeypatch):
    # the same with a ragged last chunk on both sides: the short run's last
    # chunk is padded, not narrowed, so its trials see the same arithmetic
    prep = link.prepare(_SCN)
    _budget_for(monkeypatch, prep, 5)
    short = link.trial_outcomes(prep, 8, seed=9)
    long = link.trial_outcomes(prep, 13, seed=9)
    for name, stack in short.items():
        np.testing.assert_array_equal(stack, long[name][:8])


_PERFECT = _SCN.with_updates(csi="perfect")


def test_perfect_csi_error_stacks_are_exactly_zero():
    prep = link.prepare(_PERFECT)
    assert prep.sqrt_recv1_err is None and prep.sqrt_recv2_err is None
    draws = link._trial_draws(prep)
    normals = substream(3, "normals").standard_normal((4, channel.normals_per_trial(draws)))
    f_hat, f_err, g_hat, g_err = link._channel_stacks(
        prep, channel.split_normals(normals, *draws))
    assert f_err.shape == f_hat.shape == (4, _SCN.N, _SCN.K)
    assert g_err.shape == g_hat.shape == (4, _SCN.M, _SCN.K)
    assert np.all(f_err == 0.0) and np.all(g_err == 0.0)
    assert np.all(f_hat != 0.0) and np.all(g_hat != 0.0)


def test_skipped_error_products_equal_products_with_zero():
    # the skipped GEMMs give exactly what multiplying the normals by the
    # all-zero error factors gives; the normals are drawn either way
    prep = link.prepare(_PERFECT)
    hop1, hop2 = cfg.scenario_models(_PERFECT)
    zeros = dataclasses.replace(prep, sqrt_recv1_err=hop1.receive_sqrt()[1],
                                sqrt_recv2_err=hop2.receive_sqrt()[1])
    assert not zeros.sqrt_recv1_err.any() and not zeros.sqrt_recv2_err.any()
    for sampled in (False, True):
        skipped = link.trial_outcomes(prep, 12, seed=4, sample_quantization_noise=sampled)
        multiplied = link.trial_outcomes(zeros, 12, seed=4, sample_quantization_noise=sampled)
        for name, stack in skipped.items():
            np.testing.assert_array_equal(stack, multiplied[name])


@pytest.mark.parametrize("scn, per_chunk", [(_SCN, 4), (_PERFECT, 2)],
                         ids=["estimated", "perfect"])
def test_receive_gemms_per_chunk(monkeypatch, scn, per_chunk):
    # every receive square root meets a chunk as one GEMM; the perfect-CSI
    # error factors are zero and meet it not at all
    prep = link.prepare(scn)
    _budget_for(monkeypatch, prep, 4)
    calls = []
    original = channel.left_multiply

    def counting(mat, x):
        calls.append((mat.shape, x.shape))
        return original(mat, x)

    monkeypatch.setattr(channel, "left_multiply", counting)
    monkeypatch.setattr(link, "left_multiply", counting)
    link.trial_outcomes(prep, 10, seed=9)
    assert len(calls) == 3 * per_chunk
    assert all(x_shape[1] == 4 for _, x_shape in calls)
    calls.clear()
    link.amplification_factor_mc(scn, trials=12, seed=9, prep=prep)
    chunks = -(-12 // channel.chunk_size(link._trial_draws(prep)[:4]))
    assert len(calls) == chunks * per_chunk // 2


def test_report_fields_and_reproducibility():
    report = link.ergodic_sum_rate_mc(_SCN)
    again = link.ergodic_sum_rate_mc(_SCN)
    assert report.provenance == "monte-carlo"
    assert report.trials == _SCN.trials
    assert report.ci_halfwidth > 0.0
    assert report.sum_rate == again.sum_rate
    per_user = _SCN.mu * np.log2(1.0 + report.sinr())
    assert report.per_user_rate.shape == (_SCN.K,)
    assert report.sum_rate > 0.0
    # per-user rates from averaged powers differ from the averaged log only
    # through Jensen gaps, so just check scale agreement
    assert 0.5 < report.per_user_rate.sum() / (per_user.sum()) < 2.0


def test_sampled_quantization_noise_agrees_with_conditional():
    scn = _SCN.with_updates(N=16, trials=1)
    prep = link.prepare(scn)
    trials = 1500
    cond = link.trial_outcomes(prep, trials, seed=21)
    samp = link.trial_outcomes(prep, trials, seed=22,
                               sample_quantization_noise=True)
    for name in ("relay_quant_raw", "bs_quant_raw"):
        m_cond = cond[name].mean(axis=0)
        m_samp = samp[name].mean(axis=0)
        se = np.sqrt(cond[name].std(axis=0, ddof=1) ** 2
                     + samp[name].std(axis=0, ddof=1) ** 2) / np.sqrt(trials)
        dev = np.abs(m_samp - m_cond) / se
        assert dev.max() < 5.0, f"{name}: {dev.max():.2f} se"


def test_sampled_mode_changes_nothing_for_ideal_adcs():
    scn = _SCN.with_updates(q1=None, q2=None)
    prep = link.prepare(scn)
    cond = link.trial_outcomes(prep, 6, seed=13)
    samp = link.trial_outcomes(prep, 6, seed=13,
                               sample_quantization_noise=True)
    for name, stack in cond.items():
        np.testing.assert_array_equal(stack, samp[name])
    assert np.all(cond["relay_quant_raw"] == 0.0)
    assert np.all(cond["bs_quant_raw"] == 0.0)


def test_mc_rate_matches_closed_form_at_moderate_size():
    from relaysim import analysis
    scn = cfg.ScenarioConfig(N=64, delta=1.5, K=5, q1=3, q2=3,
                             betas=(1.0, 0.8, 1.2, 0.9, 1.1), eta=0.8,
                             r_R=0.4, r_B=0.3, trials=400, seed=17)
    closed = analysis.sum_rate_approx(scn).sum_rate
    mc = link.ergodic_sum_rate_mc(scn)
    assert abs(mc.sum_rate - closed) / closed < 0.05


def test_empty_system_mc_report():
    scn = cfg.ScenarioConfig(K=0, betas=())
    report = link.ergodic_sum_rate_mc(scn)
    assert report.sum_rate == 0.0
    assert report.provenance == "monte-carlo"


def test_amplification_mc_is_deterministic():
    one = link.amplification_factor_mc(_SCN, trials=50, seed=4)
    two = link.amplification_factor_mc(_SCN, trials=50, seed=4)
    assert one == two


def test_indefinite_first_hop_error_model_is_refused_by_both_engines():
    # the weak user's error gain would be negative (about -0.30): neither
    # the closed form nor the sampler may run on that non-distribution
    scn = cfg.ScenarioConfig(N=64, K=2, betas=(1.0, 0.1), trials=10)
    with pytest.raises(DegenerateEstimateError, match="indefinite"):
        analysis.sum_rate_approx(scn)
    with pytest.raises(DegenerateEstimateError, match="indefinite"):
        link.ergodic_sum_rate_mc(scn)


_coefficient = st.one_of(
    st.floats(-0.95, 0.95),
    st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(-np.pi, np.pi)))


@st.composite
def _scenarios(draw):
    """Valid small scenarios on both sides of the indefinite-error boundary:
    weak users, strong correlation and few antennas per stream."""
    k = draw(st.integers(1, 6))
    tau = k + draw(st.integers(0, 4))
    return cfg.ScenarioConfig(
        N=draw(st.integers(k, 48)), K=k, delta=draw(st.sampled_from((1.0, 1.5, 2.0))),
        tau1=tau, tau2=tau, q1=draw(st.sampled_from((1, 2, 3, IDEAL))),
        q2=draw(st.sampled_from((1, 2, 3, IDEAL))),
        P1=draw(st.sampled_from((1.0, 100.0, 1e4))),
        P2=draw(st.sampled_from((1.0, 10.0 ** 2.5, 1e4))),
        r_R=draw(_coefficient), r_B=draw(_coefficient),
        betas=tuple(draw(st.lists(st.floats(0.02, 3.0), min_size=k, max_size=k))),
        eta=draw(st.floats(0.05, 2.0)), trials=1)


def _error_transmit_eigenvalues(hop, adc, power):
    """Eigenvalues of the error transmit matrix as equivalent_form would
    build it, by a dense eigensolver and without its refusal."""
    f, g, h = est._receive_split(hop, *est._observation_constants(hop, adc, power))
    k = hop.shape[1]
    shared = (hop.trace / k) * float(g @ h) * np.eye(k)
    return np.linalg.eigvalsh(((g.sum() + g @ h) * hop.transmit - shared) / g.sum())


@settings(max_examples=80, deadline=None)
@given(scn=_scenarios())
def test_engines_refuse_together_and_accepted_models_factor(scn):
    outcomes = []
    for engine in (analysis.sum_rate_approx, link.prepare):
        try:
            engine(scn)
            outcomes.append("accepted")
        except DegenerateEstimateError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    refused = False
    hops = cfg.scenario_hops(scn)
    for hop, adc, power in zip(hops, (scn.adc1, scn.adc2), (scn.P1, scn.P2)):
        try:
            model = est.equivalent_form(hop, adc, power)
        except DegenerateEstimateError:
            # the margin refused: the dense error spectrum dips below zero
            assert _error_transmit_eigenvalues(hop, adc, power)[0] < 0.0
            refused = True
            continue
        assert _error_transmit_eigenvalues(hop, adc, power)[0] > -1e-12
        model.validate()
        for root, mat in zip(model.transmit_sqrt(), (model.transmit_hat, model.transmit_err)):
            scale = max(1.0, float(np.abs(mat).max()))
            np.testing.assert_allclose(root @ root, mat, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(root, root.conj().T, rtol=0, atol=1e-12 * scale)
    event("refused" if refused else "accepted")
    assert (outcomes[0] == "accepted") == (not refused)
