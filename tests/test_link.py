"""Monte Carlo engine checks: bookkeeping, determinism, and consistency."""

import cmath

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from relaysim import analysis, config as cfg, estimation as est, link
from relaysim.channel import substream
from relaysim.errors import DegenerateEstimateError
from relaysim.quantizer import IDEAL

_SCN = cfg.ScenarioConfig(N=20, delta=1.5, K=3, tau1=6, tau2=6, q1=2, q2=2,
                          betas=(1.0, 0.7, 1.2), eta=0.9, r_R=0.5, r_B=0.4,
                          trials=60, seed=5)


def test_trial_bookkeeping_identities():
    prep = link.prepare(_SCN)
    scn = prep.scenario
    a1, a2 = scn.adc1.alpha, scn.adc2.alpha
    out = link.run_trial(prep, substream(scn.seed, "rate-trial", 0))
    np.testing.assert_allclose(out.signal, prep.chi * out.desired_raw,
                               rtol=1e-12)
    np.testing.assert_allclose(
        out.interference, prep.chi * (out.leakage_raw + out.cross_raw),
        rtol=1e-12)
    np.testing.assert_allclose(
        out.noise_relay,
        a1 ** 2 * a2 ** 2 * prep.kappa ** 2 * scn.sigma_R2 * out.chain_raw
        + a2 ** 2 * prep.kappa ** 2 * out.relay_quant_raw, rtol=1e-12)
    np.testing.assert_allclose(
        out.noise_bs,
        a2 ** 2 * scn.sigma_B2 * out.bs_vector_raw + out.bs_quant_raw,
        rtol=1e-12)
    assert np.all(out.sinr() > 0.0)


def test_worker_count_does_not_change_results():
    prep = link.prepare(_SCN)
    serial = link.trial_outcomes(prep, 24, seed=9, workers=1)
    parallel = link.trial_outcomes(prep, 24, seed=9, workers=3)
    for name, stack in serial.items():
        np.testing.assert_array_equal(stack, parallel[name])


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
