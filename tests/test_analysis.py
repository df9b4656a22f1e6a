"""Closed-form moment and rate checks against analytic cases and Monte Carlo."""

import numpy as np
import pytest

from relaysim import analysis, config as cfg, correlation as corr, estimation as est, link
from relaysim.channel import substream
from relaysim.quantizer import IDEAL, AdcSpec


def _rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


# ---------------------------------------------------------------------------
# product-matrix moments

def test_lemma_moments_identity_matrices():
    m = 5
    eye = np.eye(m)
    same = analysis.lemma1_moments(eye, eye, 2, 2)
    assert same.inner_first == pytest.approx(m)
    assert same.inner_second == pytest.approx(m ** 2 + m)
    np.testing.assert_allclose(same.row_first, np.ones(m), atol=1e-14)
    np.testing.assert_allclose(same.row_second, 2.0 * np.ones(m), atol=1e-14)
    diff = analysis.lemma1_moments(eye, eye, 0, 3)
    assert diff.inner_first == pytest.approx(0.0)
    assert diff.inner_second == pytest.approx(m)
    np.testing.assert_allclose(diff.row_first, np.zeros(m), atol=1e-14)
    np.testing.assert_allclose(diff.row_second, np.ones(m), atol=1e-14)


def test_lemma_moments_against_sampling():
    rng = substream(11, "lemma-mc-test")
    p_mat = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) / 2
    q_mat = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 2
    for i, j in ((0, 1), (2, 2)):
        closed = analysis.lemma1_moments(p_mat, q_mat, i, j)
        sampled = analysis.lemma1_moments_mc(p_mat, q_mat, i, j, 40000, rng)
        assert abs(sampled.inner_first - closed.inner_first) \
            <= 5.0 * max(sampled.inner_first_se, 1e-12)
        assert abs(sampled.inner_second - closed.inner_second) \
            <= 5.0 * max(sampled.inner_second_se, 1e-12)
        np.testing.assert_array_less(
            np.abs(sampled.row_first - closed.row_first),
            5.0 * np.maximum(sampled.row_first_se, 1e-12))
        np.testing.assert_array_less(
            np.abs(sampled.row_second - closed.row_second),
            5.0 * np.maximum(sampled.row_second_se, 1e-12))


# ---------------------------------------------------------------------------
# separable-moment oracles against the Monte Carlo engine

_MOMENT_SCENARIO = cfg.ScenarioConfig(
    N=24, delta=1.5, K=4, tau1=8, tau2=8, q1=2, q2=3,
    betas=(1.0, 0.7, 1.3, 0.9), eta=0.8, r_R=0.6, r_B=0.5,
    csi="estimated", trials=900, seed=7)


def test_moment_oracles_match_simulation():
    scn = _MOMENT_SCENARIO
    prep = link.prepare(scn)
    outcomes = link.trial_outcomes(prep, scn.trials, scn.seed)
    cross = analysis.cross_moment(prep.hop1, prep.hop2)
    predictions = {
        "desired_raw": analysis.desired_signal_moment(prep.hop1, prep.hop2),
        "leakage_raw": analysis.leakage_moment(prep.hop1, prep.hop2),
        "cross_raw": cross.sum(axis=1) - np.diag(cross),
        "chain_raw": analysis.chain_norm_moment(prep.hop1, prep.hop2),
        "relay_quant_raw": analysis.relay_quant_moment(
            prep.hop1, prep.hop2, scn.adc1, scn.P_U, scn.sigma_R2),
        "bs_vector_raw": analysis.bs_vector_moment(prep.hop2),
        "bs_quant_raw": analysis.bs_quant_moment(
            prep.hop2, scn.adc2, scn.P_R, scn.sigma_B2),
    }
    for name, predicted in predictions.items():
        stack = outcomes[name]
        mean = stack.mean(axis=0)
        se = stack.std(axis=0, ddof=1) / np.sqrt(scn.trials)
        dev = np.abs(mean - predicted) / np.maximum(se, 1e-300)
        assert dev.max() < 5.0, f"{name}: worst deviation {dev.max():.2f} se"


def test_cross_moment_diagonal_decomposes():
    hop1, hop2 = cfg.scenario_models(_MOMENT_SCENARIO)
    cross = analysis.cross_moment(hop1, hop2)
    desired = analysis.desired_signal_moment(hop1, hop2)
    leak = analysis.leakage_moment(hop1, hop2)
    np.testing.assert_allclose(np.diag(cross), desired + leak, rtol=1e-10)


def test_amplification_closed_form_matches_sampling():
    scn = _MOMENT_SCENARIO
    closed = link.prepare(scn).kappa
    sampled = link.amplification_factor_mc(scn, trials=1500, seed=3)
    assert abs(sampled - closed) / closed < 0.02


# ---------------------------------------------------------------------------
# genie CSI: closed-form receive scalars, eigendata only on demand

_GENIE_SCENARIO = cfg.ScenarioConfig(N=48, delta=1.5, K=5, q1=2, q2=1,
                                     betas=(1.0, 0.8, 1.2, 0.6, 1.1), eta=0.9,
                                     r_R=0.6, r_B=0.5, csi="perfect", trials=400,
                                     seed=13)


def test_genie_scalars_match_their_eigendata():
    for scn in (_GENIE_SCENARIO,
                _GENIE_SCENARIO.with_updates(r_R=0.5 + 0.3j, r_B=0.0)):
        for model in cfg.scenario_models(scn):
            scalars = model.scalars
            _, u, lam, err = model.eigendata
            assert not np.any(err)
            assert scalars.tr_hat == pytest.approx(lam.sum(), rel=1e-12)
            assert scalars.fro_hat == pytest.approx(lam @ lam, rel=1e-12)
            assert scalars.cross == 0.0
            np.testing.assert_allclose(scalars.diag_hat, np.abs(u) ** 2 @ lam,
                                       rtol=1e-12)
            assert np.all(scalars.diag_err == 0.0)


def test_sum_rate_approx_uses_genie_models_in_perfect_mode(monkeypatch):
    # genie models need only the K x K transmit correlation: no eigh and no
    # receive-size correlation matrix, whatever the antenna counts
    scn = cfg.table_defaults().with_updates(N=4096, csi="perfect")
    calls = _count_eigh(monkeypatch)
    sizes = []
    original = corr.exponential_correlation

    def counting(r, n):
        sizes.append(n)
        return original(r, n)

    for module in (corr, cfg, est):
        monkeypatch.setattr(module, "exponential_correlation", counting)
    report = analysis.sum_rate_approx(scn)
    assert calls == []
    assert sizes and max(sizes) <= scn.K
    assert np.isfinite(report.sum_rate) and report.sum_rate > 0.0


def test_perfect_csi_closed_form_matches_simulation():
    scn = _GENIE_SCENARIO
    closed = analysis.sum_rate_approx(scn)
    stacks = link.trial_outcomes(link.prepare(scn), scn.trials, scn.seed)
    for name in ("signal", "interference", "noise_relay", "noise_bs"):
        stack = stacks[name]
        se = stack.std(axis=0, ddof=1) / np.sqrt(scn.trials)
        dev = np.abs(stack.mean(axis=0) - getattr(closed, name)) / se
        assert dev.max() < 5.0, f"{name}: worst deviation {dev.max():.2f} se"


# ---------------------------------------------------------------------------
# report bookkeeping

def test_report_recomputes_from_terms():
    scn = _MOMENT_SCENARIO
    report = analysis.sum_rate_approx(scn)
    assert report.provenance == "closed-form"
    sinr = report.sinr()
    expected = scn.mu * np.sum(np.log2(1.0 + sinr))
    assert report.sum_rate == pytest.approx(expected, rel=1e-12)
    np.testing.assert_array_less(0.0, report.signal)
    np.testing.assert_array_less(0.0, report.interference)
    np.testing.assert_array_less(0.0, report.noise_relay)
    np.testing.assert_array_less(0.0, report.noise_bs)
    assert report.per_user_rate.shape == (scn.K,)


def test_empty_system_reports_zero_rate():
    scn = cfg.ScenarioConfig(K=0, betas=())
    report = analysis.sum_rate_approx(scn)
    assert report.sum_rate == 0.0
    assert report.per_user_rate.shape == (0,)


# ---------------------------------------------------------------------------
# resolution and correlation orderings of the closed form

def test_rate_improves_with_resolution():
    base = cfg.ScenarioConfig(N=96, K=6, betas=(1.0,) * 6, eta=1.0)
    rates = [analysis.sum_rate_approx(base.with_updates(q1=q, q2=q)).sum_rate
             for q in (1, 3, IDEAL)]
    assert rates[0] < rates[1] < rates[2]


def test_rate_degrades_with_correlation():
    base = cfg.ScenarioConfig(N=96, K=6, betas=(1.0,) * 6, eta=1.0)
    clean = analysis.sum_rate_approx(base.with_updates(r_R=0.0, r_B=0.0))
    tight = analysis.sum_rate_approx(base.with_updates(r_R=0.9, r_B=0.9))
    assert tight.sum_rate < clean.sum_rate


# ---------------------------------------------------------------------------
# power-scaling limits

_LIMIT_ARGS = dict(gains=np.array([1.0, 2.0]), relay_gain=0.5,
                   adc1=AdcSpec.from_bits(2), adc2=AdcSpec.from_bits(3),
                   relay_noise_var=1.3, bs_noise_var=0.7,
                   e_u=4.0, e_r=9.0, user=1)


def test_limit_unbounded_when_both_exponents_small():
    lim = analysis.power_scaling_limit(a=0.5, b=0.5, **_LIMIT_ARGS)
    assert lim.regime == "unbounded"
    assert np.isinf(lim.value)


def test_limit_vanishes_when_scaling_too_fast():
    for a, b in ((1.5, 1.0), (1.0, 1.2), (2.0, 2.0)):
        lim = analysis.power_scaling_limit(a=a, b=b, **_LIMIT_ARGS)
        assert lim.regime == "vanishing"
        assert lim.value == 0.0


def test_limit_user_power_only():
    # scaling only the user power with clean relay ADCs leaves
    # beta * E_U / sigma_R^2 exactly
    lim = analysis.power_scaling_limit(
        gains=np.array([1.0]), relay_gain=0.5, adc1=AdcSpec.from_bits(IDEAL),
        adc2=AdcSpec.from_bits(3), relay_noise_var=1.0, bs_noise_var=0.7,
        a=1.0, b=0.5, e_u=10.0, e_r=9.0, user=0)
    assert lim.regime == "user-limited"
    assert lim.value == pytest.approx(10.0, rel=1e-12)


def test_limit_relay_power_only():
    lim = analysis.power_scaling_limit(a=0.5, b=1.0, **_LIMIT_ARGS)
    assert lim.regime == "relay-limited"
    alpha2 = 1.0 - 0.03454
    expected = alpha2 * 4.0 * 0.5 * 9.0 / (0.7 * 5.0)
    assert lim.value == pytest.approx(expected, rel=1e-6)


def test_limit_joint_scaling_hand_check():
    lim = analysis.power_scaling_limit(a=1.0, b=1.0, **_LIMIT_ARGS)
    assert lim.regime == "jointly-limited"
    alpha1 = 1.0 - 0.1175
    alpha2 = 1.0 - 0.03454
    zeta = (alpha2 * 2.0 * 0.5 * 1.3 * 9.0
            + 0.7 * (alpha1 * 4.0 * 5.0 + 1.3 * 3.0))
    assert lim.zeta == pytest.approx(zeta, rel=1e-9)
    expected = alpha1 * alpha2 * 4.0 * 0.5 * 4.0 * 9.0 / zeta
    assert lim.value == pytest.approx(expected, rel=1e-9)


def test_joint_scaling_limit_is_approached():
    # equal-gain users, matched powers chosen so the finite-system rate sits
    # near its limit already at moderate antenna counts
    scn = cfg.ScenarioConfig(N=4096, K=10, q1=2, q2=2, csi="perfect",
                             betas=(1.0,) * 10, eta=1.0, E_U=1.0,
                             E_R=10.0 ** 0.5, a=1.0, b=1.0)
    finite = analysis.sum_rate_approx(scn).sum_rate
    limit = analysis.asymptotic_sum_rate(scn)
    assert np.isfinite(limit) and limit > 0.0
    assert _rel(finite, limit) < 0.02


def test_asymptotic_sum_rate_propagates_infinity():
    scn = cfg.ScenarioConfig(N=128, K=4, betas=(1.0,) * 4, eta=1.0,
                             a=0.5, b=0.5)
    assert np.isinf(analysis.asymptotic_sum_rate(scn))


# ---------------------------------------------------------------------------
# edges of the input space

def test_rate_converges_to_perfect_csi_as_pilot_power_grows():
    base = cfg.table_defaults().with_updates(q1=IDEAL, q2=IDEAL)
    perfect = analysis.sum_rate_approx(base.with_updates(csi="perfect")).sum_rate
    rates = {}
    for exponent in range(2, 21, 2):
        power = 10.0 ** exponent
        rates[exponent] = analysis.sum_rate_approx(
            base.with_updates(P1=power, P2=power)).sum_rate
    assert all(rates[e] < rates[e + 2] for e in range(2, 10, 2))
    assert abs(rates[20] - perfect) / perfect <= 1e-9


# ---------------------------------------------------------------------------
# one spectral split per array

def _count_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counting(mat, *args, **kwargs):
        calls.append((np.asarray(mat).shape[0], np.iscomplexobj(mat)))
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_closed_form_decomposes_each_receive_array_once(monkeypatch):
    scn = cfg.table_defaults().with_updates(N=64)
    calls = _count_eigh(monkeypatch)
    analysis.sum_rate_approx(scn)
    assert sorted(calls) == [(scn.N, False), (scn.M, False)]


def test_prepare_reuses_the_models_eigendata(monkeypatch):
    scn = cfg.table_defaults().with_updates(N=64)
    models = cfg.scenario_models(scn)
    calls = _count_eigh(monkeypatch)
    link.prepare(scn, models=models)
    assert all(size <= scn.K for size, _ in calls)
