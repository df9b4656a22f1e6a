"""Closed-form moment and rate checks against analytic cases and Monte Carlo."""

import tracemalloc

import numpy as np
import pytest

from relaysim import (analysis, channel, config as cfg, correlation as corr,
                      estimation as est, link)
from relaysim.channel import substream
from relaysim.quantizer import IDEAL


def _rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


# ---------------------------------------------------------------------------
# product-matrix moments

def test_lemma_moments_identity_matrices():
    m = 5
    eye = np.eye(m)
    same = analysis.lemma1_moments(eye, eye, 2, 2)
    assert same["inner_first"] == pytest.approx(m)
    assert same["inner_second"] == pytest.approx(m ** 2 + m)
    np.testing.assert_allclose(same["row_first"], np.ones(m), atol=1e-14)
    np.testing.assert_allclose(same["row_second"], 2.0 * np.ones(m), atol=1e-14)
    diff = analysis.lemma1_moments(eye, eye, 0, 3)
    assert diff["inner_first"] == pytest.approx(0.0)
    assert diff["inner_second"] == pytest.approx(m)
    np.testing.assert_allclose(diff["row_first"], np.zeros(m), atol=1e-14)
    np.testing.assert_allclose(diff["row_second"], np.ones(m), atol=1e-14)


def test_lemma_moments_against_sampling():
    rng = substream(11, "lemma-mc-test")
    p_mat = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))) / 2
    q_mat = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 2
    for i, j in ((0, 1), (2, 2)):
        closed = analysis.lemma1_moments(p_mat, q_mat, i, j)
        mean, se = analysis.lemma1_moments_mc(p_mat, q_mat, i, j, 40000, rng)
        assert abs(mean["inner_first"] - closed["inner_first"]) \
            <= 5.0 * max(se["inner_first"], 1e-12)
        assert abs(mean["inner_second"] - closed["inner_second"]) \
            <= 5.0 * max(se["inner_second"], 1e-12)
        np.testing.assert_array_less(
            np.abs(mean["row_first"] - closed["row_first"]),
            5.0 * np.maximum(se["row_first"], 1e-12))
        np.testing.assert_array_less(
            np.abs(mean["row_second"] - closed["row_second"]),
            5.0 * np.maximum(se["row_second"], 1e-12))


def test_lemma_sampler_draws_through_draw_hop_once_per_chunk(monkeypatch):
    # the oracle samples Y = P X Q on the trial engines' own path: rng fills
    # the chunks of channel.sample and each chunk meets draw_hop once
    p_mat, q_mat = np.ones((4, 3)), np.ones((2, 5))
    draws = [(3, 2)] * 2
    monkeypatch.setattr(channel, "CHUNK_BYTES", 8 * channel.normals_per_trial(draws) * 4)
    assert channel.chunk_size(draws) == 4
    assert analysis.draw_hop is channel.draw_hop
    calls = []

    def counting(recv_sqrt, tx_sqrt, gain, h):
        calls.append((recv_sqrt, tx_sqrt, gain, h.shape))
        return channel.draw_hop(recv_sqrt, tx_sqrt, gain, h)

    monkeypatch.setattr(analysis, "draw_hop", counting)
    analysis.lemma1_moments_mc(p_mat, q_mat, 0, 4, 10, substream(5, "lemma-chunks"))
    assert [(p is p_mat, q is q_mat, gain, shape) for p, q, gain, shape in calls] == \
        [(True, True, 1.0, (3, 4, 2))] * 3


# ---------------------------------------------------------------------------
# separable-moment oracles against the Monte Carlo engine

_MOMENT_SCENARIO = cfg.ScenarioConfig(
    N=24, delta=1.5, K=4, tau1=8, tau2=8, q1=2, q2=3,
    betas=(1.0, 0.7, 1.3, 0.9), eta=0.8, r_R=0.6, r_B=0.5,
    csi="estimated", trials=900, seed=7)


def test_moment_oracles_match_simulation():
    scn = _MOMENT_SCENARIO
    hop1, hop2 = cfg.scenario_models(scn)
    outcomes = link.trial_outcomes(scn, (hop1, hop2))
    for name, predicted in analysis.moments(hop1, hop2, scn).items():
        stack = outcomes[name]
        mean = stack.mean(axis=0)
        se = stack.std(axis=0, ddof=1) / np.sqrt(scn.trials)
        dev = np.abs(mean - predicted) / np.maximum(se, 1e-300)
        assert dev.max() < 5.0, f"{name}: worst deviation {dev.max():.2f} se"


def test_moments_are_keyed_like_the_raw_trial_fields():
    # the combine stage samples each moment of the closed form, no more
    scn = _MOMENT_SCENARIO
    models = cfg.scenario_models(scn)
    draws = link._trial_draws(scn)
    normals = substream(2, "chunk").standard_normal((3, channel.normals_per_trial(draws)))
    factors = [(root, tx_sqrt, model.hop.gain) for model in models
               for root, tx_sqrt in zip(*est.model_factors(model))]
    stacks = link._channel_stacks(factors, channel.split_normals(normals, *draws))
    combined = link._combine(scn, *stacks)
    assert list(analysis.moments(*models, scn)) == list(combined)
    assert len(combined) == 10 and all(name.endswith("_raw") for name in combined)


def test_amplification_closed_form_matches_sampling():
    # one assembly gives kappa from the closed-form moments and from the
    # rate trials' sampled ones; the rate trials run at the closed-form kappa
    scn = _MOMENT_SCENARIO.with_updates(trials=1500, seed=3)
    models = cfg.scenario_models(scn)
    closed = analysis.amplification_factor(scn, analysis.moments(*models, scn))
    stacks = link.trial_outcomes(scn, models)
    sampled = analysis.amplification_factor(scn, stacks)
    assert stacks["kappa"] == closed
    assert abs(sampled - closed) / closed < 0.02


# ---------------------------------------------------------------------------
# genie CSI: the same receive scalars with c = 0, eigenvectors only on demand

_GENIE_SCENARIO = cfg.ScenarioConfig(N=48, delta=1.5, K=5, q1=2, q2=1,
                                     betas=(1.0, 0.8, 1.2, 0.6, 1.1), eta=0.9,
                                     r_R=0.6, r_B=0.5, csi="perfect", trials=400,
                                     seed=13)


def test_genie_scalars_match_their_eigendata():
    # the genie split is f = lam and g = 0 exactly, and the pivot sweep
    # returns the unit diagonal exactly; the eigenvectors only confirm it
    for scn in (_GENIE_SCENARIO,
                _GENIE_SCENARIO.with_updates(r_R=0.5 + 0.3j, r_B=0.0)):
        for model, hop in zip(cfg.scenario_models(scn), cfg.scenario_hops(scn)):
            tr, fro, cross, diag_sq, diag_mix = analysis._receive_sums(model)
            u, (lam, err) = corr.exponential_basis(hop.r, hop.spectrum[1]), model.split
            np.testing.assert_array_equal(lam, hop.spectrum[0])
            assert not np.any(err)
            assert tr == pytest.approx(hop.n, rel=1e-12)
            assert fro == pytest.approx(corr.exp_frobenius_sq(hop.r, hop.n), rel=1e-12)
            assert cross == 0.0
            diag_hat, diag_err = corr.exponential_split_diagonals(hop.r, hop.n, *model.obs)
            assert np.all(diag_hat == 1.0) and np.all(diag_err == 0.0)
            assert diag_sq == hop.n and diag_mix == 0.0
            np.testing.assert_allclose(np.abs(u) ** 2 @ lam, diag_hat, rtol=1e-12)


def test_sum_rate_approx_uses_genie_models_in_perfect_mode(monkeypatch):
    # genie models read each receive array through its eigenvalues alone:
    # no eigh, no eigenvectors and no receive-size correlation matrix,
    # whatever the antenna counts
    scn = cfg.table_defaults().with_updates(N=4096, csi="perfect")
    calls = _count_eigh(monkeypatch)
    spectra = _count_spectra(monkeypatch)
    sizes = []
    original = corr.exponential_correlation

    def counting(r, n):
        sizes.append(n)
        return original(r, n)

    for module in (corr, est):
        monkeypatch.setattr(module, "exponential_correlation", counting)
    report = analysis.sum_rate_approx(scn)
    assert calls == []
    assert sorted(spectra["eigenvalues"]) == [scn.N, scn.M] and spectra["basis"] == []
    assert sizes and max(sizes) <= scn.K
    assert np.isfinite(report.sum_rate) and report.sum_rate > 0.0


def test_perfect_csi_closed_form_matches_simulation():
    scn = _GENIE_SCENARIO
    models = cfg.scenario_models(scn)
    closed = analysis.sum_rate_approx(scn, models=models)
    stacks = link.trial_outcomes(scn, models)
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
    sinr = report.sinr()
    expected = scn.mu * np.sum(np.log2(1.0 + sinr))
    assert report.sum_rate == pytest.approx(expected, rel=1e-12)
    np.testing.assert_array_less(0.0, report.signal)
    np.testing.assert_array_less(0.0, report.interference)
    np.testing.assert_array_less(0.0, report.noise_relay)
    np.testing.assert_array_less(0.0, report.noise_bs)
    assert report.per_user_rate.shape == (scn.K,)


def test_report_terms_are_the_shared_assembly_of_the_moments():
    scn = _MOMENT_SCENARIO
    hop1, hop2 = cfg.scenario_models(scn)
    report = analysis.sum_rate_approx(scn, models=(hop1, hop2))
    raw = analysis.moments(hop1, hop2, scn)
    terms = analysis.sinr_terms(raw, scn, report.kappa)
    assert report.kappa == analysis.amplification_factor(scn, raw)
    for name, term in terms.items():
        np.testing.assert_array_equal(getattr(report, name), term)


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

_LIMIT_ARGS = cfg.ScenarioConfig(K=2, betas=(1.0, 2.0), eta=0.5, q1=2, q2=3,
                                 sigma_R2=1.3, sigma_B2=0.7, E_U=4.0, E_R=9.0)


_ALPHA1 = 1.0 - 0.1175        # q1 = 2
_ALPHA2 = 1.0 - 0.03454       # q2 = 3
_BETAS = np.array(_LIMIT_ARGS.betas)


def _limit(**exponents):
    """(regime, limits) of _LIMIT_ARGS at the given exponents."""
    return analysis.power_scaling_limit(_LIMIT_ARGS.with_updates(**exponents))


def test_limit_unbounded_when_both_exponents_small():
    regime, limits = _limit(a=0.5, b=0.5)
    assert regime == "unbounded"
    assert limits.shape == (2,) and np.all(np.isinf(limits))


def test_limit_vanishes_when_scaling_too_fast():
    for a, b in ((1.5, 1.0), (1.0, 1.2), (2.0, 2.0)):
        regime, limits = _limit(a=a, b=b)
        assert regime == "vanishing"
        np.testing.assert_array_equal(limits, [0.0, 0.0])


@pytest.mark.parametrize("exponent", ["a", "b"])
def test_power_that_overflows_is_zero_and_its_rate_vanishes(exponent):
    # N ** 150 and M ** 150 overflow a float: the scaled power is its limit,
    # 0.0, and both engines give a zero rate; an exponent whose power does
    # not overflow keeps the formula's value
    scn = cfg.ScenarioConfig(trials=4, **{exponent: 150.0})
    assert (scn.P_U == 0.0) == (exponent == "a") and (scn.P_R == 0.0) == (exponent == "b")
    assert analysis.sum_rate_approx(scn).sum_rate == 0.0
    assert link.ergodic_sum_rate_mc(scn).sum_rate == 0.0
    assert analysis.power_scaling_limit(scn)[0] == "vanishing"
    assert cfg.ScenarioConfig(a=140.0).P_U == 100.0 / 128 ** 140.0
    assert cfg.ScenarioConfig(b=120.0).P_R == 10.0 ** 2.5 / 256 ** 120.0


def test_limit_user_power_only():
    # scaling only the user power with clean relay ADCs leaves
    # beta_k * E_U / sigma_R^2 exactly
    regime, limits = _limit(q1=IDEAL, sigma_R2=1.0, a=1.0, b=0.5, E_U=10.0)
    assert regime == "user-limited"
    np.testing.assert_allclose(limits, _BETAS * 10.0, rtol=1e-12)


def test_limit_relay_power_only():
    regime, limits = _limit(a=0.5, b=1.0)
    assert regime == "relay-limited"
    expected = _ALPHA2 * _BETAS ** 2 * 0.5 * 9.0 / (0.7 * 5.0)
    np.testing.assert_allclose(limits, expected, rtol=1e-6)


def test_limit_joint_scaling_hand_check():
    regime, limits = _limit(a=1.0, b=1.0)
    assert regime == "jointly-limited"
    zeta = (_ALPHA2 * _BETAS * 0.5 * 1.3 * 9.0
            + 0.7 * (_ALPHA1 * 4.0 * 5.0 + 1.3 * 3.0))
    expected = _ALPHA1 * _ALPHA2 * _BETAS ** 2 * 0.5 * 4.0 * 9.0 / zeta
    np.testing.assert_allclose(limits, expected, rtol=1e-9)


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


def test_rate_holds_its_limit_at_extreme_pilot_power():
    # a * c overflows past pilot power 1e154 or so, and a * lam past 1e306;
    # the rate must neither turn NaN nor be refused (nor warn: pytest makes
    # a RuntimeWarning an error)
    base = cfg.table_defaults().with_updates(N=128)
    for bits, limit in ((2, analysis.sum_rate_approx(base.with_updates(
                            q1=2, q2=2, P1=1e30, P2=1e30)).sum_rate),
                        (IDEAL, analysis.sum_rate_approx(base.with_updates(
                            q1=IDEAL, q2=IDEAL, csi="perfect")).sum_rate)):
        for power in (1e160, 1e300, 1e307):
            rate = analysis.sum_rate_approx(
                base.with_updates(q1=bits, q2=bits, P1=power, P2=power)).sum_rate
            assert abs(rate - limit) / limit <= 1e-12


# ---------------------------------------------------------------------------
# closed-form eigenvalues once per receive array, eigenvectors only where
# something is drawn, no dense eigensolver

def _count_eigh(monkeypatch):
    """(name, size, complex) of every numpy eigh / eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(mat, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.asarray(mat).shape[0], np.iscomplexobj(mat)))
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _count_spectra(monkeypatch):
    """Array size of every call to the eigenvalue part and the basis part
    of the closed-form spectrum."""
    sizes = {"eigenvalues": [], "basis": [], "half_basis": []}
    for part, name, size in (("eigenvalues", "exponential_eigenvalues", int),
                             ("basis", "exponential_basis", len),
                             ("half_basis", "exponential_half_basis", len)):
        def counting(r, arg, _original=getattr(corr, name), _part=part, _size=size):
            sizes[_part].append(_size(arg))
            return _original(r, arg)

        for module in (corr, est):
            monkeypatch.setattr(module, name, counting)
    return sizes


def test_closed_form_decomposes_each_receive_array_once(monkeypatch):
    # closed-form eigenvalues per receive array, one K-size eigh per
    # transmit matrix (its refusal margin), and no eigvalsh
    scn = cfg.table_defaults().with_updates(N=64)
    calls = _count_eigh(monkeypatch)
    spectra = _count_spectra(monkeypatch)
    analysis.sum_rate_approx(scn)
    assert sorted(spectra["eigenvalues"]) == [scn.N, scn.M]
    assert spectra["basis"] == spectra["half_basis"] == []
    assert calls == [("eigh", scn.K, False)] * 2


def test_monte_carlo_builds_each_receive_basis_once(monkeypatch):
    # the Monte Carlo engine builds the models' square-root factors once
    # per call, before its first chunk: each run on one model pair builds
    # each receive array's half-size eigenvector blocks once, and no full
    # basis, however many chunks it has,
    # the models' eigenvalues are reused and the transmit roots are taken
    # in the eigenbasis the models refused by; one-trial chunks make each
    # run several chunks
    scn = cfg.table_defaults().with_updates(N=64, trials=3)
    models = cfg.scenario_models(scn)
    calls = _count_eigh(monkeypatch)
    spectra = _count_spectra(monkeypatch)
    monkeypatch.setattr(channel, "CHUNK_BYTES", 1)
    for _ in range(2):
        link.ergodic_sum_rate_mc(scn, models=models)
    link.trial_outcomes(scn, models)
    assert spectra["eigenvalues"] == spectra["basis"] == []
    assert sorted(spectra["half_basis"]) == [scn.N] * 3 + [scn.M] * 3
    assert calls == []


def test_model_factor_build_keeps_no_basis():
    # each model builds the half-size blocks of its receive eigenbasis for
    # its factors alone and scales them in place into the estimate's: at
    # N = 256 (M = 512) the M-size build holds the blocks, one scaled copy
    # and the error's root at most, each half an M x M matrix, beside the
    # two N-size factors kept, and neither hop keeps a basis
    scn = cfg.table_defaults().with_updates(N=256)
    models = cfg.scenario_models(scn)
    tracemalloc.start()
    try:
        _ = [est.model_factors(model) for model in models]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [model.hop.n for model in models] == [scn.N, scn.M]
    assert peak < (3 * scn.M ** 2 * 8 + 2 * scn.N ** 2 * 8) / 2 + 2 ** 18
    assert not any("basis" in model.hop.__dict__ for model in models)


def test_large_closed_form_builds_no_eigenvectors(monkeypatch):
    # at N = 4096 (M = 8192) one eigenvector basis would take 512 MiB; the
    # closed form reads eigenvalues and pivot sweeps in O(N) memory
    scn = cfg.table_defaults().with_updates(N=4096)
    spectra = _count_spectra(monkeypatch)
    tracemalloc.start()
    try:
        report = analysis.sum_rate_approx(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra["basis"] == spectra["half_basis"] == []
    assert sorted(spectra["eigenvalues"]) == [scn.N, scn.M]
    assert peak < 4 * 2 ** 20
    assert np.isfinite(report.sum_rate) and report.sum_rate > 0.0
