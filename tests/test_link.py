"""Monte Carlo engine checks: bookkeeping, determinism, and consistency."""

import cmath
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from relaysim import (analysis, channel, config as cfg, correlation as corr,
                      estimation as est, link, quantizer)
from relaysim.channel import substream
from relaysim.errors import ConfigError, DegenerateEstimateError
from relaysim.quantizer import IDEAL

_SCN = cfg.ScenarioConfig(N=20, delta=1.5, K=3, tau1=6, tau2=6, q1=2, q2=2,
                          betas=(1.0, 0.7, 1.2), eta=0.9, r_R=0.5, r_B=0.4,
                          trials=60, seed=5)


def _outcomes(models, trials, seed=9, scn=_SCN):
    """link.trial_outcomes over the given trial count and seed."""
    return link.trial_outcomes(scn.with_updates(trials=trials, seed=seed), models)


def _draw_factors(models):
    """The (receive root, transmit root, gain) link._channel_stacks draws
    each of its four stacks with, as trial_outcomes builds them."""
    return [(root, tx_sqrt, model.hop.gain) for model in models
            for root, tx_sqrt in zip(*est.model_factors(model))]


def _stacks(out):
    """The per-trial stacks of trial_outcomes' output, without its kappa."""
    return {name: stack for name, stack in out.items() if name != "kappa"}


def test_trial_bookkeeping_identities():
    # the trial engine's SINR terms are the closed form's assembly applied,
    # bit for bit, to its own raw fields at the closed-form kappa
    models = cfg.scenario_models(_SCN)
    out = _outcomes(models, 7, seed=_SCN.seed)
    raw = {name: stack for name, stack in out.items() if name.endswith("_raw")}
    assert len(raw) == 10
    kappa = analysis.amplification_factor(_SCN, analysis.moments(*models, _SCN))
    assert out["kappa"] == kappa
    terms = analysis.sinr_terms(raw, _SCN, kappa)
    assert set(raw) | set(terms) | {"kappa"} == set(out)
    for name, term in terms.items():
        np.testing.assert_array_equal(out[name], term)
    sinr = out["signal"] / (out["interference"] + out["noise_relay"] + out["noise_bs"])
    assert np.all(sinr > 0.0)


def _trial_size(scn):
    return channel.chunk_size(link._trial_draws(scn))


def _budget_for(monkeypatch, scn, trials_per_chunk):
    """Shrink the chunk budget so that a chunk holds trials_per_chunk trials."""
    per_trial = channel.normals_per_trial(link._trial_draws(scn))
    monkeypatch.setattr(channel, "CHUNK_BYTES", 8 * per_trial * trials_per_chunk)
    assert _trial_size(scn) == trials_per_chunk


def test_single_trial_chunks_agree_with_default_chunks(monkeypatch):
    models = cfg.scenario_models(_SCN)
    assert _trial_size(_SCN) > 30
    default = _outcomes(models, 30)
    monkeypatch.setattr(channel, "CHUNK_BYTES", 1)
    assert _trial_size(_SCN) == 1
    single = _outcomes(models, 30)
    for name, stack in default.items():
        np.testing.assert_allclose(single[name], stack, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("trials", [0, -2])
def test_rate_trial_count_below_one_is_refused(trials):
    # the rate engine runs the scenario's trial count, refused with the scenario
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        link.ergodic_sum_rate_mc(_SCN.with_updates(trials=trials))


@pytest.mark.parametrize("trials", [2.7, 0.5, float("nan"), float("inf")])
def test_rate_trial_count_that_is_not_whole_is_refused(trials):
    # a fractional count is not rounded down to some other number of trials
    with pytest.raises(ConfigError, match="field trials: expected an integer, got "):
        link.ergodic_sum_rate_mc(_SCN.with_updates(trials=trials))


def test_every_engine_runs_its_chunks_through_channel_sample(monkeypatch):
    # the rate trials, the pilot chain and Lemma 1's oracle share one chunk
    # loop: each call is recorded with its trial count, and every chunk it
    # runs with its (start, count), through the fill it is handed; each
    # stage call with whether it got one (rows,) + shape view per declared
    # draw and the names it returned, under which sample stacks the trials
    calls, chunks, stages = [], [], []

    def recording(draws, trials, fill, stage):
        def fill_and_record(rows, start):
            chunks.append((trials, start, len(rows)))
            fill(rows, start)

        def stage_and_record(*parts):
            size = channel.chunk_size(draws)
            out = stage(*parts)
            stages.append(([part.shape for part in parts]
                           == [(size,) + tuple(shape) for shape in draws], list(out)))
            return out
        calls.append(trials)
        stacks = channel.sample(draws, trials, fill_and_record, stage_and_record)
        assert list(stacks) == stages[-1][1]
        assert all(len(stack) == trials for stack in stacks.values())
        return stacks

    def clear():
        for log in (calls, chunks, stages):
            log.clear()

    for engine in (link, est, analysis):
        monkeypatch.setattr(engine, "sample", recording)
    models = cfg.scenario_models(_SCN)
    _budget_for(monkeypatch, _SCN, 5)
    _outcomes(models, 12)
    assert calls == [12]
    assert chunks == [(12, 0, 5), (12, 5, 5), (12, 10, 2)]
    assert stages == [(True, list(analysis.moments(*models, _SCN)))] * 3
    clear()
    hop = cfg.scenario_hops(_SCN)[1]
    size = channel.chunk_size(est._pilot_draws(hop, _SCN.adc2))
    est.pilot_mse(hop, _SCN.adc2, 10.0, 3 * size - 1, substream(9, "pilot"))
    assert calls == [3 * size - 1]
    assert chunks == [(3 * size - 1, 0, size), (3 * size - 1, size, size),
                      (3 * size - 1, 2 * size, size - 1)]
    assert stages == [(True, ["mse"])] * 3
    clear()
    p_mat, q_mat = np.eye(3), np.eye(2)
    size = channel.chunk_size([(3, 2)] * 2)
    analysis.lemma1_moments_mc(p_mat, q_mat, 0, 1, 2 * size + 1, substream(9, "lemma"))
    assert calls == [2 * size + 1]
    assert chunks == [(2 * size + 1, 0, size), (2 * size + 1, size, size),
                      (2 * size + 1, 2 * size, 1)]
    assert stages == [(True, list(analysis.lemma1_moments(p_mat, q_mat, 0, 1)))] * 3


def test_trial_stacks_are_labelled_by_name_not_position(monkeypatch):
    # the raw fields reach their stacks by name: _combine handing them
    # back in reversed order changes no stack
    models = cfg.scenario_models(_SCN)
    plain = _outcomes(models, 12)
    combine = link._combine
    monkeypatch.setattr(link, "_combine",
                        lambda *args: dict(reversed(combine(*args).items())))
    reversed_order = _outcomes(models, 12)
    assert set(reversed_order) == set(plain)
    for name, stack in plain.items():
        np.testing.assert_array_equal(reversed_order[name], stack)


def test_trials_are_keyed_by_index_not_position():
    # the first trials of a long run must replay a short run exactly
    models = cfg.scenario_models(_SCN)
    short = _outcomes(models, 8)
    long = _outcomes(models, 16)
    for name, stack in _stacks(short).items():
        np.testing.assert_array_equal(stack, long[name][:8])


def test_trials_are_keyed_by_index_across_chunks(monkeypatch):
    # the same in chunks of five: a short run of exactly one chunk, and one
    # whose ragged last chunk is padded, not narrowed, so its trials see the
    # same arithmetic
    models = cfg.scenario_models(_SCN)
    _budget_for(monkeypatch, _SCN, 5)
    long = _outcomes(models, 13)
    for trials in (5, 8):
        short = _outcomes(models, trials)
        assert short["kappa"] == long["kappa"]
        for name, stack in _stacks(short).items():
            assert stack.shape == (trials, _SCN.K)
            np.testing.assert_array_equal(stack, long[name][:trials])


def test_rate_trials_filled_off_the_main_thread_give_the_same_stacks(monkeypatch):
    # beside one BLAS thread channel.sample fills each chunk of rate trials
    # on its worker, beside two on the calling thread; at N = 48 a chunk
    # holds 11 trials, so 23 trials are two full chunks and a padded one
    scn = cfg.table_defaults().with_updates(N=48, trials=23)
    assert _trial_size(scn) == 11
    models = cfg.scenario_models(scn)
    substreams, outcomes, on_main = link._substreams, {}, {}

    def recording(seed):
        fill = substreams(seed)

        def fill_and_record(rows, start):
            on_main[threads].add(threading.current_thread() is threading.main_thread())
            fill(rows, start)
        return fill_and_record

    monkeypatch.setattr(link, "_substreams", recording)
    for threads in (1, 2):
        on_main[threads] = set()
        monkeypatch.setattr(channel, "_openblas_threads",
                            lambda count=threads: (lambda: count, lambda _: None))
        outcomes[threads] = link.trial_outcomes(scn, models)
    assert on_main == {1: {False}, 2: {True}}
    assert set(outcomes[1]) == set(outcomes[2])
    for name, stack in outcomes[2].items():
        assert np.asarray(outcomes[1][name]).tobytes() == np.asarray(stack).tobytes(), name


_PERFECT = _SCN.with_updates(csi="perfect")


def test_genie_error_receive_factor_is_none_and_never_built(monkeypatch):
    # c = 0 makes the error exactly zero, so its square root is not formed
    # at all. An estimated model forms the error's root first, from a basis
    # it then scales in place into the estimate's; the two transmit roots
    # follow
    roots = []
    original = est._root

    def counting(s, u, overwrite=False):
        roots.append((s, overwrite))
        return original(s, u, overwrite)

    monkeypatch.setattr(est, "_root", counting)
    for model in cfg.scenario_models(_PERFECT):
        (_, root_err), _ = est.model_factors(model)
        assert root_err is None
        (hat, overwrite), *transmit = roots
        assert hat is model.split[0] and overwrite and len(transmit) == 2
        roots.clear()
    for model in cfg.scenario_models(_SCN):
        (_, root_err), _ = est.model_factors(model)
        assert root_err is not None and root_err.any()
        (err, err_overwrite), (hat, hat_overwrite), *transmit = roots
        assert err is model.split[1] and hat is model.split[0]
        assert (err_overwrite, hat_overwrite) == (False, True) and len(transmit) == 2
        roots.clear()


def test_perfect_csi_error_stacks_are_exactly_zero():
    models = cfg.scenario_models(_PERFECT)
    assert all(est.model_factors(model)[0][1] is None for model in models)
    draws = link._trial_draws(_PERFECT)
    normals = substream(3, "normals").standard_normal((4, channel.normals_per_trial(draws)))
    f_hat, f_err, g_hat, g_err = link._channel_stacks(
        _draw_factors(models), channel.split_normals(normals, *draws))
    assert f_err.shape == f_hat.shape == (4, _SCN.N, _SCN.K)
    assert g_err.shape == g_hat.shape == (4, _SCN.M, _SCN.K)
    assert np.all(f_err == 0.0) and np.all(g_err == 0.0)
    assert np.all(f_hat != 0.0) and np.all(g_hat != 0.0)


def test_skipped_error_products_equal_products_with_zero(monkeypatch):
    # the skipped GEMMs give exactly what multiplying the normals by the
    # all-zero error factors gives; the normals are drawn either way. Each
    # chunk of the skipped run multiplies the two estimates' roots alone,
    # each of the multiplied run also the two all-zero error roots after them
    factors, original = est.model_factors, channel.left_multiply
    nonzero = []
    monkeypatch.setattr(channel, "left_multiply",
                        lambda mat, x: nonzero.append(bool(mat.any())) or original(mat, x))

    def with_zero_errors(model):
        # the factor the error would have were it not skipped
        (root_hat, _), transmit = factors(model)
        u = corr.exponential_basis(model.hop.r, model.hop.spectrum[1])
        return (root_hat, est._root(model.split[1], u)), transmit

    models = cfg.scenario_models(_PERFECT)
    skipped = _outcomes(models, 12, seed=4, scn=_PERFECT)
    hats, nonzero[:] = list(nonzero), []
    monkeypatch.setattr(est, "model_factors", with_zero_errors)
    multiplied = _outcomes(models, 12, seed=4, scn=_PERFECT)
    assert hats and all(hats)
    assert nonzero == [True, False] * len(hats)
    for name, stack in skipped.items():
        np.testing.assert_array_equal(stack, multiplied[name])


def test_no_record_keeps_a_draw_factor(monkeypatch):
    # the rate draw's square roots are built per call and dropped when it
    # returns: at N = 256 (M = 512) the four receive roots take about
    # 5 MiB, and a model keeps no matrix beyond its K x K transmit ones.
    # A small run first makes the one-time imports and lookups of a
    # process's first run, which would read as kept memory
    _outcomes(cfg.scenario_models(_SCN), 2)
    scn = cfg.table_defaults().with_updates(N=256, trials=4)
    models = cfg.scenario_models(scn)
    sizes, basis = [], est.exponential_basis
    monkeypatch.setattr(est, "exponential_basis",
                        lambda r, theta: sizes.append(len(theta)) or basis(r, theta))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        link.ergodic_sum_rate_mc(scn, models)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 0.5 * 2 ** 20
    assert sizes == [scn.N, scn.M]
    link.ergodic_sum_rate_mc(scn, models)
    assert sizes == [scn.N, scn.M] * 2
    for model in models:
        matrices = [value for field in vars(model).values()
                    for value in (field if isinstance(field, tuple) else (field,))
                    if isinstance(value, np.ndarray) and value.ndim == 2]
        assert len(matrices) == 2 and all(m.shape == (scn.K, scn.K) for m in matrices)


@pytest.mark.parametrize("scn, per_chunk", [(_SCN, 4), (_PERFECT, 2)],
                         ids=["estimated", "perfect"])
def test_receive_gemms_per_chunk(monkeypatch, scn, per_chunk):
    # every receive square root meets a chunk as one GEMM; the perfect-CSI
    # error factors are zero and meet it not at all
    models = cfg.scenario_models(scn)
    _budget_for(monkeypatch, scn, 4)
    calls = []
    original = channel.left_multiply

    def counting(mat, x):
        calls.append((mat.shape, x.shape))
        return original(mat, x)

    monkeypatch.setattr(channel, "left_multiply", counting)
    _outcomes(models, 10, scn=scn)
    assert len(calls) == 3 * per_chunk
    assert all(x_shape[1] == 4 for _, x_shape in calls)


def test_report_fields_and_reproducibility():
    report = link.ergodic_sum_rate_mc(_SCN)
    again = link.ergodic_sum_rate_mc(_SCN)
    assert report.ci_halfwidth > 0.0
    assert report.sum_rate == again.sum_rate
    per_user = _SCN.mu * np.log2(1.0 + report.sinr())
    assert report.per_user_rate.shape == (_SCN.K,)
    assert report.sum_rate > 0.0
    # per-user rates from averaged powers differ from the averaged log only
    # through Jensen gaps, so just check scale agreement
    assert 0.5 < report.per_user_rate.sum() / (per_user.sum()) < 2.0


@pytest.mark.parametrize("bits", [1, 2, IDEAL])
def test_quantization_terms_are_conditional_means_of_drawn_noise(bits):
    # the combine stage takes the AQNM noise in expectation given each
    # channel draw: noise drawn by quantizer.aqnm_quantize at the realized
    # per-antenna powers of one chunk's channel stacks, pushed through the
    # combining chain, reproduces both quantization terms on average over
    # the noise alone; ideal ADCs add none. Weak pilots keep the estimates
    # far from the channels, so a row power read off an estimate shows.
    scn = _SCN.with_updates(q1=bits, q2=bits, P1=1.0, P2=1.0)
    models = cfg.scenario_models(scn)
    draws = link._trial_draws(scn)
    normals = substream(8, "chunk").standard_normal((4, channel.normals_per_trial(draws)))
    stacks = link._channel_stacks(_draw_factors(models), channel.split_normals(normals, *draws))
    out = link._combine(scn, *stacks)
    f_hat, f_err, g_hat, g_err = stacks
    f_full, g_full = f_hat + f_err, g_hat + g_err
    g_hat_h = g_hat.conj().swapaxes(1, 2)
    relay_chain = g_hat_h @ g_full @ f_hat.conj().swapaxes(1, 2)   # (b, K, N)
    relay_power = scn.P_U * np.sum(np.abs(f_full) ** 2, axis=2) + scn.sigma_R2
    bs_power = scn.P_R / scn.K * np.sum(np.abs(g_full) ** 2, axis=2) + scn.sigma_B2
    rng = substream(8, "quantization-noise")
    samples = 4000
    for name, adc, chain, power in (("relay_quant_raw", scn.adc1, relay_chain, relay_power),
                                    ("bs_quant_raw", scn.adc2, g_hat_h, bs_power)):
        shape = power.shape + (samples,)
        noise = quantizer.aqnm_quantize(
            np.zeros(shape), adc, power[..., None],
            normals=(rng.standard_normal(shape), rng.standard_normal(shape)))
        energy = np.abs(chain @ noise) ** 2          # (b, K, samples)
        if adc.is_ideal:
            assert not out[name].any() and not energy.any()
            continue
        se = energy.std(axis=2, ddof=1) / np.sqrt(samples)
        dev = np.abs(energy.mean(axis=2) - out[name]) / se
        assert dev.max() < 5.0, f"{name}: {dev.max():.2f} se"


def test_kappa_moments_are_the_powers_of_the_combined_first_hop_signal():
    # the combine stage's three kappa moments, recomputed per trial from one
    # chunk's channel stacks through the relay's received covariance F F^H:
    # signal f_hat_k^H F F^H f_hat_k, quantization sum_n |f_hat[n, k]|^2
    # (F F^H)_nn, noise ||f_hat_k||^2. Weak pilots make the error part of F
    # large enough that an estimate in place of F shows.
    scn = _SCN.with_updates(P1=1.0, P2=1.0)
    models = cfg.scenario_models(scn)
    draws = link._trial_draws(scn)
    normals = substream(8, "chunk").standard_normal((4, channel.normals_per_trial(draws)))
    stacks = link._channel_stacks(_draw_factors(models), channel.split_normals(normals, *draws))
    out = link._combine(scn, *stacks)
    f_hat, f_err = stacks[:2]
    for f, matches in ((f_hat + f_err, True), (f_hat, False)):
        cov = f @ f.conj().swapaxes(1, 2)
        signal = np.einsum("bnk,bnm,bmk->bk", f_hat.conj(), cov, f_hat).real
        quant = np.einsum("bnk,bnn->bk", np.abs(f_hat) ** 2, cov).real
        assert np.allclose(out["kappa_signal_raw"], signal, rtol=1e-12, atol=0) == matches
        assert np.allclose(out["kappa_quant_raw"], quant, rtol=1e-12, atol=0) == matches
    np.testing.assert_allclose(out["kappa_noise_raw"], np.linalg.norm(f_hat, axis=1) ** 2,
                               rtol=1e-12, atol=0)


def test_mc_rate_matches_closed_form_at_moderate_size():
    from relaysim import analysis
    scn = cfg.ScenarioConfig(N=64, delta=1.5, K=5, q1=3, q2=3,
                             betas=(1.0, 0.8, 1.2, 0.9, 1.1), eta=0.8,
                             r_R=0.4, r_B=0.3, trials=400, seed=17)
    closed = analysis.sum_rate_approx(scn).sum_rate
    mc = link.ergodic_sum_rate_mc(scn)
    assert abs(mc.sum_rate - closed) / closed < 0.05


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


def _check_receive_factors(model):
    """Each receive factor times its conjugate transpose gives its side of
    the split, U f U^H and U g U^H, to 1e-12 of the largest eigenvalue; a
    real coefficient gives exactly symmetric factors. A factor that is not
    built (genie CSI's error) stands for an error spectrum of zeros."""
    hop = model.hop
    lam, theta = hop.spectrum
    u = corr.exponential_basis(hop.r, theta)
    for root, s in zip(est.model_factors(model)[0], model.split):
        if root is None:
            assert not s.any()
            continue
        np.testing.assert_allclose(root @ root.conj().T, (u * s) @ u.conj().T,
                                   rtol=0, atol=1e-12 * float(lam.max()))
        if complex(hop.r).imag == 0.0:
            assert np.isrealobj(root) and np.array_equal(root, root.T)


def _error_transmit_eigenvalues(hop, adc, power):
    """Eigenvalues of the error transmit matrix as equivalent_form would
    build it, by a dense eigensolver and without its refusal."""
    _, (f, g, h) = est.observation(hop, adc, power)
    k = hop.shape[1]
    shared = (hop.trace / k) * float(g @ h) * np.eye(k)
    return np.linalg.eigvalsh(((g.sum() + g @ h) * hop.transmit - shared) / g.sum())


@settings(max_examples=80, deadline=None)
@given(scn=_scenarios())
def test_engines_refuse_together_and_accepted_models_factor(scn):
    outcomes = []
    for engine in (analysis.sum_rate_approx, link.ergodic_sum_rate_mc):
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
        assert model.validate() <= 1e-8
        _check_receive_factors(model)
        _check_receive_factors(est.perfect_model(hop))
        for root, mat in zip(est.model_factors(model)[1],
                             (model.transmit_hat, model.transmit_err)):
            scale = max(1.0, float(np.abs(mat).max()))
            np.testing.assert_allclose(root @ root, mat, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(root, root.conj().T, rtol=0, atol=1e-12 * scale)
    event("refused" if refused else "accepted")
    assert (outcomes[0] == "accepted") == (not refused)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scn=_scenarios(), seed=st.integers(0, 2 ** 32))
def test_moments_are_the_sampled_means_of_accepted_scenarios(scn, seed):
    # the closed form's moments are the trial engine's true means on every
    # scenario equivalent_form accepts, not only at fixed scenarios: within
    # 5 standard errors, the bound of the fixed-scenario check. Strong
    # correlation or few antennas give the raw fields heavy right tails,
    # whose 400-trial means can sit over 5 standard errors below a correct
    # moment; 1000 trials keep them within 4
    try:
        models = cfg.scenario_models(scn)
    except DegenerateEstimateError:
        event("refused")
        return
    event("accepted")
    out = link.trial_outcomes(scn.with_updates(trials=1000, seed=seed), models)
    for name, predicted in analysis.moments(*models, scn).items():
        mean, se = channel.mean_and_stderr(out[name])
        dev = np.abs(mean - predicted) / np.maximum(se, 1e-300)
        assert dev.max() < 5.0, f"{name}: worst deviation {dev.max():.2f} se"
