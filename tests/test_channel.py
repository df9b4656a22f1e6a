"""Channel sampling and RNG substream contract checks."""

import sys
import threading
import time

import numpy as np
import pytest

from relaysim import channel, cli, config as cfg, estimation
from relaysim.correlation import exponential_correlation
from relaysim.errors import ConfigError
from relaysim.estimation import HopStatistics


def test_substream_reproducible():
    a = channel.substream(42, "rate-trial", 7).standard_normal(16)
    b = channel.substream(42, "rate-trial", 7).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_substream_tag_sensitivity():
    base = channel.substream(42, "rate-trial", 7).standard_normal(16)
    for other in (channel.substream(43, "rate-trial", 7),
                  channel.substream(42, "rate-trial", 8),
                  channel.substream(42, "amplification", 7),
                  channel.substream(42, 7)):
        assert not np.array_equal(base, other.standard_normal(16))


@pytest.mark.parametrize("seed, tags", [(-1, ()), (2 ** 64, ()), (42, ("rate-trial", -1)),
                                        (42, ("rate-trial", 2 ** 64))])
def test_substream_refuses_words_outside_64_bits(seed, tags):
    # masked to 64 bits, seed 42 + 2**64 would replay seed 42's stream
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
        channel.substream(seed, *tags)


def test_substream_accepts_the_64_bit_extremes():
    for seed in (0, 2 ** 64 - 1):
        channel.substream(seed, "rate-trial", 2 ** 64 - 1).standard_normal(4)


def test_complex_normal_moments():
    rng = channel.substream(3, "moment-check")
    draws = channel.complex_normal(rng, 200000, variance=2.5)
    assert abs(draws.mean()) < 0.02
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(2.5, rel=0.02)
    # real and imaginary parts carry half the variance each
    assert draws.real.var() == pytest.approx(1.25, rel=0.03)
    assert draws.imag.var() == pytest.approx(1.25, rel=0.03)


def test_complex_normal_vector_variance():
    rng = channel.substream(4, "vector-variance")
    var = np.array([0.5, 1.0, 4.0])
    draws = channel.complex_normal(rng, (30000, 3), variance=var[None, :])
    measured = np.mean(np.abs(draws) ** 2, axis=0)
    np.testing.assert_allclose(measured, var, rtol=0.05)


def test_path_loss_values():
    assert channel.path_loss(100.0, 100.0, 3.8) == 1.0
    assert channel.path_loss(100.0, 200.0, 2.0) == pytest.approx(0.25)
    gains = channel.large_scale_gains(100.0, [100.0, 200.0], 2.0)
    np.testing.assert_allclose(gains, [1.0, 0.25])
    with pytest.raises(ValueError):
        channel.path_loss(100.0, -5.0, 2.0)
    with pytest.raises(ValueError):
        channel.path_loss(0.0, 5.0, 2.0)


def test_first_hop_column_covariance():
    n, k, draws = 8, 3, 4000
    recv = exponential_correlation(0.7, n)
    gains = np.array([1.0, 0.4, 2.2])
    rng = channel.substream(9, "first-hop-cov")
    hop = HopStatistics(0.7, n, np.diag(gains), k, 1.0)
    model = estimation.perfect_model(hop)
    (recv_sqrt, _), (gains_sqrt, _) = estimation.model_factors(model)
    acc = np.zeros((k, n, n), dtype=np.complex128)
    for _ in range(draws):
        f = channel.draw_hop(recv_sqrt, gains_sqrt, 1.0, channel.complex_normal(rng, (n, k)))
        for col in range(k):
            acc[col] += np.outer(f[:, col], f[:, col].conj())
    acc /= draws
    tol = 5.0 / np.sqrt(draws)   # elementwise standard error scale
    for col in range(k):
        np.testing.assert_allclose(acc[col], gains[col] * recv,
                                   atol=tol * max(1.0, gains[col]))


def test_second_hop_gram_means():
    m, k, draws = 10, 4, 4000
    eta = 0.6
    recv = exponential_correlation(0.5, m)
    tx = exponential_correlation(0.8, k)
    rng = channel.substream(10, "second-hop-cov")
    hop = HopStatistics(0.5, m, tx, k, 1.0, gain=eta, streams=k)
    model = estimation.perfect_model(hop)
    (recv_sqrt, _), (tx_sqrt, _) = estimation.model_factors(model)
    left = np.zeros((m, m), dtype=np.complex128)
    right = np.zeros((k, k), dtype=np.complex128)
    for _ in range(draws):
        g = channel.draw_hop(recv_sqrt, tx_sqrt, eta, channel.complex_normal(rng, (m, k)))
        left += g @ g.conj().T
        right += g.conj().T @ g
    left /= draws
    right /= draws
    tol = 5.0 * eta * np.sqrt(m * k) / np.sqrt(draws)
    np.testing.assert_allclose(left, eta * k * recv, atol=tol)
    np.testing.assert_allclose(right, eta * m * tx, atol=tol)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_draw_hop_with_rectangular_factors_is_the_product(dtype):
    # (m, n) receive and (k, c) transmit factors, real or complex on the
    # receive side: draw_hop of a (n, b, k) stack is P X Q for each trial
    rng = channel.substream(12, "rectangular")
    recv_sqrt = rng.standard_normal((3, 4)).astype(dtype)
    if dtype is np.complex128:
        recv_sqrt += 1j * rng.standard_normal((3, 4))
    tx_sqrt = channel.complex_normal(rng, (2, 5))
    h = channel.complex_stack(*rng.standard_normal((2, 6, 4, 2)))
    y = channel.draw_hop(recv_sqrt, tx_sqrt, 0.7, h)
    expected = np.sqrt(0.7) * np.einsum("mn,nbk,kc->mbc", recv_sqrt, h, tx_sqrt)
    assert y.shape == (3, 6, 5)
    np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)


def test_draw_guards():
    model = estimation.perfect_model(HopStatistics(0.5, 4, np.eye(2), 2, 1.0))
    (recv_sqrt, _), _ = estimation.model_factors(model)
    h = channel.complex_normal(channel.substream(11, "guards"), (4, 2))
    with pytest.raises(ValueError, match="gain must be non-negative"):
        channel.draw_hop(recv_sqrt, np.eye(2), -0.1, h)
    # a negative per-user gain has no square-root factor to draw with, so
    # the scenario refuses it before any hop is built
    with pytest.raises(ConfigError, match="betas"):
        cfg.ScenarioConfig(K=2, betas=(-1.0, 0.5))


# three full chunks of 8 trials and a padded fourth
_DRAWS = [(64, 128)]
_TRIALS = 3 * channel.chunk_size(_DRAWS) + 5


def _stamp(rows, start):
    rows[:] = start + np.arange(len(rows))[:, None]


@pytest.fixture(params=[2, 1], ids=["caller-fills", "filler-thread"])
def blas_threads(request, monkeypatch):
    """sample as it runs beside 2 BLAS threads (the calling thread fills)
    and beside 1 (a filler thread fills), whatever BLAS numpy ships."""
    monkeypatch.setattr(channel, "_openblas_threads",
                        lambda: (lambda: request.param, lambda count: None))
    return request.param


def test_sample_fills_on_a_second_thread_only_beside_one_blas_thread(blas_threads):
    fillers = set()

    def fill(rows, start):
        fillers.add(threading.current_thread() is threading.main_thread())
        _stamp(rows, start)

    channel.sample(_DRAWS, _TRIALS, fill, lambda x: {"first": x[:, 0, 0].copy()})
    assert fillers == {blas_threads == 2}


def test_sample_stages_see_their_own_chunk(blas_threads):
    # each stage sleeps while the filler runs ahead, and threads switch
    # often; a filler that wrote into the buffer under a stage would change
    # what the stage reads back
    def stage(x):
        first = x[:, 0, 0].copy()
        time.sleep(0.02)
        return {"first": first, "last": x[:, -1, -1].copy()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stacks = channel.sample(_DRAWS, _TRIALS, _stamp, stage)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(stacks["first"], np.arange(_TRIALS))
    np.testing.assert_array_equal(stacks["last"], np.arange(_TRIALS))


def test_sample_pads_the_last_chunk_with_zeros(blas_threads):
    size = channel.chunk_size(_DRAWS)
    padded = []

    def stage(x):
        padded.append(x[_TRIALS % size:].copy())
        return {"first": x[:, 0, 0].copy()}

    channel.sample(_DRAWS, _TRIALS, _stamp, stage)
    assert len(padded) == 4 and not padded[-1].any()


class _Refused(Exception):
    pass


@pytest.mark.parametrize("where", ["fill", "stage"])
@pytest.mark.parametrize("chunk", [0, 2])
def test_sample_raises_what_fill_or_stage_raised_and_leaves_no_thread(
        blas_threads, where, chunk):
    err, threads = _Refused(where), threading.active_count()
    start = chunk * channel.chunk_size(_DRAWS)

    def fill(rows, at):
        if where == "fill" and at == start:
            raise err
        _stamp(rows, at)

    def stage(x):
        if where == "stage" and x[0, 0, 0] == start:
            raise err
        return {"first": x[:, 0, 0].copy()}

    with pytest.raises(_Refused) as raised:
        channel.sample(_DRAWS, _TRIALS, fill, stage)
    assert raised.value is err
    assert threading.active_count() == threads


def test_sample_draws_a_shared_generator_as_a_serial_loop_does(blas_threads):
    # nothing is filled past the last chunk, and the chunks are filled in
    # order: the generator ends where one draw of all trials leaves it
    rng, serial = np.random.default_rng(5), np.random.default_rng(5)
    stacks = channel.sample(_DRAWS, _TRIALS, lambda rows, _: rng.standard_normal(out=rows),
                            lambda x: {"x": x.copy()})
    np.testing.assert_array_equal(stacks["x"], serial.standard_normal((_TRIALS,) + _DRAWS[0]))
    assert rng.bit_generator.state == serial.bit_generator.state


def test_blas_pin_holds_pilot_chunks_of_several_trials_and_restores_the_count(
        tmp_path, monkeypatch):
    blas = channel._openblas_threads()
    if blas is None:
        pytest.skip("numpy ships no OpenBLAS here")
    get, put = blas
    original = get()
    one_trial = [(channel.CHUNK_BYTES // 8,)]
    assert channel.chunk_size(one_trial) == 1 < channel.chunk_size(_DRAWS)
    builds = []
    pilot_factors = estimation.pilot_factors
    monkeypatch.setattr(estimation, "pilot_factors",
                        lambda *args: builds.append(get()) or pilot_factors(*args))
    argv = ["mse-sweep", "--hop", "first", "--bits", "2", "--powers-db", "10",
            "--trials", "3", "--out", str(tmp_path / "mse.csv")]
    try:
        for before in (2, 1):
            put(before)
            for draws, inside in ((_DRAWS, 1), (one_trial, before)):
                with channel._one_blas_thread(draws):
                    assert get() == inside
                assert get() == before
            # sample itself leaves the count alone: rate trials run with it,
            # filled on the calling thread unless that count is 1
            seen, fillers = [], []

            def fill(rows, start):
                fillers.append(threading.current_thread())
                _stamp(rows, start)

            channel.sample(_DRAWS, 3, fill, lambda x: seen.append(get()) or {"x": x[:, 0, 0]})
            assert seen == [before] and get() == before
            assert (fillers == [threading.main_thread()]) == (before == 2)
            builds.clear()
            assert cli.main(argv) == 0 and get() == before
            assert builds == [1]
    finally:
        put(original)
