"""
Large-N Monte Carlo: half-size receive roots
============================================

Every rate trial draws its four channel stacks through four receive square
roots, N x N on the first hop and M x M on the second, and at large N
those products set the trial's cost. The exponential correlation is a
real symmetric Toeplitz matrix up to a diagonal phase, so each of its
square roots is centrosymmetric: estimation.model_factors holds it as two
real half-size blocks and a row phase (channel.CentroRoot), and the
draw applies it as two half-size GEMMs between two butterflies.

This demo times the draw stage of the rate engine (link._channel_stacks,
in the engine's own chunk size) per trial with those roots and with the
dense matrices they stand for, on the same normals, and prints the
memory of both. Times are from this host: run it to see yours.
"""

import time

import numpy as np

from relaysim import channel, config as cfg, estimation, link

TRIALS = 4
REPEATS = 5


def dense(root):
    """The n x n matrix a CentroRoot stands for: the root applied to I."""
    n = len(root.plus) + len(root.minus)
    return channel.left_multiply(root, np.eye(n))


def mib(arrays):
    return sum(a.nbytes for a in arrays) / 2 ** 20


def draw_ms_per_trial(factor_sets, chunks):
    """Per trial, the best of REPEATS runs of the draw stage over every
    chunk, for each set of factors, the sets taking turns; and the stacks
    of each set's last run."""
    best, stacks = [np.inf] * len(factor_sets), [None] * len(factor_sets)
    for _ in range(REPEATS):
        for i, factors in enumerate(factor_sets):
            start = time.perf_counter()
            stacks[i] = [link._channel_stacks(factors, parts) for parts in chunks]
            best[i] = min(best[i], time.perf_counter() - start)
    return [1e3 * t / TRIALS for t in best], stacks


print("| N | M | dense draw, ms/trial | half-block draw, ms/trial | change "
      "| dense roots, MiB | half-block roots, MiB | largest relative difference |")
print("|---|---|---|---|---|---|---|---|")
for n in (256, 512, 1024):
    scn = cfg.table_defaults().with_updates(N=n)
    models = cfg.scenario_models(scn)
    half = [(root, tx_sqrt, model.hop.gain) for model in models
            for root, tx_sqrt in zip(*estimation.model_factors(model))]
    full = [(dense(root), tx_sqrt, gain) for root, tx_sqrt, gain in half]
    draws = link._trial_draws(scn)
    size = channel.chunk_size(draws)
    normals = channel.substream(scn.seed, "large-n-demo").standard_normal(
        (TRIALS, channel.normals_per_trial(draws)))
    chunks = [channel.split_normals(normals[start:start + size], *draws)
              for start in range(0, TRIALS, size)]
    (dense_ms, half_ms), (want, got) = draw_ms_per_trial((full, half), chunks)
    worst = max(np.abs(a - b).max() / np.abs(b).max()
                for pair in zip(got, want) for a, b in zip(*pair))
    print(f"| {n} | {scn.M} | {dense_ms:.2f} | {half_ms:.2f} "
          f"| {100 * (half_ms / dense_ms - 1):+.0f} % "
          f"| {mib(root for root, _, _ in full):.1f} "
          f"| {mib(block for root, _, _ in half for block in root[:2]):.1f} "
          f"| {worst:.1e} |")
print(f"\n{TRIALS} trials per N, best of {REPEATS} alternating runs; the roots "
      "of both models, estimate and error")
