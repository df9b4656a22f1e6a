"""
Spatial correlation and correlated channel draws
================================================

Builds the exponential correlation model used on every array in the
simulator, looks at how the coefficient reshapes the eigenvalue spectrum
(known in closed form, so no eigensolver is needed), and checks that the channel sampler actually reproduces the requested
second-order statistics.
"""

import numpy as np

from relaysim.channel import complex_normal, draw_hop, substream
from relaysim.correlation import (exp_frobenius_sq, exponential_correlation,
                                  exponential_eigenvalues,
                                  select_transmit_correlation)
from relaysim.estimation import HopStatistics, perfect_model

rng = substream(2024, "demo-correlation")

# ---------------------------------------------------------------------------
# eigenvalue spread: correlation concentrates energy in a few directions
n = 64
print("eigenvalue spread of the exponential model, n = 64")
print(f"{'r':>6} {'largest':>10} {'smallest':>10} {'top-8 share':>12}")
for r in (0.0, 0.4, 0.8, 0.95):
    lam = exponential_eigenvalues(r, n)[0][::-1]
    share = lam[:8].sum() / lam.sum()
    print(f"{r:>6.2f} {lam[0]:>10.3f} {lam[-1]:>10.2e} {share:>12.3f}")

# the trace is always n, so the mean eigenvalue stays 1; what the
# coefficient changes is the squared Frobenius norm per antenna, which
# approaches (1 + r^2) / (1 - r^2) on large arrays
print("\nper-antenna squared norm vs its large-array limit")
for r in (0.4, 0.8):
    limit = (1 + r**2) / (1 - r**2)
    for size in (32, 256, 2048):
        value = exp_frobenius_sq(r, size) / size
        print(f"  r = {r:.1f}, n = {size:>4}: {value:.4f}  (limit {limit:.4f})")

# ---------------------------------------------------------------------------
# sampled channels match the requested covariance on both sides: a hop
# sqrt(gain) R^(1/2) H Theta^(1/2) has E{G G^H} = gain tr(Theta) R and
# E{G^H G} = gain tr(R) Theta. The first hop's Theta holds the per-user
# gains; the second hop is doubly correlated. The genie model of each hop
# record, whose estimate is the true channel, builds both square-root
# factors (pilot length and noise play no part here), and the sampler takes
# the iid CN(0, 1) matrix H drawn.
draws = 4000
hops = (("first", HopStatistics(0.7, 12, np.diag([1.0, 0.5, 2.0]), 3, 1.0)),
        ("second", HopStatistics(0.5, 24, exponential_correlation(0.3, 4), 4, 1.0,
                                 gain=0.6, streams=4)))
print()
for name, hop in hops:
    recv, tx, gain = hop.recv_corr, hop.transmit, hop.gain
    genie = perfect_model(hop)
    recv_sqrt, tx_sqrt = genie.receive_sqrt[0], genie.transmit_sqrt[0]
    left = np.zeros(recv.shape, dtype=np.complex128)
    right = np.zeros(tx.shape, dtype=np.complex128)
    for _ in range(draws):
        g = draw_hop(recv_sqrt, tx_sqrt, gain, complex_normal(rng, hop.shape))
        left += g @ g.conj().T
        right += g.conj().T @ g
    left /= draws * gain * np.trace(tx).real
    right /= draws * gain * np.trace(recv).real
    print(f"{name}-hop Gram checks, {draws} draws: "
          f"receive side {np.abs(left - recv).max():.3f}, "
          f"transmit side {np.abs(right - tx).max():.3f}")

# ---------------------------------------------------------------------------
# the relay transmits from a widely spaced antenna subset, which raises
# the effective coefficient to r^(N/K) and nearly decorrelates the columns
n_relay, k_users = 128, 10
picks = np.arange(k_users) * (n_relay // k_users)
tx_corr = select_transmit_correlation(0.8, n_relay, k_users)
print(f"\nselected antenna indices: {picks.tolist()}")
print(f"effective coefficient 0.8^(128/10) = {0.8 ** (n_relay / k_users):.5f}")
print(f"largest off-diagonal of the transmit correlation: "
      f"{np.abs(tx_corr - np.eye(k_users)).max():.5f}")
