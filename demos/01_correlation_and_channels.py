"""
Spatial correlation and correlated channel draws
================================================

Builds the exponential correlation model used on every array in the
simulator, looks at how the coefficient reshapes the eigenvalue spectrum,
and checks that the channel sampler actually reproduces the requested
second-order statistics.
"""

import numpy as np

from relaysim.channel import draw_first_hop, draw_second_hop, substream
from relaysim.correlation import (exp_frobenius_sq, exponential_correlation,
                                  select_transmit_correlation)

rng = substream(2024, "demo-correlation")

# ---------------------------------------------------------------------------
# eigenvalue spread: correlation concentrates energy in a few directions
n = 64
print("eigenvalue spread of the exponential model, n = 64")
print(f"{'r':>6} {'largest':>10} {'smallest':>10} {'top-8 share':>12}")
for r in (0.0, 0.4, 0.8, 0.95):
    lam = np.linalg.eigvalsh(exponential_correlation(r, n))[::-1]
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
# sampled channels match the requested covariance
corr = exponential_correlation(0.7, 12)
gains = np.array([1.0, 0.5, 2.0])
draws = 4000
acc = np.zeros((12, 12), dtype=np.complex128)
for _ in range(draws):
    f = draw_first_hop(corr, gains, rng)
    acc += f[:, 1:2] @ f[:, 1:2].conj().T
acc /= draws * gains[1]
err = np.abs(acc - corr).max()
print(f"\nfirst-hop sample covariance vs target, {draws} draws: "
      f"max entry error {err:.3f} (expect ~{5 / np.sqrt(draws):.3f})")

# second hop is doubly correlated; check both Gram matrices
m, k, eta = 24, 4, 0.6
recv = exponential_correlation(0.5, m)
tx = exponential_correlation(0.3, k)
left = np.zeros((m, m), dtype=np.complex128)
right = np.zeros((k, k), dtype=np.complex128)
for _ in range(draws):
    g = draw_second_hop(eta, recv, tx, rng)
    left += g @ g.conj().T
    right += g.conj().T @ g
left /= draws * eta * k
right /= draws * eta * m
print("second-hop Gram checks: "
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
