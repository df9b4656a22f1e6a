"""
Power scaling laws and architecture trade-offs
==============================================

Three design questions the closed forms answer cheaply because nothing
here needs a channel draw:

  1. how fast can transmit powers shrink as arrays grow before the rate
     collapses, and what limit does the surviving regime leave behind;
  2. which side of the link suffers more from antenna correlation;
  3. which side deserves the better ADC.

The answers flip with delta = M / N, which is the punchline.
"""

from relaysim import config as cfg
from relaysim.analysis import power_scaling_limit, sum_rate_approx

# ---------------------------------------------------------------------------
# 1. scaling regimes: P_U = E_U / N^a, P_R = E_R / M^b
base = cfg.ScenarioConfig(K=10, delta=2.0, q1=2, q2=2, csi="perfect",
                          betas=(1.0,) * 10, eta=1.0,
                          E_U=1.0, E_R=10.0 ** 0.5, r_R=0.8, r_B=0.8)

print("per-user SINR limit by scaling exponents (equal-gain users)")
print(f"{'a':>5} {'b':>5} {'regime':>16} {'limit':>10}")
for a, b in ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (1.2, 1.2)):
    regime, limits = power_scaling_limit(base.with_updates(a=a, b=b))
    print(f"{a:>5.1f} {b:>5.1f} {regime:>16} {limits[0]:>10.4f}")

# matched scaling a = b = 1 approaches its limit as the arrays grow ...
_, limits = power_scaling_limit(base.with_updates(a=1.0, b=1.0))
limit = limits[0]
print("\nmatched scaling, finite systems vs the limit "
      f"({limit:.4f}):")
for n in (128, 512, 2048):
    scn = base.with_updates(N=n, a=1.0, b=1.0)
    gamma = float(sum_rate_approx(scn).sinr()[0])
    print(f"  N = {n:>5}: SINR {gamma:.4f} "
          f"({100 * (gamma - limit) / limit:+.2f}%)")

# ... while overdriven scaling a = b = 1.2 sends the rate to zero
print("\noverdriven scaling, sum rate collapsing:")
for n in (128, 256, 512, 1024):
    rate = sum_rate_approx(base.with_updates(N=n, a=1.2, b=1.2)).sum_rate
    print(f"  N = {n:>5}: {rate:.4f}")

# ---------------------------------------------------------------------------
# 2. where does correlation hurt more?  depends on which array is larger
print("\ncorrelation placement, N = 200 (closed form, estimated CSI)")
print(f"{'delta':>6} {'corr at relay':>14} {'corr at dest':>14} {'better':>10}")
for delta in (0.5, 2.0):
    at_relay = sum_rate_approx(cfg.table_defaults().with_updates(
        N=200, delta=delta, r_R=0.8, r_B=0.0)).sum_rate
    at_dest = sum_rate_approx(cfg.table_defaults().with_updates(
        N=200, delta=delta, r_R=0.0, r_B=0.8)).sum_rate
    better = "relay" if at_relay > at_dest else "dest"
    print(f"{delta:>6.1f} {at_relay:>14.4f} {at_dest:>14.4f} {better:>10}")
print("correlation is cheaper on the side with more antennas")

# ---------------------------------------------------------------------------
# 3. where does the better ADC belong?  same flip, opposite reasoning
print("\nADC placement with a 3-bit / 1-bit budget, N = 200")
print(f"{'delta':>6} {'fine at relay':>14} {'fine at dest':>14} {'better':>10}")
for delta in (0.5, 2.0):
    fine_relay = sum_rate_approx(cfg.table_defaults().with_updates(
        N=200, delta=delta, q1=3, q2=1)).sum_rate
    fine_dest = sum_rate_approx(cfg.table_defaults().with_updates(
        N=200, delta=delta, q1=1, q2=3)).sum_rate
    better = "relay" if fine_relay > fine_dest else "dest"
    print(f"{delta:>6.1f} {fine_relay:>14.4f} {fine_dest:>14.4f} {better:>10}")
print("spend resolution on the side with fewer antennas")
