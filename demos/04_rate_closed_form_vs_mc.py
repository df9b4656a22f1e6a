"""
Closed-form sum rate against the Monte Carlo engine
===================================================

The headline result of the package: an ergodic sum-rate approximation
assembled from separable channel moments, tight enough to replace
simulation across the whole operating range.  This script prices that
claim at several antenna counts and resolutions, then opens up one
operating point to show where each SINR power term lands.
"""

import numpy as np

from relaysim import config as cfg, link
from relaysim.analysis import sum_rate_approx
from relaysim.quantizer import IDEAL

print("sum rate, default ten-user scenario (rates in bits/s/Hz)")
print(f"{'N':>5} {'q':>6} {'closed form':>12} {'monte carlo':>12} "
      f"{'+/- ci':>8} {'gap':>7}")
for n in (64, 128):
    for bits in (1, IDEAL):
        scn = cfg.table_defaults().with_updates(N=n, q1=bits, q2=bits,
                                                trials=400)
        closed = sum_rate_approx(scn).sum_rate
        mc = link.ergodic_sum_rate_mc(scn)
        gap = abs(mc.sum_rate - closed) / closed
        label = "ideal" if bits is IDEAL else str(bits)
        print(f"{n:>5} {label:>6} {closed:>12.4f} {mc.sum_rate:>12.4f} "
              f"{mc.ci_halfwidth:>8.4f} {100 * gap:>6.2f}%")

# ---------------------------------------------------------------------------
# per-user decomposition at one point: where the SINR budget goes
scn = cfg.table_defaults().with_updates(N=128, trials=400)
models = cfg.scenario_models(scn)
report = sum_rate_approx(scn, models=models)
print(f"\nper-user budget at N = 128, q1 = q2 = 2 "
      f"(kappa = {report.kappa:.4e})")
print(f"{'user':>5} {'signal':>11} {'interference':>13} {'relay noise':>12} "
      f"{'bs noise':>11} {'sinr':>8} {'rate':>7}")
sinr = report.sinr()
for k in range(scn.K):
    print(f"{k:>5} {report.signal[k]:>11.3e} {report.interference[k]:>13.3e} "
          f"{report.noise_relay[k]:>12.3e} {report.noise_bs[k]:>11.3e} "
          f"{sinr[k]:>8.3f} {report.per_user_rate[k]:>7.4f}")
print(f"sum rate: {report.sum_rate:.4f}")

# the Monte Carlo engine exposes the same decomposition per trial, drawn
# from the same estimate models; its term averages agree with the closed
# forms well inside sampling noise
stacks = link.trial_outcomes(scn, models)
for name in ("signal", "interference", "noise_relay", "noise_bs"):
    mean = stacks[name].mean(axis=0)
    se = stacks[name].std(axis=0, ddof=1) / np.sqrt(400)
    worst = np.max(np.abs(mean - getattr(report, name)) / se)
    print(f"  {name:<13} worst per-user deviation: {worst:.2f} standard errors")
