"""
Pilot-based channel estimation under coarse quantization
========================================================

LMMSE estimation from quantized pilots has a closed-form per-element MSE.
This script sweeps pilot power for several ADC resolutions on the first
hop, compares simulation against the formula, and shows the error floor
that coarse quantization pins in place no matter how hard the pilots are
driven.  The same machinery covers the second hop, checked at the end.
"""

import numpy as np

from relaysim import config as cfg
from relaysim.channel import substream
from relaysim.estimation import mse_closed_form, pilot_mse
from relaysim.quantizer import IDEAL, AdcSpec

scn = cfg.table_defaults()            # N = 128, M = 256, K = 10
hop1, hop2 = cfg.scenario_hops(scn)   # one closed-form spectrum per array
trials = 150
rng = substream(scn.seed, "demo-estimation")

print(f"first hop: N = {scn.N}, K = {scn.K}, tau = {scn.tau1}, "
      f"r = {scn.r_R}, {trials} trials per point")
print(f"{'P (dB)':>7} " + " ".join(f"{label:>22}"
      for label in ("q = 1", "q = 2", "ideal")))
print(f"{'':>7} " + " ".join(f"{'sim / closed':>22}" for _ in range(3)))

curves = {}
for p_db in (0, 10, 20, 30, 40):
    power = 10.0 ** (p_db / 10.0)
    cells = []
    for bits in (1, 2, IDEAL):
        adc = AdcSpec.from_bits(bits)
        sim, _ = pilot_mse(hop1, adc, power, trials, rng)
        closed = mse_closed_form(hop1, adc, power) / (scn.N * scn.K)
        cells.append(f"{sim:.5f} / {closed:.5f}")
        curves.setdefault(bits, {})[p_db] = closed
    print(f"{p_db:>7} " + " ".join(f"{c:>22}" for c in cells))

# the one-bit curve flattens: quantization noise, not thermal noise,
# limits the estimate once the pilots are strong enough
flat = curves[1][40] / curves[1][30]
drop = curves[IDEAL][40] / curves[IDEAL][30]
print(f"\nMSE(40 dB) / MSE(30 dB): one-bit {flat:.3f}, ideal {drop:.3f}")
print("the one-bit ratio near 1 is the quantization floor")

# ---------------------------------------------------------------------------
# second hop, one operating point
adc = AdcSpec.from_bits(2)
sim, se = pilot_mse(hop2, adc, scn.P2, trials, rng)
closed = mse_closed_form(hop2, adc, scn.P2) / (scn.M * scn.K)
print(f"\nsecond hop at P2 = {10 * np.log10(scn.P2):.0f} dB, q = 2: "
      f"simulated {sim:.6f} vs closed form {closed:.6f} "
      f"({abs(sim - closed) / se:.2f} standard errors)")
