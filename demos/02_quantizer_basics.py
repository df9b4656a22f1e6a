"""
Low-resolution ADC model
========================

The simulator treats each ADC through its linearized gain-plus-noise form:
the quantizer output is alpha times the input plus an uncorrelated noise
term whose variance is alpha (1 - alpha) times the input power, with
alpha = 1 - rho and rho the normalized distortion of an optimal scalar
quantizer.  This script recomputes rho from scratch, then verifies the
linearized moments against a quantized signal.
"""

import numpy as np

from relaysim.channel import complex_normal, substream
from relaysim.quantizer import (DISTORTION_TABLE, IDEAL, AdcSpec,
                                aqnm_quantize, distortion_factor,
                                lloyd_max_distortion)

# ---------------------------------------------------------------------------
# the stored table vs a fresh Lloyd-Max fixed point
print("distortion factor rho by resolution")
print(f"{'bits':>5} {'table':>10} {'recomputed':>12} {'difference':>11}")
for bits in range(1, 6):
    fresh = lloyd_max_distortion(bits)
    stored = DISTORTION_TABLE[bits]
    print(f"{bits:>5} {stored:>10.6f} {fresh:>12.6f} {abs(fresh - stored):>11.1e}")

# beyond the table the package switches to the sqrt(3) pi / 2 * 2^(-2q)
# high-resolution approximation; each extra bit divides rho by four
print("\nhigh-resolution tail")
for bits in (6, 8, 10):
    print(f"  {bits} bits: rho = {distortion_factor(bits):.3e}")

# ---------------------------------------------------------------------------
# linearized moments against an actual quantized draw
rng = substream(7, "demo-quantizer")
adc = AdcSpec.from_bits(2)
var = 3.0
samples = 200_000
y = complex_normal(rng, samples, var)
# the sampler takes the quantization noise's real and imaginary standard
# normals drawn
normals = (rng.standard_normal(y.shape), rng.standard_normal(y.shape))
out = aqnm_quantize(y, adc, var, normals)
alpha = adc.alpha
print(f"\ntwo-bit ADC on CN(0, {var}) input, {samples} samples")
print(f"  output power:   {np.mean(np.abs(out) ** 2):.4f}"
      f"  (predicted {alpha * var:.4f})")
print(f"  signal part:    {np.mean(np.abs(alpha * y) ** 2):.4f}"
      f"  (predicted {alpha ** 2 * var:.4f})")
print(f"  noise part:     {np.mean(np.abs(out - alpha * y) ** 2):.4f}"
      f"  (predicted {alpha * (1 - alpha) * var:.4f})")
corr = np.vdot(alpha * y, out - alpha * y) / samples
print(f"  signal-noise correlation: {abs(corr):.5f}  (should be near 0)")

# an ideal converter passes the signal through untouched and adds no noise
ideal = AdcSpec.from_bits(IDEAL)
assert np.array_equal(aqnm_quantize(y, ideal, var), y)
print("\nideal ADC: output identical to input, rho = "
      f"{ideal.rho}, alpha = {ideal.alpha}")
