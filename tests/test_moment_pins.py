"""The ten separable moments and kappa pinned to recorded values, to 1e-12
relative (exact zeros stay exact).

The seven SINR moments and kappa were recorded from the implementation
that gave each moment its own function and rebuilt the hop-2 pair matrix
in each. analysis.moments reads the desired signal and the leakage off the
diagonals of the cross matrix's two parts, so desired + leakage equals the
cross diagonal by construction; these pins check that the parts themselves
kept their values. The three kappa moments were recorded from the
per-user expressions of the separate closed form for kappa, whose sums
gave the pinned kappa bit for bit.
"""

import numpy as np
import pytest

from relaysim import analysis, config as cfg
from relaysim.quantizer import IDEAL

RTOL = 1e-12

_BASE = cfg.ScenarioConfig(N=24, delta=1.5, K=3, tau1=6, tau2=6,
                           betas=(1.0, 0.7, 1.3), eta=0.8, trials=10)

# (id, scenario, kappa, {raw field: per-user moment})
PINS = [
    ("estimated-2bit", _BASE.with_updates(q1=2, q2=2, r_R=0.6, r_B=0.5),
     0.044288883437761536, dict(
         desired_raw=[426034.7028042508, 220208.5966849176, 699181.9145168347],
         leakage_raw=[2153.7805864665365, 916.6227301479727, 3850.5088965493583],
         cross_raw=[119738.84783360153, 118057.42935864051, 112977.69699092046],
         chain_raw=[18872.90516036348, 14239.20920937001, 23512.99796688555],
         relay_quant_raw=[775322.3929176142, 552898.4099552314, 1023566.3966444464],
         bs_vector_raw=[26.992495977284634] * 3,
         bs_quant_raw=[933.3092809866139, 933.3643532455811, 933.3092809866139],
         kappa_signal_raw=[650.5895974728627, 363.76149963570776, 1018.5345699496846],
         kappa_quant_raw=[88.73717318766386, 59.364811311027886, 121.48940596784699],
         kappa_noise_raw=[22.529411301257447, 16.160860656107996, 28.8979619464069])),
    ("onebit-r0.95", _BASE.with_updates(N=96, q1=1, q2=1, r_R=0.95, r_B=0.95),
     0.013965289534380853, dict(
         desired_raw=[125672284.22088695, 66614708.01004846, 204457550.1813303],
         leakage_raw=[691958.1025480726, 353296.48723986704, 1138693.325947603],
         cross_raw=[83731882.17895134, 94023868.86633393, 76519377.69050667],
         chain_raw=[1443273.412509204, 1214035.8358632342, 1722861.0157412365],
         relay_quant_raw=[131690625.5309505, 106982181.70045543, 164749240.00335535],
         bs_vector_raw=[105.62845604723282] * 3,
         bs_quant_raw=[8172.422022215898, 8234.134012169, 8172.422022215898],
         kappa_signal_raw=[12715.417066670758, 7511.373487671967, 19178.52757676357],
         kappa_quant_raw=[344.6095512961549, 229.90141433168404, 472.43347175462293],
         kappa_noise_raw=[87.98754283702466, 62.89703735094467, 113.07804832310464])),
    ("perfect-csi", _BASE.with_updates(q1=2, q2=1, r_R=0.6, r_B=0.5, csi="perfect"),
     0.04187908405556926, dict(
         desired_raw=[545988.3298941323, 268722.49703717063, 920537.5515946544],
         leakage_raw=[0.0, 0.0, 0.0],
         cross_raw=[140450.21615341585, 137652.40648838202, 132312.69489145547],
         chain_raw=[22634.333161139108, 16671.34847653706, 28606.300685850412],
         relay_quant_raw=[944393.1172857834, 652724.287599772, 1273626.3509335646],
         bs_vector_raw=[28.8] * 3,
         bs_quant_raw=[2256.9303559412233, 2257.0888125097918, 2256.9303559412233],
         kappa_signal_raw=[723.7265625001185, 385.6485937500829, 1165.4845312501543],
         kappa_quant_raw=[96.0, 62.160000000000004, 134.16],
         kappa_noise_raw=[24.000000000000004, 16.8, 31.200000000000006])),
    ("complex-r", _BASE.with_updates(q1=3, q2=IDEAL, r_R=0.5 + 0.3j, r_B=0.4 - 0.2j),
     0.039385968157709846, dict(
         desired_raw=[518000.50472994876, 259082.76208552817, 865735.9827483658],
         leakage_raw=[488.0090268159634, 158.77457516020226, 960.0637071086678],
         cross_raw=[127593.88758803671, 124106.8405041731, 121288.23097768147],
         chain_raw=[21809.612906439266, 16108.59555808151, 27516.10154640869],
         relay_quant_raw=[291121.7161418697, 201982.84651349002, 391311.13733975374],
         bs_vector_raw=[28.71992877995707] * 3,
         bs_quant_raw=[0.0, 0.0, 0.0],
         kappa_signal_raw=[693.2892369883126, 374.506470238233, 1107.7990156779372],
         kappa_quant_raw=[93.61641320656103, 61.29493977646012, 129.92651214687666],
         kappa_noise_raw=[23.521373599667555, 16.60302799036381, 30.439719208971304])),
]


@pytest.mark.parametrize("scn, kappa, pinned", [p[1:] for p in PINS],
                         ids=[p[0] for p in PINS])
def test_moments_match_pinned_values(scn, kappa, pinned):
    got = analysis.moments(*cfg.scenario_models(scn), scn)
    assert analysis.amplification_factor(scn, got) == pytest.approx(kappa, rel=RTOL, abs=0.0)
    assert list(got) == list(pinned)
    for name, values in pinned.items():
        np.testing.assert_allclose(got[name], values, rtol=RTOL, atol=0.0, err_msg=name)
