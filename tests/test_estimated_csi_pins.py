"""Estimated-CSI Monte Carlo rates pinned to values recorded from the
engine that read each model's receive split from a cached property.

ergodic_sum_rate_mc with csi="estimated" must reproduce them to 1e-12
relative: sum, 95% halfwidth, the closed-form kappa it combines with, and
per-user rates.
"""

import pytest

from relaysim import config as cfg, link

RTOL = 1e-12

_TABLE = cfg.table_defaults()

# (id, scenario, sum rate, 95% halfwidth, kappa, per-user rates)
PINS = [
    ("table-N64-2bit", _TABLE.with_updates(N=64, q1=2, q2=2, trials=40),
     2.9480756438629587, 0.13895994090751226, 0.11238538446845209,
     [0.43184376182656853, 0.24925123406829314, 0.349381012797741,
      0.21290615391601625, 0.37645584747789473, 0.35861826442557776,
      0.29847220418623344, 0.21263025921516066, 0.26313382982175243,
      0.1953830761277211]),
    ("one-bit-vs-ideal", _TABLE.with_updates(N=64, q1=1, q2=cfg.IDEAL, trials=40, seed=7),
     2.6191314203355103, 0.11298578481888379, 0.1689713544409386,
     [0.38725398581071935, 0.19314518420441595, 0.2528324456760955,
      0.21025796722716938, 0.31882875374987707, 0.33490383787961076,
      0.27213034967591687, 0.19725579907222002, 0.23035997284128704,
      0.22216312419819828]),
    ("table-complex-r", _TABLE.with_updates(N=48, r_R=0.5 + 0.3j, r_B=0.4 - 0.2j,
                                            trials=40, seed=3),
     4.693498298519533, 0.147258967750184, 0.16803911996658857,
     [0.6437258469085767, 0.4207836990862709, 0.4912190867606599,
      0.3876551339445733, 0.5427114890373883, 0.6019950156409328,
      0.4407695802803259, 0.38097279660432826, 0.4029703140335501,
      0.38069533622292634]),
]


@pytest.mark.parametrize("scn, sum_rate, ci, kappa, per_user",
                         [p[1:] for p in PINS], ids=[p[0] for p in PINS])
def test_estimated_csi_monte_carlo_matches_pinned_values(scn, sum_rate, ci, kappa, per_user):
    assert scn.csi == "estimated"
    report = link.ergodic_sum_rate_mc(scn)
    assert report.sum_rate == pytest.approx(sum_rate, rel=RTOL, abs=0.0)
    assert report.ci_halfwidth == pytest.approx(ci, rel=RTOL, abs=0.0)
    assert report.kappa == pytest.approx(kappa, rel=RTOL, abs=0.0)
    assert list(report.per_user_rate) == pytest.approx(per_user, rel=RTOL, abs=0.0)
