"""Perfect-CSI closed form pinned to values recorded from the former
dedicated genie-CSI formula, which assembled kappa and the SINR terms by
hand from antenna counts and exp_frobenius_sq.

sum_rate_approx with csi="perfect" must reproduce them to 1e-10 relative:
sum, per-user rates, kappa and chi.
"""

import pytest

from relaysim import analysis, config as cfg

RTOL = 1e-10

_TABLE = cfg.table_defaults().with_updates(csi="perfect")
# the power-scaling base of acceptance criterion 5
_SCALING = cfg.ScenarioConfig(K=10, delta=2.0, q1=2, q2=2, csi="perfect",
                              betas=(1.0,) * 10, eta=1.0,
                              E_U=1.0, E_R=10.0 ** 0.5, r_R=0.8, r_B=0.8)

# (id, scenario, sum rate, kappa, chi, per-user rates)
PINS = [
    ("table-N128", _TABLE.with_updates(N=128),
     5.9272750818001825, 0.058459357694434076, 0.20728455090497352,
     [0.831612613636874, 0.5051717487696589, 0.6366084888630225,
      0.4600830307844846, 0.7194926680199543, 0.7447789986828158,
      0.5896147732327933, 0.45317762254890637, 0.539685553161182,
      0.4470495841004903]),
    ("table-N1024", _TABLE.with_updates(N=1024),
     15.952883426400684, 0.008296587909980039, 0.0041750136029974055,
     [1.9113827301274602, 1.4813484910581813, 1.6632760232483421,
      1.4092335236602995, 1.7758413899159209, 1.8089898815933456,
      1.6011724573166426, 1.395055938749933, 1.5256241644896567,
      1.3809588262409025]),
    ("table-N4096", _TABLE.with_updates(N=4096),
     23.689932082047875, 0.0021075733486385557, 0.0002694165387415552,
     [2.6969931490264836, 2.250719138957153, 2.441210767795008,
      2.174258485635621, 2.5577247871057, 2.5918786174281014,
      2.376522581707639, 2.1591509059641862, 2.2973709305715806,
      2.144102717856404]),
    ("scaling-a1-b1", _SCALING.with_updates(N=1024, a=1.0, b=1.0),
     0.3358787312893063, 0.00025722033159368703, 3.918947875502988e-11,
     [0.03358787312893063] * 10),
    ("scaling-a1.2-b1.2", _SCALING.with_updates(N=1024, a=1.2, b=1.2),
     0.02799543847029166, 0.00014025773482498102, 2.913080926895357e-12,
     [0.002799543847029166] * 10),
    ("table-complex-r", _TABLE.with_updates(N=128, r_R=0.5 + 0.3j, r_B=0.4 - 0.2j),
     9.547772130008036, 0.06288571054875305, 0.23986274586786102,
     [1.2240586577330659, 0.8578663771926038, 1.00936066553937,
      0.7996140579024248, 1.105800113536431, 1.1345262800027704,
      0.9569803640174988, 0.7882984641024009, 0.8941737405699528,
      0.7770934094115185]),
]


@pytest.mark.parametrize("scn, sum_rate, kappa, chi, per_user",
                         [p[1:] for p in PINS], ids=[p[0] for p in PINS])
def test_perfect_csi_matches_pinned_values(scn, sum_rate, kappa, chi, per_user):
    report = analysis.sum_rate_approx(scn)
    assert report.sum_rate == pytest.approx(sum_rate, rel=RTOL, abs=0.0)
    assert report.kappa == pytest.approx(kappa, rel=RTOL, abs=0.0)
    assert report.chi == pytest.approx(chi, rel=RTOL, abs=0.0)
    assert list(report.per_user_rate) == pytest.approx(per_user, rel=RTOL, abs=0.0)
