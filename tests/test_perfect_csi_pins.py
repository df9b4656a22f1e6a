"""Perfect-CSI closed form pinned to values recorded from the former
dedicated genie-CSI formula, which assembled kappa and the SINR terms by
hand from antenna counts and exp_frobenius_sq.

sum_rate_approx with csi="perfect" must reproduce them to 1e-10 relative:
sum, per-user rates, kappa and chi.

The perfect-CSI Monte Carlo rates are pinned too, to 1e-12 relative, as
recorded from the one-trial-at-a-time engine that still multiplied the
normals by the all-zero error factors.
"""

import pytest

from relaysim import analysis, config as cfg, link

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


_MC_SMALL = cfg.ScenarioConfig(N=20, delta=1.5, K=3, tau1=6, tau2=6, q1=2, q2=2,
                               betas=(1.0, 0.7, 1.2), eta=0.9, r_R=0.5, r_B=0.4,
                               trials=60, seed=5, csi="perfect")

# (id, scenario, sum rate, 95% halfwidth, per-user rates, sum rate over
# the first 12 trials with sampled quantization noise)
MC_PINS = [
    ("small", _MC_SMALL, 2.8533724781143364, 0.1549570328041967,
     [0.9800428721174668, 0.7012548148409047, 1.1720747911559652],
     2.7751306597550762),
    ("table-N64", _TABLE.with_updates(N=64, trials=40),
     3.4242693763902636, 0.14405982999831807,
     [0.5242553499568652, 0.2780822802029836, 0.39829538594282154,
      0.24363673990909765, 0.43778683448865596, 0.42375380164729315,
      0.33907905307602326, 0.248027228955505, 0.30566398386880667,
      0.22568871834221166],
     3.3610403350763605),
    ("table-complex-r", _TABLE.with_updates(N=48, r_R=0.5 + 0.3j, r_B=0.4 - 0.2j,
                                            trials=30, seed=3),
     5.497979203334852, 0.17522980183072884,
     [0.798136817964791, 0.45500657700385966, 0.6091912684376586,
      0.4386672294646625, 0.6641849691101831, 0.6863394352778192,
      0.5208271629552467, 0.4235938465970602, 0.48483197132010647,
      0.4171999252034649],
     5.646019889670541),
]


@pytest.mark.parametrize("scn, sum_rate, ci, per_user, sampled",
                         [p[1:] for p in MC_PINS], ids=[p[0] for p in MC_PINS])
def test_perfect_csi_monte_carlo_matches_pinned_values(scn, sum_rate, ci, per_user, sampled):
    report = link.ergodic_sum_rate_mc(scn)
    assert report.sum_rate == pytest.approx(sum_rate, rel=1e-12, abs=0.0)
    assert report.ci_halfwidth == pytest.approx(ci, rel=1e-12, abs=0.0)
    assert list(report.per_user_rate) == pytest.approx(per_user, rel=1e-12, abs=0.0)
    drawn = link.ergodic_sum_rate_mc(scn, trials=12, sample_quantization_noise=True)
    assert drawn.sum_rate == pytest.approx(sampled, rel=1e-12, abs=0.0)
