"""Estimation MSE pinned to values recorded from the reference
implementation, which kept one estimation routine per hop, plus the
mechanism that gives an MSE sweep one closed-form spectrum (eigenvalues,
then eigenvectors) per receive array and no dense eigendecomposition of it.

The closed forms must reproduce the pins to 1e-12 relative; the pilot
simulations consume the same random stream, so they do too.
"""

import numpy as np
import pytest

from relaysim import cli, config as cfg, correlation as corr, estimation as est
from relaysim.channel import substream
from relaysim.correlation import select_transmit_correlation
from relaysim.quantizer import IDEAL, AdcSpec

RTOL = 1e-12
N, M, K = 32, 40, 3
GAINS = (1.0, 0.6, 1.3)
ETA = 0.8
TAU, NOISE = 6, 1.2

# (r, bits, pilot power, first-hop total MSE, second-hop total MSE)
CLOSED_PINS = [
    (0.7, IDEAL, 1.0, 12.884824204105522, 29.809978088187133),
    (0.7, IDEAL, 100.0, 0.19087296670407808, 0.7049515096503799),
    (0.7, IDEAL, 1e4, 0.0019198863383735896, 0.007198448778919168),
    (0.7, 1, 1.0, 25.774877276251928, 41.51138172691123),
    (0.7, 1, 100.0, 16.2304542646081, 17.09088113290175),
    (0.7, 1, 1e4, 16.10896413269925, 16.6402359953597),
    (0.7, 2, 1.0, 16.68983525958621, 33.123127975764376),
    (0.7, 2, 100.0, 5.408508643848158, 6.013559186541029),
    (0.7, 2, 1e4, 5.25185339485977, 5.433810707432327),
    (0.5 + 0.3j, IDEAL, 1.0, 14.049161858632354, 33.726837810381774),
    (0.5 + 0.3j, IDEAL, 100.0, 0.19121077752750604, 0.7093952062174552),
    (0.5 + 0.3j, IDEAL, 1e4, 0.0019199206314959385, 0.007198917770292194),
    (0.5 + 0.3j, 1, 1.0, 29.055585103791454, 46.885861026986014),
    (0.5 + 0.3j, 1, 100.0, 17.924903608903886, 18.90804586586119),
    (0.5 + 0.3j, 1, 1e4, 17.783503248308033, 18.382741952902432),
    (0.5 + 0.3j, 2, 1.0, 18.459889083587957, 37.52029673520537),
    (0.5 + 0.3j, 2, 100.0, 5.653088898415633, 6.30539802493102),
    (0.5 + 0.3j, 2, 1e4, 5.4832477934035655, 5.6749769652229105),
]


def _hops(r, n, m):
    tx = select_transmit_correlation(r, n, K)
    return (est.HopStatistics(r, n, np.diag(GAINS), TAU, NOISE),
            est.HopStatistics(r, m, tx, TAU, NOISE, gain=ETA, streams=K))


@pytest.mark.parametrize("r, bits, power, first, second", CLOSED_PINS,
                         ids=[f"r={p[0]}-q={p[1]}-P={p[2]:g}" for p in CLOSED_PINS])
def test_mse_closed_form_matches_pinned_values(r, bits, power, first, second):
    adc = AdcSpec.from_bits(bits)
    for hop, pinned in zip(_hops(r, N, M), (first, second)):
        assert est.mse_closed_form(hop, adc, power) == pytest.approx(pinned, rel=RTOL, abs=0.0)


def test_pilot_mse_matches_pinned_values():
    # 20 quantized pilot trials per hop, 2-bit ADCs, fixed substreams
    adc = AdcSpec.from_bits(2)
    pins = {"first": (0.0652237001911142, 0.0024703529620752757),
            "second": (0.05634147025131077, 0.0019368029326681199)}
    for name, hop in zip(("first", "second"), _hops(0.6, 24, 32)):
        sim = est.pilot_mse(hop, adc, 50.0, 20, substream(7, "pin", name))
        assert sim == pytest.approx(pins[name], rel=RTOL, abs=0.0)


def test_mse_sweep_decomposes_each_receive_array_once(monkeypatch, tmp_path):
    # default grid: 2 hops x 4 resolutions x 5 pilot powers share the
    # eigenvalues of the hop records, once per array; the eigenvectors are
    # built once per pilot point, for its LMMSE filter and pilot draws, and
    # kept by none; no receive array reaches a dense eigensolver
    parts = ("exponential_eigenvalues", "exponential_basis")
    calls = {name: [] for name in ("eigh", "eigvalsh") + parts}
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         *((module, part) for module in (corr, est) for part in parts)):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert cli.main(["mse-sweep", "--trials", "4", "--out", str(tmp_path / "mse.csv")]) == 0
    scn = cfg.table_defaults()
    assert sorted(n for _, n in calls["exponential_eigenvalues"]) == [scn.N, scn.M]
    assert sorted(len(theta) for _, theta in calls["exponential_basis"]) == \
        [scn.N] * 20 + [scn.M] * 20
    assert [mat.shape for mat, *_ in calls["eigh"] if len(mat) > scn.K] == []
    assert calls["eigvalsh"] == []
