"""Scenario validation, derived quantities, and config-file parsing."""

import dataclasses
import json

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from relaysim import analysis, cli, link
from relaysim import config as cfg
from relaysim.correlation import exponential_basis
from relaysim.errors import ConfigError
from relaysim.quantizer import IDEAL


def test_defaults_are_consistent():
    scn = cfg.table_defaults()
    assert scn.N == 128 and scn.K == 10 and scn.delta == 2.0
    assert scn.M == 256
    assert scn.mu == pytest.approx((100 - 20) / 200.0)
    assert scn.P_U == scn.E_U        # a = 0 means no scaling
    assert scn.user_gains().shape == (10,)
    assert scn.relay_gain() > 0.0


def test_derived_quantities():
    scn = cfg.ScenarioConfig(N=100, delta=1.28, K=4, a=1.0, b=0.5,
                             E_U=50.0, E_R=200.0, betas=(1.0,) * 4)
    assert scn.M == 128
    assert scn.P_U == pytest.approx(0.5)
    assert scn.P_R == pytest.approx(200.0 / np.sqrt(128.0))
    assert scn.adc1.bits == 2
    gains = scn.user_gains()
    np.testing.assert_array_equal(gains, np.ones(4))


def test_with_updates_keeps_frozen_semantics():
    scn = cfg.table_defaults()
    other = scn.with_updates(N=64, q1=IDEAL)
    assert other.N == 64 and other.q1 is IDEAL
    assert scn.N == 128 and scn.q1 == 2


@pytest.mark.parametrize("kwargs", [
    dict(N=0),
    dict(K=0),                            # no users: nothing to sweep
    dict(K=0, betas=()),
    dict(K=-1),
    dict(delta=0.0),
    dict(K=10, N=8),                      # K > N
    dict(K=10, delta=0.05),               # K > M
    dict(tau1=5),                         # pilot shorter than K
    dict(tau1=60, tau2=60),               # overhead >= T
    dict(E_U=0.0),
    dict(sigma_R2=-1.0),
    dict(a=-0.2),
    dict(nu=-1.0),
    dict(r_R=1.0),
    dict(r_B=0.6 + 0.9j),                 # magnitude >= 1
    dict(q1=0),
    dict(q2=2.5),
    dict(q1=float("inf")),                # a resolution, like a count, is whole
    dict(q2=float("nan")),
    dict(csi="oracle"),
    dict(trials=0),
    dict(K=3, betas=(1.0, 2.0)),          # wrong betas length
    dict(K=2, betas=(-1.0, 0.5)),         # gains must be positive and finite
    dict(K=2, betas=(0.0, 0.5)),
    dict(K=2, betas=(float("nan"), 0.5)),
    dict(K=2, betas=(float("inf"), 0.5)),
    dict(eta=-0.5),
    dict(eta=0.0),
    dict(eta=float("nan")),
    dict(eta=float("inf")),
    # every float or complex field, and every distance, must be finite
    dict(E_U=float("nan")),
    dict(P2=float("inf")),
    dict(a=float("nan")),
    dict(b=float("inf")),
    dict(delta=float("nan")),
    dict(delta=float("inf")),
    dict(r_R=complex(0.0, float("nan"))),
    dict(r_B=float("nan")),
    dict(nu=float("inf")),
    dict(d_users=(182.0, float("nan")) + cfg.DEFAULT_DISTANCES[2:]),
    # every count must be a whole number: none is truncated
    dict(N=64.5),
    dict(K=2.5),
    dict(T=100.5),
    dict(tau1=10.5),
    dict(tau2=float("inf")),
    dict(trials=2.5),
    dict(trials=float("nan")),
    dict(trials=float("inf")),
    dict(seed=1.5),
    dict(seed=float("nan")),
    # a seed outside 64 bits would wrap onto another seed's streams
    dict(seed=-1),
    dict(seed=2 ** 64),
    dict(N="64"),
    # user distances, like the other distances, must be positive
    dict(K=2, d_users=(0.0, 200.0)),
    dict(K=1, d_users=(182.0, -209.0)),
    # without betas the gains come from the distances
    dict(d_users=None),
    # Python and numpy read a boolean as the number 0 or 1: no field takes one
    dict(K=True),
    dict(q1=True),
    dict(delta=True),
    dict(delta=np.True_),
    dict(K=1, betas=(True,)),
    # d_users and betas take lists of numbers: nothing else is iterated
    dict(d_users=5.0),
    dict(d_users=True),
    dict(K=2, betas="ab"),
    dict(K=2, betas=("a", "b")),
    dict(K=2, d_users=(182.0, 1j)),
    dict(delta="2"),
])
def test_invalid_configs_raise(kwargs):
    with pytest.raises(ConfigError):
        cfg.ScenarioConfig(**kwargs)


def test_whole_counts_are_kept_as_given():
    # the whole-number check never converts an int to float
    assert cfg.ScenarioConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    assert cfg.ScenarioConfig(N=64.0).M == 128


def test_whole_float_counts_run_like_their_int_twins():
    # sizes slice and index arrays, so a whole float count is stored as an int
    def same(report, twin):
        for field in dataclasses.fields(report):
            np.testing.assert_array_equal(getattr(report, field.name),
                                          getattr(twin, field.name))

    same(analysis.sum_rate_approx(cfg.ScenarioConfig(N=64, K=3.0)),
         analysis.sum_rate_approx(cfg.ScenarioConfig(N=64, K=3)))
    same(link.ergodic_sum_rate_mc(cfg.ScenarioConfig(N=64.0, K=3, trials=5)),
         link.ergodic_sum_rate_mc(cfg.ScenarioConfig(N=64, K=3, trials=5)))
    scn = cfg.ScenarioConfig(N=64.0, K=3.0, T=100.0, tau1=np.int64(10), trials=5.0,
                             seed=7.0, q1=2.0)
    assert all(type(getattr(scn, name)) is int
               for name in ("N", "K", "T", "tau1", "tau2", "trials", "seed", "q1"))
    twin = cfg.ScenarioConfig(N=64, K=3, trials=5, seed=7)
    assert scn.canonical_json() == twin.canonical_json()
    assert '"N":64,' in scn.canonical_json()


@pytest.mark.parametrize("kwargs", [
    dict(E_U=100, d_RB=250, a=1),
    dict(delta=np.float32(2.0), E_U=np.int64(100), b=np.float64(0.5), eta=np.float32(0.5)),
    dict(K=2, betas=[1.0, 0.5], d_users=[182, np.float32(209.0)]),
    dict(r_R=complex(0.5, 0.0), r_B=np.complex128(0.3 + 0.2j)),
], ids=["ints", "numpy", "lists", "complex"])
def test_equal_scenarios_serialize_compare_and_hash_alike(kwargs):
    # numbers are stored as Python floats (complex only off the real line)
    # and lists as tuples, so a scenario read back from its own config line
    # is the same scenario and writes the same line
    scn = cfg.ScenarioConfig(**kwargs)
    text = scn.canonical_json()
    again = cfg.scenario_from_mapping(json.loads(text))
    assert again.canonical_json() == text
    assert again == scn and hash(again) == hash(scn)
    twin = {key: tuple(value) if isinstance(value, list) else value
            for key, value in kwargs.items()}
    assert cfg.ScenarioConfig(**twin) == scn


def test_scenario_matrices_shapes():
    scn = cfg.ScenarioConfig(N=16, delta=1.5, K=4, betas=(1.0,) * 4, eta=0.9)
    hop1, hop2 = cfg.scenario_hops(scn)
    assert hop1.recv_corr.shape == (16, 16) and hop1.transmit.shape == (4, 4)
    assert hop2.recv_corr.shape == (24, 24) and hop2.transmit.shape == (4, 4)
    assert (hop1.gain, hop1.streams, hop1.tau) == (1.0, 1, scn.tau1)
    assert (hop2.gain, hop2.streams, hop2.tau) == (0.9, 4, scn.tau2)


def _receive_err(model):
    """The model's error receive matrix U diag(g) U^H."""
    u = exponential_basis(model.hop.r, model.hop.spectrum[1])
    return (u * model.split[1]) @ u.conj().T


def test_scenario_models_modes():
    scn = cfg.ScenarioConfig(N=16, delta=1.5, K=3, tau1=6, tau2=6,
                             betas=(1.0, 0.8, 1.2), eta=0.9)
    hop1, hop2 = cfg.scenario_models(scn)
    assert np.trace(_receive_err(hop1)).real > 0.0
    perfect1, perfect2 = cfg.scenario_models(scn.with_updates(csi="perfect"))
    assert np.all(perfect1.transmit_err == 0.0)
    assert np.all(_receive_err(perfect2) == 0.0)
    assert perfect2.hop.gain == pytest.approx(0.9)


def test_canonical_json_round_trip():
    scn = cfg.ScenarioConfig(q1=IDEAL, r_R=0.5 + 0.1j)
    text = scn.canonical_json()
    record = json.loads(text)
    assert record["q1"] == "ideal"
    assert record["q2"] == 2
    assert record["r_R"] == [0.5, 0.1]
    assert record["r_B"] == 0.8
    # stable ordering: serialized twice gives the same bytes
    assert text == scn.canonical_json()
    assert list(record) == sorted(record)


def test_mapping_accepts_db_suffix():
    scn = cfg.scenario_from_mapping({"E_U-dB": 20, "sigma_R2-dB": 2.2,
                                     "q1": "ideal", "N": "96"})
    assert scn.E_U == pytest.approx(100.0)
    assert scn.sigma_R2 == pytest.approx(10.0 ** 0.22)
    assert scn.q1 is IDEAL
    assert scn.N == 96


def test_mapping_rejects_unknown_and_malformed_fields():
    with pytest.raises(ConfigError, match="unknown config field"):
        cfg.scenario_from_mapping({"antennas": 64})
    with pytest.raises(ConfigError, match="-dB"):
        cfg.scenario_from_mapping({"delta-dB": 3})
    with pytest.raises(ConfigError, match="q1"):
        cfg.scenario_from_mapping({"q1": "three"})
    with pytest.raises(ConfigError, match="N"):
        cfg.scenario_from_mapping({"N": "many"})
    # integer fields refuse what int() would truncate
    for key in ("N", "K", "T", "tau1", "tau2", "trials", "seed", "q1", "q2"):
        for value in (12.7, "12.7", float("inf"), float("nan"), [3]):
            with pytest.raises(ConfigError, match=f"field {key}:"):
                cfg.scenario_from_mapping({key: value})
    assert cfg.scenario_from_mapping({"N": 64.0, "trials": "20"}).N == 64
    # resolutions below one bit are refused where they are read
    for value in (0, -1, "0"):
        with pytest.raises(ConfigError, match="field q2: expected a bit count >= 1"):
            cfg.scenario_from_mapping({"q2": value})
    # unreadable gains, distances and coefficients name their field too
    for key, value in (("betas", ["a", 1.0]), ("betas", 5), ("d_users", [1.0, "a"]),
                       ("eta", "x"), ("r_R", "x"), ("r_B", [0.1, "y"]), ("r_B", None)):
        with pytest.raises(ConfigError, match=f"field {key}:"):
            cfg.scenario_from_mapping({key: value})


@pytest.mark.parametrize("key, value", [
    ("d_users", "2223334445"),              # not ten distances 2, 2, 2, 3, ...
    ("betas", "1111111111"),
    ("q1", True),                           # not 1-bit ADCs
    ("trials", True),                       # not one trial
    ("seed", False),
    ("E_U", True),
    ("E_U-dB", True),
    ("eta", True),
    ("betas", [1.0] * 9 + [True]),
    ("r_R", [False, 0.5]),
])
def test_mapping_refuses_a_string_list_and_a_boolean_number(key, value):
    with pytest.raises(ConfigError, match=f"field {key}:"):
        cfg.scenario_from_mapping({key: value})


def test_config_file_boolean_exits_one(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"q1": True}))
    assert cli.main(["rate-vs-n", "--config", str(path), "--closed-form-only"]) == 1
    assert "field q1:" in capsys.readouterr().err


@pytest.mark.parametrize("mapping", [{"E_U": 100, "E_U-dB": 30}, {"E_U-dB": 30, "E_U": 100}])
def test_mapping_refuses_a_field_given_linear_and_in_db(mapping):
    # neither spelling wins by its place in the mapping
    with pytest.raises(ConfigError, match="'E_U' and 'E_U-dB'"):
        cfg.scenario_from_mapping(mapping)


def test_config_file_setting_a_field_twice_exits_one(tmp_path, capsys):
    path, out = tmp_path / "scn.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"P1": 5, "P1-dB": 40}))
    assert cli.main(["rate-vs-n", "--config", str(path), "--closed-form-only",
                     "--out", str(out)]) == 1
    assert "'P1' and 'P1-dB'" in capsys.readouterr().err
    assert not out.exists()


_FIELDS = [field.name for field in dataclasses.fields(cfg.ScenarioConfig)]
_SCALARS = st.one_of(
    st.integers(-3, 300),
    st.integers(-3, 300).map(float),                       # whole floats
    st.floats(allow_nan=True, allow_infinity=True),        # fractions, NaN, +-inf, 1e308
    st.sampled_from([2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, -2 ** 64, 10 ** 400,
                     True, False, np.True_, np.False_, None, 0.8 + 0.1j]),
    st.integers(-3, 300).map(np.int64),
    st.floats(-1e3, 1e3).map(np.float32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=12),
                    st.lists(_SCALARS, max_size=12).map(tuple), st.text(max_size=6))


def _outcome(build):
    """(scenario, None) of a build, or (None, message) of its ConfigError."""
    try:
        return build(), None
    except ConfigError as exc:
        return None, str(exc)


@settings(max_examples=600, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_VALUES)
@example(field="E_U", value=10 ** 400)
@example(field="delta", value=1e308)                       # M = round(delta N) overflows
@example(field="N", value=10 ** 400)
@example(field="seed", value=2 ** 64 - 1)
@example(field="trials", value=2.7)
@example(field="q1", value=np.True_)
@example(field="d_users", value=[182.0, np.float32(209.0), 197] + [200.0] * 7)
def test_constructor_and_mapping_agree_on_every_field(field, value):
    # the constructor checks every value; a mapping only reads what the
    # constructor cannot take (text, and [re, im] for a coefficient), so any
    # other value builds the same scenario, or is refused with the same
    # message, whichever way it comes in
    direct = _outcome(lambda: cfg.ScenarioConfig(**{field: value}))
    mapped = _outcome(lambda: cfg.scenario_from_mapping({field: value}))
    pair = field in ("r_R", "r_B") and isinstance(value, (list, tuple)) and len(value) == 2
    if isinstance(value, str) or pair:
        assert direct[0] is None or field == "csi"
        return
    assert direct == mapped
    if direct[0] is not None:
        assert direct[0].canonical_json() == mapped[0].canonical_json()


@pytest.mark.parametrize("field", ["E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2", "d_ref",
                                   "d_RB", "delta", "a", "b", "r_R", "r_B", "nu"])
def test_none_is_refused_where_it_means_nothing(field):
    message = f"field {field}: expected a number, got None"
    for build in (cfg.ScenarioConfig, lambda **kw: cfg.scenario_from_mapping(kw)):
        with pytest.raises(ConfigError) as refused:
            build(**{field: None})
        assert str(refused.value) == message


def test_none_keeps_its_meaning_where_it_has_one():
    # an ideal ADC, or a value derived from the other fields
    scn = cfg.ScenarioConfig(q1=None, q2=None, eta=None, betas=None)
    assert scn.q1 is scn.q2 is IDEAL and scn.relay_gain() > 0.0
    assert cfg.ScenarioConfig(K=2, betas=[1.0, 0.5], d_users=None).d_users is None


@pytest.mark.parametrize("text, key", [('{"N": 64, "N": 96}', "N"),
                                       ('{"trials": 3, "K": 4, "trials": 2}', "trials")])
def test_config_file_giving_a_key_twice_exits_one(tmp_path, capsys, text, key):
    # a key's place in the file must not pick its value
    path, out = tmp_path / "scn.json", tmp_path / "out.csv"
    path.write_text(text)
    assert cli.main(["rate-vs-n", "--config", str(path), "--closed-form-only",
                     "--n-values", "64", "--bits", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"configuration error: config field {key!r} is given more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"E_U": 1' + b'0' * 5000 + b'}', b'{"N": "\xff"}'],
                         ids=["integer-past-the-digit-limit", "not-utf-8"])
def test_config_file_json_cannot_read_exits_one(tmp_path, capsys, content):
    # json.load raises a plain ValueError for these, not a JSONDecodeError
    path, out = tmp_path / "scn.json", tmp_path / "out.csv"
    path.write_bytes(content)
    assert cli.main(["rate-vs-n", "--config", str(path), "--closed-form-only",
                     "--n-values", "64", "--bits", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config file {path} is not valid JSON: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_adc_bits_parser_reads_words_and_counts():
    for word in ("ideal", " Inf ", "NONE", None):
        assert cfg.scenario_from_mapping({"q1": word}).q1 is IDEAL
    assert cfg.scenario_from_mapping({"q1": " 3 "}).q1 == 3
    assert cfg.scenario_from_mapping({"q1": 2.0}).q1 == 2
    for value in ("0", 0, -2, "2.5", 2.5, "two", "", float("nan")):
        with pytest.raises(ConfigError, match="field q1"):
            cfg.scenario_from_mapping({"q1": value})


def test_mapping_handles_complex_coefficients_and_base():
    base = cfg.ScenarioConfig(N=64)
    scn = cfg.scenario_from_mapping({"r_R": [0.3, 0.4]}, base=base)
    assert scn.N == 64
    assert scn.r_R == complex(0.3, 0.4)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"N": 32, "K": 4, "betas": [1, 1, 1, 1],
                                "q2": "ideal", "P2-dB": 25}))
    scn = cfg.load_scenario_file(path)
    assert scn.N == 32 and scn.K == 4
    assert scn.q2 is IDEAL
    assert scn.P2 == pytest.approx(10.0 ** 2.5)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line 1"):
        cfg.load_scenario_file(bad)
    listfile = tmp_path / "list.json"
    listfile.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        cfg.load_scenario_file(listfile)
    with pytest.raises(ConfigError, match="cannot read"):
        cfg.load_scenario_file(tmp_path / "missing.json")
