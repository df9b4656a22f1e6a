"""Scenario description and the builders that turn it into model objects.

ScenarioConfig is a plain, serializable record of one operating point:
array sizes, frame and pilot structure, powers and their scaling exponents,
ADC resolutions, correlation coefficients, and geometry. Helpers build the
per-hop channel statistics and the estimate models (LMMSE equivalent
form, or genie CSI) that the analysis and Monte Carlo engines consume.
"""

import cmath
from dataclasses import asdict, dataclass, fields, replace
import json
import math
from numbers import Integral, Real

import numpy as np

from . import estimation
from .channel import large_scale_gains, path_loss
from .correlation import select_transmit_correlation
from .errors import ConfigError
from .quantizer import IDEAL, AdcSpec, bits_label

# measurement campaign defaults: 10 users at fixed distances from the relay,
# relay-to-destination 250 m, 20 / 25 dB transmit powers, 2.2 / 1.5 dB noise
DEFAULT_DISTANCES = (182.0, 209.0, 197.0, 214.0, 190.0, 188.0, 201.0, 215.0,
                     206.0, 216.0)
DEFAULT_SEED = 42

CSI_MODES = ("estimated", "perfect")


def check_seed(seed):
    """Refuse a seed outside [0, 2**64): a seed is used as given, never
    wrapped modulo 2**64 onto another seed's streams."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One operating point of the two-hop link."""

    N: int = 128                 # relay antennas
    K: int = 10                  # single-antenna users
    delta: float = 2.0           # destination/relay antenna ratio, M = round(delta N)
    T: int = 100                 # coherence interval in symbols
    tau1: int = 10               # first-hop pilot length
    tau2: int = 10               # second-hop pilot length
    E_U: float = 100.0           # per-user data power scale (20 dB)
    E_R: float = 10.0 ** 2.5     # relay power scale (25 dB)
    a: float = 0.0               # user power scaling exponent: P_U = E_U / N^a
    b: float = 0.0               # relay power scaling exponent: P_R = E_R / M^b
    P1: float = 100.0            # first-hop pilot power
    P2: float = 10.0 ** 2.5      # second-hop pilot power
    sigma_R2: float = 10.0 ** 0.22   # relay noise variance (2.2 dB)
    sigma_B2: float = 10.0 ** 0.15   # destination noise variance (1.5 dB)
    q1: object = 2               # relay ADC resolution in bits, or IDEAL
    q2: object = 2               # destination ADC resolution in bits, or IDEAL
    r_R: complex = 0.8           # relay-side correlation coefficient
    r_B: complex = 0.8           # destination-side correlation coefficient
    d_ref: float = 100.0
    d_users: tuple = DEFAULT_DISTANCES
    d_RB: float = 250.0
    nu: float = 3.8              # path-loss exponent
    betas: tuple = None          # explicit per-user gains (overrides geometry)
    eta: float = None            # explicit relay gain (overrides geometry)
    csi: str = "estimated"
    trials: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # first, so that no check or property below meets a boolean, a NaN,
        # an inf or a count with a fractional part. A whole count or
        # resolution is stored as an int, because sizes slice and index arrays
        # and CSV cells and canonical_json write a resolution as given; any
        # other number as a Python float (a complex off the real line) and a
        # list as a tuple of floats, so that equal scenarios compare, hash and
        # serialize alike
        for field in fields(self):
            kind, value = field.type, getattr(self, field.name)
            many = kind is tuple and value is not None
            # a string would be read a character at a time
            if many and not isinstance(value, (tuple, list)):
                raise ConfigError(f"{field.name} takes a list of numbers, got {value!r}")
            # Python and numpy read a boolean as the number 0 or 1
            if kind is not str and (any(isinstance(v, (bool, np.bool_)) for v in value)
                                    if many else isinstance(value, (bool, np.bool_))):
                raise ConfigError(f"{field.name} takes numbers, not booleans, got {value!r}")
            if type(value) is not int and (
                    kind is int or (field.name in ("q1", "q2") and value is not IDEAL)):
                if not (isinstance(value, Integral) or (
                        isinstance(value, Real) and float(value).is_integer())):
                    raise ConfigError(f"{field.name} must be a whole number, got {value!r}")
                object.__setattr__(self, field.name, int(value))
            if kind in (float, complex, tuple) and value is not None:
                isfinite = cmath.isfinite if kind is complex else math.isfinite
                try:
                    finite = all(map(isfinite, value)) if many else isfinite(value)
                except TypeError:
                    raise ConfigError(f"{field.name} takes numbers, got {value!r}") from None
                if not finite:
                    raise ConfigError(f"{field.name} must be finite, got {value}")
                if many:
                    plain = tuple(map(float, value))
                else:
                    number = complex(value)
                    plain = number.real if number.imag == 0.0 else number
                object.__setattr__(self, field.name, plain)
        check_seed(self.seed)
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.K < 1:
            raise ConfigError(f"a sweep needs at least one user, got K = {self.K}")
        # a size ratio, power, noise, distance or gain that is not positive is
        # bad input (exit 1), not a numerical failure of the model built from
        # it (exit 2)
        for name in ("delta", "E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2",
                     "d_ref", "d_RB", "eta"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.M < self.K or self.N < self.K:
            raise ConfigError(
                f"K = {self.K} users need K <= min(N, M) = min({self.N}, {self.M})")
        if self.tau1 < self.K or self.tau2 < self.K:
            raise ConfigError(
                f"pilot lengths must be >= K = {self.K}, got ({self.tau1}, {self.tau2})")
        if self.tau1 + self.tau2 >= self.T:
            raise ConfigError(
                f"pilot overhead tau1 + tau2 = {self.tau1 + self.tau2} must be < T = {self.T}")
        if self.a < 0.0 or self.b < 0.0:
            raise ConfigError("power scaling exponents must be non-negative")
        if self.nu < 0.0:
            raise ConfigError(f"path-loss exponent must be non-negative, got {self.nu}")
        for name in ("r_R", "r_B"):
            if abs(complex(getattr(self, name))) >= 1.0:
                raise ConfigError(f"|{name}| must be < 1")
        for name in ("q1", "q2"):
            bits = getattr(self, name)
            if bits is not IDEAL and bits < 1:
                raise ConfigError(f"{name} must be a positive integer or IDEAL, got {bits!r}")
        if self.csi not in CSI_MODES:
            raise ConfigError(f"csi must be one of {CSI_MODES}, got {self.csi!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.betas is None and self.d_users is None:
            raise ConfigError("d_users must be given when betas is not")
        if self.betas is None and self.K > len(self.d_users):
            raise ConfigError(
                f"K = {self.K} users but only {len(self.d_users)} distances configured")
        if self.betas is not None and len(self.betas) != self.K:
            raise ConfigError(
                f"betas must have K = {self.K} entries, got {len(self.betas)}")
        if self.betas is not None and not all(b > 0.0 for b in self.betas):
            raise ConfigError(f"betas must be positive, got {self.betas}")
        if self.d_users is not None and not all(d > 0.0 for d in self.d_users):
            raise ConfigError(f"d_users must be positive, got {self.d_users}")

    @property
    def M(self):
        return int(round(self.delta * self.N))

    @property
    def mu(self):
        return (self.T - self.tau1 - self.tau2) / (2.0 * self.T)

    @property
    def P_U(self):
        return self.E_U / self.N ** self.a

    @property
    def P_R(self):
        return self.E_R / self.M ** self.b

    @property
    def adc1(self):
        return AdcSpec.from_bits(self.q1)

    @property
    def adc2(self):
        return AdcSpec.from_bits(self.q2)

    def user_gains(self):
        if self.betas is not None:
            return np.asarray(self.betas, dtype=np.float64)
        return large_scale_gains(self.d_ref, self.d_users[:self.K], self.nu)

    def relay_gain(self):
        if self.eta is not None:
            return float(self.eta)
        return path_loss(self.d_ref, self.d_RB, self.nu)

    def with_updates(self, **kwargs):
        return replace(self, **kwargs)

    def canonical_json(self):
        """Stable single-line JSON of every field, for CSV metadata."""
        record = asdict(self)
        for key, val in record.items():
            if val is IDEAL and key in ("q1", "q2"):
                record[key] = bits_label(val)
            elif isinstance(val, complex):
                record[key] = [val.real, val.imag]
        return json.dumps(record, sort_keys=True, separators=(",", ":"))


def scenario_hops(scn):
    """HopStatistics of the user-to-relay and relay-to-destination hops.

    Only the K x K transmit sides are built here; each receive array is
    described by its (r, n).
    """
    t_rt = select_transmit_correlation(scn.r_R, scn.N, scn.K)
    hop1 = estimation.HopStatistics(scn.r_R, scn.N, np.diag(scn.user_gains()),
                                    scn.tau1, scn.sigma_R2)
    hop2 = estimation.HopStatistics(scn.r_B, scn.M, t_rt, scn.tau2, scn.sigma_B2,
                                    gain=scn.relay_gain(), streams=t_rt.shape[0])
    return hop1, hop2


def scenario_models(scn):
    """Per-hop EstimateModel pair for the scenario's CSI mode.

    Both modes read each receive array through its eigenvalues alone; no
    receive-size matrix is built.
    """
    hops = scenario_hops(scn)
    if scn.csi == "perfect":
        return tuple(estimation.perfect_model(hop) for hop in hops)
    return tuple(estimation.equivalent_form(hop, adc, power) for hop, adc, power
                 in zip(hops, (scn.adc1, scn.adc2), (scn.P1, scn.P2)))


_DB_PREFIXES = ("E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2")


def db_to_linear(db, name):
    """10 ** (db / 10); a db that overflows a float, or underflows to zero,
    is bad input."""
    try:
        linear = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ConfigError(f"{name}: {db!r} dB overflows a float")
    if linear == 0.0:
        raise ConfigError(f"{name}: {db!r} dB underflows to zero")
    return linear


def parse_adc_bits(value, key):
    """An ADC resolution: IDEAL for the words ideal, inf and none (any case),
    otherwise a bit count of at least 1. Anything else is a ConfigError
    naming key."""
    if value is IDEAL or (isinstance(value, str)
                          and value.strip().lower() in ("ideal", "inf", "none")):
        return IDEAL
    expected = "a bit count >= 1 or 'ideal'"
    bits = _parse_int(value, key, expected)
    if bits < 1:
        raise ConfigError(f"field {key}: expected {expected}, got {value!r}")
    return bits


def _parse_int(value, key, expected="an integer"):
    """int(value), refusing anything int() cannot read or would truncate."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (isinstance(value, float) and number != value):
        raise ConfigError(f"field {key}: expected {expected}, got {value!r}")
    return number


def _parse_field(key, value):
    """value of a ScenarioConfig field converted from its mapping form
    (key, which may carry the '-dB' suffix)."""
    if key == "csi":
        return str(value)
    # Python reads a boolean as the number 0 or 1
    if any(isinstance(item, bool) for item in
           (value if isinstance(value, (list, tuple)) else (value,))):
        raise ConfigError(f"field {key}: expected a number, got {value!r}")
    if key.endswith("-dB"):
        return db_to_linear(value, f"field {key}")
    if key in ("q1", "q2"):
        return parse_adc_bits(value, key)
    if key in ("N", "K", "T", "tau1", "tau2", "trials", "seed"):
        return _parse_int(value, key)
    if value is None and key in ("d_users", "betas", "eta"):
        return None
    if key in ("d_users", "betas"):
        # a string would be read a character at a time
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field {key}: expected a list of numbers, got {value!r}")
        return tuple(float(v) for v in value)
    if key in ("r_R", "r_B") and isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    return float(value)


def scenario_from_mapping(mapping, base=None):
    """Build a ScenarioConfig from a flat mapping (config file or CLI overrides).

    Keys match ScenarioConfig field names. Any power or noise field may be
    given in decibels with a '-dB' suffix (e.g. 'E_U-dB': 20), converted once
    here as linear = 10^(dB/10). Unknown keys, and a field given both
    linear and in decibels, raise ConfigError naming the offending keys.
    """
    base = base or ScenarioConfig()
    updates = {}
    valid = set(ScenarioConfig.__dataclass_fields__)
    for key, value in mapping.items():
        field = key[:-3] if key.endswith("-dB") else key
        if field != key and field not in _DB_PREFIXES:
            raise ConfigError(f"field {key}: '-dB' form not supported for {field!r}")
        if field != key and field in mapping:
            raise ConfigError(f"fields {field!r} and {key!r} both set {field}; give one")
        if field not in valid:
            raise ConfigError(f"unknown config field {key!r}")
        try:
            updates[field] = _parse_field(key, value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"field {key}: expected a number, got {value!r}")
    try:
        return base.with_updates(**updates)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def load_scenario_file(path, base=None):
    """Read a JSON config file into a ScenarioConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: "
                          f"line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(mapping, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return scenario_from_mapping(mapping, base=base)


def table_defaults():
    """The measurement-campaign default scenario."""
    return ScenarioConfig()
