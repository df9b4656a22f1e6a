"""Scenario description and the builders that turn it into model objects.

ScenarioConfig is a plain, serializable record of one operating point:
array sizes, frame and pilot structure, powers and their scaling exponents,
ADC resolutions, correlation coefficients, and geometry. Its constructor
alone checks each value and stores it in one form (a count or resolution
as an int, other numbers as floats or complex, lists as tuples of floats);
scenario_from_mapping only reads what a config file or grid value spells as
text, [re, im] or decibels, so either way a bad value gets the same message.
Helpers build the per-hop channel statistics and the estimate models (LMMSE
equivalent form, or genie CSI) that the analysis and Monte Carlo engines use.
"""

import cmath
from dataclasses import asdict, dataclass, fields, replace
import json
import math
from numbers import Complex, Real

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


def _refusal(name, what, value):
    return ConfigError(f"field {name}: expected {what}, got {value!r}")


def _number(name, value, what="a number", kind=Real):
    """value as a finite float (a complex off the real line, where kind is
    Complex); a boolean, which Python reads as 0 or 1, is no number here."""
    if type(value) in (float, int) or isinstance(value, kind) and not isinstance(value, bool):
        try:
            number = (float if kind is Real else complex)(value)
        except OverflowError:        # an integer past the float range
            number = math.inf
        if cmath.isfinite(number):
            return number if number.imag else number.real
    raise _refusal(name, what, value)


def _numbers(name, value):
    """A list of numbers as a tuple of floats; a string is no such list."""
    if not isinstance(value, (list, tuple)):
        raise _refusal(name, "a list of numbers", value)
    return tuple([_number(name, item) for item in value])


def _integer(name, value, what="an integer"):
    """A count as an int, since sizes index arrays; a fraction is refused, not truncated."""
    if type(value) is not int and not _number(name, value, what).is_integer():
        raise _refusal(name, what, value)
    return int(value)


def _bits(name, value, what="a bit count >= 1 or 'ideal'"):
    """An ADC resolution of at least 1 bit, as an int."""
    if (bits := _integer(name, value, what)) < 1:
        raise _refusal(name, what, value)
    return bits


def _csi(name, value):
    if not (isinstance(value, str) and value in CSI_MODES):
        raise ConfigError(f"csi must be one of {CSI_MODES}, got {value!r}")
    return str(value)


def _scaled(power, size, exponent):
    """power / size ** exponent; 0.0, its limit, where size ** exponent overflows."""
    try:
        return power / size ** exponent
    except OverflowError:
        return 0.0


def check_seed(seed):
    """Refuse a seed outside [0, 2**64): it is used as given, never wrapped onto another."""
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
        # first, so that no check or property below meets a value of the
        # wrong kind. None means an ideal ADC for q1 and q2, and a value
        # derived from the other fields for d_users, betas and eta
        for name, read in _READERS.items():
            value = getattr(self, name)
            if value is not None or name not in ("q1", "q2", "d_users", "betas", "eta"):
                object.__setattr__(self, name, read(name, value))
        check_seed(self.seed)
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.K < 1:
            raise ConfigError(f"a sweep needs at least one user, got K = {self.K}")
        # a size ratio, power, noise, distance or gain that is not positive is
        # bad input (exit 1), not a numerical failure of the model built from
        # it (exit 2)
        for name in ("delta", "E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2",
                     "d_ref", "d_RB", "eta", "betas", "d_users"):
            value = getattr(self, name)
            if value is not None and not (
                    min(value, default=1.0) if isinstance(value, tuple) else value) > 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        try:
            M = self.M
        except OverflowError:
            raise ConfigError(f"delta N = {self.delta} * {self.N} overflows a float") from None
        if M < self.K or self.N < self.K:
            raise ConfigError(f"K = {self.K} users need K <= min(N, M) = min({self.N}, {M})")
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
            if abs(getattr(self, name)) >= 1.0:
                raise ConfigError(f"|{name}| must be < 1")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.betas is None and self.d_users is None:
            raise ConfigError("d_users must be given when betas is not")
        if self.betas is None and self.K > len(self.d_users):
            raise ConfigError(
                f"K = {self.K} users but only {len(self.d_users)} distances configured")
        if self.betas is not None and len(self.betas) != self.K:
            raise ConfigError(f"betas must have K = {self.K} entries, got {len(self.betas)}")
        for name, gains in (("d_users", self.user_gains), ("d_RB", self.relay_gain)):
            try:
                gains()
            except OverflowError as exc:
                raise ConfigError(f"field {name}: {exc}") from None

    @property
    def M(self):
        return int(round(self.delta * self.N))

    @property
    def mu(self):
        return (self.T - self.tau1 - self.tau2) / (2.0 * self.T)

    @property
    def P_U(self):
        return _scaled(self.E_U, self.N, self.a)

    @property
    def P_R(self):
        return _scaled(self.E_R, self.M, self.b)

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


# the check that stores each field's value in its one form, by its annotation
_READERS = {field.name: {int: _integer, float: _number, tuple: _numbers, object: _bits,
                         str: _csi, complex: lambda name, value: _number(name, value, kind=Complex)
                         }[field.type] for field in fields(ScenarioConfig)}


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
    """10 ** (db / 10); a db whose linear form overflows or underflows to 0 is bad input."""
    try:
        linear = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ConfigError(f"{name}: {db!r} dB overflows a float")
    if linear == 0.0:
        raise ConfigError(f"{name}: {db!r} dB underflows to zero")
    return linear


def _from_text(field, value):
    """value, or the number its text spells for field: int() for a count or
    resolution, so a 20-digit seed stays exact, IDEAL for the words ideal, inf
    and none, float() otherwise. Text that spells none is left to refuse."""
    read = _READERS[field]
    if not isinstance(value, str) or read in (_csi, _numbers):
        return value
    if read is _bits and value.strip().lower() in ("ideal", "inf", "none"):
        return IDEAL
    try:
        return (int if read in (_integer, _bits) else float)(value)
    except ValueError:
        return value


def scenario_from_mapping(mapping, base=None):
    """Build a ScenarioConfig from a flat mapping (config file or CLI overrides).

    Keys match ScenarioConfig field names; values are what its constructor
    takes and checks, or text that spells one, a coefficient also [re, im].
    A power or noise field may be given in decibels with a '-dB' suffix
    (e.g. 'E_U-dB': 20), converted here as linear = 10^(dB/10). Unknown keys,
    and a field given both linear and in decibels, are a ConfigError.
    """
    updates = {}
    for key, value in mapping.items():
        field = key[:-3] if key.endswith("-dB") else key
        if field != key and field not in _DB_PREFIXES:
            raise ConfigError(f"field {key}: '-dB' form not supported for {field!r}")
        if field != key and field in mapping:
            raise ConfigError(f"fields {field!r} and {key!r} both set {field}; give one")
        if field not in _READERS:
            raise ConfigError(f"unknown config field {key!r}")
        value = _from_text(field, value)
        if field != key:
            _number(key, value)      # a number of decibels, checked as E_U is
            value = db_to_linear(value, f"field {key}")
        elif field in ("r_R", "r_B") and isinstance(value, (list, tuple)) and len(value) == 2:
            value = complex(*(_number(key, _from_text(field, part)) for part in value))
        updates[field] = value
    return (base or ScenarioConfig()).with_updates(**updates)


def _refuse_duplicate_keys(pairs):
    """A JSON object that gives no key twice: no place in a file picks a value."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ConfigError(f"config field {key!r} is given more than once")
        mapping[key] = value
    return mapping


def load_scenario_file(path, base=None):
    """Read a JSON config file into a ScenarioConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh, object_pairs_hook=_refuse_duplicate_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:
        # bad syntax, text that is not UTF-8, or an integer past int()'s digit limit
        raise exc if isinstance(exc, ConfigError) else ConfigError(
            f"config file {path} is not valid JSON: {exc}")
    if not isinstance(mapping, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return scenario_from_mapping(mapping, base=base)


def table_defaults():
    """The measurement-campaign default scenario."""
    return ScenarioConfig()
