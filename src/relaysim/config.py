"""Scenario description and the builders that turn it into model objects.

ScenarioConfig is a plain, serializable record of one operating point:
array sizes, frame and pilot structure, powers and their scaling exponents,
ADC resolutions, correlation coefficients, and geometry. Helpers build the
three correlation matrices and the per-hop estimate models (LMMSE equivalent
form, or genie CSI) that the analysis and Monte Carlo engines consume.
"""

from dataclasses import dataclass, replace, asdict
import json

import numpy as np

from . import estimation
from .channel import large_scale_gains, path_loss
from .correlation import exponential_correlation, select_transmit_correlation
from .errors import ConfigError
from .quantizer import IDEAL, AdcSpec

# measurement campaign defaults: 10 users at fixed distances from the relay,
# relay-to-destination 250 m, 20 / 25 dB transmit powers, 2.2 / 1.5 dB noise
DEFAULT_DISTANCES = (182.0, 209.0, 197.0, 214.0, 190.0, 188.0, 201.0, 215.0,
                     206.0, 216.0)
DEFAULT_SEED = 42

CSI_MODES = ("estimated", "perfect")


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
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.K < 0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.M < self.K or self.N < self.K:
            raise ConfigError(
                f"K = {self.K} users need K <= min(N, M) = min({self.N}, {self.M})")
        if self.K > 0 and (self.tau1 < self.K or self.tau2 < self.K):
            raise ConfigError(
                f"pilot lengths must be >= K = {self.K}, got ({self.tau1}, {self.tau2})")
        if self.tau1 + self.tau2 >= self.T:
            raise ConfigError(
                f"pilot overhead tau1 + tau2 = {self.tau1 + self.tau2} must be < T = {self.T}")
        for name in ("E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2",
                     "d_ref", "d_RB"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.a < 0.0 or self.b < 0.0:
            raise ConfigError("power scaling exponents must be non-negative")
        if self.nu < 0.0:
            raise ConfigError(f"path-loss exponent must be non-negative, got {self.nu}")
        for name in ("r_R", "r_B"):
            if abs(complex(getattr(self, name))) >= 1.0:
                raise ConfigError(f"|{name}| must be < 1")
        for name in ("q1", "q2"):
            bits = getattr(self, name)
            if bits is not IDEAL and (bits != int(bits) or bits < 1):
                raise ConfigError(f"{name} must be a positive integer or IDEAL, got {bits!r}")
        if self.csi not in CSI_MODES:
            raise ConfigError(f"csi must be one of {CSI_MODES}, got {self.csi!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.betas is None and self.K > len(self.d_users):
            raise ConfigError(
                f"K = {self.K} users but only {len(self.d_users)} distances configured")
        if self.betas is not None and len(self.betas) != self.K:
            raise ConfigError(
                f"betas must have K = {self.K} entries, got {len(self.betas)}")

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
                record[key] = "ideal"
            elif isinstance(val, complex):
                record[key] = val.real if val.imag == 0.0 else [val.real, val.imag]
            elif isinstance(val, tuple):
                record[key] = list(val)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))


def scenario_matrices(scn):
    """(relay receive, destination receive, relay transmit) correlation matrices."""
    t_rr = exponential_correlation(scn.r_R, scn.N)
    t_br = exponential_correlation(scn.r_B, scn.M)
    t_rt = select_transmit_correlation(scn.r_R, scn.N, max(scn.K, 1))
    return t_rr, t_br, t_rt


def scenario_models(scn):
    """Per-hop EstimateModel pair for the scenario's CSI mode.

    Genie models need only the K x K transmit correlation; no receive-size
    matrix is built for them.
    """
    gains = scn.user_gains()
    eta = scn.relay_gain()
    if scn.csi == "perfect":
        t_rt = select_transmit_correlation(scn.r_R, scn.N, max(scn.K, 1))
        return (estimation.perfect_model_first_hop(scn.r_R, scn.N, gains),
                estimation.perfect_model_second_hop(scn.r_B, scn.M, t_rt, eta))
    t_rr, t_br, t_rt = scenario_matrices(scn)
    hop1 = estimation.equivalent_form_first_hop(
        t_rr, gains, scn.adc1, scn.tau1, scn.P1, scn.sigma_R2)
    hop2 = estimation.equivalent_form_second_hop(
        t_br, t_rt, eta, scn.adc2, scn.tau2, scn.P2, scn.sigma_B2)
    return hop1, hop2


_DB_PREFIXES = ("E_U", "E_R", "P1", "P2", "sigma_R2", "sigma_B2")


def _parse_adc_bits(value, key):
    if value is IDEAL:
        return IDEAL
    if isinstance(value, str):
        if value.strip().lower() in ("ideal", "inf", "none"):
            return IDEAL
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(f"field {key}: expected integer bits or 'ideal', got {value!r}")
    if isinstance(value, float) and value != int(value):
        raise ConfigError(f"field {key}: expected integer bits or 'ideal', got {value!r}")
    return int(value)


def scenario_from_mapping(mapping, base=None):
    """Build a ScenarioConfig from a flat mapping (config file or CLI overrides).

    Keys match ScenarioConfig field names. Any power or noise field may be
    given in decibels with a '-dB' suffix (e.g. 'E_U-dB': 20), converted once
    here as linear = 10^(dB/10). Unknown keys raise ConfigError naming the
    offending field.
    """
    base = base or ScenarioConfig()
    updates = {}
    valid = set(ScenarioConfig.__dataclass_fields__)
    for key, value in mapping.items():
        if key.endswith("-dB"):
            stem = key[:-3]
            if stem not in _DB_PREFIXES:
                raise ConfigError(f"field {key}: '-dB' form not supported for {stem!r}")
            try:
                updates[stem] = 10.0 ** (float(value) / 10.0)
            except (TypeError, ValueError):
                raise ConfigError(f"field {key}: expected a number, got {value!r}")
            continue
        if key not in valid:
            raise ConfigError(f"unknown config field {key!r}")
        if key in ("q1", "q2"):
            updates[key] = _parse_adc_bits(value, key)
        elif key in ("d_users", "betas"):
            if value is not None:
                value = tuple(float(v) for v in value)
            updates[key] = value
        elif key in ("N", "K", "T", "tau1", "tau2", "trials", "seed"):
            try:
                updates[key] = int(value)
            except (TypeError, ValueError):
                raise ConfigError(f"field {key}: expected an integer, got {value!r}")
        elif key in ("r_R", "r_B"):
            if isinstance(value, (list, tuple)) and len(value) == 2:
                updates[key] = complex(float(value[0]), float(value[1]))
            else:
                updates[key] = float(value)
        elif key == "csi":
            updates[key] = str(value)
        elif key == "eta":
            updates[key] = None if value is None else float(value)
        else:
            try:
                updates[key] = float(value)
            except (TypeError, ValueError):
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
