"""Configuration dataclasses with their defaults and field rules, and deterministic seed derivation."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .domain import FORMATIONS, Formation

_MASK64 = (1 << 64) - 1


class ConfigurationError(ValueError):
    pass


def rule(text: str, holds: Callable[[float], bool]) -> dict:
    """Field metadata for ``check_fields``: a value must be ``text``, which
    ``holds(value)`` tests."""
    return {"rule": (text, holds)}


POSITIVE = rule("positive", lambda v: v > 0)
NON_NEGATIVE = rule("non-negative", lambda v: v >= 0)


def check_entries(name: str, values: object, kind: type, metadata: Mapping) -> None:
    """Check a tuple (or list) of numbers named name: each entry must be a
    finite number of type kind, never a bool (a float field also takes an int,
    kept as it is), and the rule metadata declares must hold. Raises a
    one-line ConfigurationError naming name."""
    if not isinstance(values, (tuple, list)):
        raise ConfigurationError(f"{name} must be a tuple, got {values!r}")
    text, holds = metadata["rule"]
    for v in values:
        # the comparison is exact for ints of any size and false for NaN
        if isinstance(v, bool) or not isinstance(v, (int, kind)) or not abs(v) <= sys.float_info.max:
            raise ConfigurationError(f"{name} must be a finite {kind.__name__}, got {v!r}")
        if not holds(v):
            raise ConfigurationError(f"{name} must be {text}, got {v!r}")


def check_fields(config: object, section: str) -> None:
    """Check every field of a config dataclass that declares a rule, each entry
    of it for a tuple field, by check_entries under the name "<section> config
    <field>". A None is skipped where the field's type admits it."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if "rule" not in f.metadata or (value is None and "None" in str(f.type)):
            continue
        many = isinstance(f.default, tuple)
        kind = type(f.default[0] if many else f.default)
        check_entries(f"{section} config {f.name}", value if many else (value,), kind, f.metadata)


def mix64(*parts: int) -> int:
    """Combine integers into a well-mixed 64-bit value (splitmix64 steps).

    Used everywhere a platform-independent deterministic draw is derived from a
    seed plus identifiers, so results never depend on Python's hash randomization.
    Each part is added whole (``int`` truncates a float): the mask after the
    add reduces it mod 2**64, negative and wide parts included.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x + int(p)) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def unit_draw(*parts: int) -> float:
    """Deterministic draw in [0, 1) from mixed integer parts."""
    return mix64(*parts) / float(1 << 64)


# Relative wind direction is discretized into 8 sectors of 45 degrees; sector 0
# is a tailwind, sector 4 a headwind. Every formation is optimal in at least
# one sector and all factors stay inside [0.85, 1.25].
DEFAULT_FORMATION_FACTORS: dict[Formation, tuple[float, ...]] = {
    Formation.VEE: (0.85, 0.95, 1.05, 0.95, 1.00, 0.95, 1.05, 0.95),
    Formation.DIAMOND: (0.95, 0.90, 1.10, 1.05, 0.95, 1.05, 1.10, 0.90),
    Formation.FRONT: (1.00, 1.10, 0.95, 0.90, 1.20, 0.90, 0.95, 1.10),
    Formation.ECHELON: (1.05, 1.00, 0.90, 1.00, 1.10, 1.00, 0.90, 1.00),
    Formation.COLUMN: (1.05, 1.05, 1.25, 1.10, 0.85, 1.10, 1.25, 1.05),
}

WIND_SECTORS = 8

DEFAULT_POSITION_FACTORS = (1.10, 1.00, 0.95, 0.92, 0.90)


@dataclass(frozen=True)
class EnergyModelConfig:
    """Parameters of the parametric flight/charging model. All defaults overridable."""

    base_power_w: float = field(default=100.0, metadata=POSITIVE)
    payload_power_coeff_w_per_kg: float = field(default=50.0, metadata=NON_NEGATIVE)
    # a trickle charger delivers 1 W; far slower pads overflow a stop's charge time
    charge_rate_w: float = field(default=100.0, metadata=rule("at least 1", lambda v: v >= 1))
    cooperative_margin: float = field(default=0.1, metadata=NON_NEGATIVE)
    non_partner_price_per_kwh: float = field(default=0.30, metadata=POSITIVE)  # at any other company's station
    # Time one round of queued outside drones holds the pads; sized to a full
    # single-drone refill at the default charge rate so queue priority matters.
    # No round outlasts a day; far longer ones overflow the delivery time.
    exogenous_service_s: float = field(default=1800.0, metadata=rule("in [0, 86400]", lambda v: 0 <= v <= 86400))
    queue_draw_max: int = field(default=4, metadata=NON_NEGATIVE)  # exogenous queue drawn uniformly from {0..max}
    # Read by nothing: the wind field draws directions only. The field stays
    # because manifest.json serialises the config.
    wind_max_speed: float = field(default=10.0, metadata=NON_NEGATIVE)
    # Wind holds its direction at least a second; far shorter slices overflow
    # the slice index of a leg's time.
    wind_slice_s: float = field(default=600.0, metadata=rule("at least 1", lambda v: v >= 1))
    # Execution-time cost of an evaluation under each technique, relative to a
    # plain one. No technique costs a thousand plain evaluations; far larger
    # factors, times each other and the evaluation count, overflow the
    # execution-time QoS.
    et_flexible_factor: float = field(default=1.5, metadata=rule("in (0, 1000]", lambda v: 0 < v <= 1000))
    et_dynamic_factor: float = field(default=1.3, metadata=rule("in (0, 1000]", lambda v: 0 < v <= 1000))
    formation_factors: Mapping[Formation, tuple[float, ...]] = field(
        default_factory=lambda: dict(DEFAULT_FORMATION_FACTORS)
    )
    position_factors: tuple[float, ...] = field(default=DEFAULT_POSITION_FACTORS, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, "energy")
        table = self.formation_factors
        if not isinstance(table, Mapping):
            raise ConfigurationError(f"energy config formation_factors must be a mapping of formations, got {table!r}")
        for key in table:
            if key not in FORMATIONS:
                raise ConfigurationError(
                    f"energy config formation_factors[{key}] is not a formation; "
                    f"expected one of {', '.join(f.value for f in FORMATIONS)}"
                )
        missing = [f.value for f in FORMATIONS if f not in table]
        if missing:
            raise ConfigurationError(f"energy config formation_factors missing formations: {missing}")
        for formation in FORMATIONS:
            name = f"energy config formation_factors[{formation.value}]"
            row = table[formation]
            check_entries(name, row, float, POSITIVE)
            if len(row) != WIND_SECTORS:
                raise ConfigurationError(f"{name} must cover {WIND_SECTORS} wind sectors")
        # a file's "vee" and Python's Formation.VEE hash alike; keep the enum whichever came
        object.__setattr__(self, "formation_factors", {f: table[f] for f in FORMATIONS})
        if not self.position_factors:
            raise ConfigurationError("energy config position_factors must be non-empty")

    def position_factor(self, slot_index: int) -> float:
        seq = self.position_factors
        return seq[min(slot_index, len(seq) - 1)]


@dataclass(frozen=True)
class CompositionConfig:
    """Knobs of the greedy weighted composition."""

    # Weight of the "remaining distance to destination" criterion mixed into the
    # node value; the four QoS criteria are rescaled by (1 - progress_weight).
    # Zero recovers the pure weighted-QoS selection.
    progress_weight: float = field(default=0.2, metadata=rule("in [0, 1)", lambda v: 0 <= v < 1))
    # Sub-swarms must arrive within this window. Sized to one full battery
    # refill at the default charge rate; anything shorter fails every split
    # because sub-swarm schedules differ by whole charging stops.
    arrival_window_s: float = field(default=1800.0, metadata=NON_NEGATIVE)
    # Kept small so charging prices (and hence partnership discounts) stay a
    # visible share of the cost metric. Even a helicopter costs less than 1000
    # a km to fly; far dearer kilometres overflow the cost.
    operating_cost_per_km: float = field(default=0.005, metadata=rule("in [0, 1000]", lambda v: 0 <= v <= 1000))
    # Non-cooperative swarms passing their partner's station top up when any
    # drone is below this capacity fraction, placing charging stops at priority
    # stations instead of wherever the battery happens to run dry. Zero disables.
    opportunistic_charge_threshold: float = field(default=0.5, metadata=rule("in [0, 1]", lambda v: 0 <= v <= 1))

    def __post_init__(self) -> None:
        check_fields(self, "composition")


@dataclass(frozen=True)
class ScenarioLimits:
    """Packages per request, drawn from 1 to max_packages, each of a weight
    drawn uniformly from [min_package_weight_kg, max_package_weight_kg]."""

    # a thousand parcels is freight, not one consumer's swarm delivery
    max_packages: int = field(default=6, metadata=rule("in [1, 1000]", lambda v: 1 <= v <= 1000))
    max_package_weight_kg: float = field(default=2.0, metadata=POSITIVE)
    min_package_weight_kg: float = field(default=0.1, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, "limits")
        if self.min_package_weight_kg > self.max_package_weight_kg:
            raise ConfigurationError("limits config min_package_weight_kg must not exceed max_package_weight_kg")


@dataclass(frozen=True)
class CapabilityRanges:
    """(low, high) ranges the providers' swarm specs are drawn from."""

    battery_wh: tuple[float, float] = field(default=(50.0, 100.0), metadata=POSITIVE)
    speed_mps: tuple[float, float] = field(default=(10.0, 20.0), metadata=POSITIVE)
    payload_kg: tuple[float, float] = field(default=(1.0, 3.0), metadata=POSITIVE)
    swarm_size: tuple[int, int] = field(default=(3, 12), metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, "ranges")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if len(value) != 2 or value[0] > value[1]:
                raise ConfigurationError(f"ranges config {f.name} must be (low, high) with low <= high, got {value!r}")


@dataclass(frozen=True)
class Seeds:
    """Independent deterministic seed streams derived from one master seed."""

    wind: int
    congestion: int
    voting: int

    @classmethod
    def from_master(cls, seed: int) -> "Seeds":
        return cls(wind=mix64(seed, 1), congestion=mix64(seed, 2), voting=mix64(seed, 3))


def _section_kwargs(cls: type, data: object, section: str) -> dict:
    """Keyword arguments for cls from one config section, with its keys
    checked; cls checks the values."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{section} config must be a JSON object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown {section} config keys: {sorted(unknown)}")
    return dict(data)


def _floats(value: object) -> object:
    """A config file's JSON array of finite numbers as a tuple of floats; any
    other value as it is, for the field rules to refuse."""
    if isinstance(value, list) and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value):
        return tuple(float(v) for v in value)
    return value


def read_input(path: str | Path, what: str, form: str) -> str:
    """The input file at path as UTF-8 text, whatever the locale; other bytes are refused in one line naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not UTF-8 {form}: {exc}") from None


def load_config_file(path: str | Path) -> tuple[EnergyModelConfig, CompositionConfig]:
    """The configs built from a JSON file's optional "energy"/"composition" sections of constructor arguments,
    factor table arrays as tuples of floats. It refuses only a file that is not UTF-8 JSON (naming it) or not an
    object, and a section that is unknown, not an object or holds an unknown key; field rules check each value."""
    text = read_input(path, "config file", "JSON")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    unknown = set(data) - {"energy", "composition"}
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    kwargs = _section_kwargs(EnergyModelConfig, data.get("energy", {}), "energy")
    if "position_factors" in kwargs:
        kwargs["position_factors"] = _floats(kwargs["position_factors"])
    if isinstance(kwargs.get("formation_factors"), dict):
        kwargs["formation_factors"] = {name: _floats(row) for name, row in kwargs["formation_factors"].items()}
    energy = EnergyModelConfig(**kwargs)
    composition = CompositionConfig(**_section_kwargs(CompositionConfig, data.get("composition", {}), "composition"))
    return energy, composition
