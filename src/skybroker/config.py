"""Configuration dataclasses, defaults and deterministic seed derivation."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .domain import FORMATIONS, Formation

_MASK64 = (1 << 64) - 1


class ConfigurationError(ValueError):
    pass


def mix64(*parts: int) -> int:
    """Combine integers into a well-mixed 64-bit value (splitmix64 steps).

    Used everywhere a platform-independent deterministic draw is derived from a
    seed plus identifiers, so results never depend on Python's hash randomization.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x + (int(p) & _MASK64)) & _MASK64
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

    base_power_w: float = 100.0
    payload_power_coeff_w_per_kg: float = 50.0
    charge_rate_w: float = 100.0
    cooperative_margin: float = 0.1
    non_partner_price_per_kwh: float = 0.30  # at any other company's station
    # Time one round of queued outside drones holds the pads; sized to a full
    # single-drone refill at the default charge rate so queue priority matters.
    exogenous_service_s: float = 1800.0
    queue_draw_max: int = 4  # exogenous queue length drawn uniformly from {0..max}
    # Read by nothing: the wind field draws directions only. The field stays
    # because manifest.json serialises the config.
    wind_max_speed: float = 10.0
    wind_slice_s: float = 600.0
    et_flexible_factor: float = 1.5
    et_dynamic_factor: float = 1.3
    formation_factors: Mapping[Formation, tuple[float, ...]] = field(
        default_factory=lambda: dict(DEFAULT_FORMATION_FACTORS)
    )
    position_factors: tuple[float, ...] = DEFAULT_POSITION_FACTORS

    def __post_init__(self) -> None:
        if self.base_power_w <= 0 or self.payload_power_coeff_w_per_kg < 0:
            raise ConfigurationError("power parameters must be positive")
        if self.charge_rate_w <= 0:
            raise ConfigurationError("charge_rate_w must be positive")
        if self.cooperative_margin < 0:
            raise ConfigurationError("cooperative_margin must be non-negative")
        if self.queue_draw_max < 0:
            raise ConfigurationError("queue_draw_max must be non-negative")
        if self.exogenous_service_s < 0:
            raise ConfigurationError("exogenous_service_s must be non-negative")
        if self.non_partner_price_per_kwh <= 0:
            raise ConfigurationError("non_partner_price_per_kwh must be positive")
        if self.wind_max_speed < 0 or self.wind_slice_s <= 0:
            raise ConfigurationError("wind_max_speed must be non-negative and wind_slice_s positive")
        if self.et_flexible_factor <= 0 or self.et_dynamic_factor <= 0:
            raise ConfigurationError("execution-time factors must be positive")
        missing = [f.value for f in FORMATIONS if f not in self.formation_factors]
        if missing:
            raise ConfigurationError(f"formation_factors missing formations: {missing}")
        for formation, row in self.formation_factors.items():
            if len(row) != WIND_SECTORS:
                raise ConfigurationError(
                    f"formation_factors[{formation.value}] must cover {WIND_SECTORS} wind sectors"
                )
            if not all(0 < v < math.inf for v in row):
                raise ConfigurationError("formation factors must be positive and finite")
        if not self.position_factors or not all(0 < v < math.inf for v in self.position_factors):
            raise ConfigurationError("position factors must be positive and finite")

    def formation_factor(self, formation: Formation, wind_sector: int) -> float:
        return self.formation_factors[formation][wind_sector % WIND_SECTORS]

    def position_factor(self, slot_index: int) -> float:
        if slot_index < 0:
            raise ValueError("slot_index must be non-negative")
        seq = self.position_factors
        return seq[min(slot_index, len(seq) - 1)]


@dataclass(frozen=True)
class CompositionConfig:
    """Knobs of the greedy weighted composition."""

    # Weight of the "remaining distance to destination" criterion mixed into the
    # node value; the four QoS criteria are rescaled by (1 - progress_weight).
    # Zero recovers the pure weighted-QoS selection.
    progress_weight: float = 0.2
    # Sub-swarms must arrive within this window. Sized to one full battery
    # refill at the default charge rate; anything shorter fails every split
    # because sub-swarm schedules differ by whole charging stops.
    arrival_window_s: float = 1800.0
    # Kept small so charging prices (and hence partnership discounts) stay a
    # visible share of the cost metric.
    operating_cost_per_km: float = 0.005
    # Non-cooperative swarms passing their partner's station top up when any
    # drone is below this capacity fraction, placing charging stops at priority
    # stations instead of wherever the battery happens to run dry. Zero disables.
    opportunistic_charge_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.progress_weight < 1.0:
            raise ConfigurationError("progress_weight must be in [0, 1)")
        if self.arrival_window_s < 0:
            raise ConfigurationError("arrival_window_s must be non-negative")
        if self.operating_cost_per_km < 0:
            raise ConfigurationError("operating_cost_per_km must be non-negative")
        if not 0.0 <= self.opportunistic_charge_threshold <= 1.0:
            raise ConfigurationError("opportunistic_charge_threshold must be in [0, 1]")


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
    """Keyword arguments for cls from one config section, with its keys and the
    types of its numeric values checked."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{section} config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown {section} config keys: {sorted(unknown)}")
    for name, value in data.items():
        default = fields[name].default
        if isinstance(default, (int, float)):
            wanted = float if isinstance(default, float) else int
            if isinstance(value, bool) or not isinstance(value, (int, wanted)) or not -math.inf < value < math.inf:
                raise ConfigurationError(f"{section} config {name} must be a finite {wanted.__name__}, got {value!r}")
    return dict(data)


def energy_config_from_dict(data: object) -> EnergyModelConfig:
    kwargs = _section_kwargs(EnergyModelConfig, data, "energy")
    try:
        if "formation_factors" in kwargs:
            kwargs["formation_factors"] = {
                Formation(name): tuple(float(v) for v in row)
                for name, row in kwargs["formation_factors"].items()
            }
        if "position_factors" in kwargs:
            kwargs["position_factors"] = tuple(float(v) for v in kwargs["position_factors"])
    except (AttributeError, TypeError) as exc:
        raise ConfigurationError(f"energy config factor tables are malformed: {exc}") from None
    return EnergyModelConfig(**kwargs)


def composition_config_from_dict(data: object) -> CompositionConfig:
    return CompositionConfig(**_section_kwargs(CompositionConfig, data, "composition"))


def load_config_file(path: str | Path) -> tuple[EnergyModelConfig, CompositionConfig]:
    """Load overrides from a JSON file with optional "energy"/"composition" sections."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    unknown = set(data) - {"energy", "composition"}
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    energy = energy_config_from_dict(data.get("energy", {}))
    composition = composition_config_from_dict(data.get("composition", {}))
    return energy, composition
