"""Parametric physics: flight energy, wind direction and formation effects,
charging service.

Everything here is a pure function of its inputs plus explicit seeds, so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .config import WIND_SECTORS, EnergyModelConfig, mix64, unit_draw
from .domain import DYNAMIC, FLEXIBLE_FORMATION, Formation, Partnership
from .network import SkywayNode

TWO_PI = 2.0 * math.pi


class WindField:
    """Seeded per-segment wind direction, piecewise constant over time slices.

    Only the direction shapes flight energy (through the relative wind sector),
    so no wind speed is drawn. Draws are memoised per instance. The composer
    makes one field per composition, so the memo holds only the segments that
    composition looks at.
    """

    def __init__(self, seed: int, slice_s: float = 600.0):
        if slice_s <= 0:
            raise ValueError("slice_s must be positive")
        self.seed = seed
        self.slice_s = slice_s
        self._memo: dict[tuple[int, int, int], float] = {}

    def time_slice(self, elapsed_s: float) -> int:
        """Index of the time slice the wind is constant over at elapsed_s."""
        return int(max(elapsed_s, 0.0) // self.slice_s)

    def at(self, a: int, b: int, elapsed_s: float = 0.0) -> float:
        """Direction the air moves toward over segment a-b at elapsed_s, in radians."""
        key = (min(a, b), max(a, b), self.time_slice(elapsed_s))
        direction = self._memo.get(key)
        if direction is None:
            direction = self._memo[key] = unit_draw(self.seed, *key, 2) * TWO_PI
        return direction


def relative_sector(wind_direction: float, heading: float, sectors: int = WIND_SECTORS) -> int:
    """Discretize the wind angle relative to the flight heading.

    Sector 0 means the wind blows along the heading (tailwind); sector
    ``sectors // 2`` is a headwind.
    """
    rel = (wind_direction - heading) % TWO_PI
    return int(rel / (TWO_PI / sectors)) % sectors


def segment_energy(
    payload_kg: float,
    speed: float,
    segment_length_m: float,
    formation: Formation,
    wind_sector: int,
    slot_index: int,
    config: EnergyModelConfig,
) -> float:
    """Energy in Wh one drone, carrying payload_kg at speed m/s, spends
    traversing a segment.

    Linear power model (base plus payload term) scaled by the formation factor
    for the relative wind sector and the drone's slot position factor.
    """
    if segment_length_m < 0:
        raise ValueError("segment length must be non-negative")
    if segment_length_m == 0:
        return 0.0
    power_w = config.base_power_w + config.payload_power_coeff_w_per_kg * payload_kg
    seconds = segment_length_m / speed
    factor = config.formation_factor(formation, wind_sector) * config.position_factor(slot_index)
    return power_w * seconds * factor / 3600.0


def best_formation(
    wind_sector: int,
    formations: Sequence[Formation],
    config: EnergyModelConfig,
) -> Formation:
    """Formation with the smallest factor for this wind sector; ties keep enum order."""
    if not formations:
        raise ValueError("no formations to choose from")
    best = formations[0]
    best_factor = config.formation_factor(best, wind_sector)
    for formation in formations[1:]:
        factor = config.formation_factor(formation, wind_sector)
        if factor < best_factor:
            best, best_factor = formation, factor
    return best


def queue_length(congestion_seed: int, node_id: int, config: EnergyModelConfig) -> int:
    """Exogenous queue length at a node, uniform over {0..queue_draw_max}."""
    return mix64(congestion_seed, node_id) % (config.queue_draw_max + 1)


class NodeService(NamedTuple):
    charge_s: float  # irreducible charging time (max single-drone deficit)
    wait_s: float  # exogenous queue plus own sequential batches
    energy_wh: float
    cost: float


def node_service_time(
    battery_capacity: float,
    energies: Sequence[float],
    node: SkywayNode,
    target_energies: Sequence[float],
    partnership: Partnership,
    congestion_seed: int,
    config: EnergyModelConfig,
    queue_override: int | None = None,
) -> NodeService:
    """Simulate one charging stop of the swarm at a node, each drone charging
    from the energy it holds to its target, at most battery_capacity.

    Drones with a positive deficit occupy pads in batches of pad_count, in
    listed order. Each batch takes (max deficit in batch) / charge_rate. The
    returned charge time is what charging would cost with unlimited pads; the
    wait time collects everything queueing adds on top: rounds of exogenous
    drones served first (reduced by partnership priority at partner-owned
    stations) plus the swarm's own sequential batches.

    ``queue_override`` replaces the drawn exogenous queue length; planners use
    it to price a stop with the expected queue instead of peeking at the draw.
    """
    if len(energies) != len(target_energies):
        raise ValueError("one held and one target energy required per drone")
    deficits = []
    for held, target in zip(energies, target_energies):
        if target > battery_capacity + 1e-9:
            raise ValueError(f"target energy {target} exceeds battery capacity {battery_capacity}")
        if target < held - 1e-9:
            raise ValueError("target energy below current energy")
        deficits.append(max(0.0, target - held))

    charging = [d for d in deficits if d > 1e-12]
    if not charging:
        return NodeService(0.0, 0.0, 0.0, 0.0)

    if queue_override is not None:
        q = queue_override
    else:
        q = queue_length(congestion_seed, node.node_id, config)
    ahead = partnership.queue_ahead(q, node.station_owner)
    exogenous_wait = math.ceil(ahead / node.pad_count) * config.exogenous_service_s

    batch_makespan = 0.0
    for start in range(0, len(charging), node.pad_count):
        batch = charging[start : start + node.pad_count]
        batch_makespan += 3600.0 * max(batch) / config.charge_rate_w
    charge_s = 3600.0 * max(charging) / config.charge_rate_w
    wait_s = exogenous_wait + (batch_makespan - charge_s)

    energy_wh = sum(charging)
    if node.station_owner == partnership.charging_provider_id:
        price = partnership.price_per_kwh
    else:
        price = config.non_partner_price_per_kwh
    cost = energy_wh / 1000.0 * price
    return NodeService(charge_s, wait_s, energy_wh, cost)


def execution_time_proxy(
    evaluations: int,
    techniques: Iterable[str],
    config: EnergyModelConfig | None = None,
) -> float:
    """Deterministic execution-time proxy: evaluation count times technique factors."""
    if evaluations < 0:
        raise ValueError("evaluations must be non-negative")
    config = config or EnergyModelConfig()
    factor = 1.0
    technique_set = set(techniques)
    if FLEXIBLE_FORMATION in technique_set:
        factor *= config.et_flexible_factor
    if DYNAMIC in technique_set:
        factor *= config.et_dynamic_factor
    return evaluations * factor
