"""Parametric physics: flight energy, wind direction and formation effects,
charging service.

Everything here is a pure function of its inputs plus explicit seeds, so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .config import WIND_SECTORS, EnergyModelConfig, mix64, unit_draw
from .domain import FORMATIONS, TIERS, Formation, Partnership, Swarm
from .network import SkywayNode

TWO_PI = 2.0 * math.pi


class WindField:
    """Seeded per-segment wind direction, piecewise constant over time slices.

    Only the direction shapes flight energy (through the relative wind sector),
    so no wind speed is drawn. ``slice_s`` is the slice length in seconds (the
    energy config's ``wind_slice_s``). Draws are memoised per instance. The
    composer makes one field per request, so the memo holds the segments that
    request's compositions look at, and is dropped with the request.
    """

    def __init__(self, seed: int, slice_s: float):
        if slice_s <= 0:
            raise ValueError("slice_s must be positive")
        self.seed = seed
        self.slice_s = slice_s
        self._memo: dict[tuple[int, int, int], float] = {}

    def time_slice(self, elapsed_s: float) -> int:
        """Index of the time slice the wind is constant over at elapsed_s."""
        return int(max(elapsed_s, 0.0) // self.slice_s)

    def at(self, a: int, b: int, elapsed_s: float) -> float:
        """Direction the air moves toward over segment a-b at elapsed_s, in radians."""
        key = (min(a, b), max(a, b), self.time_slice(elapsed_s))
        direction = self._memo.get(key)
        if direction is None:
            direction = self._memo[key] = unit_draw(self.seed, *key, 2) * TWO_PI
        return direction


def relative_sector(wind_direction: float, heading: float) -> int:
    """Discretize the wind angle relative to the flight heading into one of
    WIND_SECTORS sectors.

    Sector 0 means the wind blows along the heading (tailwind); sector
    ``WIND_SECTORS // 2`` is a headwind.
    """
    rel = (wind_direction - heading) % TWO_PI
    return int(rel / (TWO_PI / WIND_SECTORS)) % WIND_SECTORS


def flight_power_w(payload_kg: float, config: EnergyModelConfig) -> float:
    """Power in W one drone draws carrying payload_kg: the linear power model
    (base plus payload term) behind flight energy and cooperative charge needs."""
    return config.base_power_w + config.payload_power_coeff_w_per_kg * payload_kg


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

    ``flight_power_w`` scaled by the formation factor for the relative wind
    sector and the drone's slot position factor.
    """
    if segment_length_m < 0:
        raise ValueError("segment length must be non-negative")
    if segment_length_m == 0:
        return 0.0
    power_w = flight_power_w(payload_kg, config)
    seconds = segment_length_m / speed
    factor = config.formation_factor(formation, wind_sector) * config.position_factor(slot_index)
    return power_w * seconds * factor / 3600.0


def best_formation(wind_sector: int, config: EnergyModelConfig) -> Formation:
    """Formation with the smallest factor for this wind sector; ties keep enum order."""
    best = FORMATIONS[0]
    best_factor = config.formation_factor(best, wind_sector)
    for formation in FORMATIONS[1:]:
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
    queue: int,
    config: EnergyModelConfig,
) -> NodeService:
    """Simulate one charging stop of the swarm at a node, each drone charging
    from the energy it holds to its target, at most battery_capacity.

    Drones with a positive deficit occupy pads in batches of pad_count, in
    listed order. Each batch takes (max deficit in batch) / charge_rate. The
    returned charge time is what charging would cost with unlimited pads; the
    wait time collects everything queueing adds on top: rounds of exogenous
    drones served first (reduced by partnership priority at partner-owned
    stations) plus the swarm's own sequential batches.

    ``queue`` is the exogenous queue length at the node: a flown stop passes
    the drawn ``queue_length``, and planners pass the expected length instead
    of peeking at the draw.
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

    ahead = partnership.queue_ahead(queue, node.station_owner)
    exogenous_wait = math.ceil(ahead / node.pad_count) * config.exogenous_service_s

    batch_makespan = 0.0
    for start in range(0, len(charging), node.pad_count):
        batch = charging[start : start + node.pad_count]
        batch_makespan += 3600.0 * max(batch) / config.charge_rate_w
    charge_s = 3600.0 * max(charging) / config.charge_rate_w
    wait_s = exogenous_wait + (batch_makespan - charge_s)

    energy_wh = sum(charging)
    if node.station_owner == partnership.charging_provider_id:
        price = TIERS[partnership.tier].price_per_kwh
    else:
        price = config.non_partner_price_per_kwh
    cost = energy_wh / 1000.0 * price
    return NodeService(charge_s, wait_s, energy_wh, cost)


def execution_time_proxy(evaluations: int, swarm: Swarm, config: EnergyModelConfig) -> float:
    """Deterministic execution-time proxy: evaluation count times technique factors."""
    if evaluations < 0:
        raise ValueError("evaluations must be non-negative")
    factor = 1.0
    if swarm.flexible:
        factor *= config.et_flexible_factor
    if swarm.dynamic:
        factor *= config.et_dynamic_factor
    return evaluations * factor
