"""Parametric physics: flight energy, wind direction and formation effects,
charging service.

Everything here is a pure function of its inputs plus explicit seeds, so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .config import WIND_SECTORS, EnergyModelConfig, mix64, unit_draw
from .domain import FORMATIONS, TIERS, Formation, Partnership, Swarm, total
from .network import SkywayNode

TWO_PI = 2.0 * math.pi
# rounding tolerance in Wh when an energy is compared with a capacity or a charge
ENERGY_EPS_WH = 1e-9


class WindField:
    """Seeded per-segment wind direction, piecewise constant over time slices.

    Only the direction shapes flight energy (through the relative wind sector),
    so no wind speed is drawn. ``slice_s`` is the slice length in seconds (the
    energy config's ``wind_slice_s``). ``time_slice`` is the one place a time
    becomes a slice index, and ``at`` reads a segment's direction in a slice.
    Draws are memoised per instance. The composer makes one field per request,
    so the memo holds the segments that request's compositions look at, and is
    dropped with the request.
    """

    def __init__(self, seed: int, slice_s: float):
        self.seed = seed
        self.slice_s = slice_s
        self._memo: dict[tuple[int, int, int], float] = {}

    def time_slice(self, elapsed_s: float) -> int:
        """Index of the time slice the wind is constant over at elapsed_s."""
        return int(max(elapsed_s, 0.0) // self.slice_s)

    def at(self, a: int, b: int, slice_: int) -> float:
        """Direction the air moves toward over segment a-b in time slice
        slice_ (``time_slice``), in radians."""
        key = (a, b, slice_) if a < b else (b, a, slice_)
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
    power_w: Sequence[float],
    speed: float,
    segment_length_m: float,
    factors: Sequence[float],
) -> tuple[float, ...]:
    """Energy in Wh each drone of a swarm flying at speed m/s spends traversing
    a segment, one value per slot: the drone in slot j draws power_w[j]
    (``flight_power_w`` of its load) and flies at factors[j] (its row of
    ``slot_factors`` for the relative wind sector).

    Per slot, the power times the flight seconds, scaled by the factor.
    """
    seconds = segment_length_m / speed
    return tuple([p * seconds * f / 3600.0 for p, f in zip(power_w, factors)])


def slot_factors(swarm: Swarm, n_slots: int, config: EnergyModelConfig) -> tuple[tuple[float, ...], ...]:
    """Per relative wind sector, each of n_slots slots' formation factor times
    its position factor (``EnergyModelConfig.position_factor``: slots past the
    table take its last entry). The formation is the swarm's own, or the
    sector's ``best_formation`` if the swarm is flexible. A slot's factor
    depends only on its index, so the table of the first m slots is that of an
    m-slot swarm."""
    positions = [config.position_factor(slot) for slot in range(n_slots)]
    table = []
    for sector in range(WIND_SECTORS):
        formation = best_formation(sector, config) if swarm.flexible else swarm.formation
        factor = config.formation_factor(formation, sector)
        table.append(tuple(factor * position for position in positions))
    return tuple(table)


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


# a stop that charges nothing
NO_SERVICE = NodeService(0.0, 0.0, 0.0, 0.0)


def node_service_time(
    energies: Sequence[float],
    node: SkywayNode,
    target_energies: Sequence[float],
    partnership: Partnership,
    queue: int,
    config: EnergyModelConfig,
) -> NodeService:
    """Simulate one charging stop of the swarm at a node, each drone charging
    from the energy it holds to its target (``_stop``'s: one per drone, in
    [held, battery capacity]).

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
    charging = [d for held, target in zip(energies, target_energies) if (d := target - held) > 1e-12]
    if not charging:
        return NO_SERVICE

    ahead = partnership.queue_ahead(queue, node.station_owner)
    exogenous_wait = math.ceil(ahead / node.pad_count) * config.exogenous_service_s

    batch_makespan = 0.0
    for start in range(0, len(charging), node.pad_count):
        batch = charging[start : start + node.pad_count]
        batch_makespan += 3600.0 * max(batch) / config.charge_rate_w
    charge_s = 3600.0 * max(charging) / config.charge_rate_w
    wait_s = exogenous_wait + (batch_makespan - charge_s)

    energy_wh = total(charging)
    if node.station_owner == partnership.charging_provider_id:
        price = TIERS[partnership.tier].price_per_kwh
    else:
        price = config.non_partner_price_per_kwh
    cost = energy_wh / 1000.0 * price
    return NodeService(charge_s, wait_s, energy_wh, cost)


def execution_time_proxy(evaluations: int, swarm: Swarm, config: EnergyModelConfig) -> float:
    """Deterministic execution-time proxy: evaluation count times technique factors."""
    factor = 1.0
    if swarm.flexible:
        factor *= config.et_flexible_factor
    if swarm.dynamic:
        factor *= config.et_dynamic_factor
    return evaluations * factor
