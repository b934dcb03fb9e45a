"""Stage 2: per-provider weighted greedy composition of skyway services.

One provider's swarm is walked from the request source toward the destination.
At every node the swarm first checks whether it can fly the whole remaining
shortest path on its current charge; if so it commits to that path. Otherwise
it moves to the unvisited neighbour with the best weighted incremental QoS
value. Charging happens at the departure node whenever some drone cannot
afford the next leg: non-cooperative swarms then refill to full (and top up
opportunistically when passing their partner's uncongested stations), while
cooperative swarms buy only what the remaining route needs plus a margin.
Candidate scoring estimates its stops by the same rules, at the expected queue
length. A dynamic swarm splits once, at the first congested decision node, into
two sub-swarms that continue independently and must arrive within a bounded
time window.

Capacity: the swarm is one spec (battery, payload, speed, formation,
techniques) times its size, read from the provider wherever it is needed. Each
drone carries one package, heaviest first (``assign_packages`` refuses more
packages than drones and any package over the payload capacity), and only
loaded drones fly, each starting on a full battery. A sub-swarm holds one slot
per dispatched drone in four vectors: ``loads`` (never increasing along the
slots), and the energy each drone ``held``, ``consumed`` and ``purchased``.
No output reads ``purchased``; it is kept because it closes the energy ledger
(held = capacity - consumed + purchased) that the conservation tests check.
A split slices all four vectors and never folds back: each half's drone in
slot j is no heavier than the whole swarm's, so both halves can fly the legs
``viable_candidates`` checked for the whole swarm. Only the committed direct
path checks capacity in flight, since its later legs fall in later wind slices.

Loop-freedom: greedy moves (splits included) only go to unvisited nodes, so
they never revisit a node. The committed direct path follows the
shortest-path tree without regard to ``visited``, so it may pass through nodes
the swarm has already visited. Each sub-swarm path is thus a loop-free greedy
prefix followed by a loop-free suffix along the tree.

Reachability: a neighbour is a candidate only if the destination can still be
reached from it through unvisited nodes. Each neighbour is checked by a
best-first search toward the destination (keyed on the shortest-path distance)
that stops at the destination or at a node already proven alive in the same
step; every node a successful search explores is alive for the rest of that
step. A failed search has explored the neighbour's whole unvisited component,
which goes into the sub-swarm's dead set. A dead node stays dead for good,
because ``visited`` only grows; a split sibling inherits the set.

Evaluations: the execution-time QoS counts evaluation units, charged at three
sites only: ``_leg_info``, one per drone for every leg looked at;
``_price_stop``, one per drone for every charging stop priced, flown or
estimated; ``score_candidates``, one per candidate scored. Leg physics are
memoised per sub-swarm (keyed on the leg and the wind time slice, and reset
when a split slices the sub-swarm's slots), but a memo hit still charges its
units, so the counts do not depend on the memo.

All mutable state is confined to per-provider copies; network, configs and
seeds are shared read-only, so providers can compose in parallel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .config import CompositionConfig, EnergyModelConfig, Seeds, mix64
from .domain import FORMATIONS, DeliveryRequest, Provider, QosVector, assign_packages
from .energy import (
    NodeService,
    WindField,
    best_formation,
    execution_time_proxy,
    node_service_time,
    queue_length,
    relative_sector,
    segment_energy,
)
from .network import SkywayNetwork, shortest_path_tree, tree_path

_EPS = 1e-9


@dataclass
class SubSwarmState:
    """One (sub-)swarm walking the network; a provider starts with exactly one.

    Slot j of loads, held, consumed and purchased belongs to the same drone."""

    loads: tuple[float, ...]
    held: list[float]
    consumed: list[float]
    purchased: list[float]
    path: list[int]
    visited: set[int]
    travel_s: float = 0.0
    charge_s: float = 0.0
    wait_s: float = 0.0
    cost: float = 0.0
    success: bool | None = None
    # unvisited nodes from which the destination is unreachable through
    # unvisited nodes (see the module docstring)
    dead: set[int] = field(default_factory=set)
    # leg physics for the current slots, keyed on (a, b, wind time slice);
    # slicing the slots must reset it
    legs: dict[tuple[int, int, int], _Leg] = field(default_factory=dict)

    @property
    def delivery_time(self) -> float:
        return self.travel_s + self.charge_s + self.wait_s

    @property
    def current_node(self) -> int:
        return self.path[-1]


@dataclass
class CompositionContext:
    """Shared read-only inputs plus the evaluation counter for one composition."""

    network: SkywayNetwork
    request: DeliveryRequest
    provider: Provider
    energy: EnergyModelConfig
    comp: CompositionConfig
    wind: WindField
    congestion_seed: int
    dist_to_dest: Mapping[int, float]
    parent_to_dest: Mapping[int, int | None]
    evaluations: int = 0
    split_done: bool = False


@dataclass(frozen=True)
class _Leg:
    node: int
    length: float
    energies: tuple[float, ...]


@dataclass(frozen=True)
class CompositionOutcome:
    """Result of composing one provider for one request."""

    provider_id: int
    success: bool
    paths: tuple[tuple[int, ...], ...]  # node sequence per sub-swarm
    pqos: QosVector
    evaluations: int


def prepare_composition(
    provider: Provider,
    request: DeliveryRequest,
    network: SkywayNetwork,
    energy_config: EnergyModelConfig | None = None,
    seeds: Seeds | None = None,
    comp_config: CompositionConfig | None = None,
    dest_tree: tuple[Mapping[int, float], Mapping[int, int | None]] | None = None,
) -> tuple[SubSwarmState, CompositionContext]:
    """Build the initial sub-swarm (packages assigned) and composition context."""
    energy_config = energy_config or EnergyModelConfig()
    comp_config = comp_config or CompositionConfig()
    seeds = seeds or Seeds.from_master(0)
    for endpoint in (request.source, request.destination):
        if endpoint not in network.nodes:
            raise ValueError(f"request endpoint {endpoint} is not a network node")
    # one package per drone: drones without a package would fly empty, so only
    # the loaded ones are dispatched for the request
    loads = assign_packages(provider.swarm, request.packages)[: len(request.packages)]
    dist, parent = dest_tree if dest_tree is not None else shortest_path_tree(network, request.destination)
    ctx = CompositionContext(
        network=network,
        request=request,
        provider=provider,
        energy=energy_config,
        comp=comp_config,
        wind=WindField(seeds.wind, energy_config.wind_slice_s),
        congestion_seed=mix64(seeds.congestion, request.request_id),
        dist_to_dest=dist,
        parent_to_dest=parent,
    )
    n = len(loads)
    state = SubSwarmState(
        loads=loads,
        held=[provider.swarm.battery_capacity] * n,
        consumed=[0.0] * n,
        purchased=[0.0] * n,
        path=[request.source],
        visited={request.source},
    )
    return state, ctx


def _leg_info(state: SubSwarmState, a: int, b: int, ctx: CompositionContext) -> _Leg:
    """Physics of flying a -> b at the sub-swarm's current time; charges one
    evaluation per drone whether or not the leg comes from the memo."""
    ctx.evaluations += len(state.loads)
    key = (a, b, ctx.wind.time_slice(state.delivery_time))
    leg = state.legs.get(key)
    if leg is None:
        swarm = ctx.provider.swarm
        length = ctx.network.length(a, b)
        sector = relative_sector(ctx.wind.at(a, b, state.delivery_time), ctx.network.heading(a, b))
        formation = best_formation(sector, FORMATIONS, ctx.energy) if swarm.is_flexible else swarm.formation
        energies = tuple(
            segment_energy(load, swarm.speed, length, formation, sector, slot, ctx.energy)
            for slot, load in enumerate(state.loads)
        )
        leg = _Leg(node=b, length=length, energies=energies)
        state.legs[key] = leg
    return leg


def _leg_within_capacity(leg: _Leg, ctx: CompositionContext) -> bool:
    capacity = ctx.provider.swarm.battery_capacity
    return all(e <= capacity + _EPS for e in leg.energies)


def _must_charge(energies: Iterable[float], leg: _Leg) -> bool:
    """Whether some drone, holding the given energies, cannot afford the leg."""
    return any(p < e - _EPS for p, e in zip(energies, leg.energies))


def _tops_up(
    energies: Sequence[float],
    node_id: int,
    ctx: CompositionContext,
    queue: int | None = None,
) -> bool:
    """Whether drones holding the given energies top up on arriving at node_id.

    Only non-cooperative swarms do, at their partner's own stations and only
    when the queue (drawn, last, if None) lets their priority walk them
    straight onto a pad, so stops fall on priority pads instead of wherever
    the battery would run dry."""
    threshold = ctx.comp.opportunistic_charge_threshold
    swarm, partnership = ctx.provider.swarm, ctx.provider.partnership
    owner = ctx.network.node(node_id).station_owner
    if not (
        not swarm.is_cooperative
        and threshold > 0
        and node_id != ctx.request.destination
        and owner == partnership.charging_provider_id
        and any(p < threshold * swarm.battery_capacity for p in energies)
    ):
        return False
    if queue is None:
        queue = queue_length(ctx.congestion_seed, node_id, ctx.energy)
    return partnership.queue_ahead(queue, owner) == 0


def _charge_targets(
    loads: Sequence[float],
    energies: Sequence[float],
    leg: _Leg,
    ctx: CompositionContext,
    remaining_m: float | None,
) -> list[float]:
    """Per-drone charge targets before flying the leg, following the swarm's policy.

    Non-cooperative swarms refill to capacity. Cooperative swarms buy what the
    leg needs, or the remaining_m metres of route ahead if more, plus margin,
    capped at capacity; they stop roughly as rarely as everyone else but never
    carry a full tank across the finish line.
    """
    swarm = ctx.provider.swarm
    if not swarm.is_cooperative:
        return [swarm.battery_capacity] * len(energies)
    targets = []
    for load, held, need in zip(loads, energies, leg.energies):
        if remaining_m is not None:
            power_w = ctx.energy.base_power_w + ctx.energy.payload_power_coeff_w_per_kg * load
            need = max(need, power_w * (remaining_m / swarm.speed) / 3600.0)
        target = min(swarm.battery_capacity, need * (1.0 + ctx.energy.cooperative_margin))
        targets.append(max(held, target))
    return targets


def _price_stop(
    energies: Sequence[float],
    node_id: int,
    targets: Sequence[float],
    ctx: CompositionContext,
    queue: int | None = None,
) -> NodeService:
    """Price a charging stop at node_id (drawn queue if None); one evaluation per drone."""
    ctx.evaluations += len(energies)
    node, provider = ctx.network.node(node_id), ctx.provider
    return node_service_time(
        provider.swarm.battery_capacity, energies, node, targets, provider.partnership,
        ctx.congestion_seed, ctx.energy, queue,
    )


def _charge(state: SubSwarmState, leg: _Leg, ctx: CompositionContext, remaining_m: float | None) -> None:
    """Charge at the current node to the policy's targets for the leg and remaining_m."""
    targets = _charge_targets(state.loads, state.held, leg, ctx, remaining_m)
    service = _price_stop(state.held, state.current_node, targets, ctx)
    state.charge_s += service.charge_s
    state.wait_s += service.wait_s
    state.cost += service.cost
    for slot, target in enumerate(targets):
        bought = max(0.0, target - state.held[slot])
        if bought > 0:
            state.purchased[slot] += bought
            state.held[slot] = target


def _traverse(state: SubSwarmState, leg: _Leg, ctx: CompositionContext) -> None:
    """Charge as needed at the current node, fly the leg, then top up as the
    policy says. Every drone can fly the leg on a full battery."""
    if _must_charge(state.held, leg):
        _charge(state, leg, ctx, ctx.dist_to_dest.get(state.current_node))
    for slot, e in enumerate(leg.energies):
        state.held[slot] = max(0.0, state.held[slot] - e)
        state.consumed[slot] += e
    state.travel_s += leg.length / ctx.provider.swarm.speed
    state.cost += ctx.comp.operating_cost_per_km * leg.length / 1000.0
    state.path.append(leg.node)
    state.visited.add(leg.node)
    if _tops_up(state.held, leg.node, ctx):
        _charge(state, leg, ctx, None)


def _direct_path(state: SubSwarmState, ctx: CompositionContext) -> list[int] | None:
    """The shortest path from the current node to the destination if every
    drone can fly all of it on its current charge, with no charging stop;
    otherwise None."""
    if state.current_node not in ctx.dist_to_dest:
        return None
    path = tree_path(ctx.parent_to_dest, state.current_node)
    totals = [0.0] * len(state.loads)
    for a, b in zip(path, path[1:]):
        leg = _leg_info(state, a, b, ctx)
        for slot, e in enumerate(leg.energies):
            totals[slot] += e
            if totals[slot] > state.held[slot] + _EPS:
                return None
    return path


def _reaches_destination(start: int, state: SubSwarmState, ctx: CompositionContext, alive: set[int]) -> bool:
    """Whether the destination is reachable from the unvisited node start
    through unvisited nodes.

    Best-first search keyed on the distance to the destination; it stops as
    soon as it meets the destination or a node in alive. On success every
    explored node joins alive; on failure the explored set is start's whole
    unvisited component and joins the sub-swarm's dead set.
    """
    destination, dist = ctx.request.destination, ctx.dist_to_dest
    if start == destination or start in alive:
        return True
    explored = {start}
    frontier = [(dist.get(start, math.inf), start)]
    while frontier:
        _, node = heapq.heappop(frontier)
        for nbr, _length in ctx.network.neighbors(node):
            if nbr == destination or nbr in alive:
                alive |= explored
                return True
            if nbr not in explored and nbr not in state.visited:
                explored.add(nbr)
                heapq.heappush(frontier, (dist.get(nbr, math.inf), nbr))
    state.dead |= explored
    return False


def viable_candidates(state: SubSwarmState, ctx: CompositionContext) -> list[_Leg]:
    """Unvisited neighbours whose leg every drone can fly on a full battery and
    from which the destination remains reachable through unvisited nodes."""
    alive: set[int] = set()
    out = []
    for nbr, _length in ctx.network.neighbors(state.current_node):
        if nbr in state.visited or nbr in state.dead or not _reaches_destination(nbr, state, ctx, alive):
            continue
        leg = _leg_info(state, state.current_node, nbr, ctx)
        if _leg_within_capacity(leg, ctx):
            out.append(leg)
    return out


def _estimate_departure_service(state: SubSwarmState, leg: _Leg, ctx: CompositionContext) -> NodeService:
    """Exact prediction of the charge incurred at the current node to fly the leg."""
    if not _must_charge(state.held, leg):
        return NodeService(0.0, 0.0, 0.0, 0.0)
    targets = _charge_targets(state.loads, state.held, leg, ctx, ctx.dist_to_dest.get(state.current_node))
    return _price_stop(state.held, state.current_node, targets, ctx, ctx.energy.queue_draw_max // 2)


def _estimate_arrival_service(state: SubSwarmState, leg: _Leg, ctx: CompositionContext) -> NodeService:
    """Expected charging overhead at the candidate node.

    A stop is predicted there when the onward leg (approximated by the incoming
    one) would be unaffordable, or when the swarm would top up there. The
    estimate prices only what actually differs between stations, the queue
    wait (at the expected queue length) and the energy price; charging time
    itself is excluded because the total energy a route buys, and hence the
    time on pads, barely depends on where the stops fall. The destination
    never charges.
    """
    if leg.node == ctx.request.destination:
        return NodeService(0.0, 0.0, 0.0, 0.0)
    post = [max(0.0, p - e) for p, e in zip(state.held, leg.energies)]
    expected_q = ctx.energy.queue_draw_max // 2
    if not (_must_charge(post, leg) or _tops_up(post, leg.node, ctx, expected_q)):
        return NodeService(0.0, 0.0, 0.0, 0.0)
    targets = _charge_targets(state.loads, post, leg, ctx, None)
    service = _price_stop(post, leg.node, targets, ctx, expected_q)
    return NodeService(0.0, service.wait_s, service.energy_wh, service.cost)


def _oriented_normalize(values: Sequence[float]) -> list[float]:
    """Min-max normalize lower-is-better values so that higher means better."""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 1e-12:
        return [1.0] * len(values)
    return [(hi - v) / span for v in values]


def score_candidates(
    state: SubSwarmState, candidates: Sequence[_Leg], ctx: CompositionContext
) -> list[tuple[float, _Leg]]:
    """Weighted incremental QoS value per candidate, best first.

    For each candidate the perceived deltas are: delivery time (travel plus the
    departure charge this move forces plus the estimated charge at the candidate),
    flight energy, cost (operating cost plus charging cost) and a constant
    execution-time tick. Deltas are min-max normalized across the candidate set,
    oriented so higher is better, weighted by the consumer preferences, and a
    normalized remaining-distance criterion is mixed in with progress_weight.
    """
    if not candidates:
        return []
    dt_col, ec_col, cost_col, rem_col = [], [], [], []
    for leg in candidates:
        depart = _estimate_departure_service(state, leg, ctx)
        arrive = _estimate_arrival_service(state, leg, ctx)
        travel = leg.length / ctx.provider.swarm.speed
        dt_col.append(depart.charge_s + depart.wait_s + travel + arrive.charge_s + arrive.wait_s)
        ec_col.append(sum(leg.energies))
        cost_col.append(
            depart.cost + arrive.cost + ctx.comp.operating_cost_per_km * leg.length / 1000.0
        )
        rem_col.append(ctx.dist_to_dest.get(leg.node, float("inf")))
    ctx.evaluations += len(candidates)

    dt_hat = _oriented_normalize(dt_col)
    ec_hat = _oriented_normalize(ec_col)
    cost_hat = _oriented_normalize(cost_col)
    et_hat = [1.0] * len(candidates)  # the proxy tick is identical for every candidate
    rem_hat = _oriented_normalize(rem_col)

    weights = ctx.request.qos_weights
    pw = ctx.comp.progress_weight
    scored = []
    for i, leg in enumerate(candidates):
        qos_value = (
            weights["delivery_time"] * dt_hat[i]
            + weights["energy"] * ec_hat[i]
            + weights["cost"] * cost_hat[i]
            + weights["execution_time"] * et_hat[i]
        )
        value = (1.0 - pw) * qos_value + pw * rem_hat[i]
        scored.append((value, leg))
    scored.sort(key=lambda pair: (-pair[0], pair[1].node))
    return scored


def _split_subswarm(state: SubSwarmState) -> SubSwarmState:
    """Split the slots (drones with their packages) as evenly as possible;
    returns the sibling."""
    half = (len(state.loads) + 1) // 2
    sibling = SubSwarmState(
        loads=state.loads[half:],
        held=state.held[half:],
        consumed=state.consumed[half:],
        purchased=state.purchased[half:],
        path=list(state.path),
        visited=set(state.visited),
        travel_s=state.travel_s,
        charge_s=state.charge_s,
        wait_s=state.wait_s,
        cost=0.0,  # shared history cost stays with the first sub-swarm
        dead=set(state.dead),
    )
    state.loads, state.held = state.loads[:half], state.held[:half]
    state.consumed, state.purchased = state.consumed[:half], state.purchased[:half]
    state.legs = {}
    return sibling


def _run_subswarm(state: SubSwarmState, ctx: CompositionContext, subswarms: list[SubSwarmState]) -> None:
    destination = ctx.request.destination
    while True:
        node = state.current_node
        if node == destination:
            state.success = True
            return

        if (
            ctx.provider.swarm.is_dynamic
            and not ctx.split_done
            and len(state.loads) >= 2
            and ctx.network.node(node).pad_count < len(state.loads)
        ):
            candidates = viable_candidates(state, ctx)
            if len(candidates) >= 2:
                ranked = score_candidates(state, candidates, ctx)
                sibling = _split_subswarm(state)
                ctx.split_done = True
                _traverse(state, _leg_info(state, node, ranked[0][1].node, ctx), ctx)
                _traverse(sibling, _leg_info(sibling, node, ranked[1][1].node, ctx), ctx)
                subswarms.append(sibling)
                continue

        path = _direct_path(state, ctx)
        if path is not None:
            for a, b in zip(path, path[1:]):
                leg = _leg_info(state, a, b, ctx)
                if not _leg_within_capacity(leg, ctx):
                    state.success = False
                    return
                _traverse(state, leg, ctx)
            state.success = True
            return

        candidates = viable_candidates(state, ctx)
        if not candidates:
            state.success = False
            return
        _traverse(state, score_candidates(state, candidates, ctx)[0][1], ctx)


def fly(state: SubSwarmState, ctx: CompositionContext) -> list[SubSwarmState]:
    """Fly the initial sub-swarm, and the sibling a split makes, to the end;
    returns the finished sub-swarms, the initial one first."""
    if state.current_node not in ctx.dist_to_dest:
        state.success = False
    subswarms = [state]
    for sub in subswarms:  # a split appends the sibling, which flies next
        if sub.success is None:
            _run_subswarm(sub, ctx, subswarms)
    return subswarms


def compose(
    provider: Provider,
    request: DeliveryRequest,
    network: SkywayNetwork,
    energy_config: EnergyModelConfig | None = None,
    seeds: Seeds | None = None,
    comp_config: CompositionConfig | None = None,
    dest_tree: tuple[Mapping[int, float], Mapping[int, int | None]] | None = None,
) -> CompositionOutcome:
    """Compose the delivery path for one provider and accumulate its perceived QoS.

    Failure (no reachable unvisited neighbour, an infeasible leg, or sub-swarms
    missing the arrival window) is a normal outcome with success=False, not an
    error. The same provider, request, seeds and configs always produce a
    bitwise-identical outcome.
    """
    state, ctx = prepare_composition(
        provider, request, network, energy_config, seeds, comp_config, dest_tree
    )
    finished = fly(state, ctx)
    delivery_times = [s.delivery_time for s in finished]
    spread = max(delivery_times) - min(delivery_times)
    pqos = QosVector(
        delivery_time=max(delivery_times),
        energy=sum(e for s in finished for e in s.consumed),
        cost=sum(s.cost for s in finished),
        execution_time=execution_time_proxy(ctx.evaluations, provider.swarm.techniques, ctx.energy),
    )
    return CompositionOutcome(
        provider_id=provider.provider_id,
        success=all(s.success for s in finished) and spread <= ctx.comp.arrival_window_s,
        paths=tuple(tuple(s.path) for s in finished),
        pqos=pqos,
        evaluations=ctx.evaluations,
    )
