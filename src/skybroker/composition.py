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
drone carries one package, heaviest first (``assign_packages``, on a swarm
``filter_providers`` kept), and only loaded drones fly, each starting on a
full battery. A sub-swarm holds one slot per dispatched drone in four
vectors: ``loads`` (never increasing along the slots), and the energy each
drone ``held``, ``consumed`` and ``purchased``.
No output reads ``purchased``; it is kept because it closes the energy ledger
(held = capacity - consumed + purchased) that the conservation tests check.
Two tables, worked out at launch, give the leg physics: ``power_w``, the power
each slot's drone draws, and ``factors``, each slot's formation and position
factor per relative wind sector. A split slices the four vectors and the two
tables (a slot's factor depends on its index alone, so each half keeps a
prefix of every row) and never folds back: each half's drone in slot j is no
heavier than the whole swarm's, so both halves can fly the legs
``viable_candidates`` checked for the whole swarm. Only the committed direct
path checks capacity in flight, since its later legs fall in later wind slices.
The per-slot checks (``_leg_within_capacity``, ``_must_charge`` and the
threshold test of ``_tops_up``) are plain loops that stop at the first
deciding slot, with the answers ``all`` and ``any`` give, NaN included.

Loop-freedom: greedy moves (splits included) only go to nodes outside the
sub-swarm's ``closed`` set, which holds every visited node, so they never
revisit a node. Once the direct check passes, the greedy loop ends and a
second loop flies down the shortest-path tree, blind to ``closed``: the flight
may pass through nodes the swarm has already visited. Each sub-swarm path is
thus a loop-free greedy prefix followed by a loop-free suffix along the tree.

Reachability: a neighbour is a candidate only if the destination can still be
reached from it through unvisited nodes. ``_alive_open_neighbours`` decides
this for all of the current node's open neighbours at once: one breadth-first
walk through open nodes starts from each, the walks take one node each in
turn, and two walks that meet merge. A walk that runs out of nodes has
explored its whole open component. If that holds the destination, the walk is
alive; if not, the component is dead (the destination is out of its reach)
and joins ``closed`` for good, because the visited nodes only grow; a split
sibling inherits the set. When every other walk has merged or run out, the
last walk left is alive; if the destination's walk ran out first, the walks
left are dead and run until they run out too. That is exact on any node a
flight stands on: the source is in the tree, and every move goes to a live
candidate (a split's two halves included), so the current node was alive when
the flight reached it, and its next node toward the destination is an open
neighbour that is still alive. Every live neighbour lies in the destination's
open component, so their walks all merge into one, and every other walk is
dead. Moves and walks read the one closed set. That skips no live node: a dead
component never borders the component of a node that is not dead, so a walk
from such a node would never have entered it. Nor is a greedy step stranded:
each move goes to a node with a route to the destination through unvisited
nodes, whose next node is an open, alive neighbour at the next step. No
candidates means every alive neighbour's leg exceeds some drone's full
battery.

Evaluations: the execution-time QoS counts evaluation units, charged to three
counters of each sub-swarm: ``leg_units``, one per drone for every leg looked
at; ``stop_units``, one per drone for every charging stop ``_stop`` prices,
flown (behind the drawn queue) or estimated (behind the expected queue);
``score_units``, one per candidate ``score_candidates`` scores. The outcome
sums the three, as ints, over the finished sub-swarms. A leg is read in the
wind time slice of the sub-swarm's current time, so it depends only on the
slots, the leg and that slice. The direct check and ``viable_candidates``
work out that slice once per call, since the sub-swarm's time stands still
while they look; the committed flight and a split's two moves work it out per
leg, in ``_leg_at``, because the time moves between their legs. The direct
check and the committed flight each walk down the tree and look at a leg only
on reaching it: the check at the current time, up to and including the first
leg some drone cannot afford, and the flight just before flying the leg, at
the time the sub-swarm reaches it. Leg physics are memoised per sub-swarm in
``legs``, keyed on the leg and the wind time slice, and reset when a split
slices the sub-swarm's slots. Each site reads the memo itself; only a miss
calls ``_compute_leg``, which makes one ``segment_energy`` call from the
sub-swarm's per-slot ``power_w`` and per-sector ``factors`` tables (sliced
with the slots at a split). A memo hit still charges its units, so the
counts do not depend on the memo.

Every provider composed for one request reads the same ``RequestContext``:
network, request, configs, destination tree, congestion seed and one
``WindField``. The field's memo is the context's only mutable part, and it
holds pure functions of (seed, segment, time slice), so the order in which
providers compose changes no outcome. All other mutable state lives on the
provider's own sub-swarms. The benchmark's tracer counts calls by replacing
this module's ``segment_energy`` and ``node_service_time``: call them by name.
Its ``segment_energy`` count is the legs computed, not the legs looked at, and
it reads the evaluations from the outcomes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import CompositionConfig, EnergyModelConfig, Seeds, mix64
from .domain import DeliveryRequest, Provider, QosVector, assign_packages, normalize_lower_better, total
from .energy import (
    ENERGY_EPS_WH,
    NO_SERVICE,
    NodeService,
    WindField,
    execution_time_proxy,
    flight_power_w,
    node_service_time,
    queue_length,
    relative_sector,
    segment_energy,
    slot_factors,
)
from .network import SkywayNetwork

@dataclass
class SubSwarmState:
    """One (sub-)swarm walking the network; a provider starts with exactly one.

    Slot j of loads, held, consumed and purchased belongs to the same drone."""

    provider: Provider  # shared with a split sibling
    loads: tuple[float, ...]
    # per slot, the power its drone draws (``flight_power_w`` of its load)
    power_w: tuple[float, ...]
    # per relative wind sector, each slot's factor (``slot_factors``)
    factors: tuple[tuple[float, ...], ...]
    held: list[float]
    consumed: list[float]
    purchased: list[float]
    path: list[int]
    # visited nodes, and unvisited ones from which the destination is
    # unreachable through unvisited nodes (see the module docstring)
    closed: set[int]
    travel_s: float = 0.0
    charge_s: float = 0.0
    wait_s: float = 0.0
    cost: float = 0.0
    # evaluation units charged at each of the three sites (see the module
    # docstring): legs looked at, stops priced, candidates scored
    leg_units: int = 0
    stop_units: int = 0
    score_units: int = 0
    # leg physics for the current slots, keyed on (a, b, wind time slice);
    # slicing the slots must reset it
    legs: dict[tuple[int, int, int], _Leg] = field(default_factory=dict)

    @property
    def evaluations(self) -> int:
        return self.leg_units + self.stop_units + self.score_units

    @property
    def delivery_time(self) -> float:
        return self.travel_s + self.charge_s + self.wait_s

    @property
    def current_node(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class RequestContext:
    """Read-only inputs shared by every provider composed for one request."""

    network: SkywayNetwork
    request: DeliveryRequest
    energy: EnergyModelConfig
    comp: CompositionConfig
    wind: WindField
    congestion_seed: int
    dist_to_dest: Mapping[int, float]
    parent_to_dest: Mapping[int, int | None]


def request_context(
    network: SkywayNetwork,
    request: DeliveryRequest,
    energy: EnergyModelConfig,
    comp: CompositionConfig,
    seeds: Seeds,
    dest_tree: tuple[Mapping[int, float], Mapping[int, int | None]],
) -> RequestContext:
    """The context of one request, given the shortest-path tree toward its
    destination (``shortest_path_tree``), whose endpoints are network nodes."""
    dist, parent = dest_tree
    return RequestContext(
        network=network,
        request=request,
        energy=energy,
        comp=comp,
        wind=WindField(seeds.wind, energy.wind_slice_s),
        congestion_seed=mix64(seeds.congestion, request.request_id),
        dist_to_dest=dist,
        parent_to_dest=parent,
    )


class _Leg(NamedTuple):
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


def _launch(provider: Provider, ctx: RequestContext) -> SubSwarmState:
    """The provider's initial sub-swarm at the request source: one drone per
    package, each on a full battery (drones without a package would fly
    empty, so only the loaded ones are dispatched)."""
    loads = assign_packages(provider.swarm, ctx.request.packages)
    n = len(loads)
    return SubSwarmState(
        provider=provider,
        loads=loads,
        power_w=tuple(flight_power_w(load, ctx.energy) for load in loads),
        factors=slot_factors(provider.swarm, n, ctx.energy),
        held=[provider.swarm.battery_capacity] * n,
        consumed=[0.0] * n,
        purchased=[0.0] * n,
        path=[ctx.request.source],
        closed={ctx.request.source},
    )


def _compute_leg(state: SubSwarmState, a: int, b: int, slice_: int, ctx: RequestContext) -> _Leg:
    """Physics of flying a -> b in wind time slice slice_, stored in the
    sub-swarm's memo; the one place a leg is computed. Charges nothing: each
    caller charges the legs it looks at, memo hits included."""
    length = ctx.network.length(a, b)
    sector = relative_sector(ctx.wind.at(a, b, slice_), ctx.network.heading(a, b))
    energies = segment_energy(state.power_w, state.provider.swarm.speed, length, state.factors[sector])
    leg = state.legs[(a, b, slice_)] = _Leg(b, length, energies)
    return leg


def _leg_at(state: SubSwarmState, a: int, b: int, ctx: RequestContext) -> _Leg:
    """Physics of flying a -> b at the sub-swarm's current time, in the wind
    time slice that time falls in; charges one evaluation per drone whether or
    not the leg comes from the memo."""
    state.leg_units += len(state.loads)
    slice_ = ctx.wind.time_slice(state.delivery_time)
    return state.legs.get((a, b, slice_)) or _compute_leg(state, a, b, slice_, ctx)


def _leg_within_capacity(leg: _Leg, state: SubSwarmState) -> bool:
    limit = state.provider.swarm.battery_capacity + ENERGY_EPS_WH
    for e in leg.energies:
        if not e <= limit:  # a NaN energy fails too
            return False
    return True


def _must_charge(energies: Iterable[float], leg: _Leg) -> bool:
    """Whether some drone, holding the given energies, cannot afford the leg."""
    for p, e in zip(energies, leg.energies):
        if p < e - ENERGY_EPS_WH:
            return True
    return False


def _tops_up(
    state: SubSwarmState,
    energies: Sequence[float],
    node_id: int,
    ctx: RequestContext,
    queue: int | None = None,
) -> bool:
    """Whether drones holding the given energies top up on arriving at node_id.

    Only non-cooperative swarms do, at their partner's own stations and only
    when the queue (drawn, last, if None) lets their priority walk them
    straight onto a pad, so stops fall on priority pads instead of wherever
    the battery would run dry. A zero threshold never tops up: held energies
    are never negative."""
    threshold = ctx.comp.opportunistic_charge_threshold
    swarm, partnership = state.provider.swarm, state.provider.partnership
    owner = ctx.network.node(node_id).station_owner
    if swarm.cooperative or node_id == ctx.request.destination or owner != partnership.charging_provider_id:
        return False
    floor = threshold * swarm.battery_capacity
    for p in energies:
        if p < floor:
            break
    else:
        return False  # no drone is below the threshold
    if queue is None:
        queue = queue_length(ctx.congestion_seed, node_id, ctx.energy)
    return partnership.queue_ahead(queue, owner) == 0


def _stop(
    state: SubSwarmState,
    energies: Sequence[float],
    node_id: int,
    leg: _Leg,
    ctx: RequestContext,
    remaining_m: float | None,
    queue: int,
) -> tuple[list[float], NodeService]:
    """A charging stop at node_id, by drones holding the given energies, before
    flying the leg: the per-drone targets the swarm's policy charges to, and
    the stop's price behind the given exogenous queue; one evaluation per drone.

    Non-cooperative swarms refill to capacity. Cooperative swarms buy what the
    leg needs, or the remaining_m metres ahead if more (None on a top-up or an
    arrival estimate), plus margin, capped at capacity; they stop roughly as
    rarely as everyone else but never carry a full tank across the finish line.
    """
    state.stop_units += len(energies)
    swarm, config = state.provider.swarm, ctx.energy
    if swarm.cooperative:
        targets = []
        for power_w, held, need in zip(state.power_w, energies, leg.energies):
            if remaining_m is not None:
                need = max(need, power_w * (remaining_m / swarm.speed) / 3600.0)
            targets.append(max(held, min(swarm.battery_capacity, need * (1.0 + config.cooperative_margin))))
    else:
        targets = [swarm.battery_capacity] * len(energies)
    node, partnership = ctx.network.node(node_id), state.provider.partnership
    return targets, node_service_time(energies, node, targets, partnership, queue, config)


def _charge(state: SubSwarmState, leg: _Leg, ctx: RequestContext, remaining_m: float | None) -> None:
    """Charge at the current node, behind its drawn queue, to the policy's
    targets for the leg and remaining_m. A target is never below the held
    energy."""
    queue = queue_length(ctx.congestion_seed, state.current_node, ctx.energy)
    targets, service = _stop(state, state.held, state.current_node, leg, ctx, remaining_m, queue)
    state.charge_s += service.charge_s
    state.wait_s += service.wait_s
    state.cost += service.cost
    for slot, target in enumerate(targets):
        state.purchased[slot] += target - state.held[slot]
        state.held[slot] = target


def _traverse(state: SubSwarmState, leg: _Leg, ctx: RequestContext) -> None:
    """Charge as needed at the current node, fly the leg, then top up as the
    policy says. Every drone can fly the leg on a full battery."""
    if _must_charge(state.held, leg):
        _charge(state, leg, ctx, ctx.dist_to_dest[state.current_node])
    for slot, e in enumerate(leg.energies):
        state.held[slot] = max(0.0, state.held[slot] - e)
        state.consumed[slot] += e
    state.travel_s += leg.length / state.provider.swarm.speed
    state.cost += ctx.comp.operating_cost_per_km * leg.length / 1000.0
    state.path.append(leg.node)
    state.closed.add(leg.node)
    if _tops_up(state, state.held, leg.node, ctx):
        _charge(state, leg, ctx, None)


def _fits_direct(state: SubSwarmState, ctx: RequestContext) -> bool:
    """Whether every drone can fly the rest of the tree path on its current
    charge; the walk stops at the first leg some drone cannot afford. The
    sub-swarm's time stands still during the check, so every leg is looked
    at in one wind slice, worked out once."""
    slice_, legs, parent = ctx.wind.time_slice(state.delivery_time), state.legs, ctx.parent_to_dest
    totals = [0.0] * len(state.loads)
    limits = [held + ENERGY_EPS_WH for held in state.held]
    looked = 0
    a, b = state.current_node, parent[state.current_node]
    while b is not None:
        looked += 1
        leg = legs.get((a, b, slice_)) or _compute_leg(state, a, b, slice_, ctx)
        for slot, e in enumerate(leg.energies):
            totals[slot] += e
            if totals[slot] > limits[slot]:
                state.leg_units += len(totals) * looked
                return False
        a, b = b, parent[b]
    state.leg_units += len(totals) * looked
    return True


def _alive_open_neighbours(state: SubSwarmState, ctx: RequestContext) -> list[int]:
    """The current node's open neighbours, in adjacency order, from which the
    destination can be reached through open nodes, for the current node of a
    flight; every dead component that borders the node joins ``closed``. One
    breadth-first walk per open neighbour, in lockstep, merging where they
    meet (see the module docstring)."""
    closed, destination = state.closed, ctx.request.destination
    starts = [nbr for nbr, _length in ctx.network.neighbors(state.current_node) if nbr not in closed]
    # open node -> the (members, queue) walk that reached it
    owner = {start: ({start}, deque([start])) for start in starts}
    turns = deque(owner.values())
    # walks neither merged nor run out, and how many of them may stay: the
    # last one is alive, unless the destination's walk ran out first
    walks, last = len(turns), 1
    while walks > last:
        walk = turns.popleft()
        members, queue = walk
        if not queue:
            continue  # merged into another walk
        for nbr, _length in ctx.network.neighbors(queue.popleft()):
            if nbr in closed:
                continue
            other = owner.get(nbr)
            if other is None:
                owner[nbr] = walk
                members.add(nbr)
                queue.append(nbr)
            elif other is not walk:
                other_members, other_queue = other
                for node in other_members:
                    owner[node] = walk
                members |= other_members
                queue.extend(other_queue)
                other_queue.clear()
                walks -= 1
        if queue:
            turns.append(walk)
        else:
            walks -= 1
            if destination in members:
                last = 0
            else:
                closed |= members
    return [start for start in starts if start not in closed]


def viable_candidates(state: SubSwarmState, ctx: RequestContext) -> list[_Leg]:
    """Unvisited neighbours whose leg every drone can fly on a full battery and
    from which the destination remains reachable through unvisited nodes, for
    the current node of a flight (``_alive_open_neighbours``)."""
    here, slice_, legs = state.current_node, ctx.wind.time_slice(state.delivery_time), state.legs
    alive = _alive_open_neighbours(state, ctx)
    state.leg_units += len(state.loads) * len(alive)
    out = []
    for nbr in alive:
        leg = legs.get((here, nbr, slice_)) or _compute_leg(state, here, nbr, slice_, ctx)
        if _leg_within_capacity(leg, state):
            out.append(leg)
    return out


def _estimate_departure_service(state: SubSwarmState, leg: _Leg, ctx: RequestContext) -> NodeService:
    """The charge flying the leg forces at the current node, as ``_traverse``
    would pay it but behind the expected queue length, not the drawn one."""
    if not _must_charge(state.held, leg):
        return NO_SERVICE
    remaining_m = ctx.dist_to_dest[state.current_node]
    return _stop(state, state.held, state.current_node, leg, ctx, remaining_m, ctx.energy.queue_draw_max // 2)[1]


def _estimate_arrival_service(state: SubSwarmState, leg: _Leg, ctx: RequestContext) -> NodeService:
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
        return NO_SERVICE
    post = [max(0.0, p - e) for p, e in zip(state.held, leg.energies)]
    expected_q = ctx.energy.queue_draw_max // 2
    if not (_must_charge(post, leg) or _tops_up(state, post, leg.node, ctx, expected_q)):
        return NO_SERVICE
    _targets, service = _stop(state, post, leg.node, leg, ctx, None, expected_q)
    return NodeService(0.0, service.wait_s, service.energy_wh, service.cost)


def score_candidates(
    state: SubSwarmState, candidates: Sequence[_Leg], ctx: RequestContext
) -> list[tuple[float, _Leg]]:
    """Weighted incremental QoS value per candidate, best first.

    For each candidate the perceived deltas are: delivery time (travel plus the
    departure charge this move forces plus the estimated charge at the candidate),
    flight energy, cost (operating cost plus charging cost) and a constant
    execution-time tick. Deltas are min-max normalized across the candidate set,
    oriented so higher is better, weighted by the consumer preferences, and a
    normalized remaining-distance criterion is mixed in with progress_weight.
    """
    dt_col, ec_col, cost_col, rem_col = [], [], [], []
    for leg in candidates:
        depart = _estimate_departure_service(state, leg, ctx)
        arrive = _estimate_arrival_service(state, leg, ctx)
        travel = leg.length / state.provider.swarm.speed
        dt_col.append(depart.charge_s + depart.wait_s + travel + arrive.charge_s + arrive.wait_s)
        ec_col.append(total(leg.energies))
        cost_col.append(
            depart.cost + arrive.cost + ctx.comp.operating_cost_per_km * leg.length / 1000.0
        )
        rem_col.append(ctx.dist_to_dest[leg.node])
    state.score_units += len(candidates)

    dt_hat = normalize_lower_better(dt_col)
    ec_hat = normalize_lower_better(ec_col)
    cost_hat = normalize_lower_better(cost_col)
    rem_hat = normalize_lower_better(rem_col)

    weights = ctx.request.qos_weights
    pw = ctx.comp.progress_weight
    scored = []
    for i, leg in enumerate(candidates):
        qos_value = (
            weights["delivery_time"] * dt_hat[i]
            + weights["energy"] * ec_hat[i]
            + weights["cost"] * cost_hat[i]
            + weights["execution_time"]  # the same tick for every candidate normalises to 1.0
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
        provider=state.provider,
        loads=state.loads[half:],
        power_w=state.power_w[half:],
        factors=tuple(row[: len(state.loads) - half] for row in state.factors),  # slot indices restart at 0
        held=state.held[half:],
        consumed=state.consumed[half:],
        purchased=state.purchased[half:],
        path=list(state.path),
        closed=set(state.closed),
        travel_s=state.travel_s,
        charge_s=state.charge_s,
        wait_s=state.wait_s,
        cost=0.0,  # shared history cost stays with the first sub-swarm
    )
    state.loads, state.held = state.loads[:half], state.held[:half]
    state.power_w, state.factors = state.power_w[:half], tuple(row[:half] for row in state.factors)
    state.consumed, state.purchased = state.consumed[:half], state.purchased[:half]
    state.legs = {}
    return sibling


def _run_subswarm(state: SubSwarmState, ctx: RequestContext, subswarms: list[SubSwarmState]) -> bool:
    """Fly on from a node the tree holds (``fly`` checks the source, and every
    later node was a live candidate): greedily until the rest of the tree path
    fits the current charge, then down the tree; returns whether it arrived."""
    while state.current_node != ctx.request.destination:
        node = state.current_node
        if (
            state.provider.swarm.dynamic
            and len(subswarms) == 1  # a swarm splits at most once
            and ctx.network.node(node).pad_count < len(state.loads)
        ):
            candidates = viable_candidates(state, ctx)
            if len(candidates) >= 2:
                ranked = score_candidates(state, candidates, ctx)
                sibling = _split_subswarm(state)
                _traverse(state, _leg_at(state, node, ranked[0][1].node, ctx), ctx)
                _traverse(sibling, _leg_at(sibling, node, ranked[1][1].node, ctx), ctx)
                subswarms.append(sibling)
                continue

        if _fits_direct(state, ctx):
            break
        candidates = viable_candidates(state, ctx)
        if not candidates:
            return False
        _traverse(state, score_candidates(state, candidates, ctx)[0][1], ctx)

    while state.current_node != ctx.request.destination:
        node = state.current_node
        leg = _leg_at(state, node, ctx.parent_to_dest[node], ctx)
        if not _leg_within_capacity(leg, state):
            return False
        _traverse(state, leg, ctx)
    return True


def fly(state: SubSwarmState, ctx: RequestContext) -> tuple[list[SubSwarmState], bool]:
    """Fly the initial sub-swarm, then the sibling a split makes, each to the
    end even if the other failed; returns the finished sub-swarms, the initial
    one first, and whether all arrived. A source off the tree never flies."""
    if state.current_node not in ctx.dist_to_dest:
        return [state], False
    subswarms, arrived = [state], True
    for sub in subswarms:  # a split appends the sibling, which flies next
        arrived &= _run_subswarm(sub, ctx, subswarms)
    return subswarms, arrived


def compose(provider: Provider, ctx: RequestContext) -> CompositionOutcome:
    """Compose the delivery path for one provider and accumulate its perceived QoS.

    Failure (a source the tree does not hold, no neighbour whose leg fits a
    full battery, a committed leg beyond a full battery, or sub-swarms missing
    the arrival window) is a normal outcome with success=False, not an error.
    The same provider and request context always produce a bitwise-identical
    outcome, whichever providers composed over the context before.
    """
    finished, arrived = fly(_launch(provider, ctx), ctx)
    delivery_times = [s.delivery_time for s in finished]
    spread = max(delivery_times) - min(delivery_times)
    evaluations = total(s.evaluations for s in finished)
    pqos = QosVector(
        delivery_time=max(delivery_times),
        energy=total(e for s in finished for e in s.consumed),
        cost=total(s.cost for s in finished),
        execution_time=execution_time_proxy(evaluations, provider.swarm, ctx.energy),
    )
    return CompositionOutcome(
        provider_id=provider.provider_id,
        success=arrived and spread <= ctx.comp.arrival_window_s,
        paths=tuple(tuple(s.path) for s in finished),
        pqos=pqos,
        evaluations=evaluations,
    )
