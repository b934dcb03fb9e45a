import functools
import heapq
import itertools
import random
import runpy
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest

from skybroker import composition, harness, pruning
from skybroker.config import CompositionConfig, EnergyModelConfig, Seeds
from skybroker.domain import QOS_METRICS, Formation, Partnership, Provider, Swarm, generate_scenario
from skybroker.energy import ENERGY_EPS_WH, WindField, best_formation, flight_power_w, queue_length, relative_sector
from skybroker.harness import ExperimentConfig, ExperimentResult, build_network, run_experiment
from skybroker.network import SkywayNetwork, SkywayNode, build_region_grid, shortest_path_tree, synthetic_network
from skybroker.pruning import filter_providers
from skybroker.recommend import Ballot

BENCH = Path(__file__).resolve().parent.parent / "brokerbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]


def unit_energy_config(**overrides) -> EnergyModelConfig:
    """Energy model with every formation/position factor pinned to 1 and no
    exogenous congestion, so tests can do exact hand arithmetic."""
    defaults = dict(
        formation_factors={f: (1.0,) * 8 for f in Formation},
        position_factors=(1.0,),
        queue_draw_max=0,
    )
    defaults.update(overrides)
    return EnergyModelConfig(**defaults)


def default_network(seed, n_nodes):
    """The synthetic network of n_nodes that the experiment config's default
    charging companies and area give for seed."""
    cfg = ExperimentConfig()
    return synthetic_network(seed, n_nodes, cfg.charging_companies, cfg.area_m)


def network_to_streams(network: SkywayNetwork) -> tuple[str, str, str]:
    """Render a network back into the (edge list, coords, stations) text form."""
    edges = "\n".join(f"{a} {b}" for a, b in network.edges()) + "\n"
    ordered = sorted(network.nodes.values(), key=lambda n: n.node_id)
    coords = "\n".join(f"{n.node_id} {n.x!r} {n.y!r}" for n in ordered) + "\n"
    stations = "\n".join(f"{n.node_id} {n.station_owner} {n.pad_count}" for n in ordered) + "\n"
    return edges, coords, stations


def line_network(lengths, owners=None, pads=None) -> SkywayNetwork:
    """Nodes 0..n on the x axis, consecutive segments of the given lengths."""
    n = len(lengths) + 1
    owners = owners or [1] * n
    pads = pads or [4] * n
    xs = [0.0]
    for length in lengths:
        xs.append(xs[-1] + length)
    nodes = [SkywayNode(i, xs[i], 0.0, owners[i], pads[i]) for i in range(n)]
    return SkywayNetwork(nodes, [(i, i + 1) for i in range(n - 1)])


def simple_provider(
    provider_id=1,
    n_drones=1,
    battery=1000.0,
    payload_cap=3.0,
    speed=10.0,
    dynamic=False,
    flexible=False,
    cooperative=False,
    formation=Formation.VEE,
    charging_provider=1,
    tier="gold",
) -> Provider:
    return Provider(
        provider_id=provider_id,
        swarm=Swarm(
            size=n_drones,
            battery_capacity=battery,
            payload_capacity=payload_cap,
            speed=speed,
            dynamic=dynamic,
            flexible=flexible,
            cooperative=cooperative,
            formation=formation,
        ),
        partnership=Partnership(charging_provider, tier),
    )


def make_context(network, request, energy=None, seeds=None, comp=None, dest_tree=None):
    """composition.request_context with test defaults: the default energy and
    composition configs, master seed 0 and the destination tree computed here."""
    return composition.request_context(
        network,
        request,
        energy or EnergyModelConfig(),
        comp or CompositionConfig(),
        seeds or Seeds.from_master(0),
        dest_tree or shortest_path_tree(network, request.destination),
    )


def compose_flown(provider, ctx):
    """compose's outcome together with the finished sub-swarms it was built from."""
    flown = []
    fly = composition.fly

    def record(state, ctx):
        finished, arrived = fly(state, ctx)
        flown.extend(finished)
        return flown, arrived

    with mock.patch.object(composition, "fly", record):
        return composition.compose(provider, ctx), flown


def check_flown(provider, comp_config, out, flown):
    """Energy conservation and the outcome's sums over the finished
    sub-swarms: every drone starts on a full battery, so it holds its capacity
    less what it consumed plus what it purchased."""
    capacity = provider.swarm.battery_capacity
    for sub in flown:
        for held, consumed, purchased in zip(sub.held, sub.consumed, sub.purchased, strict=True):
            assert held >= 0
            assert abs(held - (capacity - consumed + purchased)) <= 1e-9 * capacity
    assert out.pqos.energy == sum(e for sub in flown for e in sub.consumed)
    assert out.pqos.delivery_time == max(sub.travel_s + sub.charge_s + sub.wait_s for sub in flown)
    if out.success:
        times = [sub.delivery_time for sub in flown]
        assert max(times) - min(times) <= comp_config.arrival_window_s


def composable_requests(cfg, seeds=None):
    """(request, feasible providers, request context) for every request of
    cfg's scenario that some provider can carry. As in harness stage 2, the
    request's providers share one context over cfg's network, energy and
    composition configs and the seeds (cfg.seed's unless given)."""
    network = build_network(cfg)
    providers, requests = generate_scenario(
        cfg.seed, network, cfg.n_providers, cfg.n_requests, cfg.limits, cfg.ranges
    )
    seeds = seeds or Seeds.from_master(cfg.seed)
    for request in requests:
        feasible = filter_providers(providers, request)
        if feasible:
            dest_tree = shortest_path_tree(network, request.destination)
            yield request, feasible, composition.request_context(
                network, request, cfg.energy, cfg.composition, seeds, dest_tree
            )


def tree_path(parent, start):
    """Path oracle: parent pointers walked from start to the tree root
    (inclusive)."""
    path = [start]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def alive_by_full_dfs(network, visited, destination):
    """Reachability oracle: unvisited nodes from which the destination can be
    reached through unvisited nodes, by one DFS over the whole graph from the
    destination."""
    seen = {destination}
    stack = [destination]
    while stack:
        node = stack.pop()
        for nbr, _ in network.neighbors(node):
            if nbr not in seen and nbr not in visited:
                seen.add(nbr)
                stack.append(nbr)
    return seen


def brute_k_nearest(queries, targets, k):
    """Nearest-neighbour oracle: for each query, the k smallest (squared
    distance, id) keys over every target other than itself."""

    def d2(a, b):
        (xa, ya), (xb, yb) = queries[a], targets[b]
        return (xa - xb) ** 2 + (ya - yb) ** 2

    return {nid: heapq.nsmallest(k, ((d2(nid, other), other) for other in targets if other != nid)) for nid in queries}


def brute_stitches(components, positions):
    """Stitching oracle: the edges that stitch the other components one by one
    onto the first, each time through the closest cross pair (a, b), a in the
    first, by (squared distance, a, b) over every cross pair. Grows the first
    component."""

    def d2(a, b):
        (xa, ya), (xb, yb) = positions[a], positions[b]
        return (xa - xb) ** 2 + (ya - yb) ** 2

    base, *rest = components
    edges = []
    while rest:
        _, a, b = min((d2(a, b), a, b) for a in base for comp in rest for b in comp)
        base |= rest.pop(next(i for i, comp in enumerate(rest) if b in comp))
        edges.append((a, b))
    return edges


MASK64 = (1 << 64) - 1


def reference_mix64(*parts):
    """Mixer oracle: splitmix64 steps that reduce each part mod 2**64 before
    adding it, where ``mix64`` leaves that to the mask after the add."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x + (int(p) & MASK64)) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        x ^= x >> 31
    return x


def oracle_leg_within_capacity(leg, state):
    """Capacity oracle: every drone can fly the leg on a full battery."""
    capacity = state.provider.swarm.battery_capacity
    return all(e <= capacity + ENERGY_EPS_WH for e in leg.energies)


def oracle_must_charge(energies, leg):
    """Charge oracle: some drone, holding the given energies, cannot afford the leg."""
    return any(p < e - ENERGY_EPS_WH for p, e in zip(energies, leg.energies))


def oracle_tops_up(state, energies, node_id, ctx, queue):
    """Top-up oracle: ``composition._tops_up`` as one condition, with the
    threshold test an ``any`` over the drones."""
    threshold = ctx.comp.opportunistic_charge_threshold
    swarm, partnership = state.provider.swarm, state.provider.partnership
    owner = ctx.network.nodes[node_id].station_owner
    if not (
        not swarm.cooperative
        and node_id != ctx.request.destination
        and owner == partnership.charging_provider_id
        and any(p < threshold * swarm.battery_capacity for p in energies)
    ):
        return False
    if queue is None:
        queue = queue_length(ctx.congestion_seed, node_id, ctx.energy)
    return partnership.queue_ahead(queue, owner) == 0


def oracle_segment_energy(payload_kg, speed, segment_length_m, formation, wind_sector, slot_index, config):
    """Energy oracle: the Wh one drone, carrying payload_kg at speed m/s in
    slot slot_index of the formation, spends traversing a segment, by the
    scalar per-drone formula."""
    power_w = flight_power_w(payload_kg, config)
    seconds = segment_length_m / speed
    factor = config.formation_factors[formation][wind_sector] * config.position_factor(slot_index)
    return power_w * seconds * factor / 3600.0


def fresh_leg(state, a, b, ctx):
    """Leg physics of a -> b at the sub-swarm's current time, computed from
    scratch drone by drone with a wind field that has never drawn before;
    charges no evaluation."""
    wind = WindField(ctx.wind.seed, ctx.wind.slice_s).at(a, b, ctx.wind.time_slice(state.delivery_time))
    length = ctx.network.length(a, b)
    sector = relative_sector(wind, ctx.network.heading(a, b))
    swarm = state.provider.swarm
    formation = best_formation(sector, ctx.energy) if swarm.flexible else swarm.formation
    energies = tuple(
        oracle_segment_energy(load, swarm.speed, length, formation, sector, slot, ctx.energy)
        for slot, load in enumerate(state.loads)
    )
    return composition._Leg(node=b, length=length, energies=energies)


@dataclass
class CandidateAudit:
    """viable_candidates calls checked against the oracles, and each call that
    disagreed: (provider id, request id, path, candidates, expected, alive
    nodes closed without a visit). stranded counts the calls made where no
    unvisited neighbour is alive."""

    checked: int = 0
    mismatches: list = field(default_factory=list)
    stranded: int = 0


def audited(viable_candidates, audit):
    """viable_candidates, with each call's result checked against the full DFS
    and a from-scratch capacity test: the candidates, in adjacency order, are
    the unvisited neighbours the DFS finds alive whose leg every drone can fly
    on a full battery, and the closed set holds no alive node it did not
    visit. A call with no unvisited neighbour the DFS finds alive counts as
    stranded. The check charges no evaluation and changes no state. About half
    the calls of a battery seed repeat a recent DFS, so the last results are
    kept."""
    alive_by_dfs = functools.lru_cache(maxsize=1024)(alive_by_full_dfs)

    def checked(state, ctx):
        legs = viable_candidates(state, ctx)
        got = [leg.node for leg in legs]
        visited, here = frozenset(state.path), state.current_node
        alive_by_oracle = alive_by_dfs(ctx.network, visited, ctx.request.destination)
        capacity = state.provider.swarm.battery_capacity
        open_alive = [nbr for nbr, _ in ctx.network.neighbors(here) if nbr not in visited and nbr in alive_by_oracle]
        expected = [
            nbr
            for nbr in open_alive
            if all(e <= capacity + ENERGY_EPS_WH for e in fresh_leg(state, here, nbr, ctx).energies)
        ]
        wrongly_closed = (state.closed - visited) & alive_by_oracle
        audit.checked += 1
        audit.stranded += not open_alive
        if got != expected or wrongly_closed:
            audit.mismatches.append(
                (state.provider.provider_id, ctx.request.request_id, list(state.path), got, expected, wrongly_closed)
            )
        return legs

    return checked


def run_recorded(cfg):
    """run_experiment(cfg), in the order the harness composes them
    (provider, context, outcome, finished sub-swarms) for every composition,
    and the audit of every viable_candidates call (see ``audited``)."""
    compositions, audit = [], CandidateAudit()

    def recording(provider, ctx):
        out, flown = compose_flown(provider, ctx)
        compositions.append((provider, ctx, out, flown))
        return out

    with mock.patch.object(harness, "compose", recording), mock.patch.object(
        composition, "viable_candidates", audited(composition.viable_candidates, audit)
    ):
        return run_experiment(cfg), compositions, audit


# --- the acceptance battery ---------------------------------------------------

# 10 seeded desk-scale scenarios of the benchmark's sweep config: all three
# pruning strategies, the full k sweep and all five recommendation methods
SEEDS = tuple(range(1, 11))
# seeds whose compositions the battery keeps for the composer's own checks
RECORDED_SEEDS = (1, 2, 3)


def battery_config(seed):
    return ExperimentConfig(seed=seed, **WORKLOADS["sweep"].config)


_SWEEP = battery_config(SEEDS[0])
STRATEGIES, K_VALUES, METHODS = _SWEEP.strategies, _SWEEP.k_values, _SWEEP.voting_methods


@dataclass
class BatteryRun:
    config: ExperimentConfig
    result: ExperimentResult
    wall_s: float
    # (provider, context, outcome, finished sub-swarms); empty unless recorded
    compositions: list
    # the run's viable_candidates calls, checked; none unless recorded
    candidates: CandidateAudit


class Battery(dict):
    """seed -> BatteryRun, each seed run the first time a test reads it."""

    def __missing__(self, seed):
        cfg = battery_config(seed)
        started = time.perf_counter()
        if seed in RECORDED_SEEDS:
            result, compositions, audit = run_recorded(cfg)
        else:
            result, compositions, audit = run_experiment(cfg), [], CandidateAudit()
        self[seed] = BatteryRun(cfg, result, time.perf_counter() - started, compositions, audit)
        return self[seed]


@pytest.fixture(scope="session")
def battery():
    return Battery()


@pytest.fixture
def unit_config():
    return unit_energy_config()


@pytest.fixture
def seeds():
    return Seeds.from_master(0)


@pytest.fixture
def no_progress():
    return CompositionConfig(progress_weight=0.0)


# --- oracles shared by several test files -------------------------------------


def random_election(rng, max_candidates=4, weights=None):
    """Four metric ballots over 1..u candidates, u drawn up to max_candidates,
    each weight drawn from weights if given, else from 1/64..64/64."""
    u = rng.randint(1, max_candidates)
    candidates = list(range(1, u + 1))
    ballots = []
    for metric in QOS_METRICS:
        ranking = candidates[:]
        rng.shuffle(ranking)
        # dyadic weights keep float sums exact
        weight = rng.choice(weights) if weights else rng.randint(1, 64) / 64
        ballots.append(Ballot(metric, weight, tuple(ranking)))
    return ballots


def oracle_condorcet(ballots):
    """Condorcet oracle: each candidate's pairwise wins and the sorted
    candidates holding the most. Each side of a pair sums, from 0 in ballot
    order, the weights of the ballots whose ranking.index puts it first; a
    tied pair is a win for neither."""
    candidates = sorted(ballots[0].ranking)
    wins = {c: 0 for c in candidates}
    for a, b in itertools.combinations(candidates, 2):
        a_over_b = b_over_a = 0
        for ballot in ballots:
            if ballot.ranking.index(a) < ballot.ranking.index(b):
                a_over_b += ballot.weight
            else:
                b_over_a += ballot.weight
        if a_over_b != b_over_a:
            wins[a if a_over_b > b_over_a else b] += 1
    best = max(wins.values())
    return wins, [c for c in candidates if wins[c] == best]


def oracle_irv(ballots, rng_seed):
    """Independent IRV with exact Fraction tallies, mirroring the documented
    tie protocol: random.Random(rng_seed).choice(sorted(tied))."""
    rng = random.Random(rng_seed)
    active = sorted({c for b in ballots for c in b.ranking})
    weights = [Fraction(b.weight).limit_denominator(1 << 20) for b in ballots]
    total = sum(weights)
    while True:
        tally = {c: Fraction(0) for c in active}
        for b, w in zip(ballots, weights):
            for choice in b.ranking:
                if choice in active:
                    tally[choice] += w
                    break
        leader = min(active, key=lambda c: (-tally[c], c))
        if tally[leader] * 2 > total or len(active) == 1:
            return leader
        minimum = min(tally.values())
        tied = sorted(c for c in active if tally[c] == minimum)
        active.remove(tied[0] if len(tied) == 1 else rng.choice(tied))


def recursive_region_paths(grid, source_cell, dest_cell, t):
    """Region path oracle: ``t_shortest_region_paths`` as it was written
    before its explicit stack, one nested generator per hop."""
    if source_cell == dest_cell:
        return [(source_cell,)]
    out = []

    def extend(path, visited, used, budget):
        current = path[-1]
        if current == dest_cell:
            if used == budget:
                yield tuple(path)
            return
        remaining = budget - used
        for nbr in grid.cell_neighbors(current):
            if nbr in visited or grid.chebyshev(nbr, dest_cell) > remaining - 1:
                continue
            path.append(nbr)
            visited.add(nbr)
            yield from extend(path, visited, used + 1, budget)
            visited.remove(nbr)
            path.pop()

    for budget in range(grid.chebyshev(source_cell, dest_cell), grid.cell_count):
        for path in extend([source_cell], {source_cell}, 0, budget):
            out.append(path)
            if len(out) == t:
                return out
    return out


def oracle_select_cohort(strategy, filtered, request, grid, heatmaps, t, k_percent):
    """Stage 1 oracle: one (strategy, k) cohort and its scoring op count, as
    the harness selected it before scoring moved out of the per-k cut. It
    scores the filtered providers afresh on every call, then prunes."""
    if strategy == "brute":
        return list(filtered), 0
    if strategy == "capabilities":
        scores = pruning.capabilities_scores(filtered)
        ops = 4 * len(filtered)
    elif strategy == "density":
        source_cell = grid.cell_of[request.source]
        dest_cell = grid.cell_of[request.destination]
        paths = pruning.t_shortest_region_paths(grid, source_cell, dest_cell, t)
        path_cells = sum(len(p) for p in paths)
        scores = pruning.density_scores(filtered, paths, heatmaps)
        ops = path_cells * (1 + len(heatmaps)) + 6 * len(filtered)
    else:
        raise ValueError(f"unknown pruning strategy {strategy!r}")
    survivors = pruning.prune(scores, k_percent)
    return [p for p in filtered if p.provider_id in survivors], ops


def region_grid(resolution):
    """The resolution x resolution region grid over two nodes at opposite corners."""
    nodes = [SkywayNode(1, 0.0, 0.0, 1, 1), SkywayNode(2, float(resolution), float(resolution), 1, 1)]
    return build_region_grid(SkywayNetwork(nodes, []), resolution)


def oracle_region_paths(grid, source, dest, t, cutoff):
    """The first t loop-free cell paths of at most cutoff hops, sorted by
    (hops, lexicographic), enumerated by networkx."""
    if source == dest:
        return [(source,)]
    graph = nx.Graph()
    graph.add_nodes_from(range(grid.cell_count))
    for cell in range(grid.cell_count):
        for nbr in grid.cell_neighbors(cell):
            graph.add_edge(cell, nbr)
    paths = [tuple(p) for p in nx.all_simple_paths(graph, source, dest, cutoff=cutoff)]
    paths.sort(key=lambda p: (len(p), p))
    return paths[:t]
