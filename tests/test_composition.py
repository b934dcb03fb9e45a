import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skybroker import composition
from skybroker.composition import (
    _fits_direct,
    _launch,
    _split_subswarm,
    _traverse,
    compose,
    score_candidates,
    viable_candidates,
)
from skybroker.config import CompositionConfig, EnergyModelConfig, ScenarioLimits, Seeds
from skybroker.domain import FORMATIONS, DeliveryRequest, Partnership
from skybroker.energy import (
    ENERGY_EPS_WH,
    NodeService,
    WindField,
    node_service_time,
    relative_sector,
)
from skybroker.harness import ExperimentConfig
from skybroker.network import SkywayNetwork, SkywayNode, dump_network, load_network_dump

from conftest import (
    RECORDED_SEEDS,
    WORKLOADS,
    alive_by_full_dfs,
    check_flown,
    composable_requests,
    compose_flown,
    default_network,
    fresh_leg,
    line_network,
    make_context,
    oracle_leg_within_capacity,
    oracle_must_charge,
    oracle_segment_energy,
    oracle_tops_up,
    run_recorded,
    simple_provider,
    tree_path,
    unit_energy_config,
)


def request(source, destination, packages=(1.0,), weights=None, request_id=1):
    return DeliveryRequest(
        request_id=request_id,
        source=source,
        destination=destination,
        packages=packages,
        qos_weights=weights or {m: 1.0 for m in ("delivery_time", "energy", "cost", "execution_time")},
    )


def diamond_network(leg=1000.0, pads=(1, 1, 1, 4), owners=(1, 1, 1, 1)):
    """alpha(0) with two symmetric middle nodes (1, 2) both leading to beta(3)."""
    dx, dy = 0.6 * leg, 0.8 * leg
    nodes = [
        SkywayNode(0, 0.0, 0.0, owners[0], pads[0]),
        SkywayNode(1, -dx, dy, owners[1], pads[1]),
        SkywayNode(2, dx, dy, owners[2], pads[2]),
        SkywayNode(3, 0.0, 2 * dy, owners[3], pads[3]),
    ]
    return SkywayNetwork(nodes, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestComposeBasics:
    def test_adjacent_destination_direct_flight(self, unit_config, seeds):
        net = line_network([800.0])
        provider = simple_provider(n_drones=1, battery=1000, speed=10)
        out, (sub,) = compose_flown(provider, make_context(net, request(0, 1), unit_config, seeds))
        assert out.success
        assert out.paths == ((0, 1),)
        assert out.pqos.delivery_time == pytest.approx(80.0)
        assert sub.charge_s == 0.0 and sub.wait_s == 0.0

    def test_three_node_line_single_charging_stop(self, unit_config, seeds):
        # 1 kg payload draws 150 W, so each 1000 m leg at 10 m/s burns
        # 15000 J (4.1667 Wh); a 5 Wh battery covers one leg but not two
        net = line_network([1000.0, 1000.0])
        provider = simple_provider(n_drones=1, battery=5.0, speed=10, charging_provider=9)
        ctx = make_context(net, request(0, 2, packages=(1.0,)), unit_config, seeds)
        out, (sub,) = compose_flown(provider, ctx)
        assert out.success
        assert out.paths == ((0, 1, 2),)
        leg_wh = 15000.0 / 3600.0
        assert out.pqos.energy == pytest.approx(2 * leg_wh)
        assert sub.charge_s == pytest.approx(150.0)  # 15000 J at 100 W
        assert sub.wait_s == 0.0
        assert out.pqos.delivery_time == pytest.approx(100.0 + 150.0 + 100.0)
        charge_cost = leg_wh / 1000.0 * 0.30
        assert out.pqos.cost == pytest.approx(charge_cost + 0.005 * 2.0)

    def test_source_off_the_destination_tree_fails_without_flying(self, unit_config, seeds):
        nodes = [SkywayNode(i, 1000.0 * i, 0.0, 1, 4) for i in range(4)]
        net = SkywayNetwork(nodes, [(0, 1), (2, 3)])  # two components
        out, (sub,) = compose_flown(simple_provider(), make_context(net, request(0, 3), unit_config, seeds))
        assert not out.success
        assert out.paths == ((0,),)
        assert out.evaluations == sub.evaluations == 0

    def test_deterministic_outcomes(self, seeds):
        cfg = ExperimentConfig(
            seed=4,
            synthetic_nodes=60,
            n_providers=6,
            n_requests=4,
            limits=ScenarioLimits(max_packages=4, max_package_weight_kg=2.5),
        )
        for req, feasible, ctx in composable_requests(cfg, seeds):
            for p in feasible[:3]:
                assert compose(p, ctx) == compose(p, make_context(ctx.network, req, seeds=seeds))


def direct_ok(provider, req, net, config):
    ctx = make_context(net, req, config)
    return _fits_direct(_launch(provider, ctx), ctx)


class TestCanReachDirectly:
    """The composer's direct check: every dispatched drone, loaded with its
    package, flies the whole shortest path on its current charge."""

    def test_adjacent_fully_charged(self, unit_config):
        net = line_network([800.0])
        provider = simple_provider(battery=1000)
        assert direct_ok(provider, request(0, 1), net, unit_config)

    def test_segment_beyond_full_battery_range(self, unit_config):
        net = line_network([1000.0, 8000.0])
        provider = simple_provider(battery=5.0)  # second leg needs ~33 Wh
        assert not direct_ok(provider, request(0, 2), net, unit_config)

    def test_total_remaining_energy_bounds_direct_flight(self, unit_config):
        # each 4.17 Wh leg fits the battery but the two together do not
        net = line_network([1000.0, 1000.0])
        provider = simple_provider(battery=5.0, payload_cap=3.0)
        assert not direct_ok(provider, request(0, 2), net, unit_config)
        assert direct_ok(provider, request(1, 2), net, unit_config)

    def test_matches_leg_by_leg_simulation_oracle(self):
        config = EnergyModelConfig()
        rng = random.Random(12)
        outcomes = set()
        for case in range(100):
            net = default_network(1000 + case, 25)
            seeds = Seeds.from_master(rng.randrange(2**32))
            n_drones = rng.randint(1, 4)
            provider = simple_provider(
                n_drones=n_drones,
                battery=rng.uniform(5.0, 60.0),
                speed=rng.uniform(10, 20),
            )
            packages = tuple(rng.uniform(0.1, 2.5) for _ in range(rng.randint(1, n_drones)))
            source, dest = rng.sample(sorted(net.nodes), 2)
            ctx = make_context(net, request(source, dest, packages), config, seeds)
            state = _launch(provider, ctx)

            graph = nx.Graph()
            for a, b in net.edges():
                graph.add_edge(a, b, weight=net.length(a, b))
            path = nx.dijkstra_path(graph, source, dest)
            wind = WindField(seeds.wind, config.wind_slice_s)
            totals = [0.0] * len(state.loads)
            feasible = True
            for a, b in zip(path, path[1:]):
                sector = relative_sector(wind.at(a, b, 0), net.heading(a, b))
                for i, load in enumerate(state.loads):
                    totals[i] += oracle_segment_energy(
                        load, provider.swarm.speed, net.length(a, b), provider.swarm.formation, sector, i, config
                    )
                    if totals[i] > state.held[i] + 1e-9:
                        feasible = False
            assert _fits_direct(state, ctx) == feasible
            assert tree_path(ctx.parent_to_dest, source) == path
            outcomes.add(feasible)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("battery, fits, legs_looked", [(1000.0, True, 6), (10.0, False, 3)])
    def test_one_wind_slice_per_check(self, unit_config, monkeypatch, battery, fits, legs_looked):
        """On a line of six 4.17 Wh legs, the check works out the wind slice
        once, whether it walks every leg or stops at the third, the first
        that two 10 Wh drones cannot afford; it charges one unit per drone
        for each leg it looked at."""
        net = line_network([1000.0] * 6)
        ctx = make_context(net, request(0, 6, packages=(1.0, 1.0)), unit_config)
        state = _launch(simple_provider(n_drones=2, battery=battery), ctx)
        time_slice, slices = ctx.wind.time_slice, []

        def counted(elapsed_s):
            slices.append(elapsed_s)
            return time_slice(elapsed_s)

        monkeypatch.setattr(ctx.wind, "time_slice", counted)
        assert _fits_direct(state, ctx) is fits
        assert slices == [0.0]
        assert state.leg_units == 2 * legs_looked
        assert len(state.legs) == legs_looked


class TestCommittedFlight:
    def test_each_leg_is_looked_at_when_the_swarm_reaches_it(self, monkeypatch):
        """A swarm that commits to the direct path at its source reaches every
        leg of it in a later wind slice than the check looked at it in. Each
        leg it flies must carry the physics of the slice it reaches the leg
        in, as the fresh-leg oracle computes them then, not the check's."""
        net = line_network([1000.0] * 6)  # 100 s a leg at 10 m/s
        ctx = make_context(net, request(0, 6), EnergyModelConfig(wind_slice_s=60.0))
        provider = simple_provider(battery=1000.0)  # never charges or tops up
        traverse, viable = composition._traverse, composition.viable_candidates
        flown, greedy_steps = [], []

        def recorded_traverse(state, leg, ctx):
            flown.append((state.delivery_time, leg, fresh_leg(state, state.current_node, leg.node, ctx)))
            traverse(state, leg, ctx)

        def recorded_viable(state, ctx):
            greedy_steps.append(state.current_node)
            return viable(state, ctx)

        monkeypatch.setattr(composition, "_traverse", recorded_traverse)
        monkeypatch.setattr(composition, "viable_candidates", recorded_viable)
        out = compose(provider, ctx)
        assert out.success and out.paths == (tuple(range(7)),)
        assert greedy_steps == []  # the direct check passed at the source

        times = [t for t, _, _ in flown]
        assert times == [100.0 * i for i in range(6)]
        assert [ctx.wind.time_slice(t) for t in times] == [0, 1, 3, 5, 6, 8]
        assert [leg for _, leg, _ in flown] == [oracle for _, _, oracle in flown]
        launched = _launch(provider, ctx)
        checked = [fresh_leg(launched, leg.node - 1, leg.node, ctx) for _, leg, _ in flown]
        assert [leg.energies for _, leg, _ in flown] != [leg.energies for leg in checked]

    def test_a_committed_leg_beyond_a_full_battery_ends_the_flight(self, monkeypatch):
        """The direct check at the source looks at both legs in slice 0, where
        seed 99's wind falls in the one cheap sector for both, and together
        they fit the battery. The swarm reaches node 1 in slice 1, where leg
        1 -> 2 falls in a dear sector and costs more than a full battery, so
        the committed flight fails there without a greedy step."""
        one_cheap_sector = (1.0,) + (10.0,) * 7
        energy = unit_energy_config(formation_factors={f: one_cheap_sector for f in FORMATIONS}, wind_slice_s=60.0)
        net = line_network([1000.0, 1000.0])  # 100 s a leg at 10 m/s
        ctx = make_context(net, request(0, 2), energy, Seeds.from_master(99))
        provider = simple_provider(battery=10.0, charging_provider=9)  # never tops up
        launched = _launch(provider, ctx)
        checked = [fresh_leg(launched, a, a + 1, ctx).energies[0] for a in (0, 1)]
        assert sum(checked) <= provider.swarm.battery_capacity
        launched.travel_s = 100.0
        assert fresh_leg(launched, 1, 2, ctx).energies[0] > provider.swarm.battery_capacity

        viable, greedy_steps = composition.viable_candidates, []

        def recorded_viable(state, ctx):
            greedy_steps.append(state.current_node)
            return viable(state, ctx)

        monkeypatch.setattr(composition, "viable_candidates", recorded_viable)
        out = compose(provider, ctx)
        assert greedy_steps == []
        assert not out.success and out.paths == ((0, 1),)

    def test_a_committed_flight_passes_a_congested_node_without_splitting(self, unit_config, monkeypatch):
        """Node 1 has one pad for two drones, and two ways on to node 3. The
        direct check passes at the source, so the swarm flies through node 1
        down the tree and never looks for a split there."""
        pads = {1: 1}
        coords = [(0.0, 0.0), (1000.0, 0.0), (2000.0, 0.0), (3000.0, 0.0), (2000.0, 900.0)]
        nodes = [SkywayNode(i, x, y, 1, pads.get(i, 4)) for i, (x, y) in enumerate(coords)]
        net = SkywayNetwork(nodes, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 3)])
        ctx = make_context(net, request(0, 3, packages=(1.0, 1.0)), unit_config)
        provider = simple_provider(n_drones=2, battery=1e6, dynamic=True)

        viable, greedy_steps = composition.viable_candidates, []

        def recorded_viable(state, ctx):
            greedy_steps.append(state.current_node)
            return viable(state, ctx)

        monkeypatch.setattr(composition, "viable_candidates", recorded_viable)
        out = compose(provider, ctx)
        assert greedy_steps == []
        assert out.success and out.paths == ((0, 1, 2, 3),)


class TestNodeValue:
    def test_cheaper_station_wins_when_cost_weighted(self, unit_config, seeds):
        # symmetric candidates, but node 2 belongs to the provider's partner so
        # the predicted refill there is cheaper
        net = diamond_network(leg=500.0, owners=(1, 1, 2, 1), pads=(4, 4, 4, 4))
        provider = simple_provider(battery=3.5, charging_provider=2, tier="gold")
        req = request(0, 3, packages=(1.0,))
        ctx = make_context(net, req, unit_config, seeds)
        state = _launch(provider, ctx)
        candidates = viable_candidates(state, ctx)
        assert sorted(leg.node for leg in candidates) == [1, 2]
        values = {leg.node: value for value, leg in score_candidates(state, candidates, ctx)}
        assert values[2] > values[1]

    def test_all_weight_on_delivery_time_selects_min_time_candidate(self, seeds, no_progress):
        # pure weighted-QoS mode (progress weight zero): with all weight on
        # delivery time and no charging anywhere, the nearest neighbour wins
        nodes = [
            SkywayNode(0, 0.0, 0.0, 1, 4),
            SkywayNode(1, 200.0, 300.0, 1, 4),
            SkywayNode(2, 0.0, 400.0, 1, 4),
            SkywayNode(3, -350.0, 350.0, 1, 4),
            SkywayNode(4, 0.0, 900.0, 1, 4),
        ]
        net = SkywayNetwork(nodes, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        provider = simple_provider(battery=1000.0, charging_provider=9)
        req = request(0, 4, weights={"delivery_time": 1.0})
        ctx = make_context(net, req, unit_energy_config(), seeds, no_progress)
        state = _launch(provider, ctx)
        ranked = score_candidates(state, viable_candidates(state, ctx), ctx)
        assert ranked[0][1].node == 1  # 360.6 m beats 400 m and 494.97 m

    def test_matches_independent_recomputation(self, seeds):
        # no charging anywhere (huge batteries, no partner stations), so the
        # deltas reduce to travel, flight energy, operating cost, a constant
        # execution tick and the progress criterion; recompute Eq.-style values
        # from public primitives and an independent shortest-path oracle
        config = EnergyModelConfig()
        comp_cfg = CompositionConfig()
        net = default_network(31, 60)
        hub = max(net.nodes, key=lambda v: len(net.neighbors(v)))
        dest = max(net.nodes, key=lambda v: math.hypot(net.node(v).x - net.node(hub).x, net.node(v).y - net.node(hub).y))
        provider = simple_provider(battery=10_000.0, charging_provider=99, speed=15)
        req = request(hub, dest, packages=(1.0,), weights={
            "delivery_time": 0.4, "energy": 0.3, "cost": 0.2, "execution_time": 0.1,
        })
        ctx = make_context(net, req, config, seeds, comp_cfg)
        state = _launch(provider, ctx)
        candidates = viable_candidates(state, ctx)
        assert len(candidates) >= 4
        ranked = score_candidates(state, candidates, ctx)

        graph = nx.Graph()
        for a, b in net.edges():
            graph.add_edge(a, b, weight=net.length(a, b))
        remaining = nx.single_source_dijkstra_path_length(graph, dest)
        wind = WindField(seeds.wind, config.wind_slice_s)

        rows = []
        for leg in candidates:
            length = net.length(hub, leg.node)
            sector = relative_sector(wind.at(hub, leg.node, 0), net.heading(hub, leg.node))
            energy = oracle_segment_energy(state.loads[0], 15.0, length, provider.swarm.formation, sector, 0, config)
            rows.append((leg.node, length / 15.0, energy, 0.005 * length / 1000.0, remaining[leg.node]))

        def oriented(values):
            lo, hi = min(values), max(values)
            return [1.0 if hi - lo <= 1e-12 else (hi - v) / (hi - lo) for v in values]

        dt_hat = oriented([r[1] for r in rows])
        ec_hat = oriented([r[2] for r in rows])
        c_hat = oriented([r[3] for r in rows])
        rem_hat = oriented([r[4] for r in rows])
        w = req.qos_weights
        expected = {}
        for i, row in enumerate(rows):
            qos = (
                w["delivery_time"] * dt_hat[i]
                + w["energy"] * ec_hat[i]
                + w["cost"] * c_hat[i]
                + w["execution_time"] * 1.0
            )
            expected[row[0]] = 0.8 * qos + 0.2 * rem_hat[i]
        best_expected = min(expected, key=lambda n: (-expected[n], n))
        assert ranked[0][1].node == best_expected
        for value, leg in ranked:
            assert value == pytest.approx(expected[leg.node], rel=1e-9)


class TestDynamicSplitting:
    def _provider(self, dynamic):
        return simple_provider(n_drones=4, battery=5.0, speed=10, dynamic=dynamic, charging_provider=9)

    def test_split_halves_bottleneck_waits(self, unit_config, seeds):
        # one-pad stations force sequential charging; the dynamic swarm splits
        # at the source and its sub-swarms recharge at different middle nodes
        net = diamond_network(leg=1000.0, pads=(1, 1, 1, 4))
        req = request(0, 3, packages=(1.0, 1.0, 1.0, 1.0))

        ctx = make_context(net, req, unit_config, seeds)
        static_out, (static_sub,) = compose_flown(self._provider(False), ctx)
        dynamic_out, (first, second) = compose_flown(self._provider(True), ctx)

        assert static_out.success
        assert static_out.paths == ((0, 1, 3),)
        assert static_sub.wait_s == pytest.approx(3 * 150.0)

        assert dynamic_out.success
        assert {first.path[1], second.path[1]} == {1, 2}
        assert first.delivery_time == pytest.approx(second.delivery_time)
        assert (first.wait_s, second.wait_s) == pytest.approx((150.0, 150.0))

    def test_a_stranded_half_does_not_ground_its_sibling(self, unit_config, seeds, no_progress):
        # the one-pad source splits the swarm; the heavy half takes node 1,
        # whose 5 km leg to the destination no full battery covers, while the
        # light half flies on via node 2 and its evaluations still count
        nodes = [
            SkywayNode(0, 0.0, 0.0, 1, 1),
            SkywayNode(1, 1000.0, 0.0, 1, 4),
            SkywayNode(2, -2000.0, 1.0, 1, 4),
            SkywayNode(3, -4000.0, 0.0, 1, 4),
        ]
        net = SkywayNetwork(nodes, [(0, 1), (0, 2), (1, 3), (2, 3)])
        provider = simple_provider(n_drones=2, battery=20.0, speed=10, dynamic=True, charging_provider=9)
        ctx = make_context(net, request(0, 3, packages=(2.0, 0.1)), unit_config, seeds, no_progress)
        out, (heavy, light) = compose_flown(provider, ctx)

        assert (heavy.loads, light.loads) == ((2.0,), (0.1,))
        assert not out.success
        assert out.paths == ((0, 1), (0, 2, 3))
        assert light.current_node == ctx.request.destination
        assert out.evaluations == heavy.evaluations + light.evaluations == 11 + 3

    def test_successful_dynamic_runs_respect_arrival_window(self, seeds):
        cfg = ExperimentConfig(
            seed=8,
            synthetic_nodes=80,
            n_providers=12,
            n_requests=10,
            limits=ScenarioLimits(max_packages=6, max_package_weight_kg=2.0),
        )
        checked = 0
        for _req, feasible, ctx in composable_requests(cfg, seeds):
            for p in feasible:
                if not p.swarm.dynamic:
                    continue
                out, flown = compose_flown(p, ctx)
                if out.success and len(flown) > 1:
                    checked += 1
                    assert abs(flown[0].delivery_time - flown[1].delivery_time) <= ctx.comp.arrival_window_s
        assert checked > 0


@st.composite
def loaded_swarms(draw):
    """A dynamic swarm of 2-6 drones carrying 2 or more drawn packages, one per
    drone, at the source of a diamond network, under drawn position factors,
    wind seed and formation policy."""
    n = draw(st.integers(2, 6))
    provider = simple_provider(
        n_drones=n, dynamic=True, flexible=draw(st.booleans()), formation=draw(st.sampled_from(FORMATIONS))
    )
    packages = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=n)))
    factors = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7)))
    ctx = make_context(
        diamond_network(leg=draw(st.floats(100.0, 5000.0))),
        request(0, 3, packages),
        EnergyModelConfig(position_factors=factors),
        Seeds.from_master(draw(st.integers(0, 2**32 - 1))),
    )
    return _launch(provider, ctx), ctx


class TestSplitNeverFoldsBack:
    @given(loaded_swarms())
    @settings(max_examples=150, deadline=None)
    def test_halves_need_no_more_energy_per_slot_than_the_whole_swarm(self, case):
        """Why a split needs no capacity check: loads never increase along the
        swarm, so on any leg each half's drone in slot j spends no more than
        the whole swarm's drone in slot j, which viable_candidates checked."""
        state, ctx = case
        legs = [(a, b) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)) for a, b in ((a, b), (b, a))]
        whole = {ab: composition._leg_at(state, *ab, ctx).energies for ab in legs}
        sibling = composition._split_subswarm(state)
        for half in (state, sibling):
            for ab in legs:
                energies = composition._leg_at(half, *ab, ctx).energies
                assert all(e <= w for e, w in zip(energies, whole[ab]))


class TestCompositionInvariants:
    def _batch(self, seed, n_requests=8):
        cfg = ExperimentConfig(
            seed=seed,
            synthetic_nodes=70,
            n_providers=10,
            n_requests=n_requests,
            limits=ScenarioLimits(max_packages=5, max_package_weight_kg=2.0),
        )
        for _req, feasible, ctx in composable_requests(cfg):
            for p in feasible:
                yield p, ctx, compose(p, ctx)

    def test_paths_terminate_and_reach_destination_on_success(self):
        for provider, ctx, out in self._batch(15):
            for path in out.paths:
                assert len(path) <= 2 * ctx.network.n_nodes
                assert path[0] == ctx.request.source
            if out.success:
                assert all(path[-1] == ctx.request.destination for path in out.paths)

    def test_evaluations_feed_execution_time(self):
        from skybroker.energy import execution_time_proxy

        for provider, ctx, out in self._batch(16, n_requests=4):
            expected = execution_time_proxy(out.evaluations, provider.swarm, ctx.energy)
            assert out.pqos.execution_time == pytest.approx(expected)

    def test_flexible_formation_never_worse_on_forced_path(self, seeds):
        # a line network leaves no routing freedom, isolating the formation choice
        net = line_network([900.0, 1100.0, 800.0], pads=[4] * 5)
        req = request(0, 3, packages=(1.0,))
        base = dict(n_drones=1, battery=1000.0, speed=10, charging_provider=9)
        fixed = simple_provider(**base)
        flexible = simple_provider(flexible=True, **base)
        ctx = make_context(net, req, seeds=seeds)
        out_fixed = compose(fixed, ctx)
        out_flex = compose(flexible, ctx)
        assert out_fixed.paths == out_flex.paths
        assert out_flex.pqos.energy <= out_fixed.pqos.energy + 1e-12


class TestEvaluationSites:
    def test_units_per_charge_site_on_smoke(self):
        """The units each of the three charge sites the composer's docstring
        names adds on the smoke workload (seed 1), read from the finished
        sub-swarms' counters and pinned per site, so a refactor that moves
        work from one site to another fails here by name. Together they are
        every evaluation the outcomes report."""
        _result, compositions, _audit = run_recorded(ExperimentConfig(seed=1, **WORKLOADS["smoke"].config))
        finished = [sub for _, _, _, flown in compositions for sub in flown]
        units = {
            "legs": sum(sub.leg_units for sub in finished),
            "stops": sum(sub.stop_units for sub in finished),
            "candidates": sum(sub.score_units for sub in finished),
        }
        assert units == {"legs": 1243, "stops": 50, "candidates": 58}
        assert sum(units.values()) == sum(out.evaluations for _, _, out, _ in compositions)


class TestEnergyConservation:
    @given(
        st.integers(0, 2**16),
        st.integers(6, 30),
        st.sampled_from([8000.0, 30000.0]),
        st.integers(0, 8),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_ledger_closes_on_random_and_loaded_networks(self, seed, n_nodes, area_m, queue_draw_max, threshold):
        """Every drone of every finished sub-swarm holds its capacity less what
        it consumed plus what it purchased, and the outcome sums the
        sub-swarms, on a random network and on its dump loaded back alike."""
        cfg = ExperimentConfig(
            seed=seed,
            synthetic_nodes=n_nodes,
            area_m=area_m,
            n_providers=6,
            n_requests=3,
            limits=ScenarioLimits(max_packages=5, max_package_weight_kg=2.0),
            energy=EnergyModelConfig(queue_draw_max=queue_draw_max),
            composition=CompositionConfig(opportunistic_charge_threshold=threshold),
        )
        for req, feasible, ctx in composable_requests(cfg):
            loaded = load_network_dump(dump_network(ctx.network))
            contexts = [ctx, make_context(loaded, req, cfg.energy, Seeds.from_master(seed), cfg.composition)]
            for p in feasible:
                outcomes = []
                for context in contexts:
                    out, flown = compose_flown(p, context)
                    check_flown(p, cfg.composition, out, flown)
                    outcomes.append(out)
                assert outcomes[0] == outcomes[1]


def walk_steps(draw, nodes, destination, n):
    """Up to six steps, each the node the swarm stands on and extra visited nodes."""
    return [
        (draw(nodes.filter(lambda v: v != destination)), draw(st.sets(nodes, max_size=n // 2)))
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]


@st.composite
def reachability_walks(draw):
    """A random graph (often disconnected), destination, start and a sequence
    of ever-growing visited sets, each with the node the swarm stands on; then
    a split, and each half's own further steps."""
    n = draw(st.integers(min_value=3, max_value=24))
    graph = nx.gnp_random_graph(
        n, draw(st.floats(min_value=0.03, max_value=0.4)), seed=draw(st.integers(0, 2**32 - 1))
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    xy = {v: (rng.uniform(0, 5000), rng.uniform(0, 5000)) for v in graph.nodes}
    network = SkywayNetwork([SkywayNode(v, *xy[v], 1, 4) for v in graph.nodes], graph.edges)
    nodes = st.sampled_from(sorted(graph.nodes))
    destination = draw(nodes)
    steps, *halves = (walk_steps(draw, nodes, destination, n) for _ in range(3))
    return network, destination, steps, halves


def check_step(state, visited, current, extra_visited, network, ctx):
    """Stand state on current with extra_visited and current added to the
    visited nodes. Where the step meets the premise of a flight (the
    destination is open and some open neighbour is alive), the walks find
    alive exactly the open neighbours the full DFS does and close every other
    neighbour. Either way, no node closed without a visit is alive."""
    state.path.append(current)
    visited |= extra_visited | {current}
    state.closed |= visited
    alive = alive_by_full_dfs(network, visited, ctx.request.destination)
    expected = [nbr for nbr, _ in network.neighbors(current) if nbr not in visited and nbr in alive]
    if expected and ctx.request.destination not in visited:
        assert composition._alive_open_neighbours(state, ctx) == expected
        assert {nbr for nbr, _ in network.neighbors(current)} - set(expected) <= state.closed
    assert not (state.closed - visited) & alive


@st.composite
def flight_networks(draw):
    """A random graph (often disconnected) and a destination, with a source
    in the destination's component: a flight starts only from a node the
    destination tree holds."""
    n = draw(st.integers(min_value=3, max_value=40))
    graph = nx.gnp_random_graph(
        n, draw(st.floats(min_value=0.03, max_value=0.4)), seed=draw(st.integers(0, 2**32 - 1))
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    network = SkywayNetwork(
        [SkywayNode(v, rng.uniform(0, 5000), rng.uniform(0, 5000), 1, 4) for v in graph.nodes], graph.edges
    )
    destination = draw(st.sampled_from(sorted(graph.nodes)))
    sources = sorted(nx.node_connected_component(graph, destination) - {destination})
    assume(sources)
    return network, draw(st.sampled_from(sources)), destination


class TestReachability:
    def test_battery_moves_match_full_dfs(self, battery):
        """Every viable_candidates call of the acceptance battery's recorded
        seeds, checked as it ran (``conftest.audited``): the candidates are
        the open neighbours the full DFS finds alive whose leg fits a full
        battery, and no alive node was closed without a visit. No greedy step
        is stranded: every call has an open neighbour the DFS finds alive, so
        no candidates can only mean no such leg fits a full battery."""
        audits = [battery[seed].candidates for seed in RECORDED_SEEDS]
        assert [m for a in audits for m in a.mismatches] == []
        assert [a.checked for a in audits] == [12759, 6747, 4705]
        assert [a.stranded for a in audits] == [0, 0, 0]

    @given(reachability_walks())
    @settings(max_examples=200, deadline=None)
    def test_candidates_match_full_dfs_and_dead_stays_dead(self, walk):
        network, destination, steps, _halves = walk
        provider = simple_provider(battery=1e9)  # every leg fits, so only reachability filters
        ctx = make_context(network, request(steps[0][0], destination))
        state, visited = _launch(provider, ctx), set()
        for current, extra_visited in steps:
            check_step(state, visited, current, extra_visited, network, ctx)

    @given(reachability_walks())
    @settings(max_examples=100, deadline=None)
    def test_split_siblings_match_full_dfs_over_their_own_visits(self, walk):
        network, destination, steps, halves = walk
        provider = simple_provider(n_drones=2, battery=1e9)
        ctx = make_context(network, request(steps[0][0], destination, packages=(1.0, 1.0)))
        state, visited = _launch(provider, ctx), set()
        for current, extra_visited in steps:
            check_step(state, visited, current, extra_visited, network, ctx)
        sibling = _split_subswarm(state)
        for half, half_steps in zip((state, sibling), halves):
            half_visited = set(visited)
            for current, extra_visited in half_steps:
                check_step(half, half_visited, current, extra_visited, network, ctx)

    @given(flight_networks(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_flight_steps_match_full_dfs(self, flight, data):
        """A flight that moves only to candidates, each drawn, and splits at a
        drawn step into halves that move to two drawn candidates: at every
        step viable_candidates gives the open neighbours the full DFS finds
        alive, closing no alive node."""
        network, source, destination = flight
        provider = simple_provider(n_drones=2, battery=1e9)  # every leg fits, so only reachability filters
        ctx = make_context(network, request(source, destination, packages=(1.0, 1.0)))
        flights = [_launch(provider, ctx)]
        for state in flights:
            while state.current_node != destination:
                node, visited = state.current_node, set(state.path)
                alive = alive_by_full_dfs(network, visited, destination)
                candidates = [leg.node for leg in viable_candidates(state, ctx)]
                open_alive = [nbr for nbr, _ in network.neighbors(node) if nbr not in visited and nbr in alive]
                assert candidates == open_alive
                assert not (state.closed - visited) & alive
                assert candidates  # a flight is never stranded
                if len(flights) == 1 and len(candidates) >= 2 and data.draw(st.booleans()):
                    first, second = data.draw(st.permutations(candidates))[:2]
                    sibling = _split_subswarm(state)
                    _traverse(sibling, composition._leg_at(sibling, node, second, ctx), ctx)
                    flights.append(sibling)
                else:
                    first = data.draw(st.sampled_from(candidates))
                _traverse(state, composition._leg_at(state, node, first, ctx), ctx)

    def test_the_destinations_walk_runs_out_first(self):
        """From source 1, the walk from 2 explores {2, 3} and runs out holding
        destination 3 while the walk from 4 still has nodes to take. The
        remaining walk is dead, not alive: its component closes and the
        destination's stays open."""
        nodes = [SkywayNode(v, 1000.0 * v, 0.0, 1, 4) for v in range(1, 8)]
        network = SkywayNetwork(nodes, [(1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7)])
        ctx = make_context(network, request(1, 3))
        state = _launch(simple_provider(battery=1e9), ctx)
        assert [leg.node for leg in viable_candidates(state, ctx)] == [2]
        assert state.closed == {1, 4, 5, 6, 7}

    def test_walks_merge_across_a_long_ring(self):
        """On a ring of 72 nodes the source's two neighbours meet only around
        the far side: both are alive, and nothing is closed."""
        n = 72
        nodes = [
            SkywayNode(v, 5000.0 * math.cos(2 * math.pi * v / n), 5000.0 * math.sin(2 * math.pi * v / n), 1, 4)
            for v in range(n)
        ]
        network = SkywayNetwork(nodes, [(v, (v + 1) % n) for v in range(n)])
        ctx = make_context(network, request(0, n // 2 + 3))
        state = _launch(simple_provider(battery=1e9), ctx)
        assert [leg.node for leg in viable_candidates(state, ctx)] == [1, n - 1]
        assert state.closed == {0}


class TestSharedContext:
    def test_composition_order_changes_no_outcome(self, battery):
        """The context's wind memo holds pure draws, so a request's providers
        composed in reverse order over a fresh context get the outcomes the
        acceptance battery's seed 1 got composing them in filtered order."""
        shared = 0
        by_request = itertools.groupby(battery[1].compositions, key=lambda c: c[1].request.request_id)
        for _request_id, group in by_request:
            providers, contexts, forward, _flown = zip(*group)
            wind = contexts[0].wind
            ctx = dataclasses.replace(contexts[0], wind=WindField(wind.seed, wind.slice_s))
            reverse = [compose(p, ctx) for p in reversed(providers)]
            assert list(forward) == reverse[::-1]
            shared += len(providers) > 1
        assert shared > 0


class TestMemoisedPhysics:
    def test_memos_change_no_outcome(self, battery, monkeypatch):
        """Every composition of the acceptance battery's seeds 1-3, composed
        again without the memos, gets the outcome and energy ledger the
        battery recorded. The leg function is replaced by ``fresh_leg``, which
        stores nothing and ignores the request's shared wind memo, so every
        look-up recomputes its leg: one call per leg looked at, whose slot
        counts add up to the units the sub-swarms charged for legs."""
        sample = [c for seed in RECORDED_SEEDS for c in battery[seed].compositions]
        assert len(sample) == 1899
        assert any(len(out.paths) > 1 for _, _, out, _ in sample)
        looked = []

        def recomputed_leg(state, a, b, slice_, ctx):
            assert slice_ == ctx.wind.time_slice(state.delivery_time)
            looked.append(len(state.loads))
            return fresh_leg(state, a, b, ctx)

        monkeypatch.setattr(composition, "_compute_leg", recomputed_leg)

        def ledger(flown):
            return [(sub.held, sub.consumed, sub.purchased) for sub in flown]

        leg_units = 0
        for provider, ctx, want, want_flown in sample:
            got, got_flown = compose_flown(provider, ctx)
            assert got == want
            assert ledger(got_flown) == ledger(want_flown)
            leg_units += sum(sub.leg_units for sub in got_flown)
        assert sum(looked) == leg_units


class TestNodeServiceReadsOnly:
    @given(
        st.floats(1.0, 100.0),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        st.integers(1, 4),
        st.sampled_from([1, 2]),  # the partner owns the station, or another company does
        st.sampled_from(["platinum", "gold", "silver"]),
        st.integers(0, 4),  # the exogenous queue, drawn from {0..queue_draw_max} by default
    )
    @settings(max_examples=100, deadline=None)
    def test_energies_unchanged(self, capacity, fills, pads, partner, tier, queue):
        """node_service_time leaves the energies and targets it is given
        unchanged; the composer passes it a sub-swarm's live held vector and
        relies on this."""
        energies = [held * capacity for held, _ in fills]
        targets = [p + fill * (capacity - p) for p, (_, fill) in zip(energies, fills)]
        before = (list(energies), list(targets))
        node_service_time(
            energies, SkywayNode(7, 0.0, 0.0, 1, pads), targets,
            Partnership(partner, tier), queue, EnergyModelConfig(),
        )
        assert (energies, targets) == before


@st.composite
def first_legs(draw, cooperative, threshold, min_fill_legs=0.0):
    """A swarm at node 0 of a line 0-1-2 (destination 2) with drawn energies,
    about to fly the leg 0 -> 1, on an energy model with no exogenous queue, so
    the drawn queue and the expected queue are both 0. Every drone can fly the
    leg on a full battery and holds at least min_fill_legs times its leg
    energy."""
    n = draw(st.integers(1, 3))
    provider = simple_provider(
        n_drones=n,
        battery=draw(st.floats(5.0, 60.0)),
        cooperative=cooperative,
        charging_provider=2,
        tier=draw(st.sampled_from(["platinum", "gold", "silver"])),
    )
    net = line_network(
        [draw(st.floats(300.0, 3000.0)), draw(st.floats(300.0, 3000.0))],
        owners=draw(st.lists(st.sampled_from([1, 2]), min_size=3, max_size=3)),
        pads=draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)),
    )
    packages = tuple(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    ctx = make_context(
        net,
        request(0, 2, packages),
        EnergyModelConfig(queue_draw_max=0),
        Seeds.from_master(draw(st.integers(0, 2**32 - 1))),
        CompositionConfig(opportunistic_charge_threshold=draw(threshold)),
    )
    state = _launch(provider, ctx)
    leg = composition._leg_at(state, 0, 1, ctx)
    capacity = provider.swarm.battery_capacity
    for slot, e in enumerate(leg.energies):
        assume(e <= capacity and min_fill_legs * e <= capacity)
        state.held[slot] = draw(st.floats(min_fill_legs * e, capacity))
    return state, ctx, leg


class TestEstimatesMatchExecutor:
    """Candidate scoring and the flown swarm share one charging policy: with no
    exogenous queue the estimates price exactly what _traverse pays."""

    @given(st.booleans().flatmap(lambda coop: first_legs(coop, st.just(0.0))))
    @settings(max_examples=150, deadline=None)
    def test_departure_estimate_is_the_departure_stop(self, case):
        state, ctx, leg = case  # threshold 0: no top-up on arrival
        estimate = composition._estimate_departure_service(state, leg, ctx)
        composition._traverse(state, leg, ctx)
        assert (state.charge_s, state.wait_s) == (estimate.charge_s, estimate.wait_s)
        assert state.cost == estimate.cost + ctx.comp.operating_cost_per_km * leg.length / 1000.0

    @given(first_legs(False, st.floats(0.0, 1.0), min_fill_legs=2.0))
    @settings(max_examples=150, deadline=None)
    def test_arrival_estimate_predicts_the_top_up(self, case):
        state, ctx, leg = case  # every drone can fly the leg twice: no forced stop
        estimate = composition._estimate_arrival_service(state, leg, ctx)
        composition._traverse(state, leg, ctx)
        topped_up = any(p > 0 for p in state.purchased)
        assert (estimate != NodeService(0.0, 0.0, 0.0, 0.0)) == topped_up
        if topped_up:
            assert estimate.wait_s == state.wait_s
            assert estimate.energy_wh == pytest.approx(sum(state.purchased))
            operating = ctx.comp.operating_cost_per_km * leg.length / 1000.0
            assert estimate.cost == pytest.approx(state.cost - operating)


def near(edge):
    """A float at the edge, one float step either side of it, NaN, or any float."""
    steps = [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf), math.nan]
    return st.one_of(st.sampled_from(steps), st.floats())


@st.composite
def held_and_leg(draw):
    """0-12 slots, each a leg energy and a held energy near that energy less
    ENERGY_EPS_WH, where a drone starts having to charge."""
    slots = []
    for _ in range(draw(st.integers(0, 12))):
        e = draw(st.one_of(st.floats(0.0, 100.0), st.just(math.nan)))
        slots.append((draw(near(e - ENERGY_EPS_WH)), e))
    return slots


def top_up_case(capacity, threshold, cooperative, tier, owners, queue_draw_max, seed, energies, node_id, queue):
    """A sub-swarm about to arrive at node_id of the line 0-1-2 (destination
    2, stations owned by owners, the partner being 2) holding the energies,
    with the queue given or, if None, left to the draw: _tops_up's arguments."""
    provider = simple_provider(battery=capacity, cooperative=cooperative, charging_provider=2, tier=tier)
    ctx = make_context(
        line_network([500.0, 500.0], owners=owners),
        request(0, 2),
        EnergyModelConfig(queue_draw_max=queue_draw_max),
        Seeds.from_master(seed),
        CompositionConfig(opportunistic_charge_threshold=threshold),
    )
    return _launch(provider, ctx), energies, node_id, ctx, queue


@st.composite
def top_up_cases(draw):
    """top_up_case with 0-12 energies near the top-up threshold."""
    capacity, threshold = draw(st.floats(1.0, 100.0)), draw(st.floats(0.0, 1.0))
    return top_up_case(
        capacity,
        threshold,
        draw(st.booleans()),
        draw(st.sampled_from(["platinum", "gold", "silver"])),
        draw(st.lists(st.sampled_from([1, 2]), min_size=3, max_size=3)),
        draw(st.integers(0, 4)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(near(threshold * capacity), max_size=12)),
        draw(st.integers(0, 2)),
        draw(st.one_of(st.none(), st.integers(0, 4))),
    )


class TestSlotChecks:
    """The per-slot checks are loops that stop at the first deciding slot; on
    every input, at the float edges and NaN included, they answer as the
    any/all forms they replaced."""

    @given(st.floats(1.0, 100.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_capacity_check_matches_its_oracle(self, capacity, data):
        energies = data.draw(st.lists(near(capacity + ENERGY_EPS_WH), max_size=12))
        state = SimpleNamespace(provider=simple_provider(battery=capacity))
        leg = composition._Leg(1, 500.0, tuple(energies))
        assert composition._leg_within_capacity(leg, state) == oracle_leg_within_capacity(leg, state)

    @given(held_and_leg())
    @settings(max_examples=300, deadline=None)
    def test_charge_check_matches_its_oracle(self, slots):
        held = [p for p, _ in slots]
        leg = composition._Leg(1, 500.0, tuple(e for _, e in slots))
        assert composition._must_charge(held, leg) == oracle_must_charge(held, leg)

    @given(top_up_cases())
    # a platinum partner skips the queue, so only the threshold decides: a
    # drone at it stays, one a float step below tops up
    @example(top_up_case(10.0, 0.5, False, "platinum", [2, 2, 1], 0, 0, [6.0, 5.0], 1, 3))
    @example(top_up_case(10.0, 0.5, False, "platinum", [2, 2, 1], 0, 0, [6.0, math.nextafter(5.0, 0.0)], 1, 3))
    @settings(max_examples=300, deadline=None)
    def test_top_up_check_matches_its_oracle(self, case):
        state, energies, node_id, ctx, queue = case
        got = composition._tops_up(state, energies, node_id, ctx, queue)
        assert got == oracle_tops_up(state, energies, node_id, ctx, queue)

    def test_a_leg_is_an_immutable_record_and_never_falsy(self):
        """A memo hit must never read as a miss: ``legs.get(key) or
        _compute_leg(...)`` relies on every leg being truthy, even one of no
        slots."""
        leg = composition._Leg(3, 120.0, (1.0, 2.0))
        with pytest.raises(AttributeError):
            leg.node = 4
        assert leg == composition._Leg(node=3, length=120.0, energies=(1.0, 2.0))
        assert leg != composition._Leg(3, 120.0, (1.0, 2.5))
        assert composition._Leg(0, 0.0, ())
