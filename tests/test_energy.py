import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skybroker.composition import _launch, _split_subswarm, _stop
from skybroker.config import DEFAULT_POSITION_FACTORS, WIND_SECTORS, EnergyModelConfig
from skybroker.domain import TIERS, DeliveryRequest, Formation, Partnership
from skybroker.energy import (
    WindField,
    best_formation,
    execution_time_proxy,
    flight_power_w,
    node_service_time,
    queue_length,
    relative_sector,
    segment_energy,
    slot_factors,
)
from skybroker.network import SkywayNode

from conftest import line_network, make_context, oracle_segment_energy, simple_provider, unit_energy_config

FORMATIONS = tuple(Formation)


def powers(loads, config):
    return tuple(flight_power_w(load, config) for load in loads)


def one_leg_request(packages):
    """A request for the packages from node 0 to node 1, weighing every QoS
    metric alike."""
    weights = dict.fromkeys(("delivery_time", "energy", "cost", "execution_time"), 1.0)
    return DeliveryRequest(request_id=1, source=0, destination=1, packages=packages, qos_weights=weights)


class TestSegmentEnergy:
    def test_zero_length_zero_energy(self, unit_config):
        assert segment_energy(powers((0.0, 1.0), unit_config), 10.0, 0.0, (1.0, 1.0)) == (0.0, 0.0)

    def test_heavier_payload_consumes_strictly_more(self, unit_config):
        light, heavy = segment_energy(powers((0.0, 2.0), unit_config), 10.0, 500, (1.0, 1.0))
        assert heavy > light

    def test_hand_computed_value(self, unit_config):
        # 1000 m at 10 m/s with 1 kg payload: (100 + 50) W * 100 s = 15000 J
        (e,) = segment_energy(powers((1.0,), unit_config), 10.0, 1000.0, (1.0,))
        assert e == pytest.approx(15000.0 / 3600.0)

    @given(
        st.floats(min_value=0, max_value=3),
        st.floats(min_value=0, max_value=3),
        st.floats(min_value=0, max_value=5000),
        st.floats(min_value=0, max_value=5000),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_payload_and_length(self, p1, p2, l1, l2):
        cfg = unit_energy_config()
        lo_p, hi_p = sorted((p1, p2))
        lo_l, hi_l = sorted((l1, l2))
        light, heavy = segment_energy(powers((lo_p, hi_p), cfg), 10.0, hi_l, (1.0, 1.0))
        assert light <= heavy
        (short,) = segment_energy(powers((hi_p,), cfg), 10.0, lo_l, (1.0,))
        assert short <= heavy

    @given(
        st.data(),
        st.integers(1, 12),
        st.booleans(),
        st.sampled_from(FORMATIONS),
        st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5),
        st.floats(1.0, 50.0),
        st.floats(0.0, 20000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_slot_matches_the_per_drone_oracle_bit_for_bit(
        self, data, n, flexible, formation, positions, speed, length
    ):
        """The energies a sub-swarm's power and factor tables give, in every
        wind sector, are the per-drone formula's, slot by slot, to the last
        bit, for fixed and flexible formations, with more slots than the
        position-factor table has, and for both halves of a split, whose
        tables are sliced from the whole swarm's."""
        table = {f: tuple(data.draw(st.lists(st.floats(0.5, 1.5), min_size=8, max_size=8))) for f in FORMATIONS}
        config = EnergyModelConfig(formation_factors=table, position_factors=tuple(positions))
        packages = tuple(data.draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n)))
        provider = simple_provider(n_drones=n, speed=speed, flexible=flexible, formation=formation)
        state = _launch(provider, make_context(line_network([1000.0]), one_leg_request(packages), config))
        sub_swarms = [dataclasses.replace(state)]
        if n >= 2:
            sibling = _split_subswarm(state)
            sub_swarms += [state, sibling]
        for sub in sub_swarms:
            for sector in range(8):
                shape = best_formation(sector, config) if flexible else formation
                got = segment_energy(sub.power_w, speed, length, sub.factors[sector])
                want = [
                    oracle_segment_energy(load, speed, length, shape, sector, slot, config)
                    for slot, load in enumerate(sub.loads)
                ]
                assert [e.hex() for e in got] == [e.hex() for e in want]


class TestBestFormation:
    def test_argmin_for_sector(self):
        cfg = EnergyModelConfig()
        # default table pins column as the headwind optimum
        assert best_formation(4, cfg) == Formation.COLUMN

    def test_all_equal_tie_breaks_by_enum_order(self, unit_config):
        assert best_formation(3, unit_config) == Formation.VEE

    def test_random_tables_argmin(self):
        rng = random.Random(0)
        for _ in range(200):
            table = {f: tuple(rng.uniform(0.85, 1.25) for _ in range(8)) for f in FORMATIONS}
            cfg = EnergyModelConfig(formation_factors=table)
            sector = rng.randrange(8)
            chosen = best_formation(sector, cfg)
            assert all(
                table[chosen][sector] <= table[f][sector] for f in FORMATIONS
            )

    def test_relative_sector_orientation(self):
        assert relative_sector(0.0, 0.0) == 0  # tailwind
        assert relative_sector(math.pi, 0.0) == 4  # headwind


class TestSlotFactors:
    """``slot_factors`` is the one caller of ``formation_factor`` and
    ``position_factor``; it asks for every wind sector and for slots 0 to
    n_slots - 1, and the composer reads its table at ``relative_sector``."""

    @pytest.mark.parametrize("n_slots", [1, len(DEFAULT_POSITION_FACTORS), len(DEFAULT_POSITION_FACTORS) + 3])
    def test_one_factor_per_sector_and_slot(self, n_slots):
        cfg = EnergyModelConfig()
        positions = [cfg.position_factors[min(slot, len(cfg.position_factors) - 1)] for slot in range(n_slots)]
        fixed = slot_factors(simple_provider(formation=Formation.DIAMOND).swarm, n_slots, cfg)
        flexible = slot_factors(simple_provider(flexible=True).swarm, n_slots, cfg)
        assert len(fixed) == len(flexible) == WIND_SECTORS
        for sector in range(WIND_SECTORS):
            best = min(cfg.formation_factors[f][sector] for f in FORMATIONS)
            assert fixed[sector] == tuple(cfg.formation_factors[Formation.DIAMOND][sector] * p for p in positions)
            assert flexible[sector] == tuple(best * p for p in positions)

    @given(st.floats(0.0, 2 * math.pi), st.floats(-math.pi, math.pi))
    @example(math.nextafter(2 * math.pi, 0.0), 0.0)
    @example(0.0, math.nextafter(0.0, 1.0))
    @example(math.pi, -math.pi)
    @settings(max_examples=300, deadline=None)
    def test_relative_sector_indexes_the_table(self, wind_direction, heading):
        """Wind directions are draws in [0, 2 pi) and headings atan2's [-pi, pi]."""
        assert 0 <= relative_sector(wind_direction, heading) < WIND_SECTORS


class TestWindField:
    def test_deterministic_per_segment_and_slice(self):
        field = WindField(seed=7, slice_s=600.0)
        a = field.at(3, 5, 0)
        b = field.at(5, 3, 0)  # undirected
        assert a == b
        assert field.at(3, 5, 0) == a
        assert 0 <= a < 2 * math.pi

    def test_piecewise_constant_in_time(self):
        field = WindField(seed=7, slice_s=600.0)
        assert [field.time_slice(t) for t in (0.0, 599.0, 600.0)] == [0, 0, 1]


def station(node_id=1, owner=1, pads=4):
    return SkywayNode(node_id, 0.0, 0.0, owner, pads)


# a partnership with a charging company that owns none of the test stations
ELSEWHERE = Partnership(99, "gold")


class TestNodeService:
    def test_parallel_charging_no_wait(self, unit_config):
        held = [40.0] * 4
        svc = node_service_time(held, station(pads=4), [50] * 4, ELSEWHERE, 0, unit_config)
        assert svc.wait_s == 0.0
        assert svc.charge_s == pytest.approx(3600 * 10 / 100)
        assert svc.energy_wh == pytest.approx(40.0)

    def test_two_batches_hand_simulated(self, unit_config):
        # 4 drones, 2 pads, equal 10 Wh deficits: two batches of 360 s, so the
        # swarm spends 720 s at the node, half of it waiting
        held = [40.0] * 4
        svc = node_service_time(held, station(pads=2), [50] * 4, ELSEWHERE, 0, unit_config)
        assert svc.charge_s == pytest.approx(360.0)
        assert svc.wait_s == pytest.approx(360.0)

    def test_platinum_skips_whole_queue(self, unit_config):
        held = [40.0]
        partnership = Partnership(1, "platinum")
        svc = node_service_time(
            held, station(owner=1, pads=1), [50], partnership, 7, unit_config
        )
        assert svc.wait_s == 0.0

    def test_gold_admits_exactly_two_ahead(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(
            held, station(owner=1, pads=1), [50], gold, 7, unit_config
        )
        assert svc.wait_s == pytest.approx(2 * unit_config.exogenous_service_s)

    def test_partner_benefits_only_at_partner_stations(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(
            held, station(owner=2, pads=1), [50], gold, 3, unit_config
        )
        assert svc.wait_s == pytest.approx(3 * unit_config.exogenous_service_s)
        assert svc.cost == pytest.approx(10 / 1000 * unit_config.non_partner_price_per_kwh)

    def test_partner_price_at_partner_station(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(held, station(owner=1), [50], gold, 0, unit_config)
        assert svc.cost == pytest.approx(10 / 1000 * TIERS["gold"].price_per_kwh)

    def test_no_deficit_no_service(self):
        cfg = unit_energy_config(queue_draw_max=4)
        held = [50.0]
        svc = node_service_time(held, station(pads=1), [50], ELSEWHERE, 0, cfg)
        assert svc == (0.0, 0.0, 0.0, 0.0)

    def test_zero_cost_when_nothing_purchased(self, unit_config):
        held = [50.0]
        svc = node_service_time(held, station(), [50], ELSEWHERE, 0, unit_config)
        assert svc.cost == 0.0

    @pytest.mark.parametrize("pads", [1, 2, 3, 4, 8])
    def test_queue_conservation_energy_invariant_of_pads(self, pads, unit_config):
        held = [30.0 + i for i in range(5)]
        svc = node_service_time(held, station(pads=pads), [50] * 5, ELSEWHERE, 0, unit_config)
        # pad count changes wall clock, never the energy purchased; total pad
        # occupancy is the purchased energy over the charge rate
        assert svc.energy_wh == pytest.approx(sum(50 - (30 + i) for i in range(5)))
        occupancy = 3600 * svc.energy_wh / unit_config.charge_rate_w
        assert occupancy == pytest.approx(3600 * svc.energy_wh / 100)

    def test_enough_pads_and_empty_queue_no_wait(self, unit_config):
        held = [20.0 + i for i in range(3)]
        svc = node_service_time(held, station(pads=3), [50] * 3, ELSEWHERE, 0, unit_config)
        assert svc.wait_s == 0.0

    def test_queue_length_deterministic_within_bounds(self):
        cfg = EnergyModelConfig()
        draws = [queue_length(42, node, cfg) for node in range(200)]
        assert all(0 <= q <= cfg.queue_draw_max for q in draws)
        assert draws == [queue_length(42, node, cfg) for node in range(200)]
        assert len(set(draws)) > 1


def cooperative_target(need, config, battery=50.0):
    """The charge target of one empty drone of a cooperative swarm whose next
    leg needs `need` Wh."""
    state = SimpleNamespace(
        provider=simple_provider(battery=battery, cooperative=True), power_w=powers((0.0,), config), stop_units=0
    )
    leg = SimpleNamespace(energies=(need,))
    ctx = SimpleNamespace(energy=config, network=line_network([1000.0]))
    targets, _service = _stop(state, [0.0], 0, leg, ctx, None, 0)
    return targets[0]


class TestCooperativeTarget:
    def test_margin_applied(self, unit_config):
        assert cooperative_target(10.0, unit_config) == pytest.approx(11.0)

    def test_clamped_at_capacity(self, unit_config):
        assert cooperative_target(50.0, unit_config) == 50.0
        assert cooperative_target(60.0, unit_config) == 50.0

    def test_zero_margin_exact_need(self):
        cfg = unit_energy_config(cooperative_margin=0.0)
        assert cooperative_target(10.0, cfg) == 10.0

    def test_remaining_route_need_is_the_flight_power_over_the_route(self):
        """A launched swarm's target for the route ahead is each loaded
        drone's ``flight_power_w`` times the flight seconds, plus margin,
        to the last bit."""
        config = EnergyModelConfig()
        provider = simple_provider(n_drones=3, cooperative=True)
        ctx = make_context(line_network([1000.0]), one_leg_request((2.5, 1.0, 0.2)), config)
        state = _launch(provider, ctx)
        leg = SimpleNamespace(energies=(0.0,) * 3)
        targets, _service = _stop(state, [0.0] * 3, 0, leg, ctx, 2000.0, 0)
        assert targets == [
            flight_power_w(load, config) * (2000.0 / provider.swarm.speed) / 3600.0 * (1.0 + config.cooperative_margin)
            for load in (2.5, 1.0, 0.2)
        ]


@st.composite
def stops(draw):
    """_stop's arguments for a launched swarm of 1-12 slots, cooperative or
    not, at node 0 of a one-leg line: energies held in [0, capacity], leg
    energies up to 2 x capacity, and remaining_m None or drawn."""
    n, capacity = draw(st.integers(1, 12)), draw(st.floats(1.0, 100.0))
    provider = simple_provider(n_drones=n, battery=capacity, cooperative=draw(st.booleans()))
    packages = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    config = EnergyModelConfig(cooperative_margin=draw(st.floats(0.0, 1.0)))
    ctx = make_context(line_network([1000.0]), one_leg_request(packages), config)
    held = draw(st.lists(st.floats(0.0, capacity), min_size=n, max_size=n))
    leg = SimpleNamespace(energies=tuple(draw(st.lists(st.floats(0.0, 2 * capacity), min_size=n, max_size=n))))
    remaining_m = draw(st.one_of(st.none(), st.floats(0.0, 1e6)))
    return _launch(provider, ctx), held, leg, ctx, remaining_m


class TestStopTargets:
    """``_stop`` is the one caller of ``node_service_time``, which trusts it
    for one target per drone, each between the held energy and the battery
    capacity."""

    @given(stops())
    @settings(max_examples=200, deadline=None)
    def test_one_target_per_slot_between_held_and_capacity(self, case):
        state, held, leg, ctx, remaining_m = case
        targets, _service = _stop(state, held, 0, leg, ctx, remaining_m, 0)
        capacity = state.provider.swarm.battery_capacity
        assert len(targets) == len(held)
        assert all(h <= target <= capacity for h, target in zip(held, targets))


class TestExecutionProxy:
    STATIC_FIXED = simple_provider().swarm

    def test_zero_evaluations(self):
        assert execution_time_proxy(0, self.STATIC_FIXED, EnergyModelConfig()) == 0.0

    def test_unit_factors(self):
        assert execution_time_proxy(100, self.STATIC_FIXED, EnergyModelConfig()) == 100.0

    def test_dynamic_flexible_factors(self):
        swarm = simple_provider(dynamic=True, flexible=True).swarm
        assert execution_time_proxy(100, swarm, EnergyModelConfig()) == pytest.approx(195.0)
