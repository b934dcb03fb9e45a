import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skybroker.composition import _stop
from skybroker.config import EnergyModelConfig
from skybroker.domain import TIERS, Formation, Partnership
from skybroker.energy import (
    WindField,
    best_formation,
    execution_time_proxy,
    node_service_time,
    queue_length,
    relative_sector,
    segment_energy,
)
from skybroker.network import SkywayNode

from conftest import line_network, simple_provider, unit_energy_config

FORMATIONS = tuple(Formation)


class TestSegmentEnergy:
    def test_zero_length_zero_energy(self, unit_config):
        assert segment_energy(0.0, 10.0, 0.0, Formation.VEE, 0, 0, unit_config) == 0.0

    def test_heavier_payload_consumes_strictly_more(self, unit_config):
        light = segment_energy(0.0, 10.0, 500, Formation.VEE, 0, 0, unit_config)
        heavy = segment_energy(2.0, 10.0, 500, Formation.VEE, 0, 0, unit_config)
        assert heavy > light

    def test_hand_computed_value(self, unit_config):
        # 1000 m at 10 m/s with 1 kg payload: (100 + 50) W * 100 s = 15000 J
        e = segment_energy(1.0, 10.0, 1000.0, Formation.VEE, 0, 0, unit_config)
        assert e == pytest.approx(15000.0 / 3600.0)

    def test_negative_length_rejected(self, unit_config):
        with pytest.raises(ValueError):
            segment_energy(0.0, 10.0, -1.0, Formation.VEE, 0, 0, unit_config)

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
        assert segment_energy(lo_p, 10.0, hi_l, Formation.VEE, 0, 0, cfg) <= segment_energy(
            hi_p, 10.0, hi_l, Formation.VEE, 0, 0, cfg
        )
        assert segment_energy(hi_p, 10.0, lo_l, Formation.VEE, 0, 0, cfg) <= segment_energy(
            hi_p, 10.0, hi_l, Formation.VEE, 0, 0, cfg
        )


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


class TestWindField:
    def test_deterministic_per_segment_and_slice(self):
        field = WindField(seed=7, slice_s=600.0)
        a = field.at(3, 5, 100.0)
        b = field.at(5, 3, 100.0)  # undirected
        assert a == b
        assert field.at(3, 5, 100.0) == a
        assert 0 <= a < 2 * math.pi

    def test_piecewise_constant_in_time(self):
        field = WindField(seed=7, slice_s=600.0)
        assert field.at(1, 2, 0.0) == field.at(1, 2, 599.0)


def station(node_id=1, owner=1, pads=4):
    return SkywayNode(node_id, 0.0, 0.0, owner, pads)


# a partnership with a charging company that owns none of the test stations
ELSEWHERE = Partnership(99, "gold")


class TestNodeService:
    def test_parallel_charging_no_wait(self, unit_config):
        held = [40.0] * 4
        svc = node_service_time(50.0, held, station(pads=4), [50] * 4, ELSEWHERE, 0, unit_config)
        assert svc.wait_s == 0.0
        assert svc.charge_s == pytest.approx(3600 * 10 / 100)
        assert svc.energy_wh == pytest.approx(40.0)

    def test_two_batches_hand_simulated(self, unit_config):
        # 4 drones, 2 pads, equal 10 Wh deficits: two batches of 360 s, so the
        # swarm spends 720 s at the node, half of it waiting
        held = [40.0] * 4
        svc = node_service_time(50.0, held, station(pads=2), [50] * 4, ELSEWHERE, 0, unit_config)
        assert svc.charge_s == pytest.approx(360.0)
        assert svc.wait_s == pytest.approx(360.0)

    def test_platinum_skips_whole_queue(self, unit_config):
        held = [40.0]
        partnership = Partnership(1, "platinum")
        svc = node_service_time(
            50.0, held, station(owner=1, pads=1), [50], partnership, 7, unit_config
        )
        assert svc.wait_s == 0.0

    def test_gold_admits_exactly_two_ahead(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(
            50.0, held, station(owner=1, pads=1), [50], gold, 7, unit_config
        )
        assert svc.wait_s == pytest.approx(2 * unit_config.exogenous_service_s)

    def test_partner_benefits_only_at_partner_stations(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(
            50.0, held, station(owner=2, pads=1), [50], gold, 3, unit_config
        )
        assert svc.wait_s == pytest.approx(3 * unit_config.exogenous_service_s)
        assert svc.cost == pytest.approx(10 / 1000 * unit_config.non_partner_price_per_kwh)

    def test_partner_price_at_partner_station(self, unit_config):
        held = [40.0]
        gold = Partnership(1, "gold")
        svc = node_service_time(50.0, held, station(owner=1), [50], gold, 0, unit_config)
        assert svc.cost == pytest.approx(10 / 1000 * TIERS["gold"].price_per_kwh)

    def test_target_above_capacity_rejected(self, unit_config):
        with pytest.raises(ValueError, match="capacity"):
            node_service_time(50.0, [50.0], station(), [51], ELSEWHERE, 0, unit_config)

    def test_target_below_current_rejected(self, unit_config):
        with pytest.raises(ValueError, match="below"):
            node_service_time(50.0, [40.0], station(), [30], ELSEWHERE, 0, unit_config)

    def test_no_deficit_no_service(self):
        cfg = unit_energy_config(queue_draw_max=4)
        held = [50.0]
        svc = node_service_time(50.0, held, station(pads=1), [50], ELSEWHERE, 0, cfg)
        assert svc == (0.0, 0.0, 0.0, 0.0)

    def test_zero_cost_when_nothing_purchased(self, unit_config):
        held = [50.0]
        svc = node_service_time(50.0, held, station(), [50], ELSEWHERE, 0, unit_config)
        assert svc.cost == 0.0

    @pytest.mark.parametrize("pads", [1, 2, 3, 4, 8])
    def test_queue_conservation_energy_invariant_of_pads(self, pads, unit_config):
        held = [30.0 + i for i in range(5)]
        svc = node_service_time(50.0, held, station(pads=pads), [50] * 5, ELSEWHERE, 0, unit_config)
        # pad count changes wall clock, never the energy purchased; total pad
        # occupancy is the purchased energy over the charge rate
        assert svc.energy_wh == pytest.approx(sum(50 - (30 + i) for i in range(5)))
        occupancy = 3600 * svc.energy_wh / unit_config.charge_rate_w
        assert occupancy == pytest.approx(3600 * svc.energy_wh / 100)

    def test_enough_pads_and_empty_queue_no_wait(self, unit_config):
        held = [20.0 + i for i in range(3)]
        svc = node_service_time(50.0, held, station(pads=3), [50] * 3, ELSEWHERE, 0, unit_config)
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
        provider=simple_provider(battery=battery, cooperative=True), loads=(0.0,), evaluations=0
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


class TestExecutionProxy:
    STATIC_FIXED = simple_provider().swarm

    def test_zero_evaluations(self):
        assert execution_time_proxy(0, self.STATIC_FIXED, EnergyModelConfig()) == 0.0

    def test_unit_factors(self):
        assert execution_time_proxy(100, self.STATIC_FIXED, EnergyModelConfig()) == 100.0

    def test_dynamic_flexible_factors(self):
        swarm = simple_provider(dynamic=True, flexible=True).swarm
        assert execution_time_proxy(100, swarm, EnergyModelConfig()) == pytest.approx(195.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            execution_time_proxy(-1, self.STATIC_FIXED, EnergyModelConfig())
