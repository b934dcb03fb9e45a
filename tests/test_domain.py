import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skybroker.domain import (
    COOPERATIVE,
    DYNAMIC,
    FIXED_FORMATION,
    FLEXIBLE_FORMATION,
    QOS_METRICS,
    STATIC,
    TIER_PRICES_PER_KWH,
    NON_PARTNER_PRICE_PER_KWH,
    CapabilityRanges,
    DeliveryRequest,
    Drone,
    Formation,
    Partnership,
    QosVector,
    ScenarioLimits,
    Swarm,
    assign_packages,
    generate_scenario,
    normalize_weights,
)
from skybroker.network import synthetic_network


class TestNormalizeWeights:
    def test_already_normalized_returned_unchanged(self):
        raw = {"delivery_time": 0.6, "energy": 0.2, "cost": 0.2, "execution_time": 0.0}
        assert normalize_weights(raw) == raw

    def test_proportional_scaling(self):
        out = normalize_weights({"delivery_time": 3, "energy": 1, "cost": 1, "execution_time": 1})
        assert out["delivery_time"] == pytest.approx(0.5)
        for metric in ("energy", "cost", "execution_time"):
            assert out[metric] == pytest.approx(1 / 6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_weights({m: 0.0 for m in QOS_METRICS})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights({"delivery_time": -1.0})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            normalize_weights({"latency": 1.0})

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_one_and_argmax_preserved(self, values):
        raw = dict(zip(QOS_METRICS, values))
        out = normalize_weights(raw)
        assert abs(sum(out.values()) - 1.0) <= 1e-12
        assert max(QOS_METRICS, key=raw.get) == max(QOS_METRICS, key=out.get)
        # idempotent
        assert normalize_weights(out) == out

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=4, max_size=4),
        st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_scaling(self, values, scale):
        raw = dict(zip(QOS_METRICS, values))
        scaled = {m: v * scale for m, v in raw.items()}
        assert normalize_weights(raw) == normalize_weights(scaled)


class TestDomainInvariants:
    def test_drone_validation(self):
        with pytest.raises(ValueError):
            Drone(1, battery_capacity=10, payload_capacity=1, speed=0.0)
        with pytest.raises(ValueError):
            Drone(1, battery_capacity=10, payload_capacity=1, speed=5, current_energy=11)
        d = Drone(1, battery_capacity=10, payload_capacity=1, speed=5)
        assert d.current_energy == 10  # defaults to full

    def _drones(self, n=2):
        return tuple(Drone(i, 50, 2, 10) for i in range(1, n + 1))

    def test_swarm_needs_exactly_one_behaviour(self):
        with pytest.raises(ValueError, match="static"):
            Swarm(self._drones(), frozenset({FIXED_FORMATION}), Formation.VEE)
        with pytest.raises(ValueError, match="static"):
            Swarm(self._drones(), frozenset({STATIC, DYNAMIC, FIXED_FORMATION}), Formation.VEE)

    def test_swarm_needs_exactly_one_formation_policy(self):
        with pytest.raises(ValueError, match="formation"):
            Swarm(self._drones(), frozenset({STATIC}), Formation.VEE)
        with pytest.raises(ValueError):
            Swarm(
                self._drones(),
                frozenset({STATIC, FIXED_FORMATION, FLEXIBLE_FORMATION}),
                Formation.VEE,
            )

    def test_swarm_homogeneity(self):
        drones = (Drone(1, 50, 2, 10), Drone(2, 60, 2, 10))
        with pytest.raises(ValueError, match="homogeneous"):
            Swarm(drones, frozenset({STATIC, FIXED_FORMATION}), Formation.VEE)

    def test_swarm_technique_flags(self):
        s = Swarm(self._drones(), frozenset({DYNAMIC, FLEXIBLE_FORMATION, COOPERATIVE}), Formation.COLUMN)
        assert s.is_dynamic and s.is_flexible and s.is_cooperative

    def test_platinum_queue_skip_unlimited(self):
        with pytest.raises(ValueError, match="platinum"):
            Partnership(1, "platinum", 0.15, queue_skip=3)
        p = Partnership.for_tier(1, "platinum")
        assert p.queue_skip is None

    def test_tier_price_ordering(self):
        assert (
            TIER_PRICES_PER_KWH["platinum"]
            < TIER_PRICES_PER_KWH["gold"]
            < TIER_PRICES_PER_KWH["silver"]
            < NON_PARTNER_PRICE_PER_KWH
        )

    def test_queue_ahead_semantics(self):
        gold = Partnership.for_tier(4, "gold")
        platinum = Partnership.for_tier(4, "platinum")
        # at partner stations the tier caps how many queued drones go first
        assert gold.queue_ahead(7, station_owner=4) == 2
        assert platinum.queue_ahead(7, station_owner=4) == 0
        # elsewhere the whole queue applies
        assert gold.queue_ahead(7, station_owner=9) == 7

    def test_request_validation(self):
        with pytest.raises(ValueError, match="differ"):
            DeliveryRequest(1, 3, 3, (1.0,), {"cost": 1.0})
        with pytest.raises(ValueError, match="package"):
            DeliveryRequest(1, 1, 2, (), {"cost": 1.0})
        with pytest.raises(ValueError):
            DeliveryRequest(1, 1, 2, (0.0,), {"cost": 1.0})
        r = DeliveryRequest(1, 1, 2, (1.5,), {"cost": 2.0, "energy": 2.0})
        assert sum(r.qos_weights.values()) == pytest.approx(1.0)

    def test_qos_vector_validation(self):
        with pytest.raises(ValueError):
            QosVector(-1.0, 0, 0, 0)
        with pytest.raises(ValueError):
            QosVector(math.inf, 0, 0, 0)
        q = QosVector(1, 2, 3, 4)
        assert q.as_dict() == {
            "delivery_time": 1.0,
            "energy": 2.0,
            "cost": 3.0,
            "execution_time": 4.0,
        }


class TestAssignPackages:
    def test_heaviest_first_onto_least_loaded(self):
        swarm = Swarm(
            tuple(Drone(i, 50, 3, 10) for i in (1, 2, 3)),
            frozenset({STATIC, FIXED_FORMATION}),
            Formation.VEE,
        )
        loaded = assign_packages(swarm, [1.0, 3.0, 2.0])
        assert [d.assigned_payload for d in loaded.drones] == [3.0, 2.0, 1.0]

    def test_one_package_per_drone_when_feasible(self):
        swarm = Swarm(
            tuple(Drone(i, 50, 3, 10) for i in range(1, 6)),
            frozenset({STATIC, FIXED_FORMATION}),
            Formation.VEE,
        )
        loaded = assign_packages(swarm, [1.0, 1.5])
        assert [d.assigned_payload for d in loaded.drones] == [1.5, 1.0, 0.0, 0.0, 0.0]

    def test_more_packages_than_drones_rejected(self):
        swarm = Swarm(
            tuple(Drone(i, 50, 3, 10) for i in (1, 2)),
            frozenset({STATIC, FIXED_FORMATION}),
            Formation.VEE,
        )
        with pytest.raises(ValueError, match="3 packages need one drone each, the swarm has 2"):
            assign_packages(swarm, [1.0, 1.0, 1.0])


class TestGenerateScenario:
    def test_limits_respected(self):
        net = synthetic_network(1, 50)
        limits = ScenarioLimits(max_packages=10, max_package_weight_kg=2.5)
        _, requests = generate_scenario(3, net, 10, 40, limits)
        for r in requests:
            assert len(r.packages) <= 10
            assert max(r.packages) <= 2.5

    def test_deterministic_byte_identical(self):
        net = synthetic_network(1, 50)
        a = generate_scenario(9, net, 15, 20)
        b = generate_scenario(9, net, 15, 20)
        assert a == b

    def test_zero_counts_rejected(self):
        net = synthetic_network(1, 50)
        with pytest.raises(ValueError):
            generate_scenario(1, net, 0, 5)
        with pytest.raises(ValueError):
            generate_scenario(1, net, 5, 0)

    def test_every_provider_has_one_partnership_with_known_company(self):
        net = synthetic_network(2, 60)
        providers, _ = generate_scenario(4, net, 40, 1)
        for p in providers:
            assert p.partnership.charging_provider_id in net.charging_providers

    def test_tier_frequencies_roughly_uniform_over_seeds(self):
        net = synthetic_network(2, 40)
        counts = collections.Counter()
        for seed in range(100):
            providers, _ = generate_scenario(seed, net, 40, 1)
            counts.update(p.partnership.tier for p in providers)
        total = sum(counts.values())
        for tier in ("platinum", "gold", "silver"):
            assert abs(counts[tier] / total - 1 / 3) < 0.05

    def test_capability_ranges_honoured(self):
        net = synthetic_network(2, 40)
        ranges = CapabilityRanges(battery_wh=(10, 20), speed_mps=(5, 6), payload_kg=(2, 2.5), swarm_size=(2, 4))
        providers, _ = generate_scenario(0, net, 30, 1, ranges=ranges)
        for p in providers:
            d = p.swarm.drones[0]
            assert 10 <= d.battery_capacity <= 20
            assert 5 <= d.speed <= 6
            assert 2 <= d.payload_capacity <= 2.5
            assert 2 <= p.swarm.size <= 4
