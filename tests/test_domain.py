import collections
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skybroker.config import CapabilityRanges, ConfigurationError, EnergyModelConfig, ScenarioLimits
from skybroker.domain import (
    QOS_METRICS,
    TIERS,
    DeliveryRequest,
    Formation,
    Partnership,
    QosVector,
    Swarm,
    assign_packages,
    generate_scenario,
    normalize_weights,
)
from skybroker.harness import ExperimentConfig
from skybroker.pruning import filter_providers

from conftest import default_network, simple_provider

# up to 10 packages of up to 2.5 kg
WIDE_LIMITS = ScenarioLimits(max_packages=10, max_package_weight_kg=2.5)


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

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"delivery_time": math.nan, "energy": 1.0}, "^QoS weight delivery_time must be finite and non-negative, got nan$"),
            ({"energy": 1.0, "cost": math.inf}, "^QoS weight cost must be finite and non-negative, got inf$"),
            ({"energy": 1e308, "cost": 1e308}, r"^QoS weights \[0\.0, 1e\+308, 1e\+308, 0\.0\] sum past the largest float$"),
        ],
    )
    def test_non_finite_refused(self, raw, message):
        with pytest.raises(ValueError, match=message):
            normalize_weights(raw)

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=4, max_size=4),
    )
    # execution_time is the raw argmax, but it and cost round to one weight
    @example([1.0, 360.5, 999.9999999999999, 1000.0])
    @settings(max_examples=200, deadline=None)
    def test_sum_one_and_order_preserved(self, values):
        """Dividing by a positive total keeps every pair's order, but not
        strictly: two close weights may round to the same one."""
        raw = dict(zip(QOS_METRICS, values))
        out = normalize_weights(raw)
        assert abs(sum(out.values()) - 1.0) <= 1e-12
        for a, b in itertools.permutations(QOS_METRICS, 2):
            if raw[a] <= raw[b]:
                assert out[a] <= out[b]
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


def make_swarm(**spec):
    """Two static, fixed-formation, non-cooperative drones of 50 Wh, 3 kg and
    10 m/s flying vee unless spec overrides them."""
    fields = dict(
        size=2, battery_capacity=50.0, payload_capacity=3.0, speed=10.0,
        dynamic=False, flexible=False, cooperative=False, formation=Formation.VEE,
    )
    return Swarm(**(fields | spec))


class TestDomainInvariants:
    def test_swarm_validation(self):
        with pytest.raises(ValueError, match="speed"):
            make_swarm(speed=0.0)
        with pytest.raises(ValueError, match="at least one drone"):
            make_swarm(size=0)
        with pytest.raises(ValueError, match="battery_capacity"):
            make_swarm(battery_capacity=0.0)
        with pytest.raises(ValueError, match="payload_capacity"):
            make_swarm(payload_capacity=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [("battery_capacity", math.nan), ("speed", math.nan), ("payload_capacity", math.inf), ("speed", math.inf)],
    )
    def test_swarm_non_finite_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            make_swarm(**{name: value})

    def test_tier_price_ordering(self):
        assert (
            TIERS["platinum"].price_per_kwh
            < TIERS["gold"].price_per_kwh
            < TIERS["silver"].price_per_kwh
            < EnergyModelConfig().non_partner_price_per_kwh
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown partnership tier 'bronze'"):
            Partnership(1, "bronze")

    def test_queue_ahead_semantics(self):
        gold = Partnership(4, "gold")
        platinum = Partnership(4, "platinum")
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

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_request_non_finite_package_refused(self, weight):
        with pytest.raises(ValueError, match=f"^package weight {weight} must be positive and finite$"):
            DeliveryRequest(1, 1, 2, (1.0, weight), {"cost": 1.0})

    def test_qos_vector_validation(self):
        with pytest.raises(ValueError):
            QosVector(-1.0, 0, 0, 0)
        with pytest.raises(ValueError):
            QosVector(math.inf, 0, 0, 0)


class TestAssignPackages:
    def test_heaviest_first_onto_least_loaded(self):
        assert assign_packages(make_swarm(size=3), [1.0, 3.0, 2.0]) == (3.0, 2.0, 1.0)

    def test_one_package_per_drone_when_feasible(self):
        assert assign_packages(make_swarm(size=5), [1.0, 1.5]) == (1.5, 1.0)

    @given(st.integers(1, 8), st.floats(0.5, 3.0), st.lists(st.floats(0.1, 3.0), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_the_filter_keeps_exactly_the_providers_that_carry_their_loads(self, size, payload, packages):
        """compose only gets filtered providers, so assign_packages trusts
        filter_providers' carry rule: one drone per package, none loaded past
        its payload capacity."""
        provider = simple_provider(n_drones=size, payload_cap=payload)
        req = DeliveryRequest(
            request_id=1, source=1, destination=2, packages=tuple(packages), qos_weights={"delivery_time": 1.0}
        )
        loads = assign_packages(provider.swarm, req.packages)
        assert sorted(loads) == sorted(packages) and list(loads) == sorted(loads, reverse=True)
        carried = len(loads) <= size and max(loads) <= payload
        assert bool(filter_providers([provider], req)) == carried


# (dynamic, flexible, cooperative, formation, partner company, tier) of each provider
# of generate_scenario(4, default_network(2, 60), 40, 1, WIDE_LIMITS, CapabilityRanges())
PINNED_FLEET = [
    (False, False, True, "COLUMN", 3, "platinum"),
    (False, True, True, "VEE", 3, "gold"),
    (False, True, False, "COLUMN", 2, "platinum"),
    (True, False, False, "COLUMN", 3, "silver"),
    (False, False, True, "VEE", 1, "platinum"),
    (True, False, False, "DIAMOND", 1, "gold"),
    (True, True, False, "FRONT", 5, "platinum"),
    (True, False, True, "DIAMOND", 3, "gold"),
    (True, False, True, "FRONT", 2, "silver"),
    (True, False, False, "FRONT", 2, "gold"),
    (True, False, True, "FRONT", 3, "gold"),
    (False, False, True, "DIAMOND", 5, "silver"),
    (False, True, False, "VEE", 5, "gold"),
    (False, False, True, "ECHELON", 1, "platinum"),
    (True, False, True, "FRONT", 3, "platinum"),
    (False, True, True, "FRONT", 5, "platinum"),
    (True, True, True, "DIAMOND", 5, "platinum"),
    (True, False, False, "FRONT", 3, "gold"),
    (False, True, False, "DIAMOND", 3, "silver"),
    (True, True, False, "DIAMOND", 1, "platinum"),
    (True, True, False, "COLUMN", 1, "platinum"),
    (True, True, True, "VEE", 5, "platinum"),
    (False, True, True, "COLUMN", 1, "gold"),
    (True, True, True, "FRONT", 4, "platinum"),
    (False, True, False, "ECHELON", 4, "silver"),
    (True, True, True, "COLUMN", 2, "gold"),
    (True, True, False, "VEE", 2, "platinum"),
    (True, False, False, "ECHELON", 3, "gold"),
    (False, True, False, "ECHELON", 5, "gold"),
    (True, True, True, "COLUMN", 3, "silver"),
    (False, True, False, "FRONT", 2, "silver"),
    (True, False, True, "FRONT", 3, "platinum"),
    (True, False, True, "COLUMN", 4, "silver"),
    (False, True, False, "DIAMOND", 5, "silver"),
    (False, True, False, "FRONT", 3, "platinum"),
    (True, True, False, "FRONT", 3, "gold"),
    (True, True, True, "ECHELON", 5, "platinum"),
    (True, False, False, "ECHELON", 2, "silver"),
    (False, False, True, "VEE", 2, "gold"),
    (True, False, False, "DIAMOND", 1, "platinum"),
]


class TestGenerateScenario:
    def test_limits_respected(self):
        net = default_network(1, 50)
        _, requests = generate_scenario(3, net, 10, 40, WIDE_LIMITS, CapabilityRanges())
        for r in requests:
            assert len(r.packages) <= 10
            assert max(r.packages) <= 2.5
            assert r.source in net.nodes and r.destination in net.nodes  # request_context trusts this

    def test_deterministic_byte_identical(self):
        net = default_network(1, 50)
        a = generate_scenario(9, net, 15, 20, WIDE_LIMITS, CapabilityRanges())
        b = generate_scenario(9, net, 15, 20, WIDE_LIMITS, CapabilityRanges())
        assert a == b

    def test_zero_counts_rejected(self):
        # the experiment config's rules keep zero counts from generate_scenario
        with pytest.raises(ConfigurationError, match="^experiment config n_providers must be positive, got 0$"):
            ExperimentConfig(n_providers=0)
        with pytest.raises(ConfigurationError, match="^experiment config n_requests must be positive, got 0$"):
            ExperimentConfig(n_requests=0)

    def test_fleet_pinned(self):
        """Techniques, formation and partnership of each generated provider are
        pinned, so a change in the order of the draws fails here and not only
        through the output digests."""
        providers, _ = generate_scenario(4, default_network(2, 60), 40, 1, WIDE_LIMITS, CapabilityRanges())
        fleet = [
            (p.swarm.dynamic, p.swarm.flexible, p.swarm.cooperative, p.swarm.formation.name,
             p.partnership.charging_provider_id, p.partnership.tier)
            for p in providers
        ]
        assert fleet == PINNED_FLEET

    def test_every_provider_has_one_partnership_with_known_company(self):
        net = default_network(2, 60)
        providers, _ = generate_scenario(4, net, 40, 1, WIDE_LIMITS, CapabilityRanges())
        for p in providers:
            assert p.partnership.charging_provider_id in net.charging_providers

    def test_tier_frequencies_roughly_uniform_over_seeds(self):
        net = default_network(2, 40)
        counts = collections.Counter()
        for seed in range(100):
            providers, _ = generate_scenario(seed, net, 40, 1, WIDE_LIMITS, CapabilityRanges())
            counts.update(p.partnership.tier for p in providers)
        total = sum(counts.values())
        for tier in ("platinum", "gold", "silver"):
            assert abs(counts[tier] / total - 1 / 3) < 0.05

    def test_capability_ranges_honoured(self):
        net = default_network(2, 40)
        ranges = CapabilityRanges(battery_wh=(10, 20), speed_mps=(5, 6), payload_kg=(2, 2.5), swarm_size=(2, 4))
        providers, _ = generate_scenario(0, net, 30, 1, WIDE_LIMITS, ranges)
        for p in providers:
            s = p.swarm
            assert 10 <= s.battery_capacity <= 20
            assert 5 <= s.speed <= 6
            assert 2 <= s.payload_capacity <= 2.5
            assert 2 <= p.swarm.size <= 4


class TestScenarioRanges:
    """Scenario limits and capability ranges fail at construction, naming the
    field, instead of deep inside generate_scenario (or not at all)."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(max_packages=0), "max_packages"),
            (dict(max_packages=2.5), "max_packages"),
            (dict(min_package_weight_kg=0.0), "min_package_weight_kg"),
            (dict(min_package_weight_kg=-0.5), "min_package_weight_kg"),
            (dict(max_package_weight_kg=math.inf), "max_package_weight_kg"),
            (dict(max_package_weight_kg=math.nan), "max_package_weight_kg"),
            (dict(min_package_weight_kg=2.5, max_package_weight_kg=2.0), "min_package_weight_kg"),
        ],
    )
    def test_bad_limits_refused(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScenarioLimits(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(battery_wh=(0.0, 50.0)), "battery_wh"),
            (dict(battery_wh=(100.0, 50.0)), "battery_wh"),
            (dict(speed_mps=(-1.0, 20.0)), "speed_mps"),
            (dict(speed_mps=(10.0, math.inf)), "speed_mps"),
            (dict(payload_kg=(math.nan, 3.0)), "payload_kg"),
            (dict(swarm_size=(5, 2)), "swarm_size"),
            (dict(swarm_size=(0, 4)), "swarm_size"),
            (dict(swarm_size=(2.5, 4)), "swarm_size"),
        ],
    )
    def test_bad_ranges_refused(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CapabilityRanges(**kwargs)

    def test_experiment_config_with_bad_limits_fails_at_construction(self):
        with pytest.raises(ValueError, match="max_packages"):
            ExperimentConfig(limits=ScenarioLimits(max_packages=0))

    def test_defaults_and_wide_limits_construct(self):
        ExperimentConfig()
        assert WIDE_LIMITS.max_packages == 10
        assert CapabilityRanges(swarm_size=(1, 1)).swarm_size == (1, 1)
