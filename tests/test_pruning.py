import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skybroker.config import CapabilityRanges, ScenarioLimits
from skybroker.domain import (
    TIERS,
    DeliveryRequest,
    generate_scenario,
)
from skybroker.harness import build_network
from skybroker.network import build_all_heatmaps, build_region_grid, t_shortest_region_paths
from skybroker.pruning import (
    STRATEGIES,
    capabilities_scores,
    density_scores,
    filter_providers,
    prune,
    select_cohort,
    strategy_scores,
)

from conftest import battery_config, default_network, oracle_select_cohort, simple_provider

# up to 10 packages of up to 2.5 kg
WIDE_LIMITS = ScenarioLimits(max_packages=10, max_package_weight_kg=2.5)


def request(source=1, destination=2, packages=(1.0,), weights=None):
    return DeliveryRequest(
        request_id=1,
        source=source,
        destination=destination,
        packages=packages,
        qos_weights=weights or {"delivery_time": 1.0},
    )


class TestFilter:
    def test_heavy_package_removes_weak_provider(self):
        weak = simple_provider(1, n_drones=4, payload_cap=1.0)
        strong = simple_provider(2, n_drones=4, payload_cap=3.0)
        kept = filter_providers([weak, strong], request(packages=(2.5,)))
        assert [p.provider_id for p in kept] == [2]

    def test_five_packages_need_five_drones(self):
        small = simple_provider(1, n_drones=4)
        big = simple_provider(2, n_drones=5)
        kept = filter_providers([small, big], request(packages=(1.0,) * 5))
        assert [p.provider_id for p in kept] == [2]

    def test_all_capable_all_kept_in_order(self):
        providers = [simple_provider(i, n_drones=3) for i in (3, 1, 2)]
        kept = filter_providers(providers, request())
        assert [p.provider_id for p in kept] == [3, 1, 2]

    def test_no_survivors_signalled(self):
        assert filter_providers([simple_provider(1, n_drones=1)], request(packages=(1.0, 1.0))) == []

    @pytest.mark.parametrize("excess, carried", [(0.0, True), (5e-10, False)])
    def test_package_at_the_payload_capacity_is_carried(self, excess, carried):
        """A package exactly at the payload capacity is carried, and one just
        above it refused; the filter is the one home of the carry rule."""
        provider = simple_provider(1, payload_cap=2.0)
        assert bool(filter_providers([provider], request(packages=(2.0 + excess,)))) == carried

    def test_filtering_monotone_in_capability(self):
        rng = random.Random(4)
        for _ in range(50):
            payload = rng.uniform(0.5, 3)
            size = rng.randint(1, 8)
            provider = simple_provider(1, n_drones=size, payload_cap=payload)
            boosted = simple_provider(1, n_drones=size + 1, payload_cap=payload + 0.5)
            packages = tuple(rng.uniform(0.2, 2.6) for _ in range(rng.randint(1, 7)))
            req = request(packages=packages)
            if filter_providers([provider], req):
                assert filter_providers([boosted], req)


class TestCapabilitiesScore:
    def test_max_on_all_axes_scores_one(self):
        top = simple_provider(1, n_drones=8, battery=100, payload_cap=3, speed=20)
        low = simple_provider(2, n_drones=3, battery=50, payload_cap=1, speed=10)
        assert capabilities_scores([top, low]) == {1: 1.0, 2: 0.0}

    def test_single_provider_cohort_scores_one(self):
        p = simple_provider(1)
        assert capabilities_scores([p]) == {1: 1.0}

    def test_matches_independent_recomputation(self):
        net = default_network(3, 40)
        providers, _ = generate_scenario(7, net, 10, 1, WIDE_LIMITS, CapabilityRanges())
        axes = lambda p: (p.swarm.battery_capacity, p.swarm.speed, p.swarm.payload_capacity, float(p.swarm.size))
        columns = list(zip(*(axes(p) for p in providers)))
        scores = capabilities_scores(providers)
        for p in providers:
            expected = 0.0
            for value, column in zip(axes(p), columns):
                lo, hi = min(column), max(column)
                expected += 1.0 if hi == lo else (value - lo) / (hi - lo)
            expected /= 4
            assert scores[p.provider_id] == pytest.approx(expected)


def region_paths(grid, req, t=3):
    return t_shortest_region_paths(grid, grid.cell_of[req.source], grid.cell_of[req.destination], t)


def score(provider, paths, heatmaps, cohort):
    return density_scores(cohort, paths, heatmaps)[provider.provider_id]


@pytest.fixture
def scored_world():
    net = default_network(5, 60)
    grid = build_region_grid(net, 8)
    heatmaps = build_all_heatmaps(net, grid)
    nodes = sorted(net.nodes)
    return net, grid, heatmaps, nodes


class TestDensityScore:
    def test_zero_partner_density_scores_zero(self, scored_world):
        net, grid, heatmaps, nodes = scored_world
        # a heatmap of zeros for a fictitious extra company
        heatmaps = dict(heatmaps) | {99: (0.0,) * grid.cell_count}
        p = simple_provider(1, charging_provider=99, battery=100, speed=20)
        req = request(source=nodes[0], destination=nodes[-1])
        assert score(p, region_paths(grid, req), heatmaps, [p]) == 0.0

    def test_density_ratio_preserved(self, scored_world):
        net, grid, heatmaps, nodes = scored_world
        req = request(source=nodes[0], destination=nodes[-1])
        a = simple_provider(1, charging_provider=1, tier="gold")
        b = simple_provider(2, charging_provider=2, tier="gold")
        cohort = [a, b]
        doubled = {1: tuple(2 * c for c in heatmaps[2]), 2: heatmaps[2]}
        sa = score(a, region_paths(grid, req), doubled, cohort)
        sb = score(b, region_paths(grid, req), doubled, cohort)
        assert sa == pytest.approx(2 * sb)

    def test_extra_paths_with_lower_sums_do_not_change_max(self, scored_world):
        net, grid, heatmaps, nodes = scored_world
        req = request(source=nodes[0], destination=nodes[-1])
        p = simple_provider(1, charging_provider=1)
        s1 = score(p, region_paths(grid, req, t=1), heatmaps, [p])
        s3 = score(p, region_paths(grid, req, t=3), heatmaps, [p])
        # the max over paths can only grow with t
        assert s3 >= s1

    def test_max_saturates_when_extra_paths_add_nothing(self, scored_world):
        # partner pads only in the source and destination cells: every region
        # path sums the same two cells plus zeros, so t=1 and t=3 agree exactly
        net, grid, heatmaps, nodes = scored_world
        req = request(source=nodes[0], destination=nodes[-1])
        source_cell = grid.cell_of[req.source]
        dest_cell = grid.cell_of[req.destination]
        cells = [0.0] * grid.cell_count
        cells[source_cell] = 5.0
        cells[dest_cell] = 3.0
        sparse = {1: tuple(cells)}
        p = simple_provider(1, charging_provider=1)
        s1 = score(p, region_paths(grid, req, t=1), sparse, [p])
        s3 = score(p, region_paths(grid, req, t=3), sparse, [p])
        assert s1 == s3

    def test_tier_multiplier_ordering(self, scored_world):
        net, grid, heatmaps, nodes = scored_world
        req = request(source=nodes[0], destination=nodes[-1])
        tiers = {}
        for tier in ("platinum", "gold", "silver"):
            p = simple_provider(1, charging_provider=1, tier=tier)
            tiers[tier] = score(p, region_paths(grid, req), heatmaps, [p])
        assert tiers["platinum"] > tiers["gold"] > tiers["silver"] > 0


def oracle_capabilities_score(provider, cohort):
    """Per-provider capabilities score, rebuilding the cohort's columns on every call."""

    def axes(p):
        s = p.swarm
        return (s.battery_capacity, s.speed, s.payload_capacity, float(s.size))

    mine = axes(provider)
    columns = list(zip(*(axes(p) for p in cohort)))
    total = 0.0
    for value, column in zip(mine, columns):
        lo, hi = min(column), max(column)
        total += 1.0 if hi - lo <= 1e-12 else (value - lo) / (hi - lo)
    return total / 4.0


def oracle_density_score(provider, region_paths, heatmaps, cohort):
    """Best of the per-path products (density sum * tier * capabilities), with
    the path that gives it."""
    caps = oracle_capabilities_score(provider, cohort)
    density = heatmaps[provider.partnership.charging_provider_id]
    multiplier = TIERS[provider.partnership.tier].score_multiplier
    best, best_path = -math.inf, None
    for path in region_paths:
        value = sum(density[cell] for cell in path) * multiplier * caps
        if value > best:
            best, best_path = value, path
    return best, best_path


@st.composite
def scored_cohorts(draw):
    """A cohort (often of one provider, often with tied or flat axes), heatmaps
    of arbitrary non-negative densities and region paths over their cells."""
    companies = draw(st.integers(1, 3))
    n_cells = draw(st.integers(1, 9))
    density = st.one_of(st.just(0.0), st.integers(0, 12).map(float), st.floats(0.0, 1e6))
    cells = st.lists(density, min_size=n_cells, max_size=n_cells).map(tuple)
    heatmaps = {cp: draw(cells) for cp in range(1, companies + 1)}
    path = st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=6).map(tuple)
    paths = draw(st.lists(path, min_size=1, max_size=4))

    def axis(lo, hi):
        return draw(st.one_of(st.sampled_from([lo, (lo + hi) / 2, hi]), st.floats(lo, hi)))

    cohort = [
        simple_provider(
            pid,
            n_drones=draw(st.sampled_from([2, 4, 8])),
            battery=axis(50.0, 400.0),
            payload_cap=axis(0.5, 3.0),
            speed=axis(8.0, 25.0),
            charging_provider=draw(st.integers(1, companies)),
            tier=draw(st.sampled_from(sorted(TIERS))),
        )
        for pid in range(1, draw(st.integers(1, 6)) + 1)
    ]
    return cohort, heatmaps, paths


class TestScoresMatchPerProviderOracles:
    """The cohort-wide scores equal the per-provider oracles bit for bit:
    proxy_time and satisfaction depend on them far beyond the pinned seeds."""

    @given(scored_cohorts())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, world):
        cohort, heatmaps, paths = world
        caps = capabilities_scores(cohort)
        density = density_scores(cohort, paths, heatmaps)
        for p in cohort:
            assert caps[p.provider_id] == oracle_capabilities_score(p, cohort)
            expected, _best_path = oracle_density_score(p, paths, heatmaps, cohort)
            assert density[p.provider_id] == expected


def scores(values):
    return {i + 1: v for i, v in enumerate(values)}


class TestPrune:
    def test_half_of_forty(self):
        kept = prune(scores(range(40)), 50.0)
        assert len(kept) == 20

    def test_k_zero_keeps_all(self):
        kept = prune(scores([3, 1, 2]), 0.0)
        assert len(kept) == 3

    def test_floor_and_never_empty(self):
        kept = prune(scores([5.0, 1.0, 3.0]), 90.0)
        assert kept == {1}  # floor(2.7) = 2 removed; the 5.0 survives

    def test_lowest_scores_removed_order_preserved(self):
        kept = prune(scores([5.0, 1.0, 4.0, 2.0]), 50.0)
        assert kept == {1, 3}

    def test_ties_broken_by_lower_provider_id(self):
        kept = prune({1: 1.0, 2: 1.0, 3: 2.0}, 34.0)  # remove floor(3*0.34)=1
        assert kept == {1, 3}

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=99.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_size_formula(self, values, k):
        m = len(values)
        kept = prune(scores(values), k)
        assert len(kept) == max(1, m - math.floor(m * k / 100.0))


class TestSelectCohort:
    def test_brute_is_superset_of_pruned_cohorts(self, scored_world):
        net, grid, heatmaps, nodes = scored_world
        limits = ScenarioLimits(max_packages=4, max_package_weight_kg=2.5)
        providers, _ = generate_scenario(11, net, 12, 1, limits, CapabilityRanges())
        req = request(source=nodes[0], destination=nodes[-1], packages=(1.0,))
        filtered = filter_providers(providers, req)
        brute, ops0 = select_cohort(strategy_scores("brute", filtered, req, grid, heatmaps, 3), filtered, 50.0)
        assert ops0 == 0
        for strategy in ("capabilities", "density"):
            scored = strategy_scores(strategy, filtered, req, grid, heatmaps, 3)
            cohort, ops = select_cohort(scored, filtered, 50.0)
            assert {p.provider_id for p in cohort} <= {p.provider_id for p in brute}
            assert ops > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_strategy_scores_with_its_own_scorer(self, strategy, scored_world):
        """Density is strategy_scores' last branch, so a strategy without a
        branch of its own would score as density; every name ExperimentConfig
        accepts must reach its own scorer."""
        net, grid, heatmaps, nodes = scored_world
        providers, _ = generate_scenario(11, net, 12, 1, WIDE_LIMITS, CapabilityRanges())
        req = request(source=nodes[0], destination=nodes[-1])
        filtered = filter_providers(providers, req)
        paths = t_shortest_region_paths(grid, grid.cell_of[req.source], grid.cell_of[req.destination], 3)
        own = {
            "brute": None,
            "capabilities": capabilities_scores(filtered),
            "density": density_scores(filtered, paths, heatmaps),
        }
        scored, _ops = strategy_scores(strategy, filtered, req, grid, heatmaps, 3)
        assert scored == own[strategy]
        assert [name for name, scores in own.items() if scores == scored] == [strategy]

    def test_score_once_cut_per_k_matches_the_oracle_on_battery_seed_1(self):
        cfg = battery_config(1)
        net = build_network(cfg)
        grid = build_region_grid(net, cfg.grid_resolution)
        heatmaps = build_all_heatmaps(net, grid)
        providers, requests = generate_scenario(
            cfg.seed, net, cfg.n_providers, cfg.n_requests, cfg.limits, cfg.ranges
        )
        cuts = pruned = 0
        for req in requests:
            filtered = filter_providers(providers, req)
            if not filtered:
                continue
            for strategy in cfg.strategies:
                scored = strategy_scores(strategy, filtered, req, grid, heatmaps, cfg.t_paths)
                for k in cfg.k_values:
                    cohort, ops = select_cohort(scored, filtered, k)
                    expected, expected_ops = oracle_select_cohort(
                        strategy, filtered, req, grid, heatmaps, cfg.t_paths, k
                    )
                    assert ([p.provider_id for p in cohort], ops) == ([p.provider_id for p in expected], expected_ops)
                    cuts += 1
                    pruned += len(cohort) < len(filtered)
        assert cuts == 3 * 5 * len(requests) and pruned > cuts / 2
