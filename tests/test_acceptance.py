"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. The experiment battery (the ``battery`` fixture of conftest.py: 10
seeded desk-scale scenarios, all three pruning strategies, the full k sweep and
all five recommendation methods) runs once and is sliced by the individual
criteria.
"""

import random
import statistics

import pytest

from skybroker.composition import compose
from skybroker.config import ScenarioLimits
from skybroker.domain import Partnership
from skybroker.harness import ExperimentConfig, run_experiment, spearman
from skybroker.network import t_shortest_region_paths
from skybroker.recommend import (
    Ballot,
    borda,
    build_ballots,
    condorcet,
    instant_runoff,
    plurality,
    top_weight,
)

from conftest import (
    K_VALUES,
    METHODS,
    SEEDS,
    STRATEGIES,
    check_flown,
    composable_requests,
    compose_flown,
    oracle_condorcet,
    oracle_irv,
    oracle_region_paths,
    random_election,
    region_grid,
)


def report(name, passed, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def summary_lookup(result):
    return {(e.strategy, e.method, e.k_percent): e for e in result.summary}


def test_pruning_strategy_ordering(battery):
    """Fig. 6a trend: mean satisfaction brute >= density >= capabilities, the
    brute-density gap small, density >= capabilities on at least 8 of 10 seeds,
    and each scenario composed in under five minutes."""
    means = {s: [] for s in STRATEGIES}
    density_wins = 0
    slowest = 0.0
    for seed in SEEDS:
        run = battery[seed]
        slowest = max(slowest, run.wall_s)
        table = summary_lookup(run.result)
        per_seed = {s: table[(s, "irv", 50.0)].mean_satisfaction for s in STRATEGIES}
        for s in STRATEGIES:
            means[s].append(per_seed[s])
        if per_seed["density"] >= per_seed["capabilities"]:
            density_wins += 1
    grand = {s: statistics.fmean(means[s]) for s in STRATEGIES}
    gap = grand["brute"] - grand["density"]
    ordering = grand["brute"] >= grand["density"] >= grand["capabilities"]
    passed = ordering and 0.0 <= gap <= 0.15 and density_wins >= 8 and slowest < 300.0
    report(
        "pruning-strategy-ordering",
        passed,
        f"brute={grand['brute']:.4f} density={grand['density']:.4f} "
        f"capabilities={grand['capabilities']:.4f}, gap={gap:.4f}, "
        f"density>=capabilities on {density_wins}/10 seeds, slowest scenario {slowest:.1f}s",
    )


def test_pruning_runtime_proxy(battery):
    """Fig. 6b trend: density pruning at k=50 costs at most 60% of brute-force
    composition evaluations on every seed, scoring overhead included."""
    worst = 0.0
    for seed in SEEDS:
        totals = {"brute": 0.0, "density": 0.0}
        seen = set()
        for row in battery[seed].result.rows:
            key = (row.request_id, row.strategy)
            if row.k_percent != 50.0 or row.strategy not in totals or key in seen:
                continue
            seen.add(key)
            totals[row.strategy] += row.proxy_time
        worst = max(worst, totals["density"] / totals["brute"])
    report(
        "pruning-runtime-proxy",
        worst <= 0.60,
        f"worst density/brute evaluation ratio {worst:.3f} <= 0.60",
    )


def test_k_sweep_monotonicity(battery):
    """Fig. 7 trend: aggregated over seeds, satisfaction and proxy runtime both
    fall as the pruning percentage k grows."""
    sat = {k: [] for k in K_VALUES}
    proxy = {k: [] for k in K_VALUES}
    for seed in SEEDS:
        table = summary_lookup(battery[seed].result)
        for k in K_VALUES:
            sat[k].append(table[("density", "irv", k)].mean_satisfaction)
            proxy[k].append(table[("density", "irv", k)].mean_proxy_time)
    mean_sat = [statistics.fmean(sat[k]) for k in K_VALUES]
    mean_proxy = [statistics.fmean(proxy[k]) for k in K_VALUES]
    rho_sat = spearman(list(K_VALUES), mean_sat)
    rho_proxy = spearman(list(K_VALUES), mean_proxy)
    passed = rho_sat is not None and rho_sat <= -0.5 and rho_proxy is not None and rho_proxy <= -0.9
    report(
        "k-sweep-monotonicity",
        passed,
        f"satisfaction vs k rho={rho_sat:.3f} (<= -0.5), proxy vs k rho={rho_proxy:.3f} (<= -0.9), "
        f"satisfaction means {[round(v, 4) for v in mean_sat]}",
    )


def test_voting_comparison(battery):
    """Fig. 8a trend: every ranked vote-count system beats the Top Weight
    baseline on at least 8 of 10 seeds and Borda attains the best mean among
    the four on at least 6 of 10 seeds."""
    ranked = ("plurality", "irv", "borda", "condorcet")
    beats = {m: 0 for m in ranked}
    borda_best = 0
    for seed in SEEDS:
        table = summary_lookup(battery[seed].result)
        means = {m: table[("density", m, 50.0)].mean_satisfaction for m in METHODS}
        for m in ranked:
            if means[m] >= means["topweight"]:
                beats[m] += 1
        if means["borda"] >= max(means[m] for m in ranked):
            borda_best += 1
    passed = all(v >= 8 for v in beats.values()) and borda_best >= 6
    report(
        "voting-comparison",
        passed,
        f"seeds beating topweight {beats}, borda best on {borda_best}/10 seeds",
    )


def test_condorcet_operation_cost(battery):
    """Fig. 8b trend: with four or more candidates the pairwise Condorcet
    election performs strictly more tally operations than the other systems."""
    checked = 0
    for seed in SEEDS:
        by_request = {}
        for row in battery[seed].result.rows:
            if row.strategy == "density" and row.k_percent == 50.0:
                by_request.setdefault(row.request_id, {})[row.method] = row
        for rows in by_request.values():
            if len(rows) < len(METHODS) or rows["condorcet"].cohort_successes < 4:
                continue
            checked += 1
            cond = rows["condorcet"].recommend_ops
            assert all(cond > rows[m].recommend_ops for m in ("plurality", "irv", "borda"))
    report(
        "condorcet-operation-cost",
        checked > 100,
        f"condorcet op count strictly greatest on all {checked} elections with u >= 4",
    )


def test_exact_paper_arithmetic():
    """Exact equalities quoted from the source material."""
    ballots = [
        Ballot("v1", 1.0, (1, 2, 3)),
        Ballot("v2", 1.0, (1, 3, 2)),
        Ballot("v3", 1.0, (2, 1, 3)),
        Ballot("v4", 1.0, (3, 1, 2)),
        Ballot("v5", 1.0, (2, 1, 3)),
    ]
    borda_points = borda(ballots).tallies[1]
    # the expected QoS in raw units: (high - low) * weight + low
    eqos = (50.0 - 15.0) * 0.6 + 15.0
    gold = Partnership(1, "gold")
    platinum = Partnership(1, "platinum")
    gold_ahead = {q: gold.queue_ahead(q, 1) for q in range(2, 11)}
    platinum_ahead = {q: platinum.queue_ahead(q, 1) for q in range(0, 11)}
    passed = (
        borda_points == 12.0
        and eqos == 36.0
        and all(v == 2 for v in gold_ahead.values())
        and all(v == 0 for v in platinum_ahead.values())
    )
    report(
        "exact-paper-arithmetic",
        passed,
        f"borda example points={borda_points}, raw expectation={eqos}, "
        f"gold admits exactly 2 ahead, platinum 0",
    )


# --- oracle equivalence suites ------------------------------------------------


def test_oracle_equivalence_instant_runoff():
    rng = random.Random(1001)
    for _ in range(500):
        ballots = random_election(rng)
        seed = rng.randrange(2**32)
        assert instant_runoff(ballots, seed).winner == oracle_irv(ballots, seed)
    report("oracle-irv", True, "500 seeded elections with u <= 4 match the brute-force enumerator")


def test_oracle_equivalence_borda():
    rng = random.Random(1002)
    for _ in range(500):
        ballots = random_election(rng)
        u = len(ballots[0].ranking)
        expected = {c: 0.0 for c in ballots[0].ranking}
        for b in ballots:
            for position, candidate in enumerate(b.ranking):
                expected[candidate] += b.weight * (u - position)
        result = borda(ballots)
        assert result.tallies == pytest.approx(expected)
        assert result.winner == min(expected, key=lambda c: (-expected[c], c))
    report("oracle-borda", True, "500 seeded elections match independent recomputation")


def test_oracle_equivalence_condorcet():
    """Wins, winner and paradox flag against the brute-force pairwise counts;
    every other election draws its weights from two values, so pairs tie."""
    rng = random.Random(1003)
    paradoxes = 0
    for i in range(500):
        ballots = random_election(rng, max_candidates=5, weights=(0.25, 0.5) if i % 2 else None)
        seed = rng.randrange(2**32)
        wins, top = oracle_condorcet(ballots)
        result = condorcet(ballots, seed)
        assert result.tallies == wins
        assert result.paradox == (len(top) > 1)
        assert result.winner == (top[0] if len(top) == 1 else random.Random(seed).choice(top))
        paradoxes += result.paradox
    report(
        "oracle-condorcet",
        True,
        f"500 seeded elections with u <= 5, half with tied weights, match brute-force pairwise counts "
        f"({paradoxes} paradoxes)",
    )


def test_oracle_equivalence_region_paths():
    rng = random.Random(1004)
    for _ in range(500):
        resolution = rng.randint(2, 4)
        grid = region_grid(resolution)
        source = rng.randrange(grid.cell_count)
        dest = rng.randrange(grid.cell_count)
        t = rng.randint(1, 6)
        got = t_shortest_region_paths(grid, source, dest, t)
        if len(got) == t:
            max_hops = len(got[-1]) - 1
        else:
            max_hops = grid.cell_count - 1  # saturated: enumerate everything
        expected = oracle_region_paths(grid, source, dest, t, max_hops)
        assert got == expected
    report("oracle-region-paths", True, "500 seeded grid instances match exhaustive enumeration")


# --- invariant suites ---------------------------------------------------------


def _composition_batch(seed):
    cfg = ExperimentConfig(
        seed=seed,
        synthetic_nodes=70,
        n_providers=12,
        n_requests=10,
        limits=ScenarioLimits(max_packages=5, max_package_weight_kg=2.0),
    )
    for _request, feasible, ctx in composable_requests(cfg):
        for provider in feasible:
            yield provider, ctx, *compose_flown(provider, ctx)


def test_invariant_energy_conservation_and_time_identity():
    checked = successes = 0
    for seed in (101, 102, 103):
        for provider, ctx, out, flown in _composition_batch(seed):
            check_flown(provider, ctx.comp, out, flown)
            checked += 1
            successes += out.success
    report(
        "invariant-energy-and-time",
        successes >= 100,
        f"energy ledger closed within 1e-9 of capacity and delivery time identity exact on {checked} "
        f"compositions, {successes} successful",
    )


def _split_at_tree_suffix(path, parent):
    """(prefix, suffix) of path, the suffix being its longest tail that follows
    the parent pointers of the destination's shortest-path tree."""
    start = len(path) - 1
    while start > 0 and parent.get(path[start - 1]) == path[start]:
        start -= 1
    return path[:start], path[start:]


def test_invariant_loop_freedom_of_greedy_prefix_and_tree_suffix():
    # greedy moves never revisit a node; the committed direct path follows the
    # tree and may cross nodes already visited (see the composition docstring)
    paths = repeating = 0
    for seed in (101, 102, 103):
        for provider, ctx, out, _ in _composition_batch(seed):
            for path in out.paths:
                prefix, suffix = _split_at_tree_suffix(path, ctx.parent_to_dest)
                assert len(set(prefix)) == len(prefix), (provider.provider_id, ctx.request.request_id, path)
                assert len(set(suffix)) == len(suffix), (provider.provider_id, ctx.request.request_id, path)
                paths += 1
                repeating += len(set(path)) != len(path)
    report(
        "invariant-loop-freedom",
        repeating > 0,
        f"greedy prefix and tree suffix loop-free on all {paths} sub-swarm paths; "
        f"{repeating} paths repeat a node across the two",
    )


def test_invariant_weight_scaling_of_all_winners():
    rng = random.Random(77)
    cfg = ExperimentConfig(
        seed=55,
        synthetic_nodes=60,
        n_providers=10,
        n_requests=8,
        limits=ScenarioLimits(max_packages=4, max_package_weight_kg=2.0),
    )
    elections = 0
    for request, feasible, ctx in composable_requests(cfg):
        outcomes = [compose(p, ctx) for p in feasible]
        pqos = {o.provider_id: o.pqos for o in outcomes if o.success}
        if len(pqos) < 2:
            continue
        elections += 1
        scale = rng.choice((0.25, 0.5, 2.0, 4.0))
        base = build_ballots(pqos, request.qos_weights)
        # weights renormalize at request construction, so apply the scale to the
        # ballots directly: argmax invariance must hold either way
        scaled = [Ballot(b.voter, b.weight * scale, b.ranking) for b in base]
        tie_seed = rng.randrange(2**32)
        assert plurality(base).winner == plurality(scaled).winner
        assert instant_runoff(base, tie_seed).winner == instant_runoff(scaled, tie_seed).winner
        assert borda(base).winner == borda(scaled).winner
        assert condorcet(base, tie_seed).winner == condorcet(scaled, tie_seed).winner
        assert top_weight(base) == top_weight(scaled)
    report(
        "invariant-weight-scaling",
        elections >= 5,
        f"all five recommendation methods invariant under weight scaling on {elections} composed elections",
    )


def test_invariant_deterministic_csv_bytes(tmp_path):
    cfg = ExperimentConfig(
        seed=3,
        synthetic_nodes=60,
        n_providers=10,
        n_requests=8,
        strategies=("brute", "density"),
        k_values=(50.0,),
        voting_methods=("irv", "borda"),
    )
    run_experiment(cfg, out_dir=tmp_path / "first")
    run_experiment(cfg, out_dir=tmp_path / "second")
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("per_request.csv", "summary.csv", "manifest.json")
    )
    report("invariant-determinism", identical, "two runs emitted byte-identical CSVs and manifest")
