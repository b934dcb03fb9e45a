"""Stage 1 of the broker: capability filtering and search-space pruning.

Three pruning strategies are exposed: "brute" (no pruning), "capabilities"
(min-max capability score) and "density" (partner pad density along the most
likely region paths, scaled by partnership tier and capabilities). A request
scores the filtered providers once per strategy (``strategy_scores``) and cuts
one cohort per pruning percentage k from those scores (``select_cohort``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .domain import TIERS, DeliveryRequest, Provider, normalize_lower_better, total
from .network import RegionGrid, t_shortest_region_paths

STRATEGIES = ("brute", "capabilities", "density")


def filter_providers(providers: Sequence[Provider], request: DeliveryRequest) -> list[Provider]:
    """Keep providers whose drones can carry the heaviest package and whose swarm
    is large enough for one package per drone. Order is preserved; an empty
    list means nobody can carry the request."""
    heaviest = max(request.packages)
    count = len(request.packages)
    return [p for p in providers if p.swarm.payload_capacity >= heaviest and p.swarm.size >= count]


def _axes(provider: Provider) -> tuple[float, float, float, float]:
    s = provider.swarm
    return (s.battery_capacity, s.speed, s.payload_capacity, float(s.size))


def capabilities_scores(cohort: Sequence[Provider]) -> dict[int, float]:
    """Mean min-max-normalized battery, speed, payload capacity and swarm size,
    by provider id.

    Axes with no spread (at most 1e-12) across the cohort count as 1, so a
    single-provider cohort scores exactly 1.
    """
    # negated, the capabilities are lower-is-better
    columns = [normalize_lower_better([-v for v in column]) for column in zip(*map(_axes, cohort))]
    return {provider.provider_id: total(row) / 4.0 for provider, row in zip(cohort, zip(*columns))}


def density_scores(
    cohort: Sequence[Provider],
    region_paths: Sequence[tuple[int, ...]],
    heatmaps: Mapping[int, Sequence[float]],
) -> dict[int, float]:
    """Partner pad density along the given region paths, by provider id.

    Each charging company's best path sum of its densities over the path's
    cells is taken once; a provider scores its partner's best sum times the
    tier multiplier and its capabilities score within the cohort.
    """
    # rounding is monotone, so scaling the best sum by non-negative factors
    # gives the same float as the best of the per-path products
    best = {
        company: max((total(density[cell] for cell in path) for path in region_paths), default=0.0)
        for company, density in heatmaps.items()
    }
    caps = capabilities_scores(cohort)
    return {
        p.provider_id: best[p.partnership.charging_provider_id]
        * TIERS[p.partnership.tier].score_multiplier
        * caps[p.provider_id]
        for p in cohort
    }


def prune(scores: Mapping[int, float], k_percent: float) -> set[int]:
    """Ids surviving the drop of the floor(m * k / 100) lowest-scoring
    providers, never all of them.

    Score ties at the cut are broken by provider id, lower id survives.
    """
    if not 0 <= k_percent < 100:
        raise ValueError("k_percent must be in [0, 100)")
    m = len(scores)
    to_remove = min(math.floor(m * k_percent / 100.0), m - 1)
    removal_order = sorted(scores, key=lambda pid: (scores[pid], -pid))
    return set(removal_order[max(to_remove, 0):])


def strategy_scores(
    strategy: str,
    filtered: Sequence[Provider],
    request: DeliveryRequest,
    grid: RegionGrid,
    heatmaps: Mapping[int, Sequence[float]],
    t: int,
) -> tuple[dict[int, float] | None, int]:
    """Score the filtered providers once for a request; returns (scores by
    provider id, or None for brute, which keeps everyone; scoring op count).

    Every strategy takes the same inputs: only density reads the region grid,
    the per-company heatmaps (``build_all_heatmaps``) and t, the number of
    region paths it scores. No score reads a pruning percentage, so one call
    serves every k of the request (``select_cohort``).

    The op count is the pruning runtime proxy, one op per cell read or score
    term: brute 0; capabilities 4 per provider, its four axes; density
    path_cells * (1 + charging companies) plus 6 per provider, where path_cells
    sums the cells of the t region paths. Density reads those cells once to
    enumerate the paths and once per charging company to sum its densities
    (``density_scores``), then takes per provider its four capability axes,
    its tier multiplier and its partner's best sum.
    """
    if strategy == "brute":
        return None, 0
    if strategy == "capabilities":
        return capabilities_scores(filtered), 4 * len(filtered)
    if strategy == "density":
        source_cell = grid.cell_of[request.source]
        dest_cell = grid.cell_of[request.destination]
        paths = t_shortest_region_paths(grid, source_cell, dest_cell, t)
        path_cells = total(len(p) for p in paths)
        return density_scores(filtered, paths, heatmaps), path_cells * (1 + len(heatmaps)) + 6 * len(filtered)
    raise ValueError(f"unknown pruning strategy {strategy!r}")


def select_cohort(
    scored: tuple[Mapping[int, float] | None, int],
    filtered: Sequence[Provider],
    k_percent: float,
) -> tuple[list[Provider], int]:
    """Cut one cohort from a strategy's scores (``strategy_scores``); returns
    (the survivors of ``prune`` in filtered order, scoring op count).

    The op count is the whole scoring's, whatever k_percent: the paper prices
    each (strategy, k) as one broker run that scores the providers and then
    prunes, so every pair's proxy time charges the scoring even though the
    harness scores a strategy once per request.
    """
    scores, ops = scored
    if scores is None:
        return list(filtered), ops
    survivors = prune(scores, k_percent)
    return [p for p in filtered if p.provider_id in survivors], ops
