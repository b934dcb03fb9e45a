"""Stage 1 of the broker: capability filtering and search-space pruning.

Three pruning strategies are exposed: "brute" (no pruning), "capabilities"
(min-max capability score) and "density" (partner pad density along the most
likely region paths, scaled by partnership tier and capabilities).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .domain import TIERS, DeliveryRequest, Provider, normalize_lower_better
from .network import RegionGrid, t_shortest_region_paths

STRATEGIES = ("brute", "capabilities", "density")


class NoFeasibleProviders(Exception):
    """No provider can physically carry the request; the request is rejected."""


def filter_providers(providers: Sequence[Provider], request: DeliveryRequest) -> list[Provider]:
    """Keep providers whose drones can carry the heaviest package and whose swarm
    is large enough for one package per drone. Order is preserved."""
    heaviest = max(request.packages)
    count = len(request.packages)
    survivors = [p for p in providers if p.swarm.payload_capacity >= heaviest and p.swarm.size >= count]
    if not survivors:
        raise NoFeasibleProviders(
            f"request {request.request_id}: no provider can carry "
            f"{count} packages up to {heaviest} kg"
        )
    return survivors


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
    scores = {}
    for provider, row in zip(cohort, zip(*columns)):
        # a running total, not sum(): from Python 3.12 sum() of floats is
        # compensated and rounds differently
        total = 0.0
        for value in row:
            total += value
        scores[provider.provider_id] = total / 4.0
    return scores


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
        company: max((sum(density[cell] for cell in path) for path in region_paths), default=0.0)
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


def select_cohort(
    strategy: str,
    filtered: Sequence[Provider],
    request: DeliveryRequest,
    grid: RegionGrid,
    heatmaps: Mapping[int, Sequence[float]],
    t: int,
    k_percent: float,
) -> tuple[list[Provider], int]:
    """Apply one pruning strategy; returns (surviving providers, scoring op count).

    Every strategy takes the same inputs: only density reads the region grid,
    the per-company heatmaps (``build_all_heatmaps``) and t, the number of
    region paths it scores; brute keeps every provider whatever k_percent.

    The op count is the pruning runtime proxy, one op per cell read or score
    term: brute 0; capabilities 4 per provider, its four axes; density
    path_cells * (1 + charging companies) plus 6 per provider, where path_cells
    sums the cells of the t region paths. Density reads those cells once to
    enumerate the paths and once per charging company to sum its densities
    (``density_scores``), then takes per provider its four capability axes,
    its tier multiplier and its partner's best sum.
    """
    if strategy == "brute":
        return list(filtered), 0
    if strategy == "capabilities":
        scores = capabilities_scores(filtered)
        ops = 4 * len(filtered)
    elif strategy == "density":
        source_cell = grid.cell_of[request.source]
        dest_cell = grid.cell_of[request.destination]
        paths = t_shortest_region_paths(grid, source_cell, dest_cell, t)
        path_cells = sum(len(p) for p in paths)
        scores = density_scores(filtered, paths, heatmaps)
        ops = path_cells * (1 + len(heatmaps)) + 6 * len(filtered)
    else:
        raise ValueError(f"unknown pruning strategy {strategy!r}")
    survivors = prune(scores, k_percent)
    return [p for p in filtered if p.provider_id in survivors], ops
