"""Stage 1 of the broker: capability filtering and search-space pruning.

Three pruning strategies are exposed: "brute" (no pruning), "capabilities"
(min-max capability score) and "density" (partner pad density along the most
likely region paths, scaled by partnership tier and capabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain import DeliveryRequest, Provider
from .network import DensityHeatmap, RegionGrid, t_shortest_region_paths

STRATEGIES = ("brute", "capabilities", "density")

TIER_SCORE_MULTIPLIER = {"platinum": 1.2, "gold": 1.1, "silver": 1.0}


class NoFeasibleProviders(Exception):
    """No provider can physically carry the request; the request is rejected."""


@dataclass(frozen=True)
class ProviderScore:
    provider_id: int
    score: float
    best_region_path: tuple[int, ...] | None


def filter_providers(providers: Sequence[Provider], request: DeliveryRequest) -> list[Provider]:
    """Keep providers whose drones can carry the heaviest package and whose swarm
    is large enough for one package per drone. Order is preserved."""
    heaviest = max(request.packages)
    count = len(request.packages)
    survivors = [
        p
        for p in providers
        if p.swarm.drones[0].payload_capacity >= heaviest and p.swarm.size >= count
    ]
    if not survivors:
        raise NoFeasibleProviders(
            f"request {request.request_id}: no provider can carry "
            f"{count} packages up to {heaviest} kg"
        )
    return survivors


def capabilities_score(provider: Provider, cohort: Sequence[Provider]) -> float:
    """Mean min-max-normalized battery, speed, payload capacity and swarm size.

    Axes with zero spread across the cohort count as 1, so a single-provider
    cohort scores exactly 1.
    """
    if not cohort:
        raise ValueError("cohort must be non-empty")

    def axes(p: Provider) -> tuple[float, float, float, float]:
        d = p.swarm.drones[0]
        return (d.battery_capacity, d.speed, d.payload_capacity, float(p.swarm.size))

    mine = axes(provider)
    columns = list(zip(*(axes(p) for p in cohort)))
    total = 0.0
    for value, column in zip(mine, columns):
        lo, hi = min(column), max(column)
        total += 1.0 if hi - lo <= 0 else (value - lo) / (hi - lo)
    return total / 4.0


def density_score(
    provider: Provider,
    region_paths: Sequence[tuple[int, ...]],
    heatmaps: Mapping[int, DensityHeatmap],
    cohort: Sequence[Provider],
) -> ProviderScore:
    """Score a provider by its partner's pad density along the given region paths.

    Each path scores (sum of partner densities over its cells) * tier multiplier
    * capabilities score within the cohort; the provider keeps the best path.
    """
    if not region_paths:
        return ProviderScore(provider.provider_id, 0.0, None)
    caps = capabilities_score(provider, cohort)
    heatmap = heatmaps[provider.partnership.charging_provider_id]
    multiplier = TIER_SCORE_MULTIPLIER[provider.partnership.tier]
    best_path = None
    best = -math.inf
    for path in region_paths:
        value = sum(heatmap.density(cell) for cell in path) * multiplier * caps
        if value > best:
            best, best_path = value, path
    return ProviderScore(provider.provider_id, best, tuple(best_path))


def prune(scores: Sequence[ProviderScore], k_percent: float) -> list[ProviderScore]:
    """Drop the floor(m * k / 100) lowest-scoring providers, never all of them.

    Score ties at the cut are broken by provider id, lower id survives. Input
    order is preserved in the survivors.
    """
    if not 0 <= k_percent < 100:
        raise ValueError("k_percent must be in [0, 100)")
    m = len(scores)
    to_remove = min(math.floor(m * k_percent / 100.0), m - 1)
    if to_remove <= 0:
        return list(scores)
    removal_order = sorted(scores, key=lambda s: (s.score, -s.provider_id))
    removed = {s.provider_id for s in removal_order[:to_remove]}
    return [s for s in scores if s.provider_id not in removed]


def select_cohort(
    strategy: str,
    filtered: Sequence[Provider],
    request: DeliveryRequest,
    grid: RegionGrid | None = None,
    heatmaps: Mapping[int, DensityHeatmap] | None = None,
    t: int = 3,
    k_percent: float = 50.0,
) -> tuple[list[Provider], int]:
    """Apply one pruning strategy; returns (surviving providers, scoring op count).

    The op count approximates the scoring work in the same units as composition
    evaluation counters: one unit per heatmap cell touched or capability axis read.
    """
    if strategy == "brute":
        return list(filtered), 0
    if strategy == "capabilities":
        scores = [
            ProviderScore(p.provider_id, capabilities_score(p, filtered), None) for p in filtered
        ]
        ops = 4 * len(filtered)
    elif strategy == "density":
        if grid is None or heatmaps is None:
            raise ValueError("density pruning needs a region grid and heatmaps")
        source_cell = grid.cell_of[request.source]
        dest_cell = grid.cell_of[request.destination]
        paths = t_shortest_region_paths(grid, source_cell, dest_cell, t)
        path_cells = sum(len(p) for p in paths)
        scores = [density_score(p, paths, heatmaps, filtered) for p in filtered]
        ops = path_cells * (1 + len(heatmaps)) + 6 * len(filtered)
    else:
        raise ValueError(f"unknown pruning strategy {strategy!r}")
    surviving_ids = {s.provider_id for s in prune(scores, k_percent)}
    return [p for p in filtered if p.provider_id in surviving_ids], ops
