"""Benchmark workloads: the experiment config and experiment seeds of each.

Every workload is a list of `ExperimentConfig` keyword arguments shared by
all its experiment seeds. WORKLOADS.md says why each one was chosen and which
layer does most of its work. This module imports nothing from skybroker, so the
parent process of a benchmark run never loads the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# The acceptance battery config: all strategies, the full k sweep and all five
# voting methods on a 100-node, 30 km network.
_ACCEPTANCE = {
    "synthetic_nodes": 100,
    "area_m": 30000.0,
    "n_providers": 20,
    "n_requests": 50,
    "strategies": ("brute", "capabilities", "density"),
    "k_values": (30.0, 40.0, 50.0, 60.0, 70.0),
    "voting_methods": ("plurality", "irv", "borda", "condorcet", "topweight"),
}


@dataclass(frozen=True)
class Workload:
    config: Mapping[str, object]
    seeds: tuple[int, ...]

    @property
    def requests_per_seed(self) -> int:
        return int(self.config["n_requests"])


WORKLOADS: dict[str, Workload] = {
    "sweep": Workload(_ACCEPTANCE, (1, 2, 3)),
    "city1000": Workload(
        {
            "synthetic_nodes": 1000,
            "area_m": 30000.0,
            "n_providers": 20,
            "n_requests": 20,
            "strategies": ("density",),
            "k_values": (30.0, 50.0, 70.0),
            "voting_methods": ("irv",),
        },
        (1,),
    ),
    "short_hop": Workload({**_ACCEPTANCE, "area_m": 8000.0}, (1, 2, 3)),
    # Not in BENCHMARK.json: the tiny config smoke.py pushes through the same
    # code path in a few seconds.
    "smoke": Workload(
        {
            "synthetic_nodes": 30,
            "area_m": 10000.0,
            "n_providers": 6,
            "n_requests": 6,
            "strategies": ("brute", "density"),
            "k_values": (50.0,),
            "voting_methods": ("irv", "topweight"),
        },
        (1,),
    ),
}
