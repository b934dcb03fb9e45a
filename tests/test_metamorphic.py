"""Metamorphic relations of the harness (Chen, Cheung and Yiu, "Metamorphic
testing: a new approach for generating next test cases", 1998).

No oracle gives the rows of one run, but the harness's sharing design (one
scoring per strategy, one union composed, one election per distinct cohort)
makes relations between runs exact. A run on a narrowed config writes, for
each of its rows and in the same order, exactly the row of the same
(request, strategy, k, method) in the run on the full config. Each case
narrows the `sweep` workload's config, seed 1 with 20 requests, one way, and
pins one fact:

- a subset of voting methods: an election's seed comes from the method's
  position in ``VOTING_METHODS``, not in the config;
- one strategy: scoring and the proxy time are per strategy;
- a subset of k, and the k values reordered: each (strategy, k) cohort is cut
  from its strategy's scores alone, and rows are sorted;
- fewer requests: a request's rows do not depend on the other requests.

When the narrowed run has every request, the summary rows of its (strategy,
method, k) groups equal the full run's too.
"""

from __future__ import annotations

import functools

import pytest

from skybroker.harness import ExperimentConfig, ExperimentResult, run_experiment

from conftest import WORKLOADS

SWEEP = {**WORKLOADS["sweep"].config, "seed": 1, "n_requests": 20}

NARROWED = {
    "condorcet-only": {"voting_methods": ("condorcet",)},
    "density-only": {"strategies": ("density",)},
    "k-50-70": {"k_values": (50.0, 70.0)},
    "k-reordered": {"k_values": (70.0, 30.0, 50.0, 40.0, 60.0)},
    "7-of-20-requests": {"n_requests": 7},
}
SAME_REQUESTS = [name for name, narrowing in NARROWED.items() if "n_requests" not in narrowing]


@functools.cache
def sweep_run(name: str | None = None) -> tuple[ExperimentConfig, ExperimentResult]:
    """The sweep config narrowed as NARROWED[name] says (in full for None),
    and its result."""
    cfg = ExperimentConfig(**{**SWEEP, **NARROWED.get(name, {})})
    return cfg, run_experiment(cfg)


def exact(record) -> tuple:
    """record's values with each float as its hex text, so that every bit counts
    and a NaN cell equals itself."""
    return tuple(value.hex() if isinstance(value, float) else value for value in record)


@pytest.mark.parametrize("name", NARROWED)
def test_a_narrowed_run_writes_the_full_runs_rows(name):
    cfg, narrowed = sweep_run(name)
    kept = [
        row
        for row in sweep_run()[1].rows
        if row.request_id <= cfg.n_requests
        and row.strategy in cfg.strategies
        and row.k_percent in cfg.k_values
        and row.method in cfg.voting_methods
    ]
    assert kept
    assert [exact(row) for row in narrowed.rows] == [exact(row) for row in kept]


@pytest.mark.parametrize("name", SAME_REQUESTS)
def test_a_narrowed_run_writes_the_full_runs_summary_rows(name):
    cfg, narrowed = sweep_run(name)
    kept = [
        entry
        for entry in sweep_run()[1].summary
        if entry.strategy in cfg.strategies and entry.k_percent in cfg.k_values and entry.method in cfg.voting_methods
    ]
    assert kept
    assert [exact(entry) for entry in narrowed.summary] == [exact(entry) for entry in kept]
