"""Spans and counters recorded around skybroker's public layer functions.

The program is left untouched: `Tracer.install` swaps the module attributes the
harness calls for thin wrappers, so every span starts and ends at a layer
boundary. A span is (name, start, end, parent span index, request id); spans
stay in memory and are written out once the measured run is over.

Two levels:

* boundary only (untraced runs): one span per request and per set-up call,
  enough for request latency and set-up time, at a cost of a few microseconds
  per request;
* full (traced runs): spans around every layer call plus call counters on the
  hot inner functions (neighbour queries, wind draws, segment energies), which
  are far too frequent for spans.

Every duration the tracer reports is scaled to the reference speed of the
machine-speed probe (probe.py) that runs alongside.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from probe import Probe

# Per-layer metrics of a traced run, with units. BENCHMARK.json lists the same
# names; smoke.py checks that the two agree.
LAYER_METRICS: dict[str, str] = {
    "network.build_s": "s",
    "network.grid_heatmaps_s": "s",
    "network.dest_tree_s": "s",
    "network.dest_tree_calls": "count",
    "network.neighbor_queries": "count",
    "domain.scenario_s": "s",
    "energy.wind_at_calls": "count",
    "energy.wind_unit_draws": "count",
    "energy.segment_energy_calls": "count",
    "energy.node_service_calls": "count",
    "composition.compose_s": "s",
    "composition.compose_calls": "count",
    "composition.compose_p50_ms": "ms",
    "composition.compose_p95_ms": "ms",
    "composition.evaluations": "count",
    "composition.success_ratio": "ratio",
    "composition.split_ratio": "ratio",
    "composition.path_nodes": "count",
    "composition.used_ratio": "ratio",
    "pruning.filter_s": "s",
    "pruning.select_cohort_s": "s",
    "pruning.select_cohort_calls": "count",
    "pruning.kept_ratio": "ratio",
    "recommend.plurality_s": "s",
    "recommend.irv_s": "s",
    "recommend.borda_s": "s",
    "recommend.condorcet_s": "s",
    "recommend.topweight_s": "s",
    "recommend.ballots_s": "s",
    "recommend.satisfaction_s": "s",
    "recommend.elections": "count",
    "recommend.op_count": "count",
    "recommend.paradox_ratio": "ratio",
    "harness.import_s": "s",
    "harness.aggregate_s": "s",
    "harness.write_s": "s",
    "harness.rows": "count",
    "harness.request_self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.counter_mismatches": "count",
}

# Counters that depend only on the code and the inputs, never on the machine.
# Two runs of the same code must report them identically.
DETERMINISTIC_COUNTERS = (
    "network.neighbor_queries",
    "network.dest_tree_calls",
    "energy.wind_at_calls",
    "energy.wind_unit_draws",
    "energy.segment_energy_calls",
    "energy.node_service_calls",
    "composition.evaluations",
    "composition.compose_calls",
    "composition.used_ratio",
    "composition.success_ratio",
    "recommend.op_count",
    "recommend.elections",
    "harness.rows",
)

SETUP_SPANS = ("network.build", "network.grid_heatmaps", "domain.scenario")
REQUEST_SPAN = "harness.request"

# harness attribute -> span name. The harness imports these by name, so
# replacing them on the harness module is what its pipeline calls.
_BOUNDARY_SPANS = {
    "build_network": "network.build",
    "build_region_grid": "network.grid_heatmaps",
    "build_all_heatmaps": "network.grid_heatmaps",
    "generate_scenario": "domain.scenario",
}
_LAYER_SPANS = {
    "shortest_path_tree": "network.dest_tree",
    "compose": "composition.compose",
    "filter_providers": "pruning.filter",
    "select_cohort": "pruning.select_cohort",
    "build_ballots": "recommend.ballots",
    "satisfaction": "recommend.satisfaction",
    "normalized_qos": "recommend.satisfaction",
    "plurality": "recommend.plurality",
    "instant_runoff": "recommend.irv",
    "borda": "recommend.borda",
    "condorcet": "recommend.condorcet",
    "top_weight": "recommend.topweight",
    "aggregate": "harness.aggregate",
    "write_outputs": "harness.write",
}
_SELF_TIMES = {
    "network.build_s": "network.build",
    "network.grid_heatmaps_s": "network.grid_heatmaps",
    "network.dest_tree_s": "network.dest_tree",
    "domain.scenario_s": "domain.scenario",
    "composition.compose_s": "composition.compose",
    "pruning.filter_s": "pruning.filter",
    "pruning.select_cohort_s": "pruning.select_cohort",
    "recommend.plurality_s": "recommend.plurality",
    "recommend.irv_s": "recommend.irv",
    "recommend.borda_s": "recommend.borda",
    "recommend.condorcet_s": "recommend.condorcet",
    "recommend.topweight_s": "recommend.topweight",
    "recommend.ballots_s": "recommend.ballots",
    "recommend.satisfaction_s": "recommend.satisfaction",
    "harness.aggregate_s": "harness.aggregate",
    "harness.write_s": "harness.write",
    "harness.request_self_s": REQUEST_SPAN,
}
_RANKED_ELECTIONS = ("plurality", "instant_runoff", "borda", "condorcet")


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of values, interpolated between samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Records spans and counts for one process; install once, before running."""

    def __init__(self, full: bool, probe: Probe) -> None:
        self.full = full
        self.probe = probe
        self.spans: list[tuple | None] = []
        self.experiment: int | None = None
        self.request: tuple[int, int] | None = None
        self.tally: Counter[str] = Counter()
        self._stack: list[int] = []
        self._ticks: dict[str, itertools.count] = {}
        self._composed: set[int] = set()
        self._cohorts: set[int] = set()

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, inspect: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if inspect is not None:
                inspect(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = itertools.count()
        self._ticks[name] = calls
        tick = calls.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _request_wrapper(self, fn: Callable) -> Callable:
        span = self._spanned(REQUEST_SPAN, fn)

        def process_request(request, *args, **kwargs):
            self.request = (self.experiment, request.request_id)
            self._composed, self._cohorts = set(), set()
            try:
                return span(request, *args, **kwargs)
            finally:
                self.tally["used"] += len(self._composed & self._cohorts)
                self.request = None

        return process_request

    def _on_compose(self, args, outcome) -> None:
        t = self.tally
        t["evaluations"] += outcome.evaluations
        t["successes"] += outcome.success
        t["splits"] += len(outcome.paths) > 1
        t["path_nodes"] += sum(len(path) for path in outcome.paths)
        self._composed.add(outcome.provider_id)

    def _on_cohort(self, args, result) -> None:
        cohort, _ops = result
        self.tally["offered"] += len(args[1])
        self.tally["kept"] += len(cohort)
        self._cohorts.update(p.provider_id for p in cohort)

    def _on_election(self, args, result) -> None:
        self.tally["elections"] += 1
        if hasattr(result, "op_count"):  # top_weight returns a bare winner id
            self.tally["ranked"] += 1
            self.tally["op_count"] += result.op_count
            self.tally["paradoxes"] += result.paradox

    def install(self) -> None:
        """Wrap the layer functions the harness calls; import skybroker first."""
        from skybroker import composition, energy, harness, network

        harness._process_request = self._request_wrapper(harness._process_request)
        for attr, name in _BOUNDARY_SPANS.items():
            setattr(harness, attr, self._spanned(name, getattr(harness, attr)))
        if not self.full:
            return
        inspectors = {"compose": self._on_compose, "select_cohort": self._on_cohort}
        inspectors.update({attr: self._on_election for attr in (*_RANKED_ELECTIONS, "top_weight")})
        for attr, name in _LAYER_SPANS.items():
            setattr(harness, attr, self._spanned(name, getattr(harness, attr), inspectors.get(attr)))
        network.SkywayNetwork.neighbors = self._counted(
            "network.neighbor_queries", network.SkywayNetwork.neighbors
        )
        energy.WindField.at = self._counted("energy.wind_at_calls", energy.WindField.at)
        energy.unit_draw = self._counted("energy.wind_unit_draws", energy.unit_draw)
        composition.segment_energy = self._counted(
            "energy.segment_energy_calls", composition.segment_energy
        )
        composition.node_service_time = self._counted(
            "energy.node_service_calls", composition.node_service_time
        )

    # -- derived figures ------------------------------------------------------

    def durations(self, name: str, first: int = 0, last: int | None = None) -> list[float]:
        """Scaled durations of the spans called name, with index `first` up to `last`."""
        scaled = self.probe.scaled
        return [scaled(s[1], s[2]) for s in self.spans[first:last] if s[0] == name]

    def self_times(self) -> Counter[str]:
        """Each span name's total scaled duration minus the part its direct children cover."""
        scaled = self.probe.scaled
        lengths = [scaled(start, end) for _name, start, end, _parent, _request in self.spans]
        covered = [0.0] * len(self.spans)
        for (_name, _start, _end, parent, _request), length in zip(self.spans, lengths):
            if parent >= 0:
                covered[parent] += length
        totals: Counter[str] = Counter()
        for (name, *_rest), length, child in zip(self.spans, lengths, covered):
            totals[name] += length - child
        return totals

    def layer_metrics(self, import_s: float, rows: int) -> dict[str, float]:
        """Per-layer figures of this process; trace.* are filled in across processes."""
        t = self.tally
        own = self.self_times()
        compose_ms = [d * 1000.0 for d in self.durations("composition.compose")]
        calls = len(compose_ms)
        metrics = {metric: float(own[name]) for metric, name in _SELF_TIMES.items()}
        metrics.update({name: next(counter) for name, counter in self._ticks.items()})
        metrics.update(
            {
                "network.dest_tree_calls": len(self.durations("network.dest_tree")),
                "composition.compose_calls": calls,
                "composition.compose_p50_ms": percentile(compose_ms, 50),
                "composition.compose_p95_ms": percentile(compose_ms, 95),
                "composition.evaluations": t["evaluations"],
                "composition.success_ratio": t["successes"] / calls,
                "composition.split_ratio": t["splits"] / calls,
                "composition.path_nodes": t["path_nodes"],
                "composition.used_ratio": t["used"] / calls,
                "pruning.select_cohort_calls": len(self.durations("pruning.select_cohort")),
                "pruning.kept_ratio": t["kept"] / t["offered"],
                "recommend.elections": t["elections"],
                "recommend.op_count": t["op_count"],
                "recommend.paradox_ratio": t["paradoxes"] / t["ranked"],
                "harness.import_s": import_s,
                "harness.rows": rows,
            }
        )
        return metrics

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, request in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "scaled_s": self.probe.scaled(start, end)}
                record["request"] = list(request) if request else None
                out.write(json.dumps(record) + "\n")
