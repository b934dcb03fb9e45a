"""Experiment harness: filter, prune, compose, recommend, score, aggregate.

Reproduces the paper-style experiments at desk scale: pruning-strategy
comparison, k-percent sweep and vote-count-system comparison. Every run is a
pure function of its config, and the emitted CSV bytes are identical across
repeat runs. The results are records: a ``Row`` for each winner of a (request,
strategy, k, method) and a ``SummaryRow`` for each (strategy, method, k)'s
means. A record type's fields are its CSV's columns, in order, and a record
can carry no other.

Each request that passes the filter runs in three stages:

1. score the filtered providers once per strategy, then cut the cohort of
   every (strategy, k) pair from those scores, since only the cut reads k;
   pruning never reads a composition outcome;
2. compose the union of the cohorts, each provider once, in filtered order;
3. vote and score each distinct successful cohort once, reusing the union's
   outcomes: each cohort's successes give one {provider_id: QosVector} table,
   which normalisation, satisfaction, the ballots and the winner's row all
   read. Cohorts of different (strategy, k) pairs often keep the same
   successes (``brute`` keeps every provider at every k), and those pairs
   share one set of tables and elections, keyed on the table's ordered
   provider ids. That is exact: the tables, ballots and elections are pure
   functions of the table and the request's weights, and an election's seed
   is mixed from the voting seed, the request id and the method's position
   in ``VOTING_METHODS``. Each pair still writes its own rows, with its own
   cohort size and proxy time.

A request the filter leaves no provider for is rejected before stage 1. Only
when no cohort member composes successfully are the remaining filtered
providers composed, in filtered order, up to the first success: the request is
then served with no rows, and unserved if none succeeds. A strategy's proxy
time only counts its own cohort's evaluations plus its strategy's whole
scoring work, at every k, as if each pair were a broker run of its own.

Satisfaction expectations are derived from the cohort the broker actually
composed and voted over (the pruned survivors), so a strategy is judged against
the field it offered the consumer. With `measure_wallclock` the `wall_s` column
holds the seconds of stage 2 (destination tree and the union's compositions);
otherwise it is 0.0.

The benchmark's tracer (``brokerbench/tracer.py``) times and counts a run by
replacing module attributes by name: this module's ``_process_request``, its
stage functions and its five elections, ``composition.segment_energy`` (one
call per leg the composer computes; a memo hit makes none) and
``node_service_time``, ``energy.unit_draw`` and ``WindField.at``, and
``SkywayNetwork.neighbors``. Call them through those names: a call that
bypasses one, such as an election table built at import time, leaves the
traced metrics empty. ``normalized_qos``, ``satisfaction``,
``build_ballots`` and each election run once per distinct successful cohort
of a request, not once per (strategy, k) pair, so ``recommend.elections``
counts the distinct cohorts times the methods. ``select_cohort`` still runs
once per pair and takes the filtered providers second, which the tracer's
cohort counts read. ``strategy_scores`` is not a tracer span:
``pruning.select_cohort_s`` times only the per-k cut, and the scoring's time
falls in ``harness.request_self_s``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

try:  # CPython's built-in SHA-256: hashlib would load OpenSSL, for one digest per run
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.11
    except ImportError:
        from hashlib import sha256

from .composition import compose, request_context
from .config import (
    POSITIVE, CapabilityRanges, CompositionConfig, ConfigurationError, EnergyModelConfig, ScenarioLimits, Seeds,
    check_fields, mix64, read_input, rule,
)
from .domain import (
    QOS_METRICS,
    DeliveryRequest,
    Provider,
    generate_scenario,
    total,
)
from .network import (
    ParseError,
    SkywayNetwork,
    build_all_heatmaps,
    build_region_grid,
    load_network,
    load_network_dump,
    shortest_path_tree,
    synthetic_network,
)
from .pruning import STRATEGIES, filter_providers, select_cohort, strategy_scores
from .recommend import (
    VOTING_METHODS,
    borda,
    build_ballots,
    condorcet,
    instant_runoff,
    normalized_qos,
    plurality,
    satisfaction,
    top_weight,
)

_METHOD_SEED_INDEX = {name: i + 1 for i, name in enumerate(VOTING_METHODS)}


@dataclass(frozen=True)
class ExperimentConfig:
    # every int seeds the draws, so only the rule's type check applies
    seed: int = field(default=0, metadata=rule("any int", lambda v: True))
    synthetic_nodes: int | None = field(default=100, metadata=rule("at least 2", lambda v: v >= 2))
    network_path: str | None = None
    edges_path: str | None = None
    coords_path: str | None = None
    stations_path: str | None = None
    # a city's charging stations are run by at most a thousand companies; the
    # synthetic builder scores every district node against every company
    charging_companies: int = field(default=5, metadata=rule("in [1, 1000]", lambda v: 1 <= v <= 1000))
    # A skyway area is at least a metre across: the synthetic builder divides
    # area_m among its grid cells, which underflows to zero for far smaller
    # areas. It squares coordinate differences, and 2 * area_m**2 must stay
    # finite.
    area_m: float = field(default=30000.0, metadata=rule("in [1, 1e150]", lambda v: 1 <= v <= 1e150))
    n_providers: int = field(default=20, metadata=POSITIVE)
    n_requests: int = field(default=50, metadata=POSITIVE)
    strategies: tuple[str, ...] = ("density",)
    k_values: tuple[float, ...] = field(default=(50.0,), metadata=rule("in [0, 100)", lambda k: 0 <= k < 100))
    t_paths: int = field(default=3, metadata=POSITIVE)
    voting_methods: tuple[str, ...] = ("irv",)
    # each company's heatmap holds one float per cell, so larger grids
    # exhaust the memory
    grid_resolution: int = field(default=8, metadata=rule("in [2, 256]", lambda v: 2 <= v <= 256))
    limits: ScenarioLimits = field(default_factory=ScenarioLimits)
    ranges: CapabilityRanges = field(default_factory=CapabilityRanges)
    energy: EnergyModelConfig = field(default_factory=EnergyModelConfig)
    composition: CompositionConfig = field(default_factory=CompositionConfig)
    measure_wallclock: bool = False

    def __post_init__(self) -> None:
        check_fields(self, "experiment")
        files = (self.edges_path, self.coords_path, self.stations_path)
        sources = {"synthetic_nodes": self.synthetic_nodes, "network_path": self.network_path}
        sources["edges/coords/stations"] = files if files != (None, None, None) else None
        given = [name for name, value in sources.items() if value is not None]
        if len(given) > 1:
            raise ConfigurationError(f"give one network source, got {', '.join(given)}; files need synthetic_nodes=None")
        if not given:
            raise ConfigurationError("experiment config synthetic_nodes is None and no other network source given")
        if None in files and given == ["edges/coords/stations"]:
            raise ConfigurationError("experiment config edges_path, coords_path and stations_path must be given together")
        for name in ("strategies", "k_values", "voting_methods"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)):
                raise ConfigurationError(f"experiment config {name} must be a tuple, got {values!r}")
            if not values or len(set(values)) < len(values):
                raise ConfigurationError(
                    f"experiment config {name} must be non-empty and without duplicates, got {values!r}"
                )
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigurationError(f"unknown pruning strategy {strategy!r}")
        for method in self.voting_methods:
            if method not in VOTING_METHODS:
                raise ConfigurationError(f"unknown voting method {method!r}")


Row = namedtuple(
    "Row",
    [
        "seed",
        "request_id",
        "strategy",
        "k_percent",
        "method",
        "winner",
        "cohort_size",
        "cohort_successes",
        "delivery_time",
        "energy",
        "cost",
        "execution_time",
        "satisfaction",
        *[f"nhat_{m}" for m in QOS_METRICS],
        *[f"w_{m}" for m in QOS_METRICS],
        "proxy_time",
        "recommend_ops",
        "paradox",
        "wall_s",
    ],
)

SummaryRow = namedtuple(
    "SummaryRow",
    [
        "seed",
        "strategy",
        "method",
        "k_percent",
        "requests_served",
        "mean_satisfaction",
        "std_satisfaction",
        "mean_proxy_time",
        "mean_recommend_ops",
        "failure_rate",
    ],
)


@dataclass
class ExperimentResult:
    rows: list[Row]
    summary: list[SummaryRow]
    trends: dict[str, float | None]
    manifest: dict


def build_network(cfg: ExperimentConfig) -> SkywayNetwork:
    """The network of the one source cfg gives: a synthetic network, a dump,
    or the edge list, coords and stations files."""
    if cfg.network_path is not None:
        try:
            return load_network_dump(read_input(cfg.network_path, "network dump", "JSON"))
        except ParseError as exc:
            raise ParseError(f"{cfg.network_path}: {exc}") from None
    if cfg.synthetic_nodes is not None:
        return synthetic_network(cfg.seed, cfg.synthetic_nodes, cfg.charging_companies, cfg.area_m)
    # "\n" splits the text as a file iterator would; str.splitlines breaks at more
    files = {"edge list": cfg.edges_path, "coords file": cfg.coords_path, "stations file": cfg.stations_path}
    return load_network(*(read_input(path, what, "text").split("\n") for what, path in files.items()))


def _run_method(
    method: str,
    ballots,
    request: DeliveryRequest,
    seeds: Seeds,
) -> tuple[int, int, bool]:
    rng_seed = mix64(seeds.voting, request.request_id, _METHOD_SEED_INDEX[method])
    if method == "plurality":
        r = plurality(ballots)
    elif method == "irv":
        r = instant_runoff(ballots, rng_seed)
    elif method == "borda":
        r = borda(ballots)
    elif method == "condorcet":
        r = condorcet(ballots, rng_seed)
    else:  # topweight; an unknown name failed at _METHOD_SEED_INDEX above
        return top_weight(ballots), len(ballots[0].ranking), False
    return r.winner, r.op_count, r.paradox


def _process_request(
    request: DeliveryRequest,
    providers: Sequence[Provider],
    network: SkywayNetwork,
    grid,
    heatmaps,
    seeds: Seeds,
    cfg: ExperimentConfig,
) -> tuple[list[Row], str]:
    filtered = filter_providers(providers, request)
    if not filtered:
        return [], "rejected"

    # Stage 1: score each strategy once, then cut every (strategy, k) cohort.
    # Pruning reads only the filtered providers, the request, the grid and the
    # heatmaps, never a composition outcome.
    cohorts = []
    for strategy in cfg.strategies:
        scored = strategy_scores(strategy, filtered, request, grid, heatmaps, cfg.t_paths)
        cohorts += [(strategy, k, *select_cohort(scored, filtered, k)) for k in cfg.k_values]

    # Stage 2: compose the union of the cohorts, in filtered order, over one
    # request context. The context's only mutable part is its wind field's memo
    # of pure draws, so skipping a provider changes no other provider's outcome.
    members = {p.provider_id for _strategy, _k, cohort, _ops in cohorts for p in cohort}
    started = time.perf_counter()
    ctx = request_context(
        network, request, cfg.energy, cfg.composition, seeds, shortest_path_tree(network, request.destination)
    )
    outcomes = {p.provider_id: compose(p, ctx) for p in filtered if p.provider_id in members}
    wall_s = time.perf_counter() - started if cfg.measure_wallclock else 0.0

    if not any(o.success for o in outcomes.values()):
        # No cohort has a success, so there are no rows; the request is still
        # served if some pruned-away provider can fly it.
        rest = (p for p in filtered if p.provider_id not in members)
        return [], "served" if any(compose(p, ctx).success for p in rest) else "unserved"

    # Stage 3: vote and score each distinct successful cohort once (exact, as
    # the module docstring says), and write every pair's rows.
    rows = []
    votes = {}
    for strategy, k, cohort, scoring_ops in cohorts:
        cohort_outcomes = [outcomes[p.provider_id] for p in cohort]
        proxy = scoring_ops + total(o.evaluations for o in cohort_outcomes)
        cohort_pqos = {o.provider_id: o.pqos for o in cohort_outcomes if o.success}
        if not cohort_pqos:
            continue
        key = tuple(cohort_pqos)
        if key not in votes:
            nhat_table = normalized_qos(cohort_pqos)
            sat_table = satisfaction(nhat_table, request.qos_weights)
            ballots = build_ballots(cohort_pqos, request.qos_weights)
            elected = [(method, *_run_method(method, ballots, request, seeds)) for method in cfg.voting_methods]
            votes[key] = nhat_table, sat_table, elected
        nhat_table, sat_table, elected = votes[key]
        for method, winner, ops, paradox in elected:
            pqos = cohort_pqos[winner]
            rows.append(
                Row(
                    cfg.seed, request.request_id, strategy, k, method, winner, len(cohort_outcomes), len(cohort_pqos),
                    pqos.delivery_time, pqos.energy, pqos.cost, pqos.execution_time, sat_table[winner],
                    *[nhat_table[winner][m] for m in QOS_METRICS],
                    *[request.qos_weights[m] for m in QOS_METRICS],
                    proxy, ops, int(paradox), wall_s,
                )
            )
    return rows, "served"


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run the full pipeline for every request; optionally write the CSV contract."""
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)  # an unusable out_dir fails before any request runs
    network = build_network(cfg)
    grid = build_region_grid(network, cfg.grid_resolution)
    heatmaps = build_all_heatmaps(network, grid)
    providers, requests = generate_scenario(
        cfg.seed, network, cfg.n_providers, cfg.n_requests, cfg.limits, cfg.ranges
    )
    seeds = Seeds.from_master(cfg.seed)

    rows: list[Row] = []
    outcomes = {"served": 0, "rejected": 0, "unserved": 0}
    for request in requests:
        request_rows, status = _process_request(
            request, providers, network, grid, heatmaps, seeds, cfg
        )
        outcomes[status] += 1
        rows.extend(request_rows)
    rows.sort(key=lambda r: (r.request_id, r.strategy, r.k_percent, r.method))

    summary, trends = aggregate(rows)
    manifest = {
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": asdict(cfg),
        "network_nodes": len(network.nodes),
        "requests": dict(outcomes),
        "rows": len(rows),
    }
    result = ExperimentResult(rows, summary, trends, manifest)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of values, ties sharing the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for i in order[start:end]:
            ranks[i] = (start + end + 1) / 2.0
        start = end
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation; None when undefined (constant input, unequal lengths, under two points)."""
    try:
        return statistics.correlation(_average_ranks(xs), _average_ranks(ys))
    except statistics.StatisticsError:
        return None


def aggregate(rows: Sequence[Row]) -> tuple[list[SummaryRow], dict[str, float | None]]:
    """(summary, trends): a SummaryRow of mean/stddev per (strategy, method,
    k) of the Row records, plus satisfaction/runtime trends vs k. A run writes
    at most one row per (request, strategy, k, method), so a group's rows are
    its requests."""
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        groups.setdefault((row.strategy, row.method, row.k_percent), []).append(row)

    summary = []
    for (strategy, method, k), members in sorted(groups.items()):
        sats = [r.satisfaction for r in members]
        composed = total(r.cohort_size for r in members)
        failed = total(r.cohort_size - r.cohort_successes for r in members)
        summary.append(
            SummaryRow(
                members[0].seed, strategy, method, k, len(members),
                statistics.fmean(sats), statistics.pstdev(sats),
                statistics.fmean([r.proxy_time for r in members]),
                statistics.fmean([r.recommend_ops for r in members]),
                failed / composed if composed else 0.0,
            )
        )

    trends: dict[str, float | None] = {}
    by_pair: dict[tuple, dict[float, SummaryRow]] = {}
    for entry in summary:
        by_pair.setdefault((entry.strategy, entry.method), {})[entry.k_percent] = entry
    for (strategy, method), per_k in sorted(by_pair.items()):
        if len(per_k) < 2:
            continue
        ks = sorted(per_k)
        trends[f"{strategy}/{method}/satisfaction_vs_k"] = spearman(
            ks, [per_k[k].mean_satisfaction for k in ks]
        )
        trends[f"{strategy}/{method}/proxy_time_vs_k"] = spearman(
            ks, [per_k[k].mean_proxy_time for k in ks]
        )
    return summary, trends


def config_hash(cfg: ExperimentConfig) -> str:
    # json writes the str-enum formation keys as their values and tuples as lists
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


class _CellText(dict):
    """The text of each distinct cell value, formatted on first use. The key
    is (type, value), so 1, 1.0 and True never share an entry. A zero is
    never stored: 0.0 == -0.0, but their texts differ."""

    def __missing__(self, key):
        value = key[1]
        text = str(value)
        if value:
            self[key] = text
        return text


def _write_csv(path: Path, record_type: type, rows: Sequence[tuple]) -> None:
    """Stream a header of record_type's fields, then each row's values in that
    order, into path, one line per row joined from memoised cell text. No
    cell needs quoting: the only strings are the names of ``STRATEGIES`` and
    ``VOTING_METHODS`` and the fields, and a number's text holds no comma,
    quote or line break. The file opens as Path.write_text opens it, with the
    same encoding and newline translation, so the bytes are those of writing
    the whole text at once."""
    cell = _CellText().__getitem__
    with path.open("w") as f:
        f.write(",".join(record_type._fields) + "\n")
        f.writelines(",".join(map(cell, zip(map(type, row), row))) + "\n" for row in rows)


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> None:
    """Write per_request.csv and summary.csv, each streamed row by row into
    its file with no whole-file string in memory, then manifest.json.

    The CSV text is that of csv.writer with a newline as line terminator:
    csv.writer writes each value as str() gives it (repr for a float, the same
    text) and quotes only a cell holding a comma, a quote or a line break,
    which no cell here holds."""
    out = Path(out_dir)
    _write_csv(out / "per_request.csv", Row, result.rows)
    _write_csv(out / "summary.csv", SummaryRow, result.summary)
    (out / "manifest.json").write_text(
        json.dumps(result.manifest, indent=2, sort_keys=True) + "\n"
    )
