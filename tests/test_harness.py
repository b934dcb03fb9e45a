import csv
import io
import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import skybroker.harness as harness
import skybroker.pruning as pruning
from skybroker.cli import main as cli_main
from skybroker.config import ConfigurationError, ScenarioLimits, Seeds
from skybroker.domain import QOS_METRICS, generate_scenario
from skybroker.harness import (
    ExperimentConfig,
    Row,
    SummaryRow,
    aggregate,
    build_network,
    config_hash,
    run_experiment,
    spearman,
)
from skybroker.network import (
    SkywayNetwork,
    SkywayNode,
    build_all_heatmaps,
    build_region_grid,
    dump_network,
    load_network_dump,
)
from skybroker.pruning import STRATEGIES
from skybroker.recommend import VOTING_METHODS

from conftest import default_network, network_to_streams, oracle_select_cohort


def small_config(**overrides):
    defaults = dict(
        seed=5,
        synthetic_nodes=40,
        n_providers=8,
        n_requests=6,
        strategies=("brute", "density"),
        k_values=(50.0,),
        voting_methods=("irv", "borda"),
        limits=ScenarioLimits(max_packages=4, max_package_weight_kg=2.0),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(small_config())


def exact_spearman(xs, ys):
    """Spearman's rho from counted average ranks (#less + (#equal + 1) / 2)
    and Pearson over exact Fraction sums; None when a column is constant."""

    def ranks(values):
        return [sum(v < x for v in values) + Fraction(sum(v == x for v in values) + 1, 2) for x in values]

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var_x = sum((a - mx) ** 2 for a in rx)
    var_y = sum((b - my) ** 2 for b in ry)
    if not var_x or not var_y:
        return None
    return math.copysign(math.sqrt(cov**2 / (var_x * var_y)), cov)


class TestAggregate:
    def test_single_row_mean_is_value_std_zero(self):
        row = Row._make([None] * len(Row._fields))._replace(
            seed=1, request_id=1, strategy="brute", method="irv",
            k_percent=50.0, satisfaction=0.25, proxy_time=100,
            recommend_ops=4, cohort_size=3, cohort_successes=3,
        )
        summary, _trends = aggregate([row])
        assert len(summary) == 1
        entry = summary[0]
        assert entry.mean_satisfaction == 0.25
        assert entry.std_satisfaction == 0.0
        assert entry.failure_rate == 0.0

    def test_constant_column_correlation_reported_null(self):
        assert spearman([1, 1, 1], [2, 3, 4]) is None
        assert spearman([50.0], [1.0]) is None
        assert spearman([1, 2], [1, 2, 3]) is None

    def test_spearman_matches_exact_oracle_on_tied_inputs(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(2, 10)
            xs = [rng.randint(0, 3) for _ in range(n)]
            ys = [rng.choice((rng.random(), float(rng.randint(0, 2)))) for _ in range(n)]
            expected = exact_spearman(xs, ys)
            got = spearman(xs, ys)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_means_match_independent_recomputation(self, small_result):
        summary = {(e.strategy, e.method, e.k_percent): e for e in small_result.summary}
        groups = {}
        for row in small_result.rows:
            groups.setdefault((row.strategy, row.method, row.k_percent), []).append(row)
        for key, members in groups.items():
            assert summary[key].mean_satisfaction == pytest.approx(
                statistics.fmean(r.satisfaction for r in members)
            )
            assert summary[key].mean_proxy_time == pytest.approx(
                statistics.fmean(r.proxy_time for r in members)
            )

    def test_trends_computed_across_k(self):
        cfg = small_config(k_values=(30.0, 60.0), strategies=("density",), voting_methods=("irv",))
        result = run_experiment(cfg)
        assert "density/irv/proxy_time_vs_k" in result.trends
        assert result.trends["density/irv/proxy_time_vs_k"] < 0

    def test_empty_rows(self):
        assert aggregate([]) == ([], {})

    def test_rows_unique_per_request_strategy_k_method(self, small_result, battery):
        """aggregate counts a group's rows as its served requests, which holds
        because a run writes at most one row per (request, strategy, k, method)."""
        for result in (small_result, battery[1].result):
            keys = [(r.request_id, r.strategy, r.k_percent, r.method) for r in result.rows]
            assert len(set(keys)) == len(keys)


class TestRunExperiment:
    def test_row_schema_and_sanity(self, small_result):
        assert small_result.rows
        for row in small_result.rows:
            assert row.strategy in ("brute", "density")
            assert row.method in ("irv", "borda")
            assert 1 <= row.cohort_successes <= row.cohort_size
            assert row.proxy_time > 0
            assert row.recommend_ops >= 1
            assert row.paradox in (0, 1)

    def test_satisfaction_recomputes_from_logged_values(self, small_result):
        for row in small_result.rows:
            recomputed = statistics.fmean(
                getattr(row, f"w_{m}") * (getattr(row, f"nhat_{m}") - getattr(row, f"w_{m}")) for m in QOS_METRICS
            )
            assert row.satisfaction == pytest.approx(recomputed, abs=1e-12)

    def test_brute_cohort_is_never_smaller(self, small_result):
        by_request = {}
        for row in small_result.rows:
            by_request.setdefault(row.request_id, {})[row.strategy] = row
        for rows in by_request.values():
            if {"brute", "density"} <= set(rows):
                assert rows["brute"].cohort_size >= rows["density"].cohort_size

    def test_identical_output_bytes_across_runs(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("per_request.csv", "summary.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, small_result):
        manifest = small_result.manifest
        assert manifest["seed"] == 5
        assert manifest["config_hash"] == config_hash(small_config())
        assert manifest["requests"]["served"] + manifest["requests"]["rejected"] + manifest["requests"]["unserved"] == 6

    def test_unknown_strategy_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="strategy"):
            small_config(strategies=("telepathy",))
        with pytest.raises(ValueError, match="method"):
            small_config(voting_methods=("acclamation",))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k_values": (50.0, 100.0)},
            {"k_values": (-1.0,)},
            {"k_values": ()},
            {"k_values": (50.0, 50.0)},
            {"strategies": ()},
            {"strategies": ("density", "density")},
            {"voting_methods": ()},
            {"voting_methods": ("irv", "borda", "irv")},
            {"t_paths": 0},
            {"grid_resolution": 1},
            {"n_providers": 0},
            {"n_requests": 0},
        ],
    )
    def test_out_of_range_values_rejected_at_config_time(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides)

    def test_wallclock_mode_fills_column(self):
        result = run_experiment(small_config(n_requests=2, measure_wallclock=True))
        assert any(row.wall_s > 0 for row in result.rows)


def dict_writer_csv(fieldnames, rows):
    """The CSV renderer before csv.writer, kept as the oracle."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


class TestRenderCsv:
    def test_a_run_with_no_rows_writes_both_headers(self, tmp_path):
        # no swarm flies across the largest area, so every request is unserved
        cfg = ExperimentConfig(area_m=1e150, synthetic_nodes=20, n_providers=3, n_requests=2)
        assert run_experiment(cfg, out_dir=tmp_path).rows == []
        for name, record_type in (("per_request.csv", Row), ("summary.csv", SummaryRow)):
            assert (tmp_path / name).read_text() == ",".join(record_type._fields) + "\n"

    def test_matches_dict_writer_on_the_battery(self, battery):
        result = battery[1].result
        for record_type, rows in ((Row, result.rows), (SummaryRow, result.summary)):
            assert rows
            assert harness._render_csv(record_type, rows) == dict_writer_csv(
                record_type._fields, [row._asdict() for row in rows]
            )


def eager_process_request(request, providers, network, grid, heatmaps, seeds, cfg):
    """The request pipeline before lazy composition, kept as the oracle: every
    filtered provider is composed before any cohort is selected, and each
    (strategy, k) cohort is scored afresh."""
    filtered = harness.filter_providers(providers, request)
    if not filtered:
        return [], "rejected"
    dest_tree = harness.shortest_path_tree(network, request.destination)
    ctx = harness.request_context(network, request, cfg.energy, cfg.composition, seeds, dest_tree)
    outcomes = {p.provider_id: harness.compose(p, ctx) for p in filtered}
    if not any(o.success for o in outcomes.values()):
        return [], "unserved"
    rows = []
    for strategy in cfg.strategies:
        for k in cfg.k_values:
            cohort, scoring_ops = oracle_select_cohort(strategy, filtered, request, grid, heatmaps, cfg.t_paths, k)
            cohort_outcomes = [outcomes[p.provider_id] for p in cohort]
            successes = [o for o in cohort_outcomes if o.success]
            proxy = scoring_ops + sum(o.evaluations for o in cohort_outcomes)
            if not successes:
                continue
            cohort_pqos = {o.provider_id: o.pqos for o in successes}
            nhat_table = harness.normalized_qos(cohort_pqos)
            sat_table = harness.satisfaction(nhat_table, request.qos_weights)
            ballots = harness.build_ballots(cohort_pqos, request.qos_weights)
            for method in cfg.voting_methods:
                winner, ops, paradox = harness._run_method(method, ballots, request, seeds)
                pqos = outcomes[winner].pqos
                rows.append(
                    Row(
                        cfg.seed, request.request_id, strategy, k, method, winner,
                        len(cohort_outcomes), len(successes),
                        pqos.delivery_time, pqos.energy, pqos.cost, pqos.execution_time,
                        sat_table[winner],
                        *[nhat_table[winner][m] for m in QOS_METRICS],
                        *[request.qos_weights[m] for m in QOS_METRICS],
                        proxy, ops, int(paradox), 0.0,
                    )
                )
    return rows, "served"


def pipeline_inputs(cfg):
    """The requests of cfg and the remaining arguments of _process_request."""
    network = build_network(cfg)
    grid = build_region_grid(network, cfg.grid_resolution)
    heatmaps = build_all_heatmaps(network, grid)
    providers, requests = generate_scenario(
        cfg.seed, network, cfg.n_providers, cfg.n_requests, cfg.limits, cfg.ranges
    )
    return requests, (providers, network, grid, heatmaps, Seeds.from_master(cfg.seed), cfg)


def tiny_config(seed, strategies, k_values, **overrides):
    return ExperimentConfig(
        seed=seed, synthetic_nodes=40, n_providers=6, n_requests=8,
        strategies=strategies, k_values=k_values, **overrides,
    )


# Seeds 14, 16 and 23 of the tiny configs hold unserved requests; seeds 15, 25
# and 29 hold requests that only a provider outside every cohort can serve.
ORACLE_CONFIGS = [
    *(tiny_config(s, ("density",), (30.0, 50.0, 70.0)) for s in (1, 14, 25)),
    *(tiny_config(s, ("capabilities",), (30.0, 60.0)) for s in (2, 16)),
    *(
        tiny_config(s, ("capabilities", "density"), (40.0, 70.0), voting_methods=VOTING_METHODS)
        for s in (15, 23, 29)
    ),
    ExperimentConfig(
        seed=2, synthetic_nodes=100, n_requests=8, strategies=("density",), k_values=(30.0, 50.0, 70.0)
    ),
    # brute keeps every filtered provider at every k, so its cohorts repeat
    tiny_config(3, STRATEGIES, (30.0, 50.0, 70.0), voting_methods=VOTING_METHODS),
]


class TestLazyComposition:
    def test_matches_eager_oracle_on_every_request(self, monkeypatch):
        # each log holds the first argument of every call: the provider
        # composed, the cohort table balloted, the method elected
        calls = {"compose": [], "build_ballots": [], "_run_method": []}
        for name, log in calls.items():
            real = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda first, *rest, real=real, log=log: log.append(first) or real(first, *rest)
            )

        def traced(process, request, args):
            for log in calls.values():
                log.clear()
            return process(request, *args), {name: list(log) for name, log in calls.items()}

        seen = {"unserved": 0, "served without rows": 0, "skipped a provider": 0, "shared a cohort": 0}
        elections = rows_written = 0
        for cfg in ORACLE_CONFIGS:
            requests, args = pipeline_inputs(cfg)
            for request in requests:
                lazy, lazy_calls = traced(harness._process_request, request, args)
                eager, eager_calls = traced(eager_process_request, request, args)
                assert lazy == eager
                rows, status = lazy
                # the eager oracle ballots every (strategy, k) cohort with a
                # success, the pipeline each distinct one once, in that order
                cohorts = [tuple(pqos) for pqos in eager_calls["build_ballots"]]
                distinct = list(dict.fromkeys(cohorts))
                assert [tuple(pqos) for pqos in lazy_calls["build_ballots"]] == distinct
                assert lazy_calls["_run_method"] == [*cfg.voting_methods] * len(distinct)
                elections += len(lazy_calls["_run_method"])
                rows_written += len(rows)
                seen["unserved"] += status == "unserved"
                seen["served without rows"] += status == "served" and not rows
                seen["skipped a provider"] += len(lazy_calls["compose"]) < len(eager_calls["compose"])
                seen["shared a cohort"] += len(distinct) < len(cohorts)
        assert all(seen.values()), seen
        assert elections < rows_written

    def test_scores_each_strategy_once_per_request(self, monkeypatch):
        cfg = ORACLE_CONFIGS[-1]
        assert cfg.strategies == STRATEGIES and cfg.k_values == (30.0, 50.0, 70.0)
        requests, args = pipeline_inputs(cfg)
        filtered = sum(bool(harness.filter_providers(args[0], request)) for request in requests)
        # each log holds the first argument of every call
        calls = {}
        wrapped = ((harness, "strategy_scores"), (harness, "select_cohort"), (pruning, "t_shortest_region_paths"))
        for module, name in wrapped:
            log = calls[name] = []
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda first, *rest, real=real, log=log: log.append(first) or real(first, *rest)
            )
        for request in requests:
            harness._process_request(request, *args)
        assert filtered > 0
        assert calls["strategy_scores"] == [*STRATEGIES] * filtered
        assert len(calls["t_shortest_region_paths"]) == filtered
        assert len(calls["select_cohort"]) == len(STRATEGIES) * len(cfg.k_values) * filtered

    @pytest.fixture
    def fallback(self, monkeypatch):
        """Runs one request where the only cohort is the first two filtered
        providers and exactly the given providers compose successfully."""
        requests, args = pipeline_inputs(small_config(strategies=("density",), n_requests=1))
        index = {p.provider_id: i for i, p in enumerate(args[0])}
        monkeypatch.setattr(harness, "filter_providers", lambda providers, request: list(providers))
        monkeypatch.setattr(harness, "select_cohort", lambda scored, filtered, *rest: (filtered[:2], 0))
        calls, winners = [], set()

        def fake_compose(provider, *rest):
            calls.append(index[provider.provider_id])
            return SimpleNamespace(success=calls[-1] in winners)

        monkeypatch.setattr(harness, "compose", fake_compose)

        def run(*succeeding):
            calls.clear()
            winners.clear()
            winners.update(succeeding)
            rows, status = harness._process_request(requests[0], *args)
            return rows, status, list(calls)

        return run

    def test_pruned_away_success_serves_without_rows(self, fallback):
        assert fallback(4) == ([], "served", [0, 1, 2, 3, 4])

    def test_no_success_anywhere_is_unserved(self, fallback):
        assert fallback() == ([], "unserved", list(range(8)))

    def test_fallback_stops_at_first_success(self, fallback):
        assert fallback(2, 5) == ([], "served", [0, 1, 2])


class TestStageInputs:
    """The stage modules trust their one caller: compose only gets providers
    that carry the request, and only cohorts with a success are normalized
    and balloted."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """Runs every request of the oracle configs; returns, per request, the
        request, its providers and the first argument of every traced call."""
        calls = {"compose": [], "normalized_qos": [], "build_ballots": []}
        for name, log in calls.items():
            real = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda first, *rest, real=real, log=log: log.append(first) or real(first, *rest)
            )
        runs = []
        for cfg in ORACLE_CONFIGS:
            requests, args = pipeline_inputs(cfg)
            for request in requests:
                for log in calls.values():
                    log.clear()
                harness._process_request(request, *args)
                runs.append((request, args[0], {name: list(log) for name, log in calls.items()}))
        return runs

    def test_compose_gets_only_providers_that_carry_the_request(self, traced):
        composed = refused = 0
        for request, providers, calls in traced:
            count, heaviest = len(request.packages), max(request.packages)
            carriers = {
                p.provider_id for p in providers if p.swarm.size >= count and p.swarm.payload_capacity >= heaviest
            }
            assert {p.provider_id for p in calls["compose"]} <= carriers
            composed += len(calls["compose"])
            refused += len(providers) - len(carriers)
        assert composed and refused

    def test_only_cohorts_with_a_success_are_normalized_and_balloted(self, traced):
        tables = [table for _request, _providers, calls in traced for table in calls["normalized_qos"]]
        assert tables and all(tables)
        assert [table for _request, _providers, calls in traced for table in calls["build_ballots"]] == tables


class TestBuildNetwork:
    def test_from_canonical_dump(self, tmp_path):
        net = default_network(3, 30)
        path = tmp_path / "net.json"
        path.write_text(dump_network(net))
        cfg = small_config(network_path=str(path), synthetic_nodes=None)
        assert dump_network(build_network(cfg)) == dump_network(net)

    def test_from_text_triple(self, tmp_path):
        net = default_network(3, 30)
        edges, coords, stations = network_to_streams(net)
        for name, blob in (("edges", edges), ("coords", coords), ("stations", stations)):
            (tmp_path / name).write_text(blob)
        cfg = small_config(
            synthetic_nodes=None,
            edges_path=str(tmp_path / "edges"),
            coords_path=str(tmp_path / "coords"),
            stations_path=str(tmp_path / "stations"),
        )
        assert dump_network(build_network(cfg)) == dump_network(net)

    def test_text_files_are_numbered_as_a_file_iterator_numbers_them(self, tmp_path):
        # a form feed and a line separator end no line; CRLF ends one
        (tmp_path / "coords").write_bytes("# id\x0cx \u2028 y\r\n1 0 0\r\n2 100\n".encode())
        (tmp_path / "stations").write_text("1 1 2\n2 1 3\n")
        (tmp_path / "edges").write_text("1 2\n")
        files = {f"{name}_path": str(tmp_path / name) for name in ("edges", "coords", "stations")}
        with pytest.raises(ValueError, match=r"^coords line 3: expected 3 fields, got 2: '2 100'$"):
            build_network(small_config(synthetic_nodes=None, **files))

    def test_triple_must_be_complete(self, tmp_path):
        for given in (["edges_path"], ["coords_path", "stations_path"]):
            files = {name: str(tmp_path / name) for name in given}
            with pytest.raises(ConfigurationError, match="^experiment config edges_path, coords_path and stations_path"):
                small_config(synthetic_nodes=None, **files)

    @pytest.mark.parametrize(
        "sources, named",
        [
            ({"network_path": "net.json"}, "synthetic_nodes, network_path"),
            ({"coords_path": "coords"}, "synthetic_nodes, edges/coords/stations"),
            ({"synthetic_nodes": None, "network_path": "net.json", "edges_path": "edges"}, "network_path, edges/coords"),
        ],
    )
    def test_two_sources_refused_at_construction(self, sources, named):
        with pytest.raises(ConfigurationError, match=f"^give one network source, got {named}") as refused:
            ExperimentConfig(**sources)
        assert "synthetic_nodes=None" in str(refused.value)

    def test_no_source_rejected(self):
        with pytest.raises(ConfigurationError, match="^experiment config synthetic_nodes is None and no other"):
            small_config(synthetic_nodes=None)

    def test_zero_nodes_is_a_source_and_refused(self):
        with pytest.raises(ConfigurationError, match="^experiment config synthetic_nodes must be at least 2, got 0$"):
            small_config(synthetic_nodes=0)


class TestCli:
    def test_run_writes_contract_files(self, tmp_path, capsys):
        rc = cli_main(
            [
                "run", "--synthetic", "30", "--seed", "3", "--providers", "6",
                "--requests", "4", "--pruning", "brute,density", "--k", "50",
                "--voting", "irv", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        for name in ("per_request.csv", "summary.csv", "manifest.json"):
            assert (tmp_path / "out" / name).exists()
        header = (tmp_path / "out" / "per_request.csv").read_text().splitlines()[0]
        for column in ("request_id", "strategy", "method", "winner", "satisfaction", "proxy_time"):
            assert column in header
        assert "mean sat" in capsys.readouterr().out

    def test_summary_prints_k_as_configured(self, capsys):
        argv = ["run", "--synthetic", "20", "--providers", "3", "--requests", "2"]
        assert cli_main([*argv, "--pruning", "density", "--k", "30,30.4", "--voting", "irv"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("density")]
        assert [row[2] for row in rows] == ["30", "30.4"]

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--k", "100", "k_values must be in [0, 100)"),
            ("--k", "abc", "experiment config k_values must be a finite float, got 'abc'"),
            ("--k", "50,abc", "experiment config k_values must be a finite float, got 'abc'"),
            ("--k", ",", "k_values must be non-empty"),
            ("--k", "50,50", "k_values must be non-empty and without duplicates"),
            ("--pruning", ",", "strategies must be non-empty"),
            ("--pruning", "density,density", "strategies must be non-empty and without duplicates"),
            ("--voting", ",", "voting_methods must be non-empty"),
            ("--voting", "irv,irv", "voting_methods must be non-empty and without duplicates"),
            ("--grid", "1200", "grid_resolution must be in [2, 256], got 1200"),
            ("--grid", "100000", "grid_resolution must be in [2, 256], got 100000"),
        ],
    )
    def test_bad_list_option_is_a_one_line_error(self, option, value, message, capsys, monkeypatch):
        # the config must fail before any grid is built: an oversized grid
        # would overflow the stack or exhaust the memory
        monkeypatch.setattr(harness, "build_region_grid", lambda *args: pytest.fail("grid built"))
        assert cli_main(["run", "--synthetic", "20", option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skybroker: error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", [["--synthetic", "20", "--config"], ["--network"]])
    def test_missing_input_file_is_a_one_line_error(self, tmp_path, source, capsys):
        assert cli_main(["run", *source, str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skybroker: error: ") and "absent.json" in err
        assert err.count("\n") == 1

    def test_one_node_network_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(dump_network(SkywayNetwork([SkywayNode(1, 0.0, 0.0, 1, 4)], [])))
        assert cli_main(["run", "--network", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "skybroker: error: a request needs two distinct nodes, the network has 1\n"

    def test_two_network_sources_are_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(dump_network(default_network(1, 25)))
        assert cli_main(["run", "--network", str(path), "--synthetic", "60"]) == 2
        assert capsys.readouterr().err == (
            "skybroker: error: give one network source, got synthetic_nodes, network_path;"
            " files need synthetic_nodes=None\n"
        )

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"energy": {"charge_rate_w": "fast"}}, "energy config charge_rate_w must be a finite float, got 'fast'"),
            ({"energy": {"charge_rate_w": float("nan")}}, "charge_rate_w must be a finite float, got nan"),
            ({"energy": {"queue_draw_max": 2.5}}, "energy config queue_draw_max must be a finite int"),
            ({"energy": {"formation_factors": 3}}, "energy config formation_factors must be a mapping of formations, got 3"),
            ({"energy": {"position_factors": [float("nan"), 1.0]}}, "position_factors must be a finite float, got nan"),
            ({"composition": 3}, "composition config must be a JSON object"),
        ],
    )
    def test_malformed_config_is_a_one_line_error(self, tmp_path, config, message, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        assert cli_main(["run", "--synthetic", "20", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skybroker: error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b'{"energy": {"charge_rate_w": 200.0,}}', b'{"energy": {}}\xff'],
        ids=["trailing_comma", "not_utf8"],
    )
    def test_undecodable_config_file_is_a_one_line_error_naming_it(self, tmp_path, content, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(content)
        assert cli_main(["run", "--synthetic", "20", "--requests", "2", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"skybroker: error: config file {cfg_file} is not UTF-8 JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "source, name, content, message",
        [
            ("dump", "net.json", b'{"nodes": []}\xff', "network dump {} is not UTF-8 JSON: 'utf-8' codec can't decode"),
            (
                "files",
                "coords.txt",
                b"1 0 0\n2 1000 0\xff\n3 0 1000\n",
                "coords file {} is not UTF-8 text: 'utf-8' codec can't decode",
            ),
            ("config", "cfg.json", b"[" * 100000, "config file {} is not UTF-8 JSON: maximum recursion depth exceeded"),
            ("dump", "net.json", b"[" * 100000, "{}: malformed network dump: maximum recursion depth exceeded"),
            (
                "files",
                "stations.txt",
                b"1 1 2\n2 1 2\n3 2 1" + b"0" * 400 + b"\n",
                "node 3: pad_count must be at most 1000000",
            ),
            (
                "dump",
                "net.json",
                b'{"nodes": [[1, 0, 0, 1, 1' + b"0" * 400 + b'], [2, 5, 5, 1, 1]], "edges": [[1, 2]]}',
                "{}: malformed network dump: node 1: pad_count must be at most 1000000",
            ),
        ],
        ids=["dump_not_utf8", "coords_not_utf8", "deep_config", "deep_dump", "stations_pads", "dump_pads"],
    )
    def test_bad_input_file_is_a_one_line_error(self, tmp_path, source, name, content, message, capsys):
        files = {"edges.txt": b"1 2\n2 3\n1 3\n", "coords.txt": b"1 0 0\n2 1000 0\n3 0 1000\n"}
        files |= {"stations.txt": b"1 1 2\n2 1 2\n3 2 2\n", name: content}
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        argv = {
            "dump": ["--network", str(tmp_path / name)],
            "files": [arg for f in ("edges", "coords", "stations") for arg in (f"--{f}", str(tmp_path / f"{f}.txt"))],
            "config": ["--synthetic", "20", "--config", str(tmp_path / name)],
        }[source]
        assert cli_main(["run", "--requests", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"skybroker: error: {message.format(tmp_path / name)}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", ["dump", "files"])
    def test_dotted_paths_write_the_manifest_of_the_equal_config(self, tmp_path, source, monkeypatch):
        monkeypatch.chdir(tmp_path)
        net = default_network(2, 30)
        Path("net.json").write_text(dump_network(net))
        for name, blob in zip(("edges", "coords", "stations"), network_to_streams(net)):
            Path(f"{name}.txt").write_text(blob)
        if source == "dump":
            argv, paths = ["--network", "./net.json"], {"network_path": "net.json"}
        else:
            argv = ["--edges", "./edges.txt", "--coords", ".//coords.txt", "--stations", "stations.txt"]
            paths = {f"{name}_path": f"{name}.txt" for name in ("edges", "coords", "stations")}
        assert cli_main(["run", "--requests", "3", "--k", "30,50", *argv, "--out", "cli"]) == 0
        cfg = ExperimentConfig(synthetic_nodes=None, n_requests=3, k_values=(30.0, 50.0), **paths)
        run_experiment(cfg, out_dir="direct")
        assert Path("cli/manifest.json").read_bytes() == Path("direct/manifest.json").read_bytes()

    def test_an_out_path_that_is_a_file_is_refused_before_any_request(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_process_request", lambda *args: pytest.fail("a request ran"))
        out = tmp_path / "afile"
        out.write_text("")
        assert cli_main(["run", "--synthetic", "100", "--requests", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skybroker: error: ") and str(out) in err
        assert err.count("\n") == 1

    def test_unknown_formation_in_config_is_a_one_line_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"energy": {"formation_factors": {"bogus": [1.0] * 8}}}))
        assert cli_main(["run", "--synthetic", "20", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == (
            "skybroker: error: energy config formation_factors[bogus] "
            "is not a formation; expected one of vee, diamond, front, echelon, column\n"
        )

    def test_synth_network_round_trips(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc = cli_main(["synth-network", "--nodes", "25", "--seed", "9", "--out", str(out)])
        assert rc == 0
        net = load_network_dump(out.read_text())
        assert len(net.nodes) == 25

    def test_synth_network_zero_area_is_a_one_line_error(self, tmp_path, capsys):
        assert cli_main(["synth-network", "--nodes", "20", "--area", "0", "--out", str(tmp_path / "net.json")]) == 2
        assert capsys.readouterr().err == "skybroker: error: experiment config area_m must be in [1, 1e150], got 0.0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth-network", "--nodes", "1"], "synthetic_nodes must be at least 2, got 1"),
            (["synth-network", "--nodes", "20", "--area", "nan"], "area_m must be a finite float, got nan"),
            (["synth-network", "--nodes", "20", "--area", "1e308"], "area_m must be in [1, 1e150], got 1e+308"),
            (["synth-network", "--nodes", "30", "--area", "5e-324"], "area_m must be in [1, 1e150], got 5e-324"),
            (
                ["synth-network", "--nodes", "9", "--charging-companies", "0"],
                "charging_companies must be in [1, 1000], got 0",
            ),
            (["run", "--synthetic", "0"], "synthetic_nodes must be at least 2, got 0"),
            (
                ["run", "--synthetic", "20", "--charging-companies", "0"],
                "charging_companies must be in [1, 1000], got 0",
            ),
            (["run", "--synthetic", "20", "--requests", "0"], "n_requests must be positive, got 0"),
            (["run"], "synthetic_nodes is None and no other network source given"),
            (
                ["run", "--synthetic", "30", "--charging-companies", "1001"],
                "charging_companies must be in [1, 1000], got 1001",
            ),
        ],
    )
    def test_bad_network_option_is_a_one_line_error(self, tmp_path, argv, message, capsys):
        if argv[0] == "synth-network":
            argv = [*argv, "--out", str(tmp_path / "net.json")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"skybroker: error: experiment config {message}\n"

    def test_run_accepts_config_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"energy": {"charge_rate_w": 250.0}, "composition": {"progress_weight": 0.3}}))
        rc = cli_main(
            [
                "run", "--synthetic", "25", "--seed", "1", "--providers", "4",
                "--requests", "2", "--voting", "borda", "--config", str(cfg_file),
            ]
        )
        assert rc == 0
