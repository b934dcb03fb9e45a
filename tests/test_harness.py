import json
import math
import random
import statistics
import warnings

import pytest

from skybroker.cli import main as cli_main
from skybroker.config import ConfigurationError
from skybroker.domain import QOS_METRICS, ScenarioLimits
from skybroker.harness import (
    ExperimentConfig,
    aggregate,
    build_network,
    config_hash,
    run_experiment,
    spearman,
)
from skybroker.network import dump_network, load_network_dump, network_to_streams, synthetic_network


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


class TestAggregate:
    def test_single_row_mean_is_value_std_zero(self):
        row = {
            "seed": 1, "request_id": 1, "strategy": "brute", "method": "irv",
            "k_percent": 50.0, "satisfaction": 0.25, "proxy_time": 100,
            "recommend_ops": 4, "cohort_size": 3, "cohort_successes": 3,
        }
        result = aggregate([row])
        assert len(result.summary) == 1
        entry = result.summary[0]
        assert entry["mean_satisfaction"] == 0.25
        assert entry["std_satisfaction"] == 0.0
        assert entry["failure_rate"] == 0.0

    def test_constant_column_correlation_reported_null(self):
        assert spearman([1, 1, 1], [2, 3, 4]) is None
        assert spearman([50.0], [1.0]) is None

    def test_spearman_matches_scipy_on_tied_inputs(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(2, 10)
            xs = [rng.randint(0, 3) for _ in range(n)]
            ys = [rng.choice((rng.random(), float(rng.randint(0, 2)))) for _ in range(n)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = stats.spearmanr(xs, ys).correlation
            got = spearman(xs, ys)
            if math.isnan(expected):  # scipy's undefined correlation
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_means_match_independent_recomputation(self, small_result):
        summary = {(e["strategy"], e["method"], e["k_percent"]): e for e in small_result.summary}
        groups = {}
        for row in small_result.rows:
            groups.setdefault((row["strategy"], row["method"], row["k_percent"]), []).append(row)
        for key, members in groups.items():
            assert summary[key]["mean_satisfaction"] == pytest.approx(
                statistics.fmean(r["satisfaction"] for r in members)
            )
            assert summary[key]["mean_proxy_time"] == pytest.approx(
                statistics.fmean(r["proxy_time"] for r in members)
            )

    def test_trends_computed_across_k(self):
        cfg = small_config(k_values=(30.0, 60.0), strategies=("density",), voting_methods=("irv",))
        result = run_experiment(cfg)
        assert "density/irv/proxy_time_vs_k" in result.trends
        assert result.trends["density/irv/proxy_time_vs_k"] < 0

    def test_empty_rows(self):
        result = aggregate([])
        assert result.summary == [] and result.trends == {}


class TestRunExperiment:
    def test_row_schema_and_sanity(self, small_result):
        assert small_result.rows
        for row in small_result.rows:
            assert row["strategy"] in ("brute", "density")
            assert row["method"] in ("irv", "borda")
            assert 1 <= row["cohort_successes"] <= row["cohort_size"]
            assert row["proxy_time"] > 0
            assert row["recommend_ops"] >= 1
            assert row["paradox"] in (0, 1)

    def test_satisfaction_recomputes_from_logged_values(self, small_result):
        for row in small_result.rows:
            recomputed = statistics.fmean(
                row[f"w_{m}"] * (row[f"nhat_{m}"] - row[f"w_{m}"]) for m in QOS_METRICS
            )
            assert row["satisfaction"] == pytest.approx(recomputed, abs=1e-12)

    def test_brute_cohort_is_never_smaller(self, small_result):
        by_request = {}
        for row in small_result.rows:
            by_request.setdefault(row["request_id"], {})[row["strategy"]] = row
        for rows in by_request.values():
            if {"brute", "density"} <= set(rows):
                assert rows["brute"]["cohort_size"] >= rows["density"]["cohort_size"]

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
        assert any(row["wall_s"] > 0 for row in result.rows)


class TestBuildNetwork:
    def test_from_canonical_dump(self, tmp_path):
        net = synthetic_network(3, 30)
        path = tmp_path / "net.json"
        path.write_text(dump_network(net))
        cfg = small_config(network_path=str(path), synthetic_nodes=None)
        assert build_network(cfg) == net

    def test_from_text_triple(self, tmp_path):
        net = synthetic_network(3, 30)
        edges, coords, stations = network_to_streams(net)
        for name, blob in (("edges", edges), ("coords", coords), ("stations", stations)):
            (tmp_path / name).write_text(blob)
        cfg = small_config(
            synthetic_nodes=None,
            edges_path=str(tmp_path / "edges"),
            coords_path=str(tmp_path / "coords"),
            stations_path=str(tmp_path / "stations"),
        )
        assert build_network(cfg) == net

    def test_triple_must_be_complete(self, tmp_path):
        cfg = small_config(synthetic_nodes=None, edges_path=str(tmp_path / "edges"))
        with pytest.raises(ValueError, match="together"):
            build_network(cfg)

    def test_no_source_rejected(self):
        cfg = small_config(synthetic_nodes=None)
        with pytest.raises(ValueError, match="network source"):
            build_network(cfg)


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

    @pytest.mark.parametrize("k, message", [("100", "k_values must be in [0, 100)"), ("abc", "'abc'")])
    def test_bad_k_is_a_one_line_error(self, k, message, capsys):
        assert cli_main(["run", "--synthetic", "20", "--k", k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("skybroker: error: ") and message in err
        assert err.count("\n") == 1

    def test_synth_network_round_trips(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc = cli_main(["synth-network", "--nodes", "25", "--seed", "9", "--out", str(out)])
        assert rc == 0
        net = load_network_dump(out.read_text())
        assert net.n_nodes == 25

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
