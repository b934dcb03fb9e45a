import hashlib
import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

from skybroker import composition, network
from skybroker.network import SkywayNetwork

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_experiments_smoke(tmp_path, capsys):
    script = load_script("reproduce_experiments")
    argv = ["--seeds", "1", "--nodes", "30", "--providers", "5", "--requests", "3", "--out", str(tmp_path)]
    assert script.main(argv) == 0
    for name in ("per_request.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "seed_01" / name).exists()
    out = capsys.readouterr().out
    for section in ("pruning strategies", "k sweep", "vote count systems"):
        assert section in out


def test_reproduce_experiments_refuses_zero_seeds(tmp_path, capsys):
    script = load_script("reproduce_experiments")
    with pytest.raises(SystemExit) as exit_:
        script.main(["--seeds", "0", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: --seeds must be at least 1, got 0")
    assert not any(tmp_path.iterdir())


def test_reproduce_experiments_refuses_a_bad_config_before_any_run(tmp_path, capsys):
    script = load_script("reproduce_experiments")
    with pytest.raises(SystemExit) as exit_:
        script.main(["--seeds", "2", "--nodes", "1", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1].endswith("error: experiment config synthetic_nodes must be at least 2, got 1")
    assert not out and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        # the 30-node rung would run first if configs were built rung by rung
        (["--nodes", "30", "1"], "experiment config synthetic_nodes must be at least 2, got 1"),
        (["--nodes", "30", "--requests", "0"], "experiment config n_requests must be positive, got 0"),
    ],
)
def test_scale_ladder_refuses_a_bad_config_before_any_rung(tmp_path, capsys, argv, message):
    script = load_script("scale_ladder")
    with pytest.raises(SystemExit) as exit_:
        script.main([*argv, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert not out and not any(tmp_path.iterdir())


def test_scale_ladder_smoke(tmp_path, capsys):
    """One 30-node rung: the script prints its times, the neighbour queries and
    the legs computed that second counters around the whole run also see, and
    the sha256 of the outputs it kept under --out. Seed 3's network has two
    components, so the stitch timer wraps one join, one cell-list search
    beside the nearest-neighbour one."""
    script = load_script("scale_ladder")
    neighbors, calls = SkywayNetwork.neighbors, []
    segment_energy, legs = composition.segment_energy, []
    k_nearest, searches = network._k_nearest, []

    def counting(net, node_id):
        calls.append(node_id)
        return neighbors(net, node_id)

    def counting_legs(*args):
        legs.append(args)
        return segment_energy(*args)

    def counting_searches(queries, targets, k, area_m):
        searches.append(k)
        return k_nearest(queries, targets, k, area_m)

    with mock.patch.object(SkywayNetwork, "neighbors", counting), mock.patch.object(
        composition, "segment_energy", counting_legs
    ), mock.patch.object(network, "_k_nearest", counting_searches):
        assert script.main(["--nodes", "30", "--requests", "3", "--seed", "3", "--out", str(tmp_path)]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header == "city1000 config, 3 requests, seed 3"
    assert line.split()[:3] == ["30", "nodes", "wall"]
    assert searches == [network.K_NEAREST, 1]
    assert calls and legs
    assert f"neighbour queries {len(calls)} " in line
    assert f"legs computed {len(legs)} " in line
    for name in ("per_request.csv", "summary.csv", "manifest.json"):
        digest = hashlib.sha256((tmp_path / "nodes_30" / name).read_bytes()).hexdigest()
        assert f"{name} {digest}" in line


def test_bench_pairs_alternates_the_first_side(tmp_path, monkeypatch, capsys):
    """With the export and the benchmark stubbed: the parent runs first in odd
    pairs and the change in even ones, one traced run per side follows, and
    the file has the BENCH_<n>.json keys."""
    script = load_script("bench_pairs")
    calls = []

    def fake_export(revision, dest):
        calls.append(("export", revision))
        return "f" * 40

    def fake_run(root, args):
        side = "change" if root == script.ROOT else "parent"
        calls.append((side, args[1], args[-1]))
        if args[-1] == "1":
            return traced_result()
        metrics = {"requests_per_s": {"value": 10.0 if side == "parent" else 11.0, "unit": "1/s"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "export", fake_export)
    monkeypatch.setattr(script, "run_bench", fake_run)
    monkeypatch.setattr(script, "PAIRS", 3)
    monkeypatch.setattr(script, "HELD_OUT_PAIRS", 0)  # the held-out pairs have a test of their own
    monkeypatch.setattr(script, "SECONDS", 1)
    monkeypatch.setattr(script, "WORKLOADS", ["sweep", "short_hop"])
    out = tmp_path / "bench.json"
    assert script.main(["--parent", "abc", "--about", "a test", "--out", str(out)]) == 0

    untraced = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    expected = [("export", "abc")]
    for workload in ("sweep", "short_hop"):
        expected += [(side, workload, "0") for pair in untraced for side in pair]
    expected += [(side, workload, "1") for workload in ("sweep", "short_hop") for side in ("parent", "change")]
    assert calls == expected

    record = json.loads(out.read_text())
    assert list(record) == ["about", "parent", "machine", "runs"]
    assert (record["about"], record["parent"]) == ("a test", "f" * 40)
    assert [(r["commit"], r["pair"]) for r in record["runs"][:6]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)
    ]
    assert all(list(r) == ["commit", "pair", "command", "result"] for r in record["runs"])
    assert record["runs"][0]["command"] == "python3 brokerbench/run.py --workload sweep --seconds 1 --trace 0"
    assert record["runs"][-1]["pair"] == "traced"
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed] == [
        ["sweep", "requests_per_s"], ["short_hop", "requests_per_s"], ["sweep", "counters:"], ["short_hop", "counters:"]
    ]
    assert "(+10.0%)  won 3/3  spread 0.0%  gain" in printed[0]
    assert printed[2:] == ["sweep      counters: same", "short_hop  counters: same"]


def test_bench_pairs_runs_held_out_pairs_on_rows_of_their_own(tmp_path, monkeypatch, capsys):
    """Three alternated pairs of city1000 on seeds 2 and 4 follow the main
    pairs and come before the traced runs, recorded as pairs "held-out N";
    they print as a row of their own after the main rows, labelled
    `held-out` rather than given a verdict, and do not move the main
    medians."""
    script = load_script("bench_pairs")
    calls = []

    def fake_run(root, args):
        side = "change" if root == script.ROOT else "parent"
        calls.append((side, " ".join(args)))
        if args[-1] == "1":
            return traced_result()
        held_out = "--workload-seeds" in args
        value = {"parent": 20.0 if held_out else 10.0, "change": 30.0 if held_out else 11.0}[side]
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"requests_per_s": {"value": value}}}

    monkeypatch.setattr(script, "export", lambda revision, dest: "f" * 40)
    monkeypatch.setattr(script, "run_bench", fake_run)
    monkeypatch.setattr(script, "PAIRS", 2)
    monkeypatch.setattr(script, "SECONDS", 1)
    monkeypatch.setattr(script, "WORKLOADS", ["sweep", "city1000"])
    out = tmp_path / "bench.json"
    assert script.main(["--about", "a test", "--out", str(out)]) == 0

    held_out = "--workload city1000 --workload-seeds 2,4 --seconds 1 --trace 0"
    assert calls[8:14] == [
        ("parent", held_out), ("change", held_out), ("change", held_out), ("parent", held_out),
        ("parent", held_out), ("change", held_out),
    ]
    main = [f"--workload {workload} --seconds 1 --trace 0" for workload in ("sweep", "city1000") for _ in range(4)]
    assert [args for _, args in calls[:8]] == main
    assert [args.split()[-1] for _, args in calls[14:]] == ["1"] * 4
    runs = json.loads(out.read_text())["runs"]
    assert [run["pair"] for run in runs[8:14]] == [f"held-out {pair}" for pair in (1, 2, 3) for _ in range(2)]
    assert runs[8]["command"] == f"python3 brokerbench/run.py {held_out}"
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["sweep", "city1000", "city1000:2,4", "sweep", "city1000"]
    assert printed[1].endswith("(+10.0%)  won 2/2  spread 0.0%  gain")
    assert "parent         20  change         30  (+50.0%)  won 3/3" in printed[2]
    assert printed[2].endswith("  held-out") and "gain" not in printed[2]


def traced_result(correct=True, failed=0, **counters):
    """A traced run's result line: every deterministic counter 7, but for the
    given ones (with dots written as underscores)."""
    script = load_script("bench_pairs")
    values = {name: counters.get(name.replace(".", "_"), 7) for name in script.COUNTERS}
    metrics = {name: {"value": value, "unit": "count"} for name, value in values.items()}
    return {"correct": correct, "attempted": 6, "failed": failed, "metrics": metrics}


def test_bench_pairs_counters_are_those_of_the_tracer(monkeypatch):
    """COUNTERS are the benchmark's per-layer counts and ratios outside
    trace.*, and take in every counter the tracer holds deterministic."""
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "brokerbench"))
    counters = load_script("bench_pairs").COUNTERS
    tracer = importlib.import_module("tracer").DETERMINISTIC_COUNTERS
    assert set(tracer) <= set(counters)
    per_layer = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert counters == tuple(
        metric["name"]
        for metric in per_layer
        if metric["unit"] in ("count", "ratio") and not metric["name"].startswith("trace.")
    )
    assert {"pruning.select_cohort_calls", "pruning.kept_ratio"} <= set(counters) - set(tracer)


def test_bench_pairs_reports_counters_that_differ_and_failed_runs():
    script = load_script("bench_pairs")

    def run(commit, pair, workload, result):
        command = f"python3 brokerbench/run.py --workload {workload} --seconds 1 --trace {int(pair == 'traced')}"
        return {"commit": commit, "pair": pair, "command": command, "result": result}

    untraced = {"correct": True, "attempted": 6, "failed": 0, "metrics": {}}
    runs = [
        run("parent", 1, "sweep", untraced),
        run("change", 1, "sweep", {**untraced, "correct": False, "failed": 6}),
        run("parent", "traced", "sweep", traced_result(composition_evaluations=100)),
        run("change", "traced", "sweep", traced_result(composition_evaluations=101, harness_rows=None)),
        run("parent", "traced", "short_hop", traced_result()),
        run("change", "traced", "short_hop", traced_result(failed=2)),
    ]
    assert script.counter_report(runs) == [
        "sweep      composition.evaluations        parent 100  change 101",
        "sweep      harness.rows                   parent 7  change None",
        "short_hop  counters: same",
    ]
    assert script.failures(runs) == [
        "sweep      change pair 1: correct False, failed 6 of 6",
        "short_hop  change pair traced: correct True, failed 2 of 6",
    ]


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        # every pair won, by more than the parent's spread of 2%
        ([10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9, 10.0], [11.0] * 10, "higher", "gain"),
        ([10.0] * 10, [9.0] * 10, "lower", "gain"),
        # 20% slower, past the 15% bound
        ([10.0] * 10, [12.0] * 10, "lower", "worse"),
        ([10.0] * 10, [8.0] * 10, "higher", "worse"),
        # a 40% spread hides a 5% gain that not every run shows
        ([5.0, 15.0, 10.0, 10.0, 10.0, 6.0, 14.0, 10.0, 10.0, 10.0], [10.5] * 10, "higher", "unresolved"),
        # the same spread, but every change run beats every parent run
        ([5.0, 15.0, 10.0, 10.0, 10.0, 6.0, 14.0, 10.0, 10.0, 10.0], [4.0] * 10, "lower", "gain"),
        # 8 of 10 pairs is too few for a gain
        ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "lower", "within bound"),
        ([10.0] * 10, [10.0] * 10, "lower", "within bound"),
    ],
)
def test_bench_pairs_verdict(parent, change, better, verdict):
    assert load_script("bench_pairs").compare(parent, change, better, 0.15)[3] == verdict


def test_bench_pairs_verdict_counts_pairs_and_relative_spread():
    parent, change = [8.0, 12.0, 10.0, 9.0, 11.0], [9.0, 12.0, 12.0, 8.0, 12.0]
    won, spread, delta, _ = load_script("bench_pairs").compare(parent, change, "higher", 0.15)
    assert won == 3  # the tie in pair 2 wins for neither side
    assert (spread, delta) == (pytest.approx(0.3), pytest.approx(0.2))
