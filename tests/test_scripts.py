import importlib.util
import json
from pathlib import Path

import pytest

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
        metrics = {"requests_per_s": {"value": 10.0 if side == "parent" else 11.0, "unit": "1/s"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(script, "export", fake_export)
    monkeypatch.setattr(script, "run_bench", fake_run)
    monkeypatch.setattr(script, "PAIRS", 3)
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
    assert [line.split()[:2] for line in printed] == [["sweep", "requests_per_s"], ["short_hop", "requests_per_s"]]
    assert "(+10.0%)  won 3/3  spread 0.0%  gain" in printed[0]


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
