import importlib.util
import json
from pathlib import Path

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
    assert "(+10.0%)" in printed[0]
