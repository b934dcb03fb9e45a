import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_experiments.py"


def test_reproduce_experiments_smoke(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--seeds", "1", "--nodes", "30", "--providers", "5", "--requests", "3", "--out", str(tmp_path)]
    assert script.main(argv) == 0
    for name in ("per_request.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "seed_01" / name).exists()
    out = capsys.readouterr().out
    for section in ("pruning strategies", "k sweep", "vote count systems"):
        assert section in out
