"""The benchmark's traced mode stays wired to the program.

`brokerbench/tracer.py` wraps skybroker functions by module and attribute name,
and only a traced run installs those wrappers. One traced repetition of the
tiny `smoke` workload (well under a second) makes renaming or removing a
wrapped name fail here, not only in a `--trace 1` benchmark run.

The same run pins the deterministic counters of the composer's work. The
evaluation count is the paper's execution-time QoS, so a refactor that shifts
it, or the leg, stop and search work behind it, fails here by name. It pins the
election counters too, so a vote that bypasses the harness's election names,
and is therefore counted as none, fails here. And it pins the tracer's view of
pruning: a stage 1 that stops cutting each (strategy, k) cohort through
``select_cohort``, or hands it other than the filtered providers, fails here.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "brokerbench"


def test_traced_smoke_child_reports_every_layer_metric(tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", "smoke", "--seeds", "1",
         "--out", str(tmp_path), "--report", str(report), "--traced"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(report.read_text())["layers"]

    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    # run.py fills in the trace.* metrics across repetitions
    wanted = {name for name in tracer.LAYER_METRICS if not name.startswith("trace.")}
    assert len(wanted) == len(tracer.LAYER_METRICS) - 2
    assert wanted <= set(layers)

    pinned = {
        "composition.evaluations": 1351,
        "energy.segment_energy_calls": 212,
        "energy.node_service_calls": 10,
        "network.neighbor_queries": 236,
        # smoke repeats no successful cohort, so each (strategy, k) cohort votes
        "recommend.elections": 24,
        "recommend.op_count": 64,
        # one cut per (strategy, k) pair, each offered every filtered provider
        "pruning.select_cohort_calls": 12,
        "pruning.kept_ratio": 19 / 24,
    }
    assert {name: layers[name] for name in pinned} == pinned
    # one energy call per leg computed, and each computed leg reads the wind once
    assert layers["energy.segment_energy_calls"] == layers["energy.wind_at_calls"]
