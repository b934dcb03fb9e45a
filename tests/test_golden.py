"""Byte contract: three benchmark configs still write their pinned output bytes.

The configs and the sha256 digests come from brokerbench/workloads.py and
brokerbench/expected.json; this test only reads them. per_request.csv carries
execution_time and proxy_time, so the digests also pin the evaluation cost
model. sweep is the config that pins candidate scoring's charging estimates:
pricing the estimated top-up at the drawn queue instead of the expected one
leaves the smoke and short_hop bytes unchanged but not the sweep ones.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from skybroker.harness import ExperimentConfig, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "brokerbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", ["smoke", "short_hop", "sweep"])
def test_seed_one_outputs_match_pinned_digests(workload, tmp_path):
    run_experiment(ExperimentConfig(seed=1, **WORKLOADS[workload].config), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EXPECTED[workload]["1"]
    }
    assert digests == EXPECTED[workload]["1"]
