"""Smoke check of the benchmark itself, on the tiny `smoke` workload.

    python3 brokerbench/smoke.py

Checks that run.py emits every metric BENCHMARK.json names, with its unit, in
both modes, and that one flipped output byte turns the digest check into
failed requests, for pinned and for held-out experiment seeds alike. Also
checks how the machine-speed probe scales intervals. Exits non-zero on the
first failed check. Takes a few seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from probe import REFERENCE_S, Probe
from run import END_TO_END, EXPECTED, HERE, ROOT, check_outputs, file_digests, run_rep, summarize, work_dir
from tracer import LAYER_METRICS
from workloads import WORKLOADS


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {what}")


def check_emitted_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section, units in ((0, "end_to_end", END_TO_END), (1, "per_layer", LAYER_METRICS)):
        wanted = {m["name"]: m["unit"] for m in declared[section]}
        _expect(wanted == units, f"BENCHMARK.json {section} differs from what run.py reports")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        _expect(result["correct"] and result["failed"] == 0, f"--trace {trace} run is not correct")
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        _expect(emitted == wanted, f"--trace {trace} metrics {sorted(emitted)} differ from BENCHMARK.json")


def check_probe_scaling() -> None:
    probe = Probe()
    # Probes at 0, 1 and 2 s, at 1×, 1× and 3× their reference duration.
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [start + REFERENCE_S * slow for start, slow in zip(probe.starts, (1.0, 1.0, 3.0))]
    probe.slowdowns = [1.0, 1.0, 3.0]
    first_gap = probe.starts[1] - probe.ends[0]
    second_gap = probe.starts[2] - probe.ends[1]
    _expect(math.isclose(probe.scaled(probe.ends[0], probe.starts[1]), first_gap), "scaling at reference speed")
    _expect(math.isclose(probe.scaled(0.5, 1.5), (probe.starts[1] - 0.5) + (1.5 - probe.ends[1]) / 2.0),
            "scaling across a probe, which is left out")
    _expect(math.isclose(probe.scaled(0.0, 3.0), first_gap + second_gap / 2.0), "scaling of a whole run")

    live = Probe()
    live.start()
    sum(i * i for i in range(3_000_000))
    live.stop()
    _expect(len(live.slowdowns) > 3, f"the timer ran only {len(live.slowdowns)} probes")


def check_flipped_byte(reps_dir: Path) -> None:
    workload = WORKLOADS["smoke"]
    pinned = json.loads(EXPECTED.read_text())["smoke"]
    per_rep = workload.requests_per_seed
    for seed in (workload.seeds[0], 2):  # pinned, then held out
        _expect((str(seed) in pinned) == (seed in workload.seeds), f"seed {seed} pinning")
        reps = [run_rep("smoke", [seed], False, reps_dir / f"{seed}-{i}", 120.0) for i in range(2)]
        check_outputs(reps, [seed], pinned)
        _expect(summarize(reps, False, per_rep)["failed"] == 0, f"seed {seed}: clean outputs failed")

        victim = reps_dir / f"{seed}-1" / str(seed) / "per_request.csv"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        reps[1].digests[seed] = file_digests(victim.parent)
        check_outputs(reps, [seed], pinned)
        result = summarize(reps, False, per_rep)
        _expect(not result["correct"], f"seed {seed}: flipped byte went unnoticed")
        expected_failed = per_rep * (1 if str(seed) in pinned else 2)
        _expect(result["failed"] == expected_failed, f"seed {seed}: failed {result['failed']}")


def main() -> int:
    check_probe_scaling()
    check_emitted_metrics()
    with work_dir("smoke-") as reps_dir:
        check_flipped_byte(reps_dir)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
