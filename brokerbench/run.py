"""Broker benchmark: run one workload for a while, check its outputs, print metrics.

    python3 brokerbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Each repetition is a fresh single-threaded process (child.py) that runs every
experiment seed of the workload through `skybroker.harness.run_experiment`, one
caller processing its requests back to back. Repetitions run one at a time
while the next one is expected to end within --seconds, and at least the
minimum number of times below.

With --trace 0 the result line holds the end-to-end metrics, each the median
over untraced repetitions. With --trace 1 a traced repetition follows each
untraced one (at least two traced) and the result line holds the per-layer
metrics instead. Every time is scaled to the reference speed of the
machine-speed probe (probe.py), which cancels the shared host's changing
speed; the unscaled wall times go to standard error.

Every repetition's output files are checked against the sha256 digests pinned
in expected.json; for experiment seeds with no pinned digest (--workload-seeds)
all repetitions must agree byte for byte. A repetition that raises or whose
outputs differ counts all of its requests as failed. The last line of standard output is the JSON result; progress goes to
standard error. WORKLOADS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import DETERMINISTIC_COUNTERS, LAYER_METRICS, percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# Output files, reports and spans; ignored by git.
SCRATCH = ROOT / ".brokerbench"
OUTPUT_FILES = ("per_request.csv", "summary.csv", "manifest.json")

END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

MIN_UNTRACED = 1
MIN_TRACED = 2
# Every run must end within 180 s; a repetition never starts past this budget
# and is killed when it would overrun it.
RUN_BUDGET_S = 170.0


@dataclass
class Rep:
    """One repetition: its report (None if the process failed) and output digests."""

    traced: bool
    report: dict | None
    digests: dict[int, dict[str, str]]
    error: str | None = None


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under SCRATCH, removed on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path)


def file_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return digests


def run_rep(workload: str, seeds: list[int], traced: bool, out_dir: Path, timeout_s: float) -> Rep:
    out_dir.mkdir(parents=True)
    report = out_dir / "report.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), "--out", str(out_dir), "--report", str(report)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return Rep(traced, None, {}, f"timed out after {timeout_s:.0f} s")
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return Rep(traced, None, {}, lines[-1])
    digests = {seed: file_digests(out_dir / str(seed)) for seed in seeds}
    return Rep(traced, json.loads(report.read_text()), digests)


def check_outputs(reps: list[Rep], seeds: list[int], pinned: dict[str, dict]) -> None:
    """Mark each repetition whose output bytes are not the expected ones."""
    for seed in seeds:
        expected = pinned.get(str(seed))
        if expected is None:
            seen = {json.dumps(r.digests[seed], sort_keys=True) for r in reps if r.report}
            if len(seen) > 1:
                for rep in reps:
                    rep.error = rep.error or f"seed {seed}: repetitions disagree on output bytes"
            continue
        for rep in reps:
            if rep.report and rep.digests[seed] != expected:
                bad = sorted(n for n in OUTPUT_FILES if rep.digests[seed][n] != expected[n])
                rep.error = rep.error or f"seed {seed}: digest mismatch in {', '.join(bad)}"


def measure(workload: str, seeds: list[int], seconds: float, trace: bool, reps_dir: Path) -> list[Rep]:
    reps: list[Rep] = []
    longest = 0.0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        untraced = sum(not r.traced for r in reps)
        traced = len(reps) - untraced
        short = untraced < 1 or traced < MIN_TRACED if trace else untraced < MIN_UNTRACED
        if (elapsed + longest > seconds and not short) or elapsed >= RUN_BUDGET_S - 1:
            return reps
        next_traced = trace and untraced >= 1 and (traced < MIN_TRACED or traced <= untraced)
        rep = run_rep(workload, seeds, next_traced, reps_dir / f"rep{len(reps)}", RUN_BUDGET_S - elapsed)
        longest = max(longest, time.perf_counter() - started - elapsed)
        kind = "traced" if rep.traced else "untraced"
        if rep.report:
            slowdown = statistics.median(rep.report["slowdowns"])
            status = (f"{rep.report['wall_s']:.3f} s scaled, {rep.report['raw_wall_s']:.3f} s unscaled, "
                      f"median probe slowdown {slowdown:.3f}")
        else:
            status = rep.error
        print(f"rep {len(reps)} {kind}: {status}", file=sys.stderr)
        reps.append(rep)


def end_to_end(reports: list[dict]) -> dict[str, float]:
    # Every repetition processes the same requests in the same order, so each
    # request's latency is taken as its median over the repetitions: from three
    # repetitions on, one that a busy machine slowed down no longer shifts it.
    latencies = [statistics.median(same) for same in zip(*(r["request_s"] for r in reports))]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "setup_s": statistics.median(s for r in reports for s in r["setup_s"]),
        "requests_per_s": statistics.median(len(r["request_s"]) / sum(r["request_s"]) for r in reports),
        "request_p50_ms": percentile(latencies, 50) * 1000.0,
        "request_p90_ms": percentile(latencies, 90) * 1000.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    layers = [r["layers"] for r in traced]
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics.update({name: layers[0][name] for name in DETERMINISTIC_COUNTERS})
    metrics["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    metrics["trace.counter_mismatches"] = sum(
        len({l[name] for l in layers}) > 1 for name in DETERMINISTIC_COUNTERS
    )
    return metrics


def summarize(reps: list[Rep], trace: bool, per_rep: int) -> dict:
    """The result line, given the requests one repetition makes.

    Raises SystemExit when no repetition could be measured.
    """
    failed = 0
    for i, rep in enumerate(reps):
        if rep.error:
            failed += per_rep
            print(f"rep {i} failed: {rep.error}", file=sys.stderr)
    untraced = [r.report for r in reps if r.report and not r.traced]
    traced = [r.report for r in reps if r.report and r.traced]
    if not untraced or (trace and not traced):
        raise SystemExit("no repetition completed; nothing to report")
    if trace:
        values, units = per_layer(traced, untraced), LAYER_METRICS
    else:
        values, units = end_to_end(untraced), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": per_rep * len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="rotates the order in which a repetition runs its experiment seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seeds", help="comma list of experiment seeds replacing the workload's own")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt: subprocess.run kills and reaps the
    # running repetition, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "skybroker" / "__init__.py").is_file():
        print(f"no skybroker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.workload_seeds.split(",")] if args.workload_seeds else list(workload.seeds)
    # Each experiment is independent, so its bytes must not depend on which
    # experiment ran before it in the same process.
    turn = args.seed % len(seeds)
    seeds = seeds[turn:] + seeds[:turn]
    pinned = json.loads(EXPECTED.read_text()).get(args.workload, {})

    # Compile up front so every repetition imports from bytecode, as an
    # installed package does.
    compileall.compile_dir(ROOT / "src", quiet=1)
    with work_dir(f"{args.workload}-") as reps_dir:
        reps = measure(args.workload, seeds, args.seconds, bool(args.trace), reps_dir)
        check_outputs(reps, seeds, pinned)
        result = summarize(reps, bool(args.trace), workload.requests_per_seed * len(seeds))
        spans = [reps_dir / f"rep{i}" / "spans.jsonl" for i, r in enumerate(reps) if r.traced and r.report]
        if spans:
            shutil.copyfile(spans[-1], SCRATCH / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
