#!/usr/bin/env python3
"""Benchmark a change against its parent revision in alternated pairs.

Exports the parent revision with `git archive`, then, for each workload of
BENCHMARK.json and each of PAIRS pairs, runs `python3 brokerbench/run.py
--workload W --seconds S --trace 0`, S being BENCHMARK.json's run length, once
in the export (the parent) and once in the working tree (the change). The
parent runs first in odd pairs and the change in even ones, so neither side
always runs on a warmer or cooler machine. One `--trace 1` run per side and
workload follows, for the per-layer metrics and deterministic counters.

Writes a BENCH_<n>.json of the form {"about", "parent", "machine", "runs"},
each run {"commit", "pair", "command", "result"} with `result` the last line
brokerbench/run.py printed. Then prints, per workload and end-to-end metric,
each side's median, the pairs the change won, the parent's quartile spread
and the median change (both relative to the parent's median), and a verdict:
`gain` when the change won at least 9/10 of the pairs and its median is better
by more than the spread; `worse` when its median is worse by more than the
metric's BENCHMARK.json bound; `unresolved` when the spread is wider than the
bound and not every change run beats every parent run; else `within bound`.
Run from anywhere inside a git checkout:

  python3 scripts/bench_pairs.py --parent HEAD --about "what changed" --out BENCH_17.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PAIRS = 10  # the fewest pairs a claimed gain may rest on


def export(revision: str, dest: Path) -> str:
    """Extract revision's committed files into dest; returns its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def run_bench(root: Path, args: list[str]) -> dict:
    """The JSON result line of brokerbench/run.py with args, run in root."""
    done = subprocess.run(
        [sys.executable, "brokerbench/run.py", *args], cwd=root, check=True, stdout=subprocess.PIPE, text=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(roots: dict[str, Path]) -> list[dict]:
    """Every run, untraced pairs first: parent then change in odd pairs,
    change then parent in even ones; then one traced run per side."""
    plan = []
    for workload in WORKLOADS:
        for pair in range(1, PAIRS + 1):
            sides = ("parent", "change") if pair % 2 else ("change", "parent")
            plan += [(side, pair, workload, 0) for side in sides]
    plan += [(side, "traced", workload, 1) for workload in WORKLOADS for side in ("parent", "change")]
    runs = []
    for side, pair, workload, trace in plan:
        args = ["--workload", workload, "--seconds", f"{SECONDS:g}", "--trace", str(trace)]
        print(f"{side} {pair}: {workload}", file=sys.stderr)
        result = run_bench(roots[side], args)
        command = " ".join(["python3", "brokerbench/run.py", *args])
        runs.append({"commit": side, "pair": pair, "command": command, "result": result})
    return runs


def readings(runs: list[dict]) -> dict[tuple[str, str], dict[str, list[float]]]:
    """(workload, metric) -> side -> the untraced runs' values of an
    end-to-end metric, in pair order, so parent[i] and change[i] are a pair."""
    values: dict[tuple[str, str], dict[str, list[float]]] = {}
    for run in runs:
        if run["pair"] == "traced":
            continue
        words = run["command"].split()
        workload = words[words.index("--workload") + 1]
        for metric, reading in run["result"]["metrics"].items():
            if metric in END_TO_END:
                values.setdefault((workload, metric), {}).setdefault(run["commit"], []).append(reading["value"])
    return values


def compare(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, float, float, str]:
    """(pairs the change won, the parent's quartile spread, the median change,
    the verdict) of one workload and end-to-end metric; the spread and the
    change are relative to the parent's median. Ties win for neither side."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / base
    delta = statistics.median(change) / base - 1
    if won >= 0.9 * len(parent) and sign * delta > spread:
        verdict = "gain"
    elif -sign * delta > bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return won, spread, delta, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision the working tree is compared with")
    parser.add_argument("--about", required=True, help="what the change is, for the file's about field")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        sha = export(args.parent, Path(work) / "parent")
        roots = {"parent": Path(work) / "parent", "change": ROOT}
        runs = measure(roots)
    machine = f"{os.cpu_count()}-CPU {platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
    record = {"about": args.about, "parent": sha, "machine": machine, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    for (workload, metric), sides in readings(runs).items():
        parent, change = sides["parent"], sides["change"]
        won, spread, delta, verdict = compare(parent, change, END_TO_END[metric]["better"], END_TO_END[metric]["bound"])
        print(
            f"{workload:<10} {metric:<15} parent {statistics.median(parent):10.4g}  "
            f"change {statistics.median(change):10.4g}  ({delta:+.1%})  won {won}/{len(parent)}  "
            f"spread {spread:.1%}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
