#!/usr/bin/env python3
"""Benchmark a change against its parent revision in alternated pairs.

Exports the parent revision with `git archive`, then, for each workload of
BENCHMARK.json and each of PAIRS pairs, runs `python3 brokerbench/run.py
--workload W --seconds S --trace 0`, S being BENCHMARK.json's run length, once
in the export (the parent) and once in the working tree (the change). The
parent runs first in odd pairs and the change in even ones, so neither side
always runs on a warmer or cooler machine. HELD_OUT_PAIRS more alternated
pairs of HELD_OUT's workload follow, run with `--workload-seeds` HELD_OUT's
seeds: experiment seeds no change is written against, on which a claimed gain
must hold too. One `--trace 1` run per side and workload comes last, for the
per-layer metrics and deterministic counters.

Writes a BENCH_<n>.json of the form {"about", "parent", "machine", "runs"},
each run {"commit", "pair", "command", "result"} with `result` the last line
brokerbench/run.py printed; a held-out pair is "held-out N". Then prints, per
workload and end-to-end metric, each side's median, the pairs the change won,
the parent's quartile spread and the median change (both relative to the
parent's median), and a verdict:
`gain` when the change won at least 9/10 of the pairs and its median is better
by more than the spread; `worse` when its median is worse by more than the
metric's BENCHMARK.json bound; `unresolved` when the spread is wider than the
bound and not every change run beats every parent run; else `within bound`.
The held-out pairs get rows of their own, labelled WORKLOAD:SEEDS, after the
main ones and out of their medians, with the label `held-out` in place of a
verdict: a few pairs are a check, not a claim. Then, per workload, each deterministic
figure whose traced values differ between the sides, with both values, or
`counters: same` when none differ: brokerbench/tracer.py's
DETERMINISTIC_COUNTERS and every other BENCHMARK.json per-layer metric counted
in a count or ratio, outside trace.*. Last, every run that was not correct or
failed requests. Run from anywhere inside a git checkout:

  python3 scripts/bench_pairs.py --parent HEAD --about "what changed" --out BENCH_17.json
"""

from __future__ import annotations

import argparse
import ast
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
HELD_OUT = ("city1000", "2,4")  # (workload, --workload-seeds) of the held-out pairs
HELD_OUT_PAIRS = 3


def deterministic_counters() -> tuple[str, ...]:
    """DETERMINISTIC_COUNTERS of brokerbench/tracer.py, read from its source:
    importing it needs the benchmark's own modules on the path."""
    for node in ast.parse((ROOT / "brokerbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["DETERMINISTIC_COUNTERS"]:
            return ast.literal_eval(node.value)
    raise SystemExit("brokerbench/tracer.py defines no DETERMINISTIC_COUNTERS")


# the per-layer counts and ratios depend only on the code and the inputs too;
# trace.* describe the tracing itself
DETERMINISTIC_FIGURES = tuple(
    metric["name"]
    for metric in BENCHMARK["per_layer"]
    if metric["unit"] in ("count", "ratio") and not metric["name"].startswith("trace.")
)
COUNTERS = tuple(dict.fromkeys(deterministic_counters() + DETERMINISTIC_FIGURES))


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


def plan() -> list[tuple[str, int | str, list[str]]]:
    """Every run as (side, pair, brokerbench/run.py arguments): each
    workload's untraced pairs, then the held-out pairs, parent then change in
    odd pairs and change then parent in even ones; then one traced run per
    side and workload."""
    seconds = ["--seconds", f"{SECONDS:g}"]
    pairs = [(pair, pair, ["--workload", workload, *seconds]) for workload in WORKLOADS for pair in range(1, PAIRS + 1)]
    workload, seeds = HELD_OUT
    pairs += [
        (f"held-out {pair}", pair, ["--workload", workload, "--workload-seeds", seeds, *seconds])
        for pair in range(1, HELD_OUT_PAIRS + 1)
    ]
    runs = []
    for label, pair, args in pairs:
        sides = ("parent", "change") if pair % 2 else ("change", "parent")
        runs += [(side, label, [*args, "--trace", "0"]) for side in sides]
    traced = [["--workload", workload, *seconds, "--trace", "1"] for workload in WORKLOADS]
    return runs + [(side, "traced", args) for args in traced for side in ("parent", "change")]


def measure(roots: dict[str, Path]) -> list[dict]:
    """Every run of the plan, in its order."""
    runs = []
    for side, pair, args in plan():
        print(f"{side} {pair}: {' '.join(args)}", file=sys.stderr)
        result = run_bench(roots[side], args)
        command = " ".join(["python3", "brokerbench/run.py", *args])
        runs.append({"commit": side, "pair": pair, "command": command, "result": result})
    return runs


def row_of(run: dict) -> str:
    """The run's workload, with :SEEDS if it ran on --workload-seeds."""
    words = run["command"].split()
    row = words[words.index("--workload") + 1]
    if "--workload-seeds" in words:
        row += ":" + words[words.index("--workload-seeds") + 1]
    return row


def readings(runs: list[dict]) -> dict[tuple[str, str], dict[str, list[float]]]:
    """(row, metric) -> side -> the untraced runs' values of an end-to-end
    metric, in pair order, so parent[i] and change[i] are a pair. A held-out
    pair's row is its WORKLOAD:SEEDS, apart from the workload's own."""
    values: dict[tuple[str, str], dict[str, list[float]]] = {}
    for run in runs:
        if run["pair"] == "traced":
            continue
        for metric, reading in run["result"]["metrics"].items():
            if metric in END_TO_END:
                values.setdefault((row_of(run), metric), {}).setdefault(run["commit"], []).append(reading["value"])
    return values


def counter_report(runs: list[dict]) -> list[str]:
    """Per workload, a line for each of COUNTERS whose traced values
    differ between the parent and the change (or that a side lacks), else one
    `counters: same` line."""
    traced = {(row_of(run), run["commit"]): run["result"]["metrics"] for run in runs if run["pair"] == "traced"}
    lines = []
    for workload in dict.fromkeys(workload for workload, _ in traced):
        differ = []
        for name in COUNTERS:
            parent, change = (traced[workload, side].get(name, {}).get("value") for side in ("parent", "change"))
            if parent is None or parent != change:
                differ.append(f"{workload:<10} {name:<30} parent {parent}  change {change}")
        lines += differ or [f"{workload:<10} counters: same"]
    return lines


def failures(runs: list[dict]) -> list[str]:
    """A line for each run that was not correct or failed requests."""
    lines = []
    for run in runs:
        result = run["result"]
        if not result["correct"] or result["failed"]:
            lines.append(
                f"{row_of(run):<10} {run['commit']} pair {run['pair']}: correct {result['correct']}, "
                f"failed {result['failed']} of {result['attempted']}"
            )
    return lines


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

    for (row, metric), sides in readings(runs).items():
        parent, change = sides["parent"], sides["change"]
        won, spread, delta, verdict = compare(parent, change, END_TO_END[metric]["better"], END_TO_END[metric]["bound"])
        if ":" in row:
            verdict = "held-out"
        print(
            f"{row:<10} {metric:<15} parent {statistics.median(parent):10.4g}  "
            f"change {statistics.median(change):10.4g}  ({delta:+.1%})  won {won}/{len(parent)}  "
            f"spread {spread:.1%}  {verdict}"
        )
    for line in counter_report(runs) + failures(runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
