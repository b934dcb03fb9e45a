"""One repetition of a workload in a fresh single-threaded process.

Runs every experiment seed of the workload through the public
`skybroker.harness.run_experiment` API, writing the output files under --out,
and writes a JSON report of its timings (and, with --traced, its per-layer
figures and spans). Every timing is scaled to the machine-speed probe's
reference speed (probe.py); the report also holds the unscaled wall time and
the probe's slowdowns. run.py starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from probe import Probe
from tracer import REQUEST_SPAN, SETUP_SPANS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Extra set-up passes after the measured run, so that set-up time is the median
# of many samples even when a run holds a single repetition: at least one
# pass, and more while they take less than this in total.
SETUP_SAMPLING_S = 2.0


def _setup_pass(harness, configs) -> None:
    for cfg in configs:
        net = harness.build_network(cfg)
        grid = harness.build_region_grid(net, cfg.grid_resolution)
        harness.build_all_heatmaps(net, grid)
        harness.generate_scenario(cfg.seed, net, cfg.n_providers, cfg.n_requests, cfg.limits, cfg.ranges)


def _setup_seconds(tracer: Tracer, first: int, last: int) -> float:
    """Set-up time recorded in the spans with index `first` up to `last`."""
    return sum(sum(tracer.durations(name, first, last)) for name in SETUP_SPANS)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma list of experiment seeds")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]

    # wall_s runs from before `import skybroker` until the outputs are written:
    # every CLI run pays the cold import too.
    probe = Probe()
    probe.start()
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import skybroker.harness as harness

    imported = time.perf_counter()
    if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported skybroker from {harness.__file__}, not from {ROOT / 'src'}")
    tracer = Tracer(full=args.traced, probe=probe)
    tracer.install()

    configs = [harness.ExperimentConfig(seed=seed, **workload.config) for seed in seeds]
    rows = 0
    for cfg in configs:
        tracer.experiment = cfg.seed
        rows += len(harness.run_experiment(cfg, args.out / str(cfg.seed)).rows)
    finished = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Span index where each set-up pass starts; the first is the measured run.
    passes = [0]
    if not args.traced:
        sampling_until = time.perf_counter() + SETUP_SAMPLING_S
        while len(passes) < 2 or time.perf_counter() < sampling_until:
            passes.append(len(tracer.spans))
            _setup_pass(harness, configs)
    probe.stop()

    report = {
        "wall_s": probe.scaled(started, finished),
        "raw_wall_s": finished - started,
        "peak_rss_mb": peak_rss_mb,
        "request_s": tracer.durations(REQUEST_SPAN),
        "setup_s": [_setup_seconds(tracer, a, b) for a, b in zip(passes, passes[1:] + [len(tracer.spans)])],
        "slowdowns": probe.slowdowns,
    }
    if args.traced:
        report["layers"] = tracer.layer_metrics(probe.scaled(started, imported), rows)
        tracer.write_spans(args.out / "spans.jsonl")
    args.report.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
