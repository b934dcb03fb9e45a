#!/usr/bin/env python3
"""Run the benchmark's city1000 config on networks of growing size.

For each rung (a node count) runs `run_experiment` once on the `city1000`
config of brokerbench/workloads.py with that many synthetic nodes, then
prints the rung's unscaled wall seconds (network build included), the part of
them spent building the network and, within the build, stitching its
components together, the number of `SkywayNetwork.neighbors` calls, the
number of legs the composer computed (its `segment_energy` calls), the peak
resident memory in MB (the process's `ru_maxrss` high-water mark after the
rung, so a rung never shows less than the rungs before it, and it includes
this script's own imports), and the sha256 of per_request.csv, summary.csv and
manifest.json. The hashes let two checkouts show that they wrote the same
bytes; the neighbour queries and the legs computed measure the search and the
physics work in numbers that do not depend on the machine. Run from the root
of a checkout:

  PYTHONPATH=src python3 scripts/scale_ladder.py --nodes 300 1000 3000
  PYTHONPATH=src python3 scripts/scale_ladder.py --nodes 10000 --requests 5
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import runpy
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from skybroker import composition, harness, network
from skybroker.config import ConfigurationError
from skybroker.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
CITY = runpy.run_path(str(ROOT / "brokerbench" / "workloads.py"))["WORKLOADS"]["city1000"]
OUTPUTS = ("per_request.csv", "summary.csv", "manifest.json")


def timed(function, spent: list[float]):
    """function, adding the seconds each call takes to spent[0]."""

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - started

    return wrapper


def counted(function, calls: list[int]):
    """function, adding one to calls[0] for each call."""

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    return wrapper


def rung(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """One run of a city1000 config on a network of its size: the wall, build
    and stitching seconds, the neighbour queries, the legs computed, the
    process's peak resident MB so far and the sha256 of each output file."""
    build, stitch, queries, legs = [0.0], [0.0], [0], [0]
    with mock.patch.object(harness, "build_network", timed(harness.build_network, build)), mock.patch.object(
        network, "_stitches", timed(network._stitches, stitch)
    ), mock.patch.object(
        network.SkywayNetwork, "neighbors", counted(network.SkywayNetwork.neighbors, queries)
    ), mock.patch.object(composition, "segment_energy", counted(composition.segment_energy, legs)):
        started = time.perf_counter()
        run_experiment(cfg, out_dir=out_dir)
        wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux counts KiB
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}
    return {
        "nodes": cfg.synthetic_nodes,
        "wall_s": wall,
        "build_s": build[0],
        "stitch_s": stitch[0],
        "queries": queries[0],
        "legs": legs[0],
        "peak_rss_mb": peak_rss_mb,
        **hashes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--nodes", type=int, nargs="+", default=[300, 1000, 3000, 10000])
    parser.add_argument("--requests", type=int, default=CITY.requests_per_seed)
    parser.add_argument("--seed", type=int, default=CITY.seeds[0])
    parser.add_argument("--out", type=Path, help="keep each rung's outputs under OUT/nodes_<n>")
    args = parser.parse_args(argv)
    run = {"n_requests": args.requests, "seed": args.seed}
    try:
        configs = [ExperimentConfig(**{**CITY.config, **run, "synthetic_nodes": nodes}) for nodes in args.nodes]
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.out:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"cannot create --out directory {args.out}: {exc.strerror}")

    with tempfile.TemporaryDirectory() as scratch:
        root = args.out or Path(scratch)
        print(f"city1000 config, {args.requests} requests, seed {args.seed}")
        for cfg in configs:
            r = rung(cfg, root / f"nodes_{cfg.synthetic_nodes}")
            print(
                f"{r['nodes']:>6} nodes  wall {r['wall_s']:7.2f} s  build {r['build_s']:6.2f} s  "
                f"stitch {r['stitch_s']:6.3f} s  neighbour queries {r['queries']}  legs computed {r['legs']}  "
                f"peak rss {r['peak_rss_mb']:.1f} MB  "
                + "  ".join(f"{name} {r[name]}" for name in OUTPUTS),
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
