"""Command line interface for the swarm delivery broker simulator."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config_file
from .harness import ExperimentConfig, build_network, run_experiment
from .network import dump_network
from .pruning import STRATEGIES
from .recommend import VOTING_METHODS


def _comma_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _number(item: str) -> float | str:
    """item as a float; text that is not a number stays text, which the
    config refuses in a one-line error naming its field."""
    try:
        return float(item)
    except ValueError:
        return item


def _joined(values) -> str:
    return ",".join(map(str, values))


def _build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    parser = argparse.ArgumentParser(prog="skybroker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the broker pipeline over a request batch")
    source = run.add_argument_group("network source")
    source.add_argument("--network", type=Path, help="canonical network dump (json)")
    source.add_argument("--edges", type=Path, help="edge list text file")
    source.add_argument("--coords", type=Path, help="node coordinates text file")
    source.add_argument("--stations", type=Path, help="station ownership text file")
    source.add_argument("--synthetic", type=int, metavar="NODES", help="generate a seeded network")
    run.add_argument("--seed", type=int, default=defaults.seed)
    run.add_argument("--providers", type=int, default=defaults.n_providers)
    run.add_argument("--requests", type=int, default=defaults.n_requests)
    run.add_argument(
        "--pruning",
        default=_joined(defaults.strategies),
        help=f"comma-separated strategies from {{{', '.join(STRATEGIES)}}}",
    )
    run.add_argument("--k", default=_joined(defaults.k_values), help="comma-separated pruning percentages")
    run.add_argument("--t", type=int, default=defaults.t_paths, help="region paths per density score")
    run.add_argument(
        "--voting",
        default=_joined(defaults.voting_methods),
        help=f"comma-separated methods from {{{', '.join(VOTING_METHODS)}}}",
    )
    run.add_argument("--grid", type=int, default=defaults.grid_resolution, help="region grid resolution")
    run.add_argument("--charging-companies", type=int, default=defaults.charging_companies)
    run.add_argument("--out", type=Path, help="directory for per_request.csv, summary.csv, manifest.json")
    run.add_argument("--config", type=Path, help="JSON file overriding energy/composition defaults")
    run.add_argument(
        "--wallclock",
        action="store_true",
        help="record in wall_s the seconds spent composing each request's cohort union "
        "(0.0 without this flag)",
    )

    synth = sub.add_parser("synth-network", help="generate and dump a synthetic skyway network")
    synth.add_argument("--nodes", type=int, required=True)
    synth.add_argument("--seed", type=int, default=defaults.seed)
    synth.add_argument("--charging-companies", type=int, default=defaults.charging_companies)
    synth.add_argument("--area", type=float, default=defaults.area_m, help="side of the square area in meters")
    synth.add_argument("--out", type=Path, required=True)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    overrides = {}
    if args.config:
        overrides["energy"], overrides["composition"] = load_config_file(args.config)
    cfg = ExperimentConfig(
        seed=args.seed,
        synthetic_nodes=args.synthetic,
        network_path=str(args.network) if args.network else None,
        edges_path=str(args.edges) if args.edges else None,
        coords_path=str(args.coords) if args.coords else None,
        stations_path=str(args.stations) if args.stations else None,
        charging_companies=args.charging_companies,
        n_providers=args.providers,
        n_requests=args.requests,
        strategies=tuple(_comma_list(args.pruning)),
        k_values=tuple(map(_number, _comma_list(args.k))),
        t_paths=args.t,
        voting_methods=tuple(_comma_list(args.voting)),
        grid_resolution=args.grid,
        measure_wallclock=args.wallclock,
        **overrides,
    )
    result = run_experiment(cfg, out_dir=args.out)
    served = result.manifest["requests"]
    print(
        f"requests: served={served['served']} rejected={served['rejected']} "
        f"unserved={served['unserved']}  rows={len(result.rows)}"
    )
    header = f"{'strategy':<14}{'method':<12}{'k':>6}  {'mean sat':>10}  {'mean proxy':>12}  {'fail rate':>9}"
    print(header)
    for entry in result.summary:
        print(
            f"{entry.strategy:<14}{entry.method:<12}{entry.k_percent:>6g}  "
            f"{entry.mean_satisfaction:>10.4f}  {entry.mean_proxy_time:>12.1f}  "
            f"{entry.failure_rate:>9.3f}"
        )
    for name, value in result.trends.items():
        shown = "null" if value is None else f"{value:.3f}"
        print(f"trend {name}: {shown}")
    if args.out:
        print(f"wrote {args.out}/per_request.csv, summary.csv, manifest.json")
    return 0


def _synth_command(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        seed=args.seed, synthetic_nodes=args.nodes, charging_companies=args.charging_companies, area_m=args.area
    )
    network = build_network(cfg)
    args.out.write_text(dump_network(network) + "\n")
    print(f"wrote {args.out} ({len(network.nodes)} nodes, {len(network.edges())} segments)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _run_command, "synth-network": _synth_command}
    # ValueError includes ConfigurationError and ParseError; OSError covers
    # input files that cannot be read and outputs that cannot be written
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"skybroker: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
