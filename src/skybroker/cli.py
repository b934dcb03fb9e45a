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


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _numbers(value: str) -> tuple[float | str, ...]:
    """The comma list value as floats; an item that is not a number stays
    text, which the config refuses in a one-line error naming its field."""
    items = []
    for item in _comma_list(value):
        try:
            items.append(float(item))
        except ValueError:
            items.append(item)
    return tuple(items)


def _path(value: str) -> str:
    return str(Path(value))  # the config records ./net.json as net.json


def _build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the ExperimentConfig field it sets, --out and --config aside."""
    parser = argparse.ArgumentParser(prog="skybroker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the broker pipeline over a request batch", argument_default=argparse.SUPPRESS)
    source = run.add_argument_group("network source")
    source.add_argument("--network", dest="network_path", type=_path, help="canonical network dump (json)")
    source.add_argument("--edges", dest="edges_path", type=_path, help="edge list text file")
    source.add_argument("--coords", dest="coords_path", type=_path, help="node coordinates text file")
    source.add_argument("--stations", dest="stations_path", type=_path, help="station ownership text file")
    # None, not the config's 100, so a file source needs no synthetic_nodes=None
    source.add_argument(
        "--synthetic", dest="synthetic_nodes", type=int, default=None, metavar="NODES", help="generate a seeded network"
    )
    run.add_argument("--seed", type=int)
    run.add_argument("--providers", dest="n_providers", type=int)
    run.add_argument("--requests", dest="n_requests", type=int)
    run.add_argument(
        "--pruning",
        dest="strategies",
        type=_comma_list,
        help=f"comma-separated strategies from {{{', '.join(STRATEGIES)}}}",
    )
    run.add_argument("--k", dest="k_values", type=_numbers, help="comma-separated pruning percentages")
    run.add_argument("--t", dest="t_paths", type=int, help="region paths per density score")
    run.add_argument(
        "--voting",
        dest="voting_methods",
        type=_comma_list,
        help=f"comma-separated methods from {{{', '.join(VOTING_METHODS)}}}",
    )
    run.add_argument("--grid", dest="grid_resolution", type=int, help="region grid resolution")
    run.add_argument("--charging-companies", type=int)
    run.add_argument("--out", type=Path, help="directory for per_request.csv, summary.csv, manifest.json")
    run.add_argument("--config", type=Path, help="JSON file overriding energy/composition defaults")
    run.add_argument(
        "--wallclock",
        dest="measure_wallclock",
        action="store_true",
        help="record in wall_s the seconds spent composing each request's cohort union "
        "(0.0 without this flag)",
    )

    synth = sub.add_parser(
        "synth-network", help="generate and dump a synthetic skyway network", argument_default=argparse.SUPPRESS
    )
    synth.add_argument("--nodes", dest="synthetic_nodes", type=int, required=True)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--charging-companies", type=int)
    synth.add_argument("--area", dest="area_m", type=float, help="side of the square area in meters")
    synth.add_argument("--out", type=Path, required=True)
    return parser


def _run_command(cfg: ExperimentConfig, out: Path | None) -> int:
    result = run_experiment(cfg, out_dir=out)
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
    if out:
        print(f"wrote {out}/per_request.csv, summary.csv, manifest.json")
    return 0


def _synth_command(cfg: ExperimentConfig, out: Path) -> int:
    network = build_network(cfg)
    out.write_text(dump_network(network) + "\n")
    print(f"wrote {out} ({len(network.nodes)} nodes, {len(network.edges())} segments)")
    return 0


def main(argv: list[str] | None = None) -> int:
    fields = vars(_build_parser().parse_args(argv))
    command = {"run": _run_command, "synth-network": _synth_command}[fields.pop("command")]
    out = fields.pop("out", None)
    # ValueError includes ConfigurationError and ParseError; OSError covers
    # input files that cannot be read and outputs that cannot be written
    try:
        if "config" in fields:
            fields["energy"], fields["composition"] = load_config_file(fields.pop("config"))
        return command(ExperimentConfig(**fields), out)
    except (ValueError, OSError) as exc:
        print(f"skybroker: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
