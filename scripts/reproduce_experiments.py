#!/usr/bin/env python3
"""Reproduce the three broker experiments at desk scale and write their CSVs.

Runs, for each seed:
  1. pruning-strategy comparison (brute / capabilities / density, k=50, IRV)
  2. k-percent sweep for density pruning (30..70, IRV)
  3. vote-count-system comparison (all five methods, density, k=50)

All three share one experiment pass per seed; results land in per-seed
directories plus a pooled summary printed to stdout.

Usage:
  python scripts/reproduce_experiments.py --seeds 10 --out results/
"""

import argparse
import statistics
import sys
from pathlib import Path

from skybroker.harness import ExperimentConfig, run_experiment, spearman
from skybroker.pruning import STRATEGIES
from skybroker.recommend import VOTING_METHODS

K_VALUES = (30.0, 40.0, 50.0, 60.0, 70.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeded scenarios")
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--providers", type=int, default=20)
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args(argv)

    by_strategy = {s: [] for s in STRATEGIES}
    by_method = {m: [] for m in VOTING_METHODS}
    by_k = {k: {"satisfaction": [], "proxy": []} for k in K_VALUES}

    for seed in range(1, args.seeds + 1):
        cfg = ExperimentConfig(
            seed=seed,
            synthetic_nodes=args.nodes,
            n_providers=args.providers,
            n_requests=args.requests,
            strategies=STRATEGIES,
            k_values=K_VALUES,
            voting_methods=VOTING_METHODS,
        )
        result = run_experiment(cfg, out_dir=args.out / f"seed_{seed:02d}")
        table = {(e["strategy"], e["method"], e["k_percent"]): e for e in result.summary}
        for s in STRATEGIES:
            by_strategy[s].append(table[(s, "irv", 50.0)]["mean_satisfaction"])
        for m in VOTING_METHODS:
            by_method[m].append(table[("density", m, 50.0)]["mean_satisfaction"])
        for k in K_VALUES:
            by_k[k]["satisfaction"].append(table[("density", "irv", k)]["mean_satisfaction"])
            by_k[k]["proxy"].append(table[("density", "irv", k)]["mean_proxy_time"])
        print(f"seed {seed}: done ({result.manifest['requests']})")

    print("\npruning strategies (IRV, k=50), mean satisfaction over seeds:")
    for s in STRATEGIES:
        print(f"  {s:<14} {statistics.fmean(by_strategy[s]):.4f}")

    print("\nk sweep (density, IRV):")
    sat = [statistics.fmean(by_k[k]["satisfaction"]) for k in K_VALUES]
    proxy = [statistics.fmean(by_k[k]["proxy"]) for k in K_VALUES]
    for k, s_val, p_val in zip(K_VALUES, sat, proxy):
        print(f"  k={k:>4.0f}  satisfaction={s_val:.4f}  proxy={p_val:,.0f}")
    rho_sat = spearman(list(K_VALUES), sat)
    rho_proxy = spearman(list(K_VALUES), proxy)
    print(f"  spearman(k, satisfaction) = {'null' if rho_sat is None else f'{rho_sat:.3f}'}")
    print(f"  spearman(k, proxy)        = {'null' if rho_proxy is None else f'{rho_proxy:.3f}'}")

    print("\nvote count systems (density, k=50), mean satisfaction over seeds:")
    for m in VOTING_METHODS:
        print(f"  {m:<12} {statistics.fmean(by_method[m]):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
