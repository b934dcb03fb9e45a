"""skybroker: a deterministic multi-provider swarm-drone delivery broker simulator.

Pipeline: capability filtering and density-based pruning of providers, weighted
greedy composition of delivery paths over a skyway network, ranked-voting
provider recommendation, and consumer satisfaction scoring.
"""
