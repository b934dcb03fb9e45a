"""Stage 3: ranked-voting provider recommendation and satisfaction scoring.

The voters are the four QoS metrics. Each metric ranks the successful providers
by raw perceived value (lower is better) and votes with the consumer's weight
for that metric. Four weighted vote-count systems are implemented (plurality,
instant runoff, Borda, Condorcet) plus the single-criterion Top Weight baseline.

Operation counts: every method tallies in units of one (ballot, candidate)
touch. Plurality reads one top per ballot, Borda reads the whole ranking per
ballot, instant runoff reads one top per ballot per round, and Condorcet reads
every ballot once per candidate pair, which is what makes it the costly method.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .domain import QOS_METRICS, QosVector, normalize_lower_better, total


@dataclass(frozen=True)
class Ballot:
    """One QoS metric's strict ranking of providers, best first. The ballots
    of one election rank the same providers (``build_ballots``)."""

    voter: str  # QoS metric id
    weight: float
    ranking: tuple[int, ...]


@dataclass(frozen=True)
class ElectionResult:
    winner: int
    tallies: Mapping[int, float]
    op_count: int
    paradox: bool = False


def build_ballots(
    pqos: Mapping[int, QosVector],
    qos_weights: Mapping[str, float],
) -> list[Ballot]:
    """One ballot per QoS metric over the cohort's {provider_id: QosVector}
    table of successful compositions, ascending raw pQoS, ties by provider id.
    The table is non-empty (the harness votes only on cohorts with a success)
    and the weights non-negative (``normalize_weights``), as elections assume."""
    return [
        Ballot(
            voter=metric,
            weight=qos_weights[metric],
            ranking=tuple(sorted(pqos, key=lambda pid: (getattr(pqos[pid], metric), pid))),
        )
        for metric in QOS_METRICS
    ]


def plurality(ballots: Sequence[Ballot]) -> ElectionResult:
    """Each metric votes its full weight for its top choice; most weight wins."""
    candidates = sorted(ballots[0].ranking)
    tallies = {c: 0.0 for c in candidates}
    for ballot in ballots:
        tallies[ballot.ranking[0]] += ballot.weight
    winner = min(candidates, key=lambda c: (-tallies[c], c))
    return ElectionResult(winner, tallies, len(ballots))


def instant_runoff(ballots: Sequence[Ballot], rng_seed: int) -> ElectionResult:
    """Weighted instant-runoff voting.

    Rounds of top-choice counting; a candidate holding strictly more than half
    of the total ballot weight wins. Otherwise the weighted minimum is
    eliminated and its ballots transfer to their next surviving choice. Exact
    ties at the minimum eliminate a uniformly seeded choice from the tied set:
    random.Random(rng_seed).choice(sorted(tied)); the same protocol is part of
    the function's contract so independent implementations can match it.
    """
    candidates = sorted(ballots[0].ranking)
    rng = random.Random(rng_seed)
    active = set(candidates)
    total_weight = total(b.weight for b in ballots)
    ops = 0
    while True:
        tallies = {c: 0.0 for c in sorted(active)}
        for ballot in ballots:
            for choice in ballot.ranking:
                if choice in active:
                    tallies[choice] += ballot.weight
                    break
        ops += len(ballots)
        leader = min(active, key=lambda c: (-tallies[c], c))
        if tallies[leader] > total_weight / 2.0 or len(active) == 1:
            return ElectionResult(leader, tallies, ops)
        minimum = min(tallies[c] for c in active)
        tied = sorted(c for c in active if tallies[c] == minimum)
        eliminated = tied[0] if len(tied) == 1 else rng.choice(tied)
        active.remove(eliminated)


def borda(ballots: Sequence[Ballot]) -> ElectionResult:
    """Weighted Borda count: with u candidates, rank r earns u - r + 1 points."""
    candidates = sorted(ballots[0].ranking)
    u = len(candidates)
    tallies = {c: 0.0 for c in candidates}
    ops = 0
    for ballot in ballots:
        for position, candidate in enumerate(ballot.ranking):
            tallies[candidate] += ballot.weight * (u - position)
        ops += u
    winner = min(candidates, key=lambda c: (-tallies[c], c))
    return ElectionResult(winner, tallies, ops)


def condorcet(ballots: Sequence[Ballot], rng_seed: int) -> ElectionResult:
    """Head-to-head election between every provider pair.

    The global winner is the candidate with the most pairwise wins. When no
    unique maximum exists (a cycle or tie), the paradox flag is set and a
    seeded-random candidate among the tied top is recommended.
    """
    candidates = sorted(ballots[0].ranking)
    # each ballot's rank positions; a pair's weights are added in ballot order
    ranks = [(ballot.weight, {c: i for i, c in enumerate(ballot.ranking)}) for ballot in ballots]
    ops = len(ballots) * (len(candidates) * (len(candidates) - 1)) // 2
    wins = {c: 0.0 for c in candidates}
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            a_over_b = b_over_a = 0
            for weight, pos in ranks:
                if pos[a] < pos[b]:
                    a_over_b += weight
                else:
                    b_over_a += weight
            if a_over_b > b_over_a:
                wins[a] += 1
            elif b_over_a > a_over_b:
                wins[b] += 1
    best = max(wins.values())
    top = sorted(c for c in candidates if wins[c] == best)
    if len(top) == 1:
        return ElectionResult(top[0], wins, ops)
    return ElectionResult(random.Random(rng_seed).choice(top), wins, ops, paradox=True)


def top_weight(ballots: Sequence[Ballot]) -> int:
    """Baseline: the top choice of the highest-weighted metric's ballot, which
    ranks by raw value. Equal weights keep metric order."""
    return max(ballots, key=lambda b: b.weight).ranking[0]


# The order seeds the elections: a method's position here is its index in
# harness._METHOD_SEED_INDEX. Reordering it moves every seeded tie-break (IRV,
# and a Condorcet paradox), and with them the output bytes.
VOTING_METHODS = ("plurality", "irv", "borda", "condorcet", "topweight")


# --- satisfaction -----------------------------------------------------------


def normalized_qos(cohort: Mapping[int, QosVector]) -> dict[int, dict[str, float]]:
    """Min-max normalize each metric over the cohort, oriented higher-is-better.

    A metric with no spread (at most 1e-12) normalizes to 1 for everyone.
    The cohort is non-empty: the harness skips cohorts with no success.
    """
    columns = [normalize_lower_better([getattr(q, m) for q in cohort.values()]) for m in QOS_METRICS]
    return {pid: dict(zip(QOS_METRICS, row)) for pid, row in zip(cohort, zip(*columns))}


def satisfaction(
    normalized: Mapping[int, Mapping[str, float]],
    qos_weights: Mapping[str, float],
) -> dict[int, float]:
    """Per-provider satisfaction against cohort-derived expectations, from the
    cohort's normalized_qos table.

    In normalized higher-is-better space the expected value of a metric equals
    its preference weight, so each metric scores weight * (normalized - weight);
    the satisfaction is the mean over the four metrics. Zero means expectations
    met exactly, positive exceeds them, negative falls short.
    """
    return {
        pid: math.fsum(qos_weights[m] * (n_hat[m] - qos_weights[m]) for m in QOS_METRICS) / len(QOS_METRICS)
        for pid, n_hat in normalized.items()
    }
