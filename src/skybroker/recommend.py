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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .composition import CompositionOutcome
from .domain import QOS_METRICS, QosVector


class NoSuccessfulProviders(Exception):
    """No provider composed successfully; nothing can be recommended."""


@dataclass(frozen=True)
class Ballot:
    """One QoS metric's strict ranking of providers, best first."""

    voter: str  # QoS metric id
    weight: float
    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("ballot weight must be non-negative")
        if len(set(self.ranking)) != len(self.ranking) or not self.ranking:
            raise ValueError("ranking must be a non-empty permutation of the candidates")


@dataclass(frozen=True)
class ElectionResult:
    method: str
    winner: int
    tallies: Mapping[int, float] = field(default_factory=dict)
    paradox: bool = False
    op_count: int = 0
    rounds: int = 1


def _candidates(ballots: Sequence[Ballot]) -> list[int]:
    candidates = set(ballots[0].ranking)
    for ballot in ballots[1:]:
        if set(ballot.ranking) != candidates:
            raise ValueError("all ballots must rank the same candidate set")
    return sorted(candidates)


def build_ballots(
    outcomes: Iterable[CompositionOutcome],
    qos_weights: Mapping[str, float],
) -> list[Ballot]:
    """One ballot per QoS metric over the successful providers, ascending raw pQoS."""
    successful = [o for o in outcomes if o.success]
    if not successful:
        raise NoSuccessfulProviders("no successful composition to vote over")
    ballots = []
    for metric in QOS_METRICS:
        ordered = sorted(successful, key=lambda o: (o.pqos.get(metric), o.provider_id))
        ballots.append(
            Ballot(
                voter=metric,
                weight=qos_weights[metric],
                ranking=tuple(o.provider_id for o in ordered),
            )
        )
    return ballots


def plurality(ballots: Sequence[Ballot]) -> ElectionResult:
    """Each metric votes its full weight for its top choice; most weight wins."""
    candidates = _candidates(ballots)
    tallies = {c: 0.0 for c in candidates}
    for ballot in ballots:
        tallies[ballot.ranking[0]] += ballot.weight
    winner = min(candidates, key=lambda c: (-tallies[c], c))
    return ElectionResult("plurality", winner, tallies, op_count=len(ballots))


def instant_runoff(ballots: Sequence[Ballot], rng_seed: int = 0) -> ElectionResult:
    """Weighted instant-runoff voting.

    Rounds of top-choice counting; a candidate holding strictly more than half
    of the total ballot weight wins. Otherwise the weighted minimum is
    eliminated and its ballots transfer to their next surviving choice. Exact
    ties at the minimum eliminate a uniformly seeded choice from the tied set:
    random.Random(rng_seed).choice(sorted(tied)); the same protocol is part of
    the function's contract so independent implementations can match it.
    """
    candidates = _candidates(ballots)
    rng = random.Random(rng_seed)
    active = set(candidates)
    total_weight = sum(b.weight for b in ballots)
    ops = 0
    rounds = 0
    tallies: dict[int, float] = {}
    while True:
        rounds += 1
        tallies = {c: 0.0 for c in sorted(active)}
        for ballot in ballots:
            for choice in ballot.ranking:
                if choice in active:
                    tallies[choice] += ballot.weight
                    break
        ops += len(ballots)
        leader = min(active, key=lambda c: (-tallies[c], c))
        if tallies[leader] > total_weight / 2.0 or len(active) == 1:
            return ElectionResult("irv", leader, tallies, op_count=ops, rounds=rounds)
        minimum = min(tallies[c] for c in active)
        tied = sorted(c for c in active if tallies[c] == minimum)
        eliminated = tied[0] if len(tied) == 1 else rng.choice(tied)
        active.remove(eliminated)


def borda(ballots: Sequence[Ballot]) -> ElectionResult:
    """Weighted Borda count: with u candidates, rank r earns u - r + 1 points."""
    candidates = _candidates(ballots)
    u = len(candidates)
    tallies = {c: 0.0 for c in candidates}
    ops = 0
    for ballot in ballots:
        for position, candidate in enumerate(ballot.ranking):
            tallies[candidate] += ballot.weight * (u - position)
        ops += u
    winner = min(candidates, key=lambda c: (-tallies[c], c))
    return ElectionResult("borda", winner, tallies, op_count=ops)


def pairwise_preferences(ballots: Sequence[Ballot]) -> dict[tuple[int, int], float]:
    """Total ballot weight preferring a over b, for every ordered pair (a, b)."""
    candidates = _candidates(ballots)
    # each ballot's rank positions, with weights summed in ballot order
    ranks = [(ballot.weight, {c: i for i, c in enumerate(ballot.ranking)}) for ballot in ballots]
    prefs: dict[tuple[int, int], float] = {}
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            prefs[(a, b)] = sum(weight for weight, pos in ranks if pos[a] < pos[b])
            prefs[(b, a)] = sum(weight for weight, pos in ranks if pos[b] < pos[a])
    return prefs


def condorcet(ballots: Sequence[Ballot], rng_seed: int = 0) -> ElectionResult:
    """Head-to-head election between every provider pair.

    The global winner is the candidate with the most pairwise wins. When no
    unique maximum exists (a cycle or tie), the paradox flag is set and a
    seeded-random candidate among the tied top is recommended.
    """
    candidates = _candidates(ballots)
    prefs = pairwise_preferences(ballots)
    ops = len(ballots) * (len(candidates) * (len(candidates) - 1)) // 2
    wins = {c: 0.0 for c in candidates}
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            if prefs[(a, b)] > prefs[(b, a)]:
                wins[a] += 1
            elif prefs[(b, a)] > prefs[(a, b)]:
                wins[b] += 1
    best = max(wins.values()) if wins else 0.0
    top = sorted(c for c in candidates if wins[c] == best)
    if len(top) == 1:
        return ElectionResult("condorcet", top[0], wins, paradox=False, op_count=ops)
    winner = random.Random(rng_seed).choice(top)
    return ElectionResult("condorcet", winner, wins, paradox=True, op_count=ops)


def top_weight(
    outcomes: Iterable[CompositionOutcome],
    qos_weights: Mapping[str, float],
) -> int:
    """Baseline: best raw value on the single highest-weighted metric."""
    successful = [o for o in outcomes if o.success]
    if not successful:
        raise NoSuccessfulProviders("no successful composition to recommend from")
    metric = max(QOS_METRICS, key=lambda m: qos_weights[m])  # ties keep metric order
    chosen = min(successful, key=lambda o: (o.pqos.get(metric), o.provider_id))
    return chosen.provider_id


VOTING_METHODS = ("plurality", "irv", "borda", "condorcet", "topweight")


# --- satisfaction -----------------------------------------------------------


def expected_raw(low: float, high: float, weight: float) -> float:
    """Expected QoS in raw units from the feasible range and the preference weight."""
    return (high - low) * weight + low


def normalized_qos(cohort: Mapping[int, QosVector]) -> dict[int, dict[str, float]]:
    """Min-max normalize each metric over the cohort, oriented higher-is-better.

    A metric with zero spread normalizes to 1 for everyone.
    """
    if not cohort:
        raise ValueError("cohort must be non-empty")
    result: dict[int, dict[str, float]] = {pid: {} for pid in cohort}
    for metric in QOS_METRICS:
        values = {pid: q.get(metric) for pid, q in cohort.items()}
        lo, hi = min(values.values()), max(values.values())
        span = hi - lo
        for pid, v in values.items():
            result[pid][metric] = 1.0 if span <= 0 else (hi - v) / span
    return result


@dataclass(frozen=True)
class SatisfactionScore:
    per_metric: Mapping[str, float]
    overall: float


def satisfaction(
    cohort: Mapping[int, QosVector],
    qos_weights: Mapping[str, float],
) -> dict[int, SatisfactionScore]:
    """Per-provider satisfaction against cohort-derived expectations.

    In normalized higher-is-better space the expected value of a metric equals
    its preference weight, so each metric scores weight * (normalized - weight);
    the overall score is the mean over the four metrics. Zero means expectations
    met exactly, positive exceeds them, negative falls short.
    """
    normalized = normalized_qos(cohort)
    scores = {}
    for pid, n_hat in normalized.items():
        per_metric = {
            m: qos_weights[m] * (n_hat[m] - qos_weights[m]) for m in QOS_METRICS
        }
        scores[pid] = SatisfactionScore(
            per_metric=per_metric,
            overall=math.fsum(per_metric.values()) / len(QOS_METRICS),
        )
    return scores
