"""Providers, swarms, partnerships, delivery requests and QoS vectors."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .config import CapabilityRanges, ScenarioLimits
    from .network import SkywayNetwork


class Formation(str, Enum):
    """Swarm flight formations. Declaration order is the deterministic tie-break order."""

    VEE = "vee"
    DIAMOND = "diamond"
    FRONT = "front"
    ECHELON = "echelon"
    COLUMN = "column"


FORMATIONS: tuple[Formation, ...] = tuple(Formation)

QOS_METRICS = ("delivery_time", "energy", "cost", "execution_time")


class TierTerms(NamedTuple):
    price_per_kwh: float  # at the partner's own stations
    # queued drones admitted ahead of the swarm at the partner's stations;
    # None means the swarm skips the entire queue
    queue_skip: int | None
    score_multiplier: float  # on the density pruning score


TIERS: dict[str, TierTerms] = {
    "platinum": TierTerms(0.15, None, 1.2),
    "gold": TierTerms(0.20, 2, 1.1),
    "silver": TierTerms(0.25, 1, 1.0),
}


@dataclass(frozen=True)
class Swarm:
    """A homogeneous swarm: ``size`` identical drones with one battery, payload
    and speed spec, plus the three techniques the provider flies them with.

    ``dynamic`` swarms may split once, at a congested node, into two
    sub-swarms; static ones never split. ``flexible`` swarms fly each leg in
    the formation best for its wind sector; fixed ones always fly
    ``formation``. ``cooperative`` swarms buy at a charging stop only what the
    route ahead needs plus a margin and never top up opportunistically; the
    others refill to full.
    """

    size: int
    battery_capacity: float  # Wh per drone
    payload_capacity: float  # kg per drone
    speed: float  # m/s
    dynamic: bool
    flexible: bool
    cooperative: bool
    formation: Formation

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("swarm must contain at least one drone")
        for name in ("battery_capacity", "payload_capacity", "speed"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Partnership:
    """Agreement with one charging company; its tier's ``TIERS`` terms set the
    price and queue priority at that company's stations."""

    charging_provider_id: int
    tier: str

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown partnership tier {self.tier!r}")

    def queue_ahead(self, queue_length: int, station_owner: int) -> int:
        """Exogenous drones served before the swarm at a station owned by ``station_owner``."""
        if station_owner != self.charging_provider_id:
            return queue_length
        skip = TIERS[self.tier].queue_skip
        return 0 if skip is None else min(queue_length, skip)


@dataclass(frozen=True)
class Provider:
    provider_id: int
    swarm: Swarm
    partnership: Partnership


def total(values: Iterable[float]) -> float:
    """The left-to-right sum of values from int 0: ints stay ints, and floats
    round at each addition as the builtin sum() does up to Python 3.11. From
    3.12 sum() compensates float rounding, which would change the outputs."""
    return reduce(add, values, 0)


def normalize_weights(raw: Mapping[str, float]) -> dict[str, float]:
    """Normalize preference weights over the four QoS metrics to sum to one.

    Missing metrics count as zero; each weight, and their sum, must be finite.
    Inputs already summing to one (within 1e-12) are returned unchanged, which
    makes normalization exactly idempotent.
    """
    unknown = set(raw) - set(QOS_METRICS)
    if unknown:
        raise ValueError(f"unknown QoS metrics: {sorted(unknown)}")
    values = {m: float(raw.get(m, 0.0)) for m in QOS_METRICS}
    for m, v in values.items():
        if not 0 <= v < math.inf:
            raise ValueError(f"QoS weight {m} must be finite and non-negative, got {v}")
    weight = total(values.values())
    if weight <= 0:
        raise ValueError("at least one QoS weight must be positive")
    if weight == math.inf:
        raise ValueError(f"QoS weights {list(values.values())} sum past the largest float")
    if abs(weight - 1.0) <= 1e-12:
        return values
    return {m: v / weight for m, v in values.items()}


def normalize_lower_better(values: Sequence[float]) -> list[float]:
    """Min-max normalize lower-is-better values so that higher means better.

    A span of at most 1e-12 normalizes every value to 1.
    """
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 1e-12:
        return [1.0] * len(values)
    return [(hi - v) / span for v in values]


@dataclass(frozen=True)
class DeliveryRequest:
    request_id: int
    source: int
    destination: int
    packages: tuple[float, ...]  # kg
    qos_weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if not self.packages:
            raise ValueError("request must carry at least one package")
        for w in self.packages:
            if not 0 < w < math.inf:
                raise ValueError(f"package weight {w} must be positive and finite")
        object.__setattr__(self, "packages", tuple(float(w) for w in self.packages))
        object.__setattr__(self, "qos_weights", normalize_weights(self.qos_weights))


@dataclass(frozen=True)
class QosVector:
    """Perceived QoS accumulated over one composed delivery."""

    delivery_time: float  # seconds
    energy: float  # Wh
    cost: float  # currency units
    execution_time: float  # abstract evaluation units

    def __post_init__(self) -> None:
        for metric in QOS_METRICS:
            v = getattr(self, metric)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"QoS component {metric} must be finite and non-negative")


def assign_packages(packages: Sequence[float]) -> tuple[float, ...]:
    """The loads of the drones dispatched for a ``DeliveryRequest``'s float
    packages, one per drone: drone i carries the i-th heaviest, so loads never
    increase along the swarm, which has a drone for each package and carries
    the heaviest (``filter_providers`` rules out every other provider)."""
    return tuple(sorted(packages, reverse=True))


def generate_scenario(
    seed: int,
    network: "SkywayNetwork",
    n_providers: int,
    n_requests: int,
    limits: ScenarioLimits,
    ranges: CapabilityRanges,
) -> tuple[tuple[Provider, ...], tuple[DeliveryRequest, ...]]:
    """Synthesize a provider fleet and request batch, deterministic for a fixed seed."""
    if len(network.nodes) < 2:
        raise ValueError(f"a request needs two distinct nodes, the network has {len(network.nodes)}")
    rng = random.Random(seed)
    charging_ids = network.charging_providers
    node_ids = sorted(network.nodes)

    providers = []
    for pid in range(1, n_providers + 1):
        battery = rng.uniform(*ranges.battery_wh)
        speed = rng.uniform(*ranges.speed_mps)
        payload = rng.uniform(*ranges.payload_kg)
        size = rng.randint(*ranges.swarm_size)
        dynamic = rng.choice((False, True))
        flexible = rng.choice((False, True))
        cooperative = rng.random() < 0.5
        formation = rng.choice(FORMATIONS)
        partnership = Partnership(rng.choice(charging_ids), rng.choice(tuple(TIERS)))
        swarm = Swarm(size, battery, payload, speed, dynamic, flexible, cooperative, formation)
        providers.append(Provider(pid, swarm, partnership))

    requests = []
    for rid in range(1, n_requests + 1):
        source, destination = rng.sample(node_ids, 2)
        count = rng.randint(1, limits.max_packages)
        packages = tuple(
            rng.uniform(limits.min_package_weight_kg, limits.max_package_weight_kg)
            for _ in range(count)
        )
        # consumers who supply four preference weights care about all four
        # metrics to some degree; the lower bound keeps requests multi-criteria
        raw = {m: rng.uniform(0.2, 1.0) for m in QOS_METRICS}
        requests.append(
            DeliveryRequest(
                request_id=rid,
                source=source,
                destination=destination,
                packages=packages,
                qos_weights=raw,
            )
        )
    return tuple(providers), tuple(requests)

