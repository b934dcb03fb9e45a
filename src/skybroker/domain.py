"""Providers, swarms, drones, partnerships, delivery requests and QoS vectors."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .network import SkywayNetwork


class Formation(str, Enum):
    """Swarm flight formations. Declaration order is the deterministic tie-break order."""

    VEE = "vee"
    DIAMOND = "diamond"
    FRONT = "front"
    ECHELON = "echelon"
    COLUMN = "column"


FORMATIONS: tuple[Formation, ...] = tuple(Formation)

STATIC = "static"
DYNAMIC = "dynamic"
FIXED_FORMATION = "fixed_formation"
FLEXIBLE_FORMATION = "flexible_formation"
COOPERATIVE = "cooperative"

BEHAVIOUR_TECHNIQUES = frozenset({STATIC, DYNAMIC})
FORMATION_POLICY_TECHNIQUES = frozenset({FIXED_FORMATION, FLEXIBLE_FORMATION})
ALL_TECHNIQUES = BEHAVIOUR_TECHNIQUES | FORMATION_POLICY_TECHNIQUES | {COOPERATIVE}

QOS_METRICS = ("delivery_time", "energy", "cost", "execution_time")

TIERS = ("platinum", "gold", "silver")
TIER_PRICES_PER_KWH = {"platinum": 0.15, "gold": 0.20, "silver": 0.25}
NON_PARTNER_PRICE_PER_KWH = 0.30
# Queued drones admitted ahead of the swarm at partner stations. None means the
# swarm may skip the entire queue.
TIER_QUEUE_SKIP: dict[str, int | None] = {"platinum": None, "gold": 2, "silver": 1}


@dataclass(frozen=True)
class Drone:
    drone_id: int
    battery_capacity: float  # Wh
    payload_capacity: float  # kg
    speed: float  # m/s
    current_energy: float | None = None  # defaults to a full battery
    assigned_payload: float = 0.0  # kg

    def __post_init__(self) -> None:
        if self.current_energy is None:
            object.__setattr__(self, "current_energy", self.battery_capacity)
        if self.battery_capacity <= 0:
            raise ValueError(f"drone {self.drone_id}: battery_capacity must be positive")
        if not 0.0 <= self.current_energy <= self.battery_capacity + 1e-9:
            raise ValueError(f"drone {self.drone_id}: current_energy outside [0, capacity]")
        if self.payload_capacity <= 0:
            raise ValueError(f"drone {self.drone_id}: payload_capacity must be positive")
        if not 0.0 <= self.assigned_payload <= self.payload_capacity + 1e-9:
            raise ValueError(f"drone {self.drone_id}: assigned_payload outside [0, payload_capacity]")
        if self.speed <= 0:
            raise ValueError(f"drone {self.drone_id}: speed must be positive")


@dataclass(frozen=True)
class Swarm:
    """A homogeneous set of drones plus the techniques the provider flies them with."""

    drones: tuple[Drone, ...]
    techniques: frozenset[str]
    formation: Formation

    def __post_init__(self) -> None:
        if not self.drones:
            raise ValueError("swarm must contain at least one drone")
        unknown = set(self.techniques) - ALL_TECHNIQUES
        if unknown:
            raise ValueError(f"unknown techniques: {sorted(unknown)}")
        if len(self.techniques & BEHAVIOUR_TECHNIQUES) != 1:
            raise ValueError("swarm needs exactly one of {static, dynamic}")
        if len(self.techniques & FORMATION_POLICY_TECHNIQUES) != 1:
            raise ValueError("swarm needs exactly one of {fixed_formation, flexible_formation}")
        first = self.drones[0]
        for d in self.drones[1:]:
            if (
                d.battery_capacity != first.battery_capacity
                or d.payload_capacity != first.payload_capacity
                or d.speed != first.speed
            ):
                raise ValueError("swarm drones must be homogeneous in capacity and speed")

    @property
    def size(self) -> int:
        return len(self.drones)

    @property
    def is_dynamic(self) -> bool:
        return DYNAMIC in self.techniques

    @property
    def is_flexible(self) -> bool:
        return FLEXIBLE_FORMATION in self.techniques

    @property
    def is_cooperative(self) -> bool:
        return COOPERATIVE in self.techniques


@dataclass(frozen=True)
class Partnership:
    """Agreement with one charging company granting price and queue benefits.

    ``queue_skip`` caps how many already-queued drones are served before the
    swarm at stations owned by the partner; None grants unlimited priority,
    i.e. the swarm skips the whole queue.
    """

    charging_provider_id: int
    tier: str
    price_per_kwh: float
    queue_skip: int | None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown partnership tier {self.tier!r}")
        if self.price_per_kwh <= 0:
            raise ValueError("price_per_kwh must be positive")
        if self.tier == "platinum" and self.queue_skip is not None:
            raise ValueError("platinum partnerships always skip the whole queue")
        if self.queue_skip is not None and self.queue_skip < 0:
            raise ValueError("queue_skip must be non-negative")

    @classmethod
    def for_tier(cls, charging_provider_id: int, tier: str) -> "Partnership":
        return cls(
            charging_provider_id=charging_provider_id,
            tier=tier,
            price_per_kwh=TIER_PRICES_PER_KWH[tier],
            queue_skip=TIER_QUEUE_SKIP[tier],
        )

    def queue_ahead(self, queue_length: int, station_owner: int) -> int:
        """Exogenous drones served before the swarm at a station owned by ``station_owner``."""
        if station_owner != self.charging_provider_id:
            return queue_length
        if self.queue_skip is None:
            return 0
        return min(queue_length, self.queue_skip)


@dataclass(frozen=True)
class Provider:
    provider_id: int
    swarm: Swarm
    partnership: Partnership


def normalize_weights(raw: Mapping[str, float]) -> dict[str, float]:
    """Normalize preference weights over the four QoS metrics to sum to one.

    Missing metrics count as zero. Inputs already summing to one (within 1e-12)
    are returned unchanged, which makes normalization exactly idempotent.
    """
    unknown = set(raw) - set(QOS_METRICS)
    if unknown:
        raise ValueError(f"unknown QoS metrics: {sorted(unknown)}")
    values = {m: float(raw.get(m, 0.0)) for m in QOS_METRICS}
    if any(v < 0 for v in values.values()):
        raise ValueError("QoS weights must be non-negative")
    total = sum(values.values())
    if total <= 0:
        raise ValueError("at least one QoS weight must be positive")
    if abs(total - 1.0) <= 1e-12:
        return values
    return {m: v / total for m, v in values.items()}


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
        if any(w <= 0 for w in self.packages):
            raise ValueError("package weights must be positive")
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

    def get(self, metric: str) -> float:
        return float(getattr(self, metric))

    def as_dict(self) -> dict[str, float]:
        return {m: self.get(m) for m in QOS_METRICS}


def assign_packages(swarm: Swarm, packages: Sequence[float]) -> Swarm:
    """One package per drone: drone i carries the i-th heaviest package and the
    drones after the last package carry nothing, so loads never increase along
    the swarm. More packages than drones raise ValueError (filter_providers
    rules such providers out before composition)."""
    if len(packages) > swarm.size:
        raise ValueError(f"{len(packages)} packages need one drone each, the swarm has {swarm.size}")
    loads = sorted(map(float, packages), reverse=True) + [0.0] * (swarm.size - len(packages))
    return replace(swarm, drones=tuple(replace(d, assigned_payload=w) for d, w in zip(swarm.drones, loads)))


@dataclass(frozen=True)
class ScenarioLimits:
    max_packages: int = 10
    max_package_weight_kg: float = 2.5
    min_package_weight_kg: float = 0.1


@dataclass(frozen=True)
class CapabilityRanges:
    battery_wh: tuple[float, float] = (50.0, 100.0)
    speed_mps: tuple[float, float] = (10.0, 20.0)
    payload_kg: tuple[float, float] = (1.0, 3.0)
    swarm_size: tuple[int, int] = (3, 12)


def generate_scenario(
    seed: int,
    network: "SkywayNetwork",
    n_providers: int,
    n_requests: int,
    limits: ScenarioLimits | None = None,
    ranges: CapabilityRanges | None = None,
) -> tuple[tuple[Provider, ...], tuple[DeliveryRequest, ...]]:
    """Synthesize a provider fleet and request batch, deterministic for a fixed seed."""
    if n_providers <= 0:
        raise ValueError("n_providers must be positive")
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    limits = limits or ScenarioLimits()
    ranges = ranges or CapabilityRanges()
    rng = random.Random(seed)
    charging_ids = network.charging_providers
    node_ids = sorted(network.nodes)

    providers = []
    for pid in range(1, n_providers + 1):
        battery = rng.uniform(*ranges.battery_wh)
        speed = rng.uniform(*ranges.speed_mps)
        payload = rng.uniform(*ranges.payload_kg)
        size = rng.randint(*ranges.swarm_size)
        behaviour = rng.choice((STATIC, DYNAMIC))
        policy = rng.choice((FIXED_FORMATION, FLEXIBLE_FORMATION))
        cooperative = rng.random() < 0.5
        formation = rng.choice(FORMATIONS)
        techniques = {behaviour, policy}
        if cooperative:
            techniques.add(COOPERATIVE)
        drones = tuple(
            Drone(drone_id=i, battery_capacity=battery, payload_capacity=payload, speed=speed)
            for i in range(1, size + 1)
        )
        partnership = Partnership.for_tier(rng.choice(charging_ids), rng.choice(TIERS))
        providers.append(
            Provider(
                provider_id=pid,
                swarm=Swarm(drones=drones, techniques=frozenset(techniques), formation=formation),
                partnership=partnership,
            )
        )

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

