import pytest

from skybroker.config import CompositionConfig, EnergyModelConfig, Seeds
from skybroker.domain import (
    FIXED_FORMATION,
    STATIC,
    Formation,
    Partnership,
    Provider,
    Swarm,
)
from skybroker.network import SkywayNetwork, SkywayNode


def unit_energy_config(**overrides) -> EnergyModelConfig:
    """Energy model with every formation/position factor pinned to 1 and no
    exogenous congestion, so tests can do exact hand arithmetic."""
    defaults = dict(
        formation_factors={f: (1.0,) * 8 for f in Formation},
        position_factors=(1.0,),
        queue_draw_max=0,
    )
    defaults.update(overrides)
    return EnergyModelConfig(**defaults)


def line_network(lengths, owners=None, pads=None) -> SkywayNetwork:
    """Nodes 0..n on the x axis, consecutive segments of the given lengths."""
    n = len(lengths) + 1
    owners = owners or [1] * n
    pads = pads or [4] * n
    xs = [0.0]
    for length in lengths:
        xs.append(xs[-1] + length)
    nodes = [SkywayNode(i, xs[i], 0.0, owners[i], pads[i]) for i in range(n)]
    return SkywayNetwork(nodes, [(i, i + 1) for i in range(n - 1)])


def simple_provider(
    provider_id=1,
    n_drones=1,
    battery=1000.0,
    payload_cap=3.0,
    speed=10.0,
    techniques=frozenset({STATIC, FIXED_FORMATION}),
    formation=Formation.VEE,
    charging_provider=1,
    tier="gold",
) -> Provider:
    return Provider(
        provider_id=provider_id,
        swarm=Swarm(
            size=n_drones,
            battery_capacity=battery,
            payload_capacity=payload_cap,
            speed=speed,
            techniques=techniques,
            formation=formation,
        ),
        partnership=Partnership.for_tier(charging_provider, tier),
    )


@pytest.fixture
def unit_config():
    return unit_energy_config()


@pytest.fixture
def seeds():
    return Seeds.from_master(0)


@pytest.fixture
def no_progress():
    return CompositionConfig(progress_weight=0.0)
