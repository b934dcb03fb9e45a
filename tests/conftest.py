from unittest import mock

import pytest

from skybroker import composition
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


def compose_flown(*args, **kwargs):
    """compose's outcome together with the finished sub-swarms it was built from."""
    flown = []
    fly = composition.fly

    def record(state, ctx):
        flown.extend(fly(state, ctx))
        return flown

    with mock.patch.object(composition, "fly", record):
        return composition.compose(*args, **kwargs), flown


def check_flown(provider, comp_config, out, flown):
    """Energy conservation and the outcome's sums over the finished
    sub-swarms: every drone starts on a full battery, so it holds its capacity
    less what it consumed plus what it purchased."""
    capacity = provider.swarm.battery_capacity
    for sub in flown:
        for held, consumed, purchased in zip(sub.held, sub.consumed, sub.purchased, strict=True):
            assert held >= 0
            assert abs(held - (capacity - consumed + purchased)) <= 1e-9 * capacity
    assert out.pqos.energy == sum(e for sub in flown for e in sub.consumed)
    assert out.pqos.delivery_time == max(sub.travel_s + sub.charge_s + sub.wait_s for sub in flown)
    if out.success:
        times = [sub.delivery_time for sub in flown]
        assert max(times) - min(times) <= comp_config.arrival_window_s


@pytest.fixture
def unit_config():
    return unit_energy_config()


@pytest.fixture
def seeds():
    return Seeds.from_master(0)


@pytest.fixture
def no_progress():
    return CompositionConfig(progress_weight=0.0)
