"""Byte contract: fixed configs still write their pinned output bytes.

Every (workload, seed) pinned in brokerbench/expected.json is checked, with
its config from brokerbench/workloads.py; this test only reads them. The sweep
config is the acceptance battery's, so the sweep digests are taken from the
outputs of the battery's run of the same seed (the ``battery`` fixture of
conftest.py), once the two configs are checked to be equal. Four more configs
are pinned in one table below: two pruned ones, one with rising position
factors and one that charges at most stops. per_request.csv carries
execution_time and proxy_time, so the digests also pin the evaluation cost
model. sweep is the config that pins candidate scoring's charging estimates:
pricing the estimated top-up at the drawn queue instead of the expected one
leaves the smoke and short_hop bytes unchanged but not the sweep ones.
"""

import builtins
import hashlib
import json
import math
from functools import reduce
from operator import add

import pytest

from skybroker.config import CompositionConfig, EnergyModelConfig
from skybroker.harness import ExperimentConfig, run_experiment, write_outputs

from conftest import BENCH, WORKLOADS

EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize(
    ("workload", "seed"), [(workload, int(seed)) for workload in sorted(EXPECTED) for seed in EXPECTED[workload]]
)
def test_benchmark_outputs_match_pinned_digests(workload, seed, tmp_path, request):
    config = ExperimentConfig(seed=seed, **WORKLOADS[workload].config)
    if workload == "sweep":
        run = request.getfixturevalue("battery")[seed]
        assert run.config == config
        write_outputs(run.result, tmp_path)
    else:
        run_experiment(config, tmp_path)
    expected = EXPECTED[workload][str(seed)]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


def compensated_sum(iterable, /, start=0):
    """A model of the builtin sum() of CPython 3.12 and later: exact on ints,
    and once the running total is a float, each float is added with Neumaier
    compensation, which joins the total at the end."""
    result, compensation = start, 0.0
    for item in iterable:
        if type(result) is float and type(item) is float:
            t = result + item
            if abs(result) >= abs(item):
                compensation += (result - t) + item
            else:
                compensation += (item - t) + result
            result = t
        else:
            result = result + item
    if type(result) is float and compensation and math.isfinite(compensation):
        result += compensation
    return result


def test_compensated_sum_model_rounds_unlike_a_left_fold():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0
    assert reduce(add, tenths, 0) == 0.9999999999999999
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2, 3])) is int


def test_smoke_outputs_keep_their_bytes_under_compensated_sum(monkeypatch, tmp_path):
    """Float totals are left folds, so the output bytes do not depend on
    whether the running CPython compensates sum() of floats, as 3.12 does."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    run_experiment(ExperimentConfig(seed=1, **WORKLOADS["smoke"].config), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in EXPECTED["smoke"]["1"]
    }
    assert digests == EXPECTED["smoke"]["1"]


# Configs pinned here, by name: (config, sha256 of each output file).
PINNED_CONFIGS = {
    # Configs without the brute strategy, where pruning keeps some providers
    # out of every cohort, so a slip in composing only the cohort union shows
    # here. The digests were taken from the request pipeline that composed
    # every filtered provider. "fallback" holds an unserved request and one
    # served only by a provider outside every cohort.
    "density": (
        dict(seed=1, synthetic_nodes=100, n_requests=20, strategies=("density",), k_values=(30.0, 50.0, 70.0)),
        {
            "per_request.csv": "df2b65309b299bc0d6854e93a084ea39a422300a3495c9d7232938eb5a062fc9",
            "summary.csv": "dd1031242b2c9ba288cced4938d2e5000644d9da82b5ccf26f88e764d6f9a674",
            "manifest.json": "4cb62c708c98ce7ee14484a079a19e811d63874fa477b7cbb1defc334ca29282",
        },
    ),
    "fallback": (
        dict(seed=14, synthetic_nodes=40, n_providers=6, n_requests=8, strategies=("density",), k_values=(70.0,)),
        {
            "per_request.csv": "4aed1b364f5249e7aca143976a481ed4e5dbadd2011c07ffbcc9714f585dfceb",
            "summary.csv": "a1f7ac78c513ed66d27c4d679997d3212d261ad9e0cee9808c3c5741e4e2a1f8",
            "manifest.json": "7e696362f39a9a35e617c3589bb28da043ed2f25dde3b6aabd679cdb2715427f",
        },
    ),
    # Position factors that rise along the swarm make the later slots dearer,
    # the case in which a split half was once thought unable to fly its leg.
    # The config splits 81 times; its digests were taken from the composer that
    # still checked each split and could fold it back.
    "rising_position_factors": (
        dict(
            seed=1,
            synthetic_nodes=60,
            n_requests=20,
            strategies=("brute", "density"),
            voting_methods=("irv", "borda"),
            energy=EnergyModelConfig(position_factors=(0.9, 1.0, 1.1, 1.2)),
        ),
        {
            "per_request.csv": "b1b2c9484b7076f82036204b9f6593441e94a93ffe14664ae498541dbbd22034",
            "summary.csv": "2bbce118a8e29b325a81701bcfcd1ddfbfe3b697248f61b660a655032becffe8",
            "manifest.json": "993a0a75cc96095964514d407e385afaf67adf85d7dc3734615639c0689b6b12",
        },
    ),
    # Long exogenous queues and a high top-up threshold make charging the
    # common case: the config makes 58 opportunistic top-ups, 431 forced stops
    # and 88 splits. Its digests were taken from the composer that still kept
    # one record per drone.
    "charging_heavy": (
        dict(
            seed=1,
            synthetic_nodes=60,
            n_requests=20,
            strategies=("brute", "density"),
            k_values=(50.0,),
            voting_methods=("irv", "borda"),
            energy=EnergyModelConfig(queue_draw_max=8),
            composition=CompositionConfig(opportunistic_charge_threshold=0.8),
        ),
        {
            "per_request.csv": "446133045a782fcfc25f5fff4bcbabf4720420138d8f2ee8af526ff388f530c5",
            "summary.csv": "008d4e42b2fe1a20177755e73e3c56d2964f3393f4a0dc11f5cc708675712ac2",
            "manifest.json": "0f53056a95e5c2191b1398ffc61c984ab640084cfb1594385a00aff5d73368f6",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_pinned_config_outputs_match_digests(name, tmp_path):
    config, expected = PINNED_CONFIGS[name]
    run_experiment(ExperimentConfig(**config), tmp_path)
    digests = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in expected}
    assert digests == expected
