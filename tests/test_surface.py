"""The library's public surface: where defaults and checks live, and how totals add.

A default lives in one place, the config dataclass field the pipeline reads:
``EnergyModelConfig``, ``CompositionConfig``, ``ScenarioLimits`` and
``CapabilityRanges`` in ``config.py``, beside the field rules that check them,
and ``ExperimentConfig``, which holds them, in ``harness.py``. Functions take
their inputs explicitly, so a parameter default in ``src/`` is either on the
list below or a second home for a value that can drift from the config's.
A default is listed only where two callers in the pipeline pass different
things, one of them nothing; a value only tests vary is a module constant
that they set with ``monkeypatch``, as ``network.K_NEAREST`` is.

A precondition is checked once, where its value enters the program: by a
config's field rules, a loader, the network model, a domain constructor or
scenario generation, or the CSV writer. A stage module (pruning, composition,
energy, recommendation) trusts its inputs and states in its docstring which
of those owners guarantees them, and its tests test the owner, not a second
check.

Totals go through ``domain.total``, a left fold: from Python 3.12 the builtin
``sum()`` of floats is compensated and rounds differently, so one float total
through it changes the output bytes with the interpreter.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import skybroker
from skybroker import cli
from skybroker.config import ScenarioLimits
from skybroker.harness import ExperimentConfig

ALLOWED_DEFAULTS = {
    # callers give argv or let argparse read sys.argv
    ("main", "argv"),
    # callers write the outputs or only want the result
    ("run_experiment", "out_dir"),
    # the flight's top-up draws the queue lazily; the estimate passes the
    # expected one
    ("_tops_up", "queue"),
}


def defaulted_parameters(source: str) -> set[tuple[str, str]]:
    """(function, parameter) for every parameter with a default in source."""
    pairs = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        args = node.args
        positional = args.posonlyargs + args.args
        for arg in positional[len(positional) - len(args.defaults) :]:
            pairs.add((name, arg.arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                pairs.add((name, arg.arg))
    return pairs


def test_only_allowlisted_parameter_defaults():
    found = set()
    for path in sorted(Path(skybroker.__file__).parent.glob("*.py")):
        found |= defaulted_parameters(path.read_text())
    assert found == ALLOWED_DEFAULTS


def test_scan_sees_every_kind_of_default():
    source = "def f(a, b=1, *, c=2, d): pass\nclass K:\n    def g(self, e=None): pass\ng = lambda h=0: h\n"
    assert defaulted_parameters(source) == {("f", "b"), ("f", "c"), ("g", "e"), ("<lambda>", "h")}


def sum_references(source: str) -> list[int]:
    """Line numbers of every use of the name sum in source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name) and node.id == "sum"
    )


def test_no_module_uses_the_builtin_sum():
    found = {}
    for path in sorted(Path(skybroker.__file__).parent.glob("*.py")):
        lines = sum_references(path.read_text())
        if lines:
            found[path.name] = lines
    assert found == {}


def test_sum_scan_sees_calls_and_references():
    source = "a = sum(x)\nb = map(sum, rows)\nc = rows.sum()\nd = total(x)\n"
    assert sum_references(source) == [1, 2]


def test_experiment_limits_are_the_scenario_defaults():
    assert ExperimentConfig().limits == ScenarioLimits()


def test_cli_run_defaults_are_the_experiment_defaults(monkeypatch):
    built = []

    def fake_run(cfg, out_dir=None):
        built.append(cfg)
        return SimpleNamespace(
            manifest={"requests": {"served": 0, "rejected": 0, "unserved": 0}}, rows=[], summary=[], trends={}
        )

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main(["run", "--synthetic", "12"]) == 0
    assert built == [ExperimentConfig(synthetic_nodes=12)]
