"""The scenario shape: every registered scenario keeps the contract, and
a new one is a ``Scenario`` value -- nothing in the CLI changes."""

import json
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.cli import build_parser, main
from repro.harness.scenario import SCENARIOS, Gate, Scenario, load

#: Flags that size each scenario small; the rest are the CLI defaults.
_SMALL = {
    "overlay": ["--duration", "1", "--rate", "20"],
    "kdc": ["--duration", "4", "--rate", "10", "--subscribers", "2"],
    "recovery": ["--duration", "2", "--rate", "20"],
    "overload": [],
    "rekey": [],
    "live": ["--duration", "1", "--rate", "30", "--brokers", "3",
             "--subscribers", "3"],
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_registered_scenario_keeps_the_contract(name):
    scenario = load(name)
    assert scenario.name == name
    assert scenario.description.strip()
    gate_names = [gate.name for gate in scenario.gates]
    assert gate_names and len(set(gate_names)) == len(gate_names)

    args = build_parser().parse_args(
        ["chaos", "--scenario", name, "--seed", "11", *_SMALL[name]]
    )
    config = scenario.configure(args)
    result = scenario.run(config)
    assert scenario.format(config, result).strip()
    for gate, problem in scenario.violations(config, result):
        assert gate in gate_names and problem
    if scenario.snapshot is not None:
        json.dumps(scenario.snapshot(result))
    if name != "rekey":  # the one scenario that reads the wall clock
        assert scenario.run(config) == result


@dataclass
class _Coins:
    heads: int
    flips: int


_TOY = Scenario(
    name="toy",
    description="flip --duration coins from --seed",
    configure=lambda args: (args.seed, int(args.duration)),
    run=lambda config: _Coins(
        heads=bin(config[0]).count("1") % (config[1] + 1), flips=config[1]
    ),
    format=lambda config, coins: f"{coins.heads}/{coins.flips} heads",
    gates=(
        Gate("flipped", lambda config, coins:
             None if coins.flips == config[1] else "lost a coin"),
        Gate("some-tails", lambda _config, coins:
             f"all {coins.flips} came up heads"
             if coins.heads == coins.flips else None),
    ),
    snapshot=lambda coins: {"counters": {"heads_total": coins.heads}},
)


def test_a_new_scenario_is_a_value_not_a_handler(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setitem(SCENARIOS, "toy", _TOY)

    assert main(["chaos", "--list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert listing[-2].split() == ["toy", *_TOY.description.split()]
    assert listing[-1].strip() == "gates: flipped, some-tails"

    target = tmp_path / "toy.json"
    assert main(["chaos", "--scenario", "toy", "--seed", "1",
                 "--duration", "3", "--check",
                 "--snapshot", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1/3 heads\n"
    assert captured.err.splitlines()[-2:] == [
        "toy gates held: flipped, some-tails", "chaos gates passed: toy",
    ]
    assert json.loads(target.read_text()) == {"counters": {"heads_total": 1}}

    # Seed 7 = 0b111: three heads of three trips one gate, not the other.
    assert main(["chaos", "--scenario", "toy", "--seed", "7",
                 "--duration", "3", "--check"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "toy gates held: flipped",
        "toy gate some-tails violated: all 3 came up heads",
    ]


@pytest.mark.parametrize("statement, allowed", [
    ("import repro.harness.reporting",
     {"repro.harness", "repro.harness.reporting"}),
    ("import repro.cli; repro.cli.build_parser()",
     {"repro.cli", "repro.harness", "repro.harness.scenario"}),
])
def test_import_loads_no_scenario_module_and_no_asyncio(statement, allowed):
    # ``import repro`` itself loads the facade (and with it
    # ``repro.net.simnet``), so the claim is about what comes on top.
    code = (
        "import sys, repro; before = set(sys.modules); "
        f"{statement}; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.startswith('repro'))); print('asyncio' in sys.modules)"
    )
    added, has_asyncio = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True,
    ).stdout.splitlines()
    assert set(eval(added)) == allowed  # noqa: S307 - our own output
    assert has_asyncio == "False"
