"""The command-line interface."""

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo"]) == 0
    output = capsys.readouterr().out
    assert "doctor" in output
    assert "rec-17" in output
    assert "None" in output  # the outsider is denied
    # Brokers route on tokens: the routable part names no plaintext value.
    (routable,) = [
        line for line in output.splitlines()
        if line.startswith("event routable part")
    ]
    assert "'age'" not in routable and "'topic'" not in routable
    assert "'_ttok'" in routable


def test_grant(capsys):
    assert main(["grant", "16", "31"]) == 0
    output = capsys.readouterr().out
    assert "keys" in output
    assert "element" in output


def test_grant_with_options(capsys):
    assert main(
        ["grant", "--topic", "stocks", "--attribute", "price",
         "--range", "1024", "100", "900"]
    ) == 0
    output = capsys.readouterr().out
    assert "stocks" in output


def test_calibrate(capsys):
    assert main(["calibrate"]) == 0
    output = capsys.readouterr().out
    assert "hash_s" in output
    assert "us" in output


def test_experiment_construction(capsys):
    assert main(["experiment", "construction"]) == 0
    output = capsys.readouterr().out
    assert "Figure 8" in output


def test_experiment_cache(capsys):
    assert main(["experiment", "cache"]) == 0
    output = capsys.readouterr().out
    assert "Figure 11" in output


def test_experiment_entropy_small(capsys):
    assert main(["experiment", "entropy", "--events", "600"]) == 0
    output = capsys.readouterr().out
    assert "S_app" in output


def test_topology(capsys):
    assert main(["topology", "--nodes", "16"]) == 0
    output = capsys.readouterr().out
    assert "RTT mean" in output


def test_chaos(capsys):
    assert main(["chaos", "--seed", "7", "--duration", "1",
                 "--rate", "20"]) == 0
    output = capsys.readouterr().out
    assert "Chaos run: seed 7" in output
    assert "fire-and-forget" in output
    assert "reliable" in output
    assert "delivery" in output
    assert "Multipath G_ind" in output


def test_chaos_kdc_scenario(capsys):
    assert main(["chaos", "--scenario", "kdc", "--seed", "7",
                 "--duration", "4", "--rate", "10",
                 "--subscribers", "2"]) == 0
    output = capsys.readouterr().out
    assert "KDC chaos run: seed 7" in output
    assert "single-kdc" in output
    assert "replicated" in output
    assert "Multipath" not in output  # overlay experiments not run


def test_chaos_overlay_scenario_skips_kdc(capsys):
    assert main(["chaos", "--scenario", "overlay", "--seed", "7",
                 "--duration", "1", "--rate", "20"]) == 0
    output = capsys.readouterr().out
    assert "Chaos run: seed 7" in output
    assert "KDC chaos run" not in output


def test_chaos_recovery_scenario_gates(capsys):
    assert main(["chaos", "--scenario", "recovery", "--seed", "7",
                 "--duration", "5", "--check"]) == 0
    captured = capsys.readouterr()
    assert "Recovery run: seed 7" in captured.out
    assert "Tree repairs" in captured.out
    assert "Metrics snapshot (recovery)" in captured.out
    assert "chaos gates passed" in captured.err
    assert "Chaos run" not in captured.out  # overlay experiments not run


def test_chaos_recovery_scenario_rejects_bad_config(capsys):
    assert main(["chaos", "--scenario", "recovery", "--seed", "7",
                 "--brokers", "7"]) == 2
    assert "error:" in capsys.readouterr().err


def test_chaos_list_enumerates_scenarios(capsys):
    assert main(["chaos", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    from repro.harness.scenario import SCENARIOS, load

    assert list(SCENARIOS) == [
        "overlay", "kdc", "recovery", "overload", "rekey", "live",
    ]
    assert len(lines) == 12  # a description line and a gates line each
    for index, name in enumerate(SCENARIOS):
        scenario = load(name)
        assert lines[2 * index].split() == [
            name, *scenario.description.split()
        ]
        assert lines[2 * index + 1].strip() == "gates: " + ", ".join(
            gate.name for gate in scenario.gates
        )


def test_chaos_overload_scenario_gates(tmp_path, capsys):
    snapshot = tmp_path / "overload.json"
    assert main(["chaos", "--scenario", "overload", "--seed", "7",
                 "--check", "--snapshot", str(snapshot)]) == 0
    captured = capsys.readouterr()
    assert "Overload run: seed 7" in captured.out
    assert "Storm timeline" in captured.out
    assert "Graceful degradation sweep" in captured.out
    assert "Metrics snapshot (overload)" in captured.out
    assert "chaos gates passed" in captured.err
    assert "Chaos run" not in captured.out  # overlay experiments not run
    import json

    document = json.loads(snapshot.read_text())
    assert "counters" in document
    assert "NaN" not in snapshot.read_text()  # empty histograms read null


def test_chaos_live_scenario_gates(capsys):
    assert main(["chaos", "--scenario", "live", "--check",
                 "--seed", "7"]) == 0
    captured = capsys.readouterr()
    assert "Live run: seed 7, 200 events" in captured.out
    assert "across 8 subscribers" in captured.out
    assert "equivalence        ok" in captured.out
    assert "unauthorized opens 0" in captured.out
    assert "chaos gates passed: live" in captured.err
    assert "Chaos run" not in captured.out  # overlay experiments not run


def test_chaos_live_rejects_bad_config(capsys):
    assert main(["chaos", "--scenario", "live", "--subscribers", "0"]) == 2
    assert "error: need at least one subscriber" in capsys.readouterr().err


def test_chaos_check_names_the_gated_scenarios(capsys):
    assert main(["chaos", "--check", "--seed", "7", "--duration", "5",
                 "--rate", "20"]) == 0
    captured = capsys.readouterr()
    assert "Chaos run: seed 7" in captured.out
    err = captured.err.strip().splitlines()
    assert err[-1] == (
        "chaos gates passed: overlay, kdc, recovery, overload, rekey, live"
    )
    # Above it, one line per scenario names the gates that held.
    assert err[0] == (
        "overlay gates held: reliable-delivery, baseline-degrades, "
        "instrumentation"
    )
    assert "live gates held: equivalence, confidentiality, acked" in err


@pytest.mark.parametrize("argv, message", [
    (["chaos", "--scenario", "overlay", "--rate", "0"],
     "duration and publish rate must be positive"),
    (["chaos", "--scenario", "recovery", "--rate", "0"],
     "duration and publish rate must be positive"),
    (["chaos", "--scenario", "kdc", "--rate", "0"],
     "duration and publish rate must be positive"),
    (["chaos", "--scenario", "kdc", "--subscribers", "0"],
     "need at least one subscriber"),
    (["chaos", "--scenario", "overlay", "--duration", "0"],
     "horizon must be positive"),
])
def test_bad_sizes_are_config_errors_not_tracebacks(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {message}"
    assert captured.out == ""


def test_chaos_snapshot_is_written_by_every_simulator_scenario(
    tmp_path, capsys
):
    import json

    target = tmp_path / "recovery.json"
    assert main(["chaos", "--scenario", "recovery", "--seed", "7",
                 "--snapshot", str(target)]) == 0
    assert f"wrote metrics snapshot to {target}" in capsys.readouterr().err
    document = json.loads(target.read_text())
    assert document["histograms"]["recovery_convergence_seconds"]["count"] == 2


@pytest.mark.parametrize("scenario", ["all", "live"])
def test_chaos_snapshot_says_why_it_writes_nothing(
    scenario, tmp_path, capsys
):
    target = tmp_path / "snapshot.json"
    assert main(["chaos", "--scenario", scenario,
                 "--snapshot", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        "error: --snapshot names one file: pick one --scenario that "
        "collects metrics (live does not)"
    )
    assert captured.out == ""  # refused before running anything
    assert not target.exists()


@pytest.mark.parametrize("removed", [
    "--crash-duration", "--epoch-length", "--high-fraction",
    "--queue-capacity", "--shed-policy", "--rollovers",
])
def test_chaos_flags_nobody_set_are_gone(removed, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", removed, "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_chaos_overload_rejects_bad_config(capsys):
    assert main(["chaos", "--scenario", "overload",
                 "--storm-factor", "20"]) == 2
    assert "error:" in capsys.readouterr().err


def test_chaos_reports_include_metrics_snapshot(capsys):
    assert main(["chaos", "--seed", "7", "--duration", "1",
                 "--rate", "20"]) == 0
    output = capsys.readouterr().out
    assert "Metrics snapshot (reliable tree)" in output
    assert "hop retries" in output
    assert "e2e latency" in output


def test_command_registry_drives_parser():
    from repro.cli import COMMANDS, build_parser

    names = {name for name, *_ in COMMANDS}
    assert {"demo", "grant", "chaos", "verify"} <= names
    parser = build_parser()
    args = parser.parse_args(["chaos", "--check"])
    assert args.check is True


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_bench_registered_with_uniform_seed_option():
    """Every randomized command takes the same ``--seed`` option."""
    from repro.cli import COMMANDS, build_parser

    assert {"chaos", "topology"} <= {name for name, *_ in COMMANDS}
    parser = build_parser()
    for command in ("chaos", "topology"):
        args = parser.parse_args([command, "--seed", "3"])
        assert args.seed == 3


@pytest.mark.parametrize("removed", ["bench", "livebench", "metrics"])
def test_removed_bench_commands_are_unknown(removed, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([removed])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{removed}'" in capsys.readouterr().err


def test_version_flag_reports_the_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    output = capsys.readouterr().out
    assert output.startswith("repro ")
    import repro

    assert repro.__version__ in output


def test_serve_registered_with_parent_option():
    from repro.cli import COMMANDS, build_parser

    assert "serve" in {name for name, *_ in COMMANDS}
    args = build_parser().parse_args(
        ["serve", "--broker-id", "b3", "--port", "7001",
         "--parent", "127.0.0.1:7000"]
    )
    assert args.broker_id == "b3"
    assert args.port == 7001
    assert args.parent == "127.0.0.1:7000"
