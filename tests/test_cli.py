"""The command-line interface."""

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo"]) == 0
    output = capsys.readouterr().out
    assert "doctor" in output
    assert "rec-17" in output
    assert "None" in output  # the outsider is denied


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
    output = capsys.readouterr().out
    from repro.cli import CHAOS_SCENARIOS

    for name, description in CHAOS_SCENARIOS.items():
        assert name in output
        assert description.split(":")[0] in output
    assert "overload" in output


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


def test_chaos_overload_rejects_bad_config(capsys):
    assert main(["chaos", "--scenario", "overload",
                 "--storm-factor", "20"]) == 2
    assert "error:" in capsys.readouterr().err


def test_metrics_check_passes(capsys):
    assert main(["metrics", "--duration", "1", "--rate", "20",
                 "--check"]) == 0
    captured = capsys.readouterr()
    assert '"counters"' in captured.out
    assert "broker_events_received_total" in captured.out
    assert "all tracing invariants hold" in captured.err


def test_metrics_writes_snapshot_file(tmp_path, capsys):
    target = tmp_path / "snapshot.json"
    assert main(["metrics", "--duration", "1", "--rate", "20",
                 "--output", str(target)]) == 0
    import json

    document = json.loads(target.read_text())
    assert document["tracing"]["dropped_spans"] == 0
    assert document["workload"]["published"] == 20
    assert "spans across" in capsys.readouterr().err


def test_metrics_prometheus_format(capsys):
    assert main(["metrics", "--duration", "1", "--rate", "20",
                 "--format", "prometheus"]) == 0
    output = capsys.readouterr().out
    assert "# TYPE net_delivery_latency_seconds summary" in output
    assert "broker_events_received_total" in output


def test_chaos_reports_include_metrics_snapshot(capsys):
    assert main(["chaos", "--seed", "7", "--duration", "1",
                 "--rate", "20"]) == 0
    output = capsys.readouterr().out
    assert "Metrics snapshot (reliable tree)" in output
    assert "hop retries" in output
    assert "e2e latency" in output


def test_command_registry_drives_parser():
    from repro.cli import build_parser, commands

    names = {entry.name for entry in commands()}
    assert {"demo", "grant", "chaos", "metrics", "verify"} <= names
    parser = build_parser()
    args = parser.parse_args(["metrics", "--check"])
    assert args.check is True


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


_BENCH_SMOKE = [
    "--seed", "11", "--events", "30", "--brokers", "7",
    "--subscribers", "4", "--topics", "8", "--topics-per-subscriber", "3",
    "--batch-size", "8", "--sweep", "8",
]


def test_bench_registered_with_uniform_seed_option():
    from repro.cli import build_parser, commands

    assert "bench" in {entry.name for entry in commands()}
    parser = build_parser()
    for command in ("bench", "chaos", "metrics"):
        args = parser.parse_args([command, "--seed", "3"])
        assert args.seed == 3


def test_bench_smoke_writes_report(tmp_path, capsys):
    target = tmp_path / "BENCH_engine.json"
    assert main(["bench", *_BENCH_SMOKE, "--output", str(target)]) == 0
    captured = capsys.readouterr()
    assert "equivalence: ok" in captured.out
    assert "engine" in captured.out

    import json

    document = json.loads(target.read_text())
    assert document["schema"] == "repro.bench/engine.v1"
    assert document["equivalence"]["holds"] is True


def test_bench_check_against_own_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["bench", *_BENCH_SMOKE, "--output", str(baseline)]) == 0
    capsys.readouterr()
    fresh = tmp_path / "fresh.json"
    assert main([
        "bench", *_BENCH_SMOKE, "--output", str(fresh),
        "--check", "--baseline", str(baseline), "--tolerance", "0.6",
    ]) == 0
    assert "bench check passed" in capsys.readouterr().err


def test_bench_check_missing_baseline_is_config_error(tmp_path, capsys):
    assert main([
        "bench", *_BENCH_SMOKE, "--output", str(tmp_path / "out.json"),
        "--check", "--baseline", str(tmp_path / "nope.json"),
    ]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_bench_overload_suite_writes_report(tmp_path, capsys):
    target = tmp_path / "BENCH_overload.json"
    assert main(["bench", "--suite", "overload", "--seed", "7",
                 "--output", str(target)]) == 0
    captured = capsys.readouterr()
    assert "sustained overload sweep" in captured.out
    assert "headline" in captured.out

    import json

    document = json.loads(target.read_text())
    assert document["schema"] == "repro.bench/overload.v1"
    assert document["headline"]["high_delivery"] >= 0.99


def test_bench_overload_check_against_committed_baseline(tmp_path, capsys):
    assert main([
        "bench", "--suite", "overload", "--seed", "7",
        "--output", str(tmp_path / "fresh.json"),
        "--check", "--tolerance", "0.05",
    ]) == 0
    assert "bench check passed" in capsys.readouterr().err


def test_bench_rejects_bad_workload(tmp_path, capsys):
    assert main(["bench", "--events", "0",
                 "--output", str(tmp_path / "out.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_bench_has_no_parallel_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--suite", "parallel"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'parallel'" in capsys.readouterr().err


def test_version_flag_reports_the_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    output = capsys.readouterr().out
    assert output.startswith("repro ")
    import repro

    assert repro.__version__ in output


def test_serve_registered_with_parent_option():
    from repro.cli import build_parser, commands

    assert "serve" in {entry.name for entry in commands()}
    args = build_parser().parse_args(
        ["serve", "--broker-id", "b3", "--port", "7001",
         "--parent", "127.0.0.1:7000"]
    )
    assert args.broker_id == "b3"
    assert args.port == 7001
    assert args.parent == "127.0.0.1:7000"


_LIVEBENCH_SMOKE = [
    "--seed", "11", "--events", "15", "--brokers", "3",
    "--subscribers", "3", "--topics", "8", "--topics-per-subscriber", "2",
]


def test_livebench_smoke_writes_report(tmp_path, capsys):
    target = tmp_path / "BENCH_rtnet.json"
    assert main(["livebench", *_LIVEBENCH_SMOKE,
                 "--output", str(target)]) == 0
    captured = capsys.readouterr()
    assert "equivalence: ok" in captured.out
    assert "loopback TCP tree" in captured.out
    assert "unauthorized opens: 0" in captured.out

    import json

    document = json.loads(target.read_text())
    assert document["schema"] == "repro.bench/rtnet.v1"
    assert document["equivalence"]["holds"] is True
    assert document["security"]["unauthorized_opens"] == 0


def test_livebench_check_against_own_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["livebench", *_LIVEBENCH_SMOKE,
                 "--output", str(baseline)]) == 0
    capsys.readouterr()
    assert main([
        "livebench", *_LIVEBENCH_SMOKE,
        "--output", str(tmp_path / "fresh.json"),
        "--check", "--baseline", str(baseline), "--tolerance", "0.6",
    ]) == 0
    assert "livebench check passed" in capsys.readouterr().err


def test_livebench_check_missing_baseline_is_config_error(tmp_path, capsys):
    assert main([
        "livebench", *_LIVEBENCH_SMOKE,
        "--output", str(tmp_path / "out.json"),
        "--check", "--baseline", str(tmp_path / "nope.json"),
    ]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_livebench_rejects_bad_workload(tmp_path, capsys):
    assert main(["livebench", "--events", "0",
                 "--output", str(tmp_path / "out.json")]) == 2
    assert "error" in capsys.readouterr().err
