"""KDC-outage chaos: the acceptance scenario for the replicated service."""

from dataclasses import replace

from repro.harness.kdcchaos import (
    SCENARIO,
    KdcChaosConfig,
    format_kdc_chaos_report,
    run_kdc_chaos,
    run_kdc_chaos_mode,
)

#: The acceptance configuration: 3 replicas, a 1s primary outage
#: straddling an epoch boundary, plus a client partition and a nested
#: second-replica crash.
CONFIG = KdcChaosConfig()


def test_replicated_meets_sla_while_baseline_degrades():
    report = run_kdc_chaos(CONFIG)
    assert report.replicated.decrypt_rate >= 0.99
    assert report.baseline.decrypt_rate < 0.97  # measurably degraded
    assert report.replicated.decrypt_rate > report.baseline.decrypt_rate
    assert SCENARIO.violations(CONFIG, report) == []
    # Swapped, the same numbers trip the decrypt floor and the comparison.
    swapped = replace(
        report, baseline=report.replicated, replicated=report.baseline
    )
    assert [gate for gate, _problem in SCENARIO.violations(CONFIG, swapped)] \
        == ["replicated-decrypt", "replication-helps"]


def test_outage_straddles_an_epoch_boundary():
    boundary = CONFIG.boundary()
    start = boundary - CONFIG.outage_duration / 2
    assert start < boundary < start + CONFIG.outage_duration
    assert 0.0 < boundary < CONFIG.duration


def test_replicated_run_used_the_availability_machinery():
    result = run_kdc_chaos_mode(
        CONFIG, replicas=CONFIG.replicas,
        grace_period=CONFIG.grace_period, mode="replicated",
    )
    assert result.client_failovers > 0       # replicas actually failed over
    assert result.grace_opens > 0            # grace window actually used
    assert result.view_changes >= 1          # leadership moved off kdc0
    assert result.messages_lost > 0          # the faults actually bit
    assert result.converged                  # registry log consistent


def test_baseline_without_grace_misses_boundary_traffic():
    result = run_kdc_chaos_mode(
        CONFIG, replicas=1, grace_period=0.0, mode="single-kdc"
    )
    assert result.decrypted < result.attempted
    assert result.grace_opens == 0
    # Degraded-mode renewal counters surface the outage.
    assert result.late_renewals > 0 or result.renewal_failures > 0


def test_same_seed_reproduces_every_counter():
    first = run_kdc_chaos(CONFIG)
    second = run_kdc_chaos(CONFIG)
    assert first == second


def test_different_seed_changes_jitter_but_not_the_sla():
    report = run_kdc_chaos(replace(CONFIG, seed=11))
    assert report.replicated.decrypt_rate >= 0.99


def test_report_formatting():
    report = run_kdc_chaos(CONFIG)
    text = format_kdc_chaos_report(CONFIG, report)
    assert "KDC chaos run" in text
    assert "single-kdc" in text
    assert "replicated" in text
    assert "decrypt" in text
