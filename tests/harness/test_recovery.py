"""Acceptance criteria for the recovery harness.

Under the issue's headline scenario -- two permanent broker kills plus a
1s partition of a live subtree -- the self-healing overlay must hold
delivery at 99%+ with ZERO duplicate deliveries surfaced at any
subscriber, repair both kills (finite convergence time in the metrics
snapshot), and refuse to excise the partitioned-but-live brokers.  All
numbers are seeded, so the bounds are exact.
"""

import dataclasses
import math

import pytest

from repro.harness.recovery import (
    KILL_BROKERS,
    SCENARIO,
    RecoveryConfig,
    format_recovery_report,
    run_recovery,
)

_CONFIG = RecoveryConfig(seed=7)


@pytest.fixture(scope="module")
def result():
    return run_recovery(_CONFIG)


def test_delivery_gate_holds(result):
    assert result.delivery_rate >= 0.99
    assert result.expected > 0


def test_exactly_once_zero_surfaced_duplicates(result):
    assert result.duplicate_collisions == 0
    # ...while the suppression machinery demonstrably worked: repairs
    # and salvage re-sent events, and something absorbed them.
    assert result.duplicates_suppressed + result.events_salvaged > 0


def test_both_permanent_kills_repaired(result):
    assert result.repairs_attempted == 2
    assert result.repairs_converged == 2
    assert result.failed_repairs == 0
    assert result.reparented == 4  # two orphaned children per kill
    assert math.isfinite(result.max_convergence)
    assert 0 < result.max_convergence < 2.0


def test_partition_counted_as_false_alarm_not_repair(result):
    assert result.false_alarms >= 1
    # Only the two kills appear in the repair records.
    assert {record.dead for record in result.records} == set(KILL_BROKERS)


def test_journals_were_exercised(result):
    assert result.journal_records > 0
    assert result.events_salvaged >= 0
    assert result.dead_letters == 0


def test_gates_pass_and_catch_violations(result):
    assert SCENARIO.violations(_CONFIG, result) == []
    lossy = dataclasses.replace(result, delivered=result.expected // 2)
    (gate, problem), = SCENARIO.violations(_CONFIG, lossy)
    assert gate == "delivery" and "delivery rate" in problem
    one_repair = dataclasses.replace(
        result, repairs_attempted=1, repairs_converged=1
    )
    (gate, problem), = SCENARIO.violations(_CONFIG, one_repair)
    assert gate == "repair" and "repairs converged" in problem


def test_seeded_runs_are_identical(result):
    again = run_recovery(RecoveryConfig(seed=7))
    assert again == result
    assert again.records == result.records and again.obs is not result.obs


def test_report_renders_the_gated_numbers(result):
    report = format_recovery_report(_CONFIG, result)
    assert "Self-healing overlay" in report
    assert "Tree repairs" in report
    assert "convergence" in report
    assert "Metrics snapshot (recovery)" in report


def test_config_validation_rejects_broken_scenarios():
    with pytest.raises(ValueError):
        RecoveryConfig(num_brokers=7).validate()  # scenario out of range
