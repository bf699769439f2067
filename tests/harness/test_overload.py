"""Acceptance criteria for the overload harness.

Under the issue's headline scenario -- a Zipf publisher storm at 4x the
sustainable rate with 10% high-priority traffic -- the flow-controlled
overlay must keep every queue inside its bound, deliver 99%+ of
high-priority events, degrade best-effort delivery gracefully (tracking
the analytic floor, no cliff), recover fully after the storm, stall on
credits behind a slow broker, and shed less when the publisher paces
itself with AIMD.  All numbers are seeded, so the bounds are exact.
"""

import dataclasses

import pytest

from repro.harness.overload import (
    CAPACITY,
    DEGRADATION_FLOOR,
    MIN_HIGH_DELIVERY,
    MIN_RECOVERY_DELIVERY,
    QUEUE_CAPACITY,
    SCENARIO,
    OverloadConfig,
    format_overload_report,
    run_overload,
)

_CONFIG = OverloadConfig(seed=7)


@pytest.fixture(scope="module")
def result():
    return run_overload(_CONFIG)


def test_queues_stayed_bounded(result):
    assert 0 < result.peak_ingress_depth <= QUEUE_CAPACITY
    assert result.peak_egress_depth <= QUEUE_CAPACITY
    # The service pump keeps the raw CPU backlog O(1) -- the unbounded
    # hop queue is gone from the flow-controlled path.
    assert result.max_node_backlog <= 4


def test_high_priority_rides_out_the_storm(result):
    storm = result.storm_phase
    assert storm.high_delivery >= MIN_HIGH_DELIVERY
    # The storm genuinely overloaded the overlay.
    assert result.shed_events > 0
    assert storm.best_effort_delivery < 0.5


def test_degradation_is_graceful_not_a_cliff(result):
    ratios = [point.best_effort_delivery for point in result.sweep]
    assert ratios == sorted(ratios, reverse=True)
    for point in result.sweep:
        floor = DEGRADATION_FLOOR * point.analytic_best_effort
        assert point.best_effort_delivery >= floor
        assert point.high_delivery >= MIN_HIGH_DELIVERY
    # At sustainable load nothing is shed at all.
    assert result.sweep[0].shed_events == 0


def test_post_storm_recovery_is_complete(result):
    recovery = result.recovery_phase
    assert recovery.overall_delivery >= MIN_RECOVERY_DELIVERY
    assert result.queues_drained


def test_slow_broker_backpressures_on_credits(result):
    assert result.credit_stalls > 0
    assert result.credit_stall_seconds > 0.0
    assert result.slowdown_peak_depth <= QUEUE_CAPACITY
    assert result.slowdown_high_delivery >= MIN_HIGH_DELIVERY


def test_aimd_pacing_sheds_less_than_fixed_rate(result):
    assert result.static_shed_fraction > 0.0
    assert result.adaptive_shed_fraction < result.static_shed_fraction
    assert result.adaptive_offered < result.static_offered
    # The limiter converged below the storm rate.
    assert (
        result.adaptive_final_rate
        < _CONFIG.storm_factor * CAPACITY
    )


def test_gates_pass_and_catch_violations(result):
    assert SCENARIO.violations(_CONFIG, result) == []
    dropped = dataclasses.replace(result.storm_phase, high_delivery=0.9)
    broken = dataclasses.replace(result, phases=[
        dropped if phase.name == "storm" else phase
        for phase in result.phases
    ])
    (gate, problem), = SCENARIO.violations(_CONFIG, broken)
    assert gate == "priority-protection" and "high-priority" in problem
    cliff = dataclasses.replace(result.sweep[-1], best_effort_delivery=0.0)
    strict = dataclasses.replace(result, sweep=[*result.sweep[:-1], cliff])
    (gate, problem), = SCENARIO.violations(_CONFIG, strict)
    assert gate == "graceful-degradation" and "cliff" in problem
    overflowed = dataclasses.replace(
        result, peak_ingress_depth=QUEUE_CAPACITY + 1
    )
    (gate, problem), = SCENARIO.violations(_CONFIG, overflowed)
    assert gate == "bounded-queues" and "ingress queue peaked" in problem
    undrained = dataclasses.replace(result, queues_drained=False)
    (gate, problem), = SCENARIO.violations(_CONFIG, undrained)
    assert gate == "recovery" and "still hold events" in problem
    unstalled = dataclasses.replace(result, credit_stalls=0)
    (gate, problem), = SCENARIO.violations(_CONFIG, unstalled)
    assert gate == "backpressure" and "never stalled" in problem
    unpaced = dataclasses.replace(
        result, adaptive_shed_fraction=result.static_shed_fraction
    )
    (gate, problem), = SCENARIO.violations(_CONFIG, unpaced)
    assert gate == "adaptation" and "AIMD pacing shed" in problem


def test_six_x_rung_protects_high_priority_and_sheds_fairly(result):
    worst = result.sweep[-1]
    assert worst.factor == 6.0
    assert worst.shed_events > 0
    assert worst.high_delivery >= MIN_HIGH_DELIVERY
    # Every shed landed on best-effort, the lowest class present.
    assert worst.shed_fairness == 1.0
    # At sustainable load nothing is shed: vacuously fair.
    assert result.sweep[0].shed_fairness == 1.0


def test_gate_flags_sacrificed_high_priority_events(result):
    storm = result.sweep[-1]
    sacrificed = dataclasses.replace(
        storm,
        shed_fairness=(storm.shed_events - 40) / storm.shed_events,
    )
    unfair = dataclasses.replace(
        result, sweep=[*result.sweep[:-1], sacrificed]
    )
    (gate, problem), = SCENARIO.violations(_CONFIG, unfair)
    assert gate == "priority-protection"
    assert problem.startswith("sweep factor 6: shed fairness")
    assert "sacrificed" in problem and ";" not in problem


def test_seeded_runs_are_identical(result):
    again = run_overload(OverloadConfig(seed=7))
    assert again == result


def test_report_renders_the_gated_numbers(result):
    report = format_overload_report(_CONFIG, result)
    assert "Overload run: seed 7" in report
    assert "Storm timeline" in report
    assert "Graceful degradation sweep" in report
    assert "Backpressure and adaptation" in report
    assert "Metrics snapshot (overload)" in report


def test_config_validation_rejects_broken_scenarios():
    with pytest.raises(ValueError):
        OverloadConfig(storm_factor=20.0).validate()  # high slice > capacity
    with pytest.raises(ValueError):
        OverloadConfig(storm_factor=0.5).validate()  # not a storm
