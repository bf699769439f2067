"""The overlay scenario's ``instrumentation`` gate: the tracing and
metrics invariants of its tree runs, and the snapshot's workload section."""

import json

from repro.harness.chaos import (
    SCENARIO,
    ChaosConfig,
    check_invariants,
    run_chaos,
    run_tree_chaos,
)
from repro.obs.export import json_safe

# The overlay scenario's tree at a size that keeps the snapshot readable.
_CONFIG = ChaosConfig(seed=7, duration=1.0, drain=2.0, publish_rate=20.0,
                      num_brokers=7, crash_probability=0.15,
                      crash_duration=0.4)


def test_invariants_hold_on_seeded_run():
    result = run_tree_chaos(_CONFIG, reliable=True)
    assert check_invariants(_CONFIG, result) == []
    # ...and catch a run whose traces do not add up.
    result.obs.tracer.start_trace("stray", at=0.0)
    assert any(
        "traces started" in problem
        for problem in check_invariants(_CONFIG, result)
    )


def test_gate_audits_both_tree_runs():
    report = run_chaos(_CONFIG)
    assert "instrumentation" not in dict(SCENARIO.violations(_CONFIG, report))
    report.tree_baseline.obs.tracer.start_trace("stray", at=0.0)
    problem = dict(SCENARIO.violations(_CONFIG, report))["instrumentation"]
    assert problem.startswith("fire-and-forget tree: events published (20)")


def test_workload_exercises_faults_and_retries():
    result = run_tree_chaos(_CONFIG, reliable=True)
    summary = result.obs.tracer.summary()
    assert summary["total_retransmits"] > 0
    assert result.obs.registry.total("net_hop_retries_total") > 0
    delivery = result.obs.registry.get("net_delivery_latency_seconds")
    assert delivery is not None and delivery.count == result.delivered


def test_snapshot_carries_workload_section():
    """``--snapshot`` exports the reliable tree's bundle, plus what the
    workload published and delivered (CI's sanity step reads both)."""
    report = run_chaos(_CONFIG)
    document = SCENARIO.snapshot(report)
    result = report.tree_reliable
    assert document["workload"] == {
        "published": _CONFIG.events,
        "expected": result.expected,
        "delivered": result.delivered,
    }
    assert document["tree"]["tracing"]["traces_started"] == _CONFIG.events
    assert document["tree"]["counters"]
    assert json_safe(document["tree"]) == json.loads(result.obs.to_json())


def test_run_is_deterministic():
    a = run_tree_chaos(_CONFIG, reliable=True)
    b = run_tree_chaos(_CONFIG, reliable=True)
    # Nothing is detected at this size, so the mean latencies are NaN and
    # the results cannot be ``==``; the counters and the metrics can.
    assert (a.delivered, a.retries) == (b.delivered, b.retries)
    assert a.obs.registry.snapshot() == b.obs.registry.snapshot()
    assert a.obs.tracer.summary() == b.obs.tracer.summary()
