"""The ``repro metrics`` workload -- the overlay scenario's reliable
tree at a small size -- and its tracing invariants."""

import json

from repro.cli import main
from repro.harness.chaos import ChaosConfig, check_invariants, run_tree_chaos

# What ``repro metrics --seed 7 --duration 1 --rate 20`` runs.
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


def test_workload_exercises_faults_and_retries():
    result = run_tree_chaos(_CONFIG, reliable=True)
    summary = result.obs.tracer.summary()
    assert summary["total_retransmits"] > 0
    assert result.obs.registry.total("net_hop_retries_total") > 0
    delivery = result.obs.registry.get("net_delivery_latency_seconds")
    assert delivery is not None and delivery.count == result.delivered


def test_snapshot_carries_workload_section(capsys):
    """The CLI exports exactly the library run, plus a workload section."""
    assert main(["metrics", "--seed", "7", "--duration", "1",
                 "--rate", "20"]) == 0
    document = json.loads(capsys.readouterr().out)
    result = run_tree_chaos(_CONFIG, reliable=True)
    assert document.pop("workload") == {
        "published": _CONFIG.events,
        "expected": result.expected,
        "delivered": result.delivered,
    }
    assert "tracing" in document and document["counters"]
    assert document == json.loads(result.obs.to_json())


def test_run_is_deterministic():
    a = run_tree_chaos(_CONFIG, reliable=True)
    b = run_tree_chaos(_CONFIG, reliable=True)
    # Nothing is detected at this size, so the mean latencies are NaN and
    # the results cannot be ``==``; the counters and the metrics can.
    assert (a.delivered, a.retries) == (b.delivered, b.retries)
    assert a.obs.registry.snapshot() == b.obs.registry.snapshot()
    assert a.obs.tracer.summary() == b.obs.tracer.summary()
