"""Unit tests for the bounded priority-classed shedding queue."""

import pytest

from repro.flow.policy import BEST_EFFORT, HIGH, NORMAL
from repro.flow.queues import BoundedPriorityQueue
from repro.obs.metrics import MetricsRegistry


def test_strict_priority_fifo_within_class():
    q = BoundedPriorityQueue(capacity=10)
    q.offer("n1", NORMAL)
    q.offer("b1", BEST_EFFORT)
    q.offer("h1", HIGH)
    q.offer("n2", NORMAL)
    q.offer("h2", HIGH)
    order = [item for item, _ in q.drain()]
    assert order == ["h1", "h2", "n1", "n2", "b1"]


def test_depth_never_exceeds_capacity():
    q = BoundedPriorityQueue(capacity=3)
    for k in range(20):
        q.offer(k, k % 3)
        assert len(q) <= 3
    assert q.peak_depth == 3


def test_drop_oldest_evicts_oldest_of_worst_class():
    q = BoundedPriorityQueue(capacity=3)
    q.offer("b1", BEST_EFFORT)
    q.offer("b2", BEST_EFFORT)
    q.offer("h1", HIGH)
    result = q.offer("n1", NORMAL)
    assert result.accepted
    assert result.shed == ("b1", BEST_EFFORT)
    assert [item for item, _ in q.drain()] == ["h1", "n1", "b2"]


def test_incoming_worse_than_everything_queued_is_rejected():
    q = BoundedPriorityQueue(capacity=2)
    q.offer("h1", HIGH)
    q.offer("n1", NORMAL)
    result = q.offer("b1", BEST_EFFORT)
    assert not result.accepted
    assert result.shed == ("b1", BEST_EFFORT)
    assert [item for item, _ in q.drain()] == ["h1", "n1"]


def test_zero_capacity_rejected():
    with pytest.raises(ValueError, match="at least one"):
        BoundedPriorityQueue(capacity=0)


def test_take_on_empty_returns_none():
    q = BoundedPriorityQueue(capacity=1)
    assert q.take() is None
    q.offer("x", NORMAL)
    assert q.take() == ("x", NORMAL)
    assert q.take() is None


def test_metrics_emission():
    registry = MetricsRegistry()
    q = BoundedPriorityQueue(
        capacity=2,
        registry=registry,
        broker="b0",
        queue="ingress",
    )
    q.offer("b1", BEST_EFFORT)
    q.offer("b2", BEST_EFFORT)
    q.offer("n1", NORMAL)
    assert q.shed_total == 1
    shed = registry.counter(
        "flow_shed_total",
        priority="best-effort",
        broker="b0",
        queue="ingress",
    )
    assert shed.value == 1
    depth = registry.gauge("flow_queue_depth", broker="b0", queue="ingress")
    peak = registry.gauge(
        "flow_queue_peak_depth", broker="b0", queue="ingress"
    )
    assert depth.value == 2
    assert peak.value == 2
    q.drain()
    assert depth.value == 0
    assert peak.value == 2
