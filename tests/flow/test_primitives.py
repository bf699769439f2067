"""Unit tests for flow policy, credits, and AIMD rate adaptation."""

import pytest

from repro.flow.aimd import AIMDRateLimiter
from repro.flow.credit import CreditGate
from repro.flow.policy import (
    BEST_EFFORT,
    HIGH,
    NORMAL,
    FlowControlPolicy,
    priority_of,
    with_priority,
)
from repro.obs.metrics import MetricsRegistry
from repro.siena.events import Event


class TestPolicy:
    def test_priority_round_trip(self):
        event = Event({"topic": "t"})
        assert priority_of(event) == NORMAL
        stamped = with_priority(event, HIGH)
        assert priority_of(stamped) == HIGH
        assert priority_of(event, default=BEST_EFFORT) == BEST_EFFORT

    def test_policy_validation(self):
        FlowControlPolicy()  # defaults are coherent
        with pytest.raises(ValueError, match="credit_window"):
            FlowControlPolicy(queue_capacity=8, credit_window=9)


class TestCreditGate:
    def test_window_accounting(self):
        gate = CreditGate(window=2)
        assert gate.try_acquire() and gate.try_acquire()
        assert gate.outstanding == 2
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        with pytest.raises(ValueError):
            CreditGate(window=0)

    def test_over_release_rejected(self):
        gate = CreditGate(window=1)
        with pytest.raises(RuntimeError, match="never acquired"):
            gate.release()

    def test_stall_timing_with_clock(self):
        now = [0.0]
        registry = MetricsRegistry()
        gate = CreditGate(
            window=1,
            registry=registry,
            clock=lambda: now[0],
            link="0->1",
        )
        assert gate.try_acquire()
        assert not gate.try_acquire()  # stall starts at t=0
        assert not gate.try_acquire()  # same stall, counted once
        assert gate.stalls == 1
        now[0] = 0.5
        gate.release()
        assert gate.try_acquire()
        assert gate.stall_seconds == pytest.approx(0.5)
        counter = registry.counter("flow_credit_stalls_total", link="0->1")
        assert counter.value == 1
        gauge = registry.gauge("flow_credits_available", link="0->1")
        assert gauge.value == 0


class TestAIMDRateLimiter:
    def test_pacing(self):
        limiter = AIMDRateLimiter(rate=10.0, cooldown=0.0)
        assert limiter.interval() == pytest.approx(0.1)
        limiter.on_overload(now=0.0)
        assert limiter.interval() == pytest.approx(0.2)
        limiter.on_success()  # +increase/rate = +2 events/s
        assert limiter.interval() == pytest.approx(1 / 7)

    def test_multiplicative_decrease_with_cooldown(self):
        limiter = AIMDRateLimiter(rate=100.0, cooldown=0.1)
        limiter.on_overload(now=0.0)
        limiter.on_overload(now=0.05)  # inside cooldown: ignored
        assert limiter.rate == pytest.approx(50.0)
        assert limiter.overloads == 1
        limiter.on_overload(now=0.2)
        assert limiter.rate == pytest.approx(25.0)

    def test_additive_increase_bounded(self):
        limiter = AIMDRateLimiter(
            rate=99.99, max_rate=100.0, increase=10.0
        )
        for _ in range(100):
            limiter.on_success()
        assert limiter.rate == pytest.approx(100.0)

    def test_floor(self):
        limiter = AIMDRateLimiter(rate=2.0, min_rate=1.5, cooldown=0.0)
        limiter.on_overload(now=0.0)
        limiter.on_overload(now=1.0)
        assert limiter.rate == pytest.approx(1.5)
