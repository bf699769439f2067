"""Unit tests for credits, AIMD pacing, breakers, and admission."""

import pytest

from repro.flow.admission import AdmissionController, TokenBucket
from repro.flow.aimd import AIMDRateLimiter
from repro.flow.breaker import CLOSED, HALF_OPEN, OPEN, OverloadBreaker
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
        limiter = AIMDRateLimiter(rate=10.0)
        assert limiter.try_acquire(now=0.0)
        assert not limiter.try_acquire(now=0.05)
        assert limiter.try_acquire(now=0.1)
        assert limiter.next_slot() == pytest.approx(0.2)

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


class TestOverloadBreaker:
    def test_lifecycle(self):
        breaker = OverloadBreaker(
            high_depth=4, low_depth=1, cooldown=1.0, degrade_floor=NORMAL
        )
        assert breaker.state == CLOSED
        breaker.observe_depth(4, now=0.0)
        assert breaker.state == OPEN
        assert breaker.admits(HIGH, now=0.1)
        assert breaker.admits(NORMAL, now=0.1)
        assert not breaker.admits(BEST_EFFORT, now=0.1)
        assert breaker.rejections == 1
        # Cooldown elapses -> half-open, best-effort probes again.
        assert breaker.admits(BEST_EFFORT, now=1.5)
        assert breaker.state == HALF_OPEN
        breaker.observe_depth(4, now=1.6)  # relapse
        assert breaker.state == OPEN
        breaker.observe_depth(0, now=3.0)
        assert breaker.state == HALF_OPEN
        breaker.observe_depth(0, now=3.1)
        assert breaker.state == CLOSED

    def test_shed_trips_open_and_metrics(self):
        registry = MetricsRegistry()
        breaker = OverloadBreaker(
            high_depth=8,
            low_depth=2,
            cooldown=0.5,
            degrade_floor=NORMAL,
            registry=registry,
            broker="b0",
        )
        breaker.record_shed(now=0.0)
        assert breaker.state == OPEN
        assert registry.gauge("flow_breaker_state", broker="b0").value == OPEN
        assert not breaker.admits(BEST_EFFORT, now=0.1)
        assert (
            registry.counter(
                "flow_breaker_rejections_total", broker="b0"
            ).value
            == 1
        )
        transitions = registry.counter(
            "flow_breaker_transitions_total", state="open", broker="b0"
        )
        assert transitions.value == 1


class TestAdmission:
    def test_token_bucket_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(now=0.0)
        assert bucket.try_take(now=0.0)
        assert not bucket.try_take(now=0.0)
        assert bucket.try_take(now=0.1)

    def test_priority_reserve(self):
        controller = AdmissionController(
            rate=1.0, burst=10.0, reserve=0.5, reserve_floor=HIGH
        )
        # Best-effort may only spend down to the 5-token reserve.
        admitted = sum(
            controller.admit(BEST_EFFORT, now=0.0) for _ in range(10)
        )
        assert admitted == 5
        # High priority drains the reserve too.
        admitted = sum(controller.admit(HIGH, now=0.0) for _ in range(10))
        assert admitted == 5
        assert not controller.admit(HIGH, now=0.0)
        assert controller.rejected == 11

    def test_rejections_counted_as_admission_sheds(self):
        registry = MetricsRegistry()
        controller = AdmissionController(
            rate=1.0, burst=1.0, reserve=0.0, registry=registry, broker="b0"
        )
        assert controller.admit(BEST_EFFORT, now=0.0)
        assert not controller.admit(BEST_EFFORT, now=0.0)
        shed = registry.counter(
            "flow_shed_total",
            stage="admission",
            priority="best-effort",
            broker="b0",
        )
        assert shed.value == 1
