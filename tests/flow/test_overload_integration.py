"""Overload feedback above the overlay: publisher and facade.

The flow primitives bound *network* behaviour; these tests cover the
producer side of the loop -- AIMD pacing in the publisher and edge
admission control wired through the ``System`` facade.
"""

import pytest

from repro.api import System
from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.publisher import Publisher
from repro.flow import (
    BEST_EFFORT,
    HIGH,
    AdmissionController,
    AIMDRateLimiter,
    RateLimited,
    with_priority,
)
from repro.siena.events import Event
from repro.siena.filters import Filter


class TestPublisherRateLimit:
    def _publisher(self, limiter):
        kdc = KDC(master_key=bytes(16))
        kdc.register_topic("news", CompositeKeySpace({}))
        return Publisher("P", kdc, limiter=limiter)

    def test_over_rate_publishes_raise_before_sealing(self):
        publisher = self._publisher(AIMDRateLimiter(rate=10.0))
        publisher.publish(Event({"topic": "news", "body": "a"}), at_time=0.0)
        with pytest.raises(RateLimited):
            publisher.publish(
                Event({"topic": "news", "body": "b"}), at_time=0.0
            )
        assert publisher.stats.events_rate_limited == 1
        assert publisher.stats.events_sealed == 1  # refusal cost no crypto
        # The next pacing slot admits again.
        publisher.publish(Event({"topic": "news", "body": "c"}), at_time=0.1)
        assert publisher.stats.events_sealed == 2

    def test_on_overload_halves_rate(self):
        limiter = AIMDRateLimiter(rate=40.0, cooldown=0.0)
        publisher = self._publisher(limiter)
        publisher.on_overload(at_time=0.0)
        assert limiter.rate == pytest.approx(20.0)

    def test_unlimited_publisher_never_rate_limits(self):
        kdc = KDC(master_key=bytes(16))
        kdc.register_topic("news", CompositeKeySpace({}))
        publisher = Publisher("P", kdc)
        for _ in range(50):
            publisher.publish(Event({"topic": "news", "body": "x"}))
        assert publisher.stats.events_rate_limited == 0


class TestFacadeAdmission:
    def _system(self, **admission):
        return (
            System.builder()
            .topic("news", numeric={"price": 128})
            .admission(**admission)
            .build()
        )

    def test_storm_is_shed_at_the_edge(self):
        system = self._system(rate=10.0, burst=5.0, reserve=0.0)
        watcher = system.subscribe(
            "w", Filter.numeric_range("news", "price", 0, 127)
        )
        feed = system.publisher("feed")
        for k in range(20):
            feed.publish(
                Event({"topic": "news", "price": k % 128, "body": "x"},
                      publisher="feed"),
                at_time=0.0,
            )
        assert len(watcher.opened) == 5  # burst capacity
        assert system.shed_events == 15
        assert feed.shed == 15
        assert system.admission.rejected == 15
        shed_metric = system.registry.get(
            "flow_shed_total", stage="admission", priority="normal"
        )
        assert shed_metric is not None and shed_metric.value == 15

    def test_reserve_protects_high_priority(self):
        system = self._system(rate=10.0, burst=10.0, reserve=0.5)
        watcher = system.subscribe(
            "w", Filter.numeric_range("news", "price", 0, 127)
        )
        feed = system.publisher("feed")
        for k in range(10):
            feed.publish(
                with_priority(
                    Event({"topic": "news", "price": 1, "body": "x"},
                          publisher="feed"),
                    BEST_EFFORT,
                ),
                at_time=0.0,
            )
        # Best effort may only drain half the bucket...
        assert system.shed_events == 5
        for _ in range(5):
            feed.publish(
                with_priority(
                    Event({"topic": "news", "price": 2, "body": "x"},
                          publisher="feed"),
                    HIGH,
                ),
                at_time=0.0,
            )
        # ...while the reserved half admits every high-priority event.
        assert system.shed_events == 5
        assert len(watcher.opened) == 10

    def test_admission_refills_over_publication_time(self):
        system = self._system(rate=10.0, burst=1.0, reserve=0.0)
        watcher = system.subscribe(
            "w", Filter.numeric_range("news", "price", 0, 127)
        )
        feed = system.publisher("feed")
        for k in range(10):
            feed.publish(
                Event({"topic": "news", "price": 3, "body": "x"},
                      publisher="feed"),
                at_time=k * 0.1,
            )
        assert system.shed_events == 0
        assert len(watcher.opened) == 10

    def test_prebuilt_controller_is_used_verbatim(self):
        controller = AdmissionController(rate=5.0, burst=1.0, reserve=0.0)
        system = (
            System.builder()
            .topic("news", numeric={})
            .admission(controller)
            .build()
        )
        assert system.admission is controller

    def test_unconfigured_system_has_no_gate(self):
        system = System.builder().topic("news", numeric={}).build()
        assert system.admission is None
        assert system.shed_events == 0
