"""The socket workloads: ``live-paced`` (open loop) and ``live-saturate``
(closed loop) over a loopback ``rtnet`` broker tree.

All brokers, the publisher, the subscribers and the load generator share
one thread and one asyncio loop, and every byte crosses the host's
loopback interface -- never a real link.  A publication is timed from
the instant it was *due*; the secure path is ``RtPublisher.publish``
(seal, tokenize, PSE2 encode, frame) -> 3 broker hops of tokenized
matching and verbatim relay -> ``RtSubscriber`` (decode, resolve topic,
derive, open) -> the harness's ``on_open`` callback.
"""

from __future__ import annotations

import asyncio
import gc
from time import perf_counter

from fixture import PUBLISHER, SEQ, Fixture, Ledger, Member, event_index
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.routing.tokens import TokenAuthority, tokenized_match
from repro.rtnet.client import RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from tracing import Tracer

PACED_RATE = 300.0
WINDOW = 32
SETTLE_TIMEOUT = 30.0
#: asyncio timers fire up to 1 ms late (epoll takes whole milliseconds,
#: rounded up), so the generator asks to be woken this much before an
#: event is due and sends on waking: sends are at most this early, and
#: late only by what the loop was busy with.
TIMER_GRANULARITY = 0.001


class PeakRegistry(MetricsRegistry):
    """A registry whose gauges remember their peak (``rtnet`` sets
    ``rtnet_ingress_depth`` to the current depth only)."""

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(_PeakGauge, name, labels)


class _PeakGauge(Gauge):
    __slots__ = ("peak",)

    def __init__(self, name, labels=()):
        super().__init__(name, labels)
        self.peak = 0.0

    def set(self, value: float) -> None:
        super().set(value)
        if value > self.peak:
            self.peak = value


class LiveSystem:
    """A loopback cluster with the publisher and joined subscribers."""

    def __init__(
        self,
        fixture: Fixture,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.fixture = fixture
        self.tracer = tracer
        self.registry = registry
        self.ledger = Ledger(fixture)
        self.authority = TokenAuthority(fixture.master_key)
        match = tokenized_match
        if tracer is not None:
            match = tracer.wrap("routing.match", match, event_index)
        self.cluster = ClusterLauncher(
            num_brokers=fixture.shape.num_brokers,
            arity=2,
            match=match,
            registry=registry,
        )
        self.authorize = fixture.kdc.authorize
        if tracer is not None:
            self.authorize = tracer.wrap("core.authorize", self.authorize)
        self.publisher: RtPublisher | None = None
        self.publish = None
        self.joined: list[tuple[Member, RtSubscriber]] = []
        size = len(fixture.pool)
        #: per pool index: reference instant of the publication in flight
        self.due = [0.0] * size
        #: per pool index: expected opens still to come
        self.remaining = [0] * size
        self.outstanding = 0
        self.slot = asyncio.Event()
        self.latencies: list[float] = []
        self.join_latencies: list[float] = []
        self.connect_latencies: list[float] = []
        self.grant_keys = 0
        self.joins_total = 0
        self.next_publication = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        await self.cluster.start()
        self.publisher = RtPublisher(
            PUBLISHER,
            *self.cluster.publisher_address(),
            self.fixture.kdc,
            authority=self.authority,
            registry=self.registry,
        )
        await self.publisher.connect()
        self.publish = self.publisher.publish
        if self.tracer is not None:
            self.publish = self.tracer.wrap_async(
                "rtnet.publish_call", self.publish
            )
        for member in self.fixture.residents:
            await self.join(member, self.cluster.subscriber_address())

    async def stop(self) -> None:
        for _member, endpoint in self.joined:
            await endpoint.close()
        if self.publisher is not None:
            await self.publisher.close()
        await self.cluster.stop()

    async def join(self, member: Member, address) -> RtSubscriber:
        """connect, then the timed join: authorize xN -> add_grant
        (SUBSCRIBE frames) -> settle barrier."""
        on_open = self._on_open(self.ledger.join(member))
        if self.tracer is not None:
            on_open = self.tracer.wrap("core.open", on_open)
        endpoint = RtSubscriber(
            member.subscriber_id,
            *address,
            schema_lookup=self.fixture.schema_lookup,
            authority=self.authority,
            on_open=on_open,
            registry=self.registry,
        )
        started = perf_counter()
        await endpoint.connect()
        connected = perf_counter()
        grants = [
            self.authorize(member.subscriber_id, plaintext_filter)
            for plaintext_filter in member.filters
        ]
        for grant in grants:
            self.grant_keys += grant.key_count()
            await endpoint.add_grant(grant)
        await endpoint.settle(timeout=SETTLE_TIMEOUT)
        self.join_latencies.append(perf_counter() - connected)
        self.connect_latencies.append(connected - started)
        self.joins_total += 1
        self.joined.append((member, endpoint))
        return endpoint

    def _on_open(self, opened: list[int]):
        def on_open(result) -> None:
            index = result.event.attributes[SEQ]
            opened.append(index)
            self.latencies.append(perf_counter() - self.due[index])
            self.remaining[index] -= 1
            if self.remaining[index] == 0:
                self.outstanding -= 1
                self.slot.set()

        return on_open

    async def settle(self) -> None:
        """Everything published so far has reached every subscriber."""
        await self.publisher.settle(timeout=SETTLE_TIMEOUT)
        await asyncio.gather(*(
            endpoint.settle(timeout=SETTLE_TIMEOUT)
            for _member, endpoint in self.joined
        ))

    # -- load --------------------------------------------------------------

    def _send_prepared(self, expected: list[int]):
        """The per-publication bookkeeping both generators share."""
        pool, size = self.fixture.pool, len(self.fixture.pool)
        published, due, remaining = self.ledger.published, self.due, self.remaining
        tracer = self.tracer

        def prepare(publication: int, reference: float):
            index = publication % size
            due[index] = reference
            remaining[index] = expected[index]
            if expected[index]:
                self.outstanding += 1
            published.append(index)
            if tracer is not None:
                tracer.event_id = index
            return pool[index]

        return prepare

    async def run_paced(self, seconds: float, expected: list[int]) -> dict:
        """Open loop at ``PACED_RATE``; latency runs from the due time."""
        prepare = self._send_prepared(expected)
        publish = self.publish
        gap = 1.0 / PACED_RATE
        lateness: list[float] = []
        self.latencies = []
        first = publication = self.next_publication
        gc.collect()
        started = perf_counter()
        total = int(seconds * PACED_RATE)
        for step in range(total):
            due = started + step * gap
            wait = due - TIMER_GRANULARITY - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            now = perf_counter()
            lateness.append(max(0.0, now - due))
            await publish(prepare(publication, min(due, now)))
            publication += 1
        offered_per_s = total / (perf_counter() - started)
        await self.settle()
        wall_s = perf_counter() - started
        self.next_publication = publication
        return {
            "events": publication - first,
            "wall_s": wall_s,
            "latencies_s": self.latencies,
            "lateness_s": lateness,
            "offered_per_s": offered_per_s,
        }

    async def run_saturate(self, seconds: float, expected: list[int]) -> dict:
        """Closed loop: at most ``WINDOW`` publications whose expected
        opens have not all been logged (publications nobody can open
        ride along unthrottled; they are still disseminated and counted)."""
        prepare = self._send_prepared(expected)
        publish, slot = self.publish, self.slot
        self.latencies = []
        first = publication = self.next_publication
        gc.collect()
        started = perf_counter()
        deadline = started + seconds
        while perf_counter() < deadline:
            while self.outstanding >= WINDOW:
                slot.clear()
                await slot.wait()
            await publish(prepare(publication, perf_counter()))
            publication += 1
        await self.settle()
        wall_s = perf_counter() - started
        self.next_publication = publication
        return {
            "events": publication - first,
            "wall_s": wall_s,
            "latencies_s": self.latencies,
        }

    # -- counters the layers already keep ----------------------------------

    def layer_counters(self) -> dict:
        endpoints = [endpoint for _member, endpoint in self.joined]
        delivered = sum(len(endpoint.log) for endpoint in endpoints)
        opened = sum(len(endpoint.opened) for endpoint in endpoints)
        subscribers = [endpoint.engine for endpoint in endpoints]
        hits = sum(s.cache.hits for s in subscribers)
        misses = sum(s.cache.misses for s in subscribers)
        publisher_cache = self.publisher.engine.cache.stats()
        stats = self.cluster.stats().values()
        return {
            "publisher_key_cache": publisher_cache["hit_rate"],
            "subscriber_key_cache": hits / (hits + misses or 1),
            "deliveries": delivered,
            "opened": opened,
            "messages": sum(s["events_forwarded"] for s in stats),
            "duplicates_suppressed": sum(e.duplicates for e in endpoints),
            "publisher_unacked": self.publisher.unacked,
        }
