"""The batched high-throughput dissemination engine.

:class:`DisseminationEngine` sits between publishers and a broker
overlay.  Instead of pushing every event through the tree one at a time,
it accumulates publishes into :class:`~repro.engine.batch.EventBatch` es
and dispatches each batch as a single ``publish(events)`` call -- one
message per tree hop per batch instead of one per event -- while the
shared memoization layers (:class:`EngineCaches`) strip repeated work
out of the per-event cost:

- ``token_authority`` memoizes Song--Wagner--Perrig token pre-computation
  on the publish side (:class:`~repro.routing.tokens.CachingTokenAuthority`);
- ``match_results`` remembers the topic pin each event verified under, so
  only the first broker on an event's path probes pins
  (:class:`~repro.siena.index.MatchResultCache`).

Brokers check every other token constraint directly: ``F_{tok}(r)`` is
one pre-keyed PRF evaluation, and ``r`` is fresh per event, so a memo of
it or of a verdict could only hit while one event was being walked, and
cost more than it saved.

Batching is semantics-preserving: per-subscriber delivery streams are
identical to the per-event path (a batch ``Broker.publish`` shares the
matching/ordering code with the single-event one), and every cache memoizes
a pure function, so verdicts and tokens are bit-identical with caching
disabled.  The engine trades *latency* for throughput: an event may wait
up to ``flush_timeout`` (or until the batch fills) before it moves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.engine.batch import BatchAccumulator, EventBatch
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import (
    CachingTokenAuthority,
    TokenPRFCache,
    tokenized_match,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.index import MatchResultCache


class BatchTransport(Protocol):
    """Anything that can disseminate a batch (a ``BrokerTree``, a ``Broker``)."""

    def publish(self, events: list[Event]) -> object: ...


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the engine; defaults suit the bench workloads."""

    batch_size: int = 32
    #: Seconds the oldest pending event may wait before a timeout flush
    #: (None disables timeout flushes; close() still drains).
    flush_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least one event")


#: Pin-memo entries budgeted per event of a batch.  On tokenized traffic
#: the memo is keyed by the event's routable, which holds a fresh nonce,
#: so an entry can only hit while its event is still in the overlay --
#: that is, while its batch is being walked.  An event leaves one entry
#: (the pin it verified under), so 128 is far more than a batch can use;
#: anything beyond what is in flight holds entries that can never hit
#: again.
MEMO_ENTRIES_PER_EVENT = 128

#: Master-key derived tokens a caching token authority keeps.
_TOKEN_AUTHORITY_CACHE_ENTRIES = 4096


class EngineCaches:
    """The shared memoization layers, bundled for one engine instance.

    Build one per trust domain: the authority cache holds master-key
    derived tokens, so it must not be shared with untrusted components.
    The pin memo is sized to what an in-flight batch can hit:
    ``MEMO_ENTRIES_PER_EVENT * config.batch_size`` entries.
    ``token_prf`` is an empty stub (see
    :class:`~repro.routing.tokens.TokenPRFCache`).
    """

    def __init__(
        self,
        config: EngineConfig = EngineConfig(),
        registry: MetricsRegistry | None = None,
    ):
        self.token_prf = TokenPRFCache()
        self.match_results = MatchResultCache(
            MEMO_ENTRIES_PER_EVENT * config.batch_size, registry
        )
        self._registry = registry

    def token_authority(self, master_key: bytes) -> CachingTokenAuthority:
        """A memoizing token authority for *master_key*."""
        return CachingTokenAuthority(
            master_key, _TOKEN_AUTHORITY_CACHE_ENTRIES, self._registry
        )

    def tokenized_match(self) -> Callable[[Filter, Event], bool]:
        """The tokenized match predicate for broker trees."""
        return tokenized_match

    def stats(self) -> dict:
        """JSON-able hit/miss/eviction summary of the broker-side memo."""
        return {"match_results": self.match_results.stats()}


class DisseminationEngine:
    """Batched front-end over a :class:`BatchTransport`.

    >>> from repro.siena.network import BrokerTree
    >>> from repro.siena.filters import Filter
    >>> tree = BrokerTree(num_brokers=3)
    >>> got = []
    >>> tree.attach_subscriber("s", tree.leaf_ids()[0], got.append)
    >>> tree.subscribe("s", Filter.topic("news"))
    >>> engine = DisseminationEngine(tree, EngineConfig(batch_size=2))
    >>> engine.publish(Event({"topic": "news", "n": 1}))
    >>> len(got)   # still pending: the batch is not full
    0
    >>> batch = engine.publish(Event({"topic": "news", "n": 2}))
    >>> batch.reason
    'size'
    >>> len(got)   # size flush pushed both through the tree
    2
    """

    def __init__(
        self,
        transport: BatchTransport,
        config: EngineConfig = EngineConfig(),
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.transport = transport
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.accumulator = BatchAccumulator(
            batch_size=config.batch_size,
            flush_timeout=config.flush_timeout,
            clock=clock,
        )
        self._closed = False
        self._c_published = self.registry.counter("engine_events_total")
        self._c_batches = {
            reason: self.registry.counter(
                "engine_batches_total", reason=reason
            )
            for reason in ("size", "timeout", "close")
        }
        self._h_batch_events = self.registry.histogram("engine_batch_events")

    def publish(self, event: Event) -> EventBatch | None:
        """Enqueue one event; dispatches (and returns) any flushed batch."""
        if self._closed:
            raise RuntimeError("engine is closed")
        self._c_published.inc()
        return self._dispatch(self.accumulator.add(event))

    def poll(self) -> EventBatch | None:
        """Give the accumulator a chance to timeout-flush; dispatches it."""
        if self._closed:
            return None
        return self._dispatch(self.accumulator.poll())

    def flush(self) -> EventBatch | None:
        """Force out the pending (possibly partial) batch."""
        return self._dispatch(self.accumulator.flush())

    def close(self) -> EventBatch | None:
        """Drain pending events and refuse further publishes."""
        final = None if self._closed else self.flush()
        self._closed = True
        return final

    @property
    def pending(self) -> int:
        """Events enqueued but not yet dispatched."""
        return len(self.accumulator)

    def _dispatch(self, batch: EventBatch | None) -> EventBatch | None:
        if batch is None:
            return None
        counter = self._c_batches.get(batch.reason)
        if counter is not None:
            counter.inc()
        self._h_batch_events.observe(len(batch))
        self.transport.publish(list(batch.events))
        return batch
