"""The batched high-throughput dissemination engine.

:class:`DisseminationEngine` sits between publishers and a broker
overlay.  Instead of pushing every event through the tree one at a time,
it accumulates publishes into :class:`~repro.engine.batch.EventBatch` es
and dispatches each batch as a single ``publish(events)`` call -- one
message per tree hop per batch instead of one per event -- while the
shared memoization layers (:class:`EngineCaches`) strip repeated PRF and
match work out of the per-event cost:

- ``token_authority`` memoizes Song--Wagner--Perrig token pre-computation
  on the publish side (:class:`~repro.routing.tokens.CachingTokenAuthority`);
- ``token_prf`` memoizes broker-side proof recomputation ``F_{tok}(r)``
  across the brokers of a process
  (:class:`~repro.routing.tokens.TokenPRFCache`);
- ``match_results`` memoizes the unit-filter verdicts of the broker
  walk, keyed on the constraint and the event's constrained value
  (:class:`~repro.siena.index.MatchResultCache`).

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
    cached_tokenized_match,
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
    token_authority_cache_entries: int = 4096

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least one event")


#: Broker-side memo entries budgeted per event of a batch.  On tokenized
#: traffic both broker memos are keyed by a value holding the event's
#: fresh nonce, so an entry can only hit while its event is still in the
#: overlay -- that is, while its batch is being walked.  An event leaves
#: one entry per unit filter tested on its path (a few dozen on the
#: benchmark tables); 128 is several times that, and anything beyond it
#: is memory holding entries that can never hit again.
MEMO_ENTRIES_PER_EVENT = 128


class EngineCaches:
    """The shared memoization layers, bundled for one engine instance.

    Build one per trust domain: the authority cache holds master-key
    derived tokens, so it must not be shared with untrusted components.
    The two broker-side memos are sized to what an in-flight batch can
    hit: ``MEMO_ENTRIES_PER_EVENT * config.batch_size`` entries each.
    """

    def __init__(
        self,
        config: EngineConfig = EngineConfig(),
        registry: MetricsRegistry | None = None,
    ):
        entries = MEMO_ENTRIES_PER_EVENT * config.batch_size
        self.token_prf = TokenPRFCache(entries, registry)
        self.match_results = MatchResultCache(entries, registry)
        self._config = config
        self._registry = registry

    def token_authority(self, master_key: bytes) -> CachingTokenAuthority:
        """A memoizing token authority for *master_key*."""
        return CachingTokenAuthority(
            master_key,
            self._config.token_authority_cache_entries,
            self._registry,
        )

    def tokenized_match(self) -> Callable[[Filter, Event], bool]:
        """The PRF-memoized tokenized match predicate for broker trees."""
        return cached_tokenized_match(self.token_prf)

    def stats(self) -> dict:
        """JSON-able hit/miss/eviction summary of every layer."""
        return {
            "token_prf": self.token_prf.cache.stats(),
            "match_results": self.match_results.stats(),
        }


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
