"""The in-process dissemination engine the end-to-end benchmark drives.

:class:`DisseminationEngine` holds publishes in a ``batch_size``
accumulator and, when it fills or on :meth:`~DisseminationEngine.flush`,
walks the broker tree with one ``tree.publish(event)`` per event, in
order: delivery streams are those of publishing each event directly.
:class:`EngineCaches` bundles the memo layers around the tree:
``token_authority`` is the Song--Wagner--Perrig
:class:`~repro.routing.tokens.TokenAuthority`, whose LRU memo holds one
pre-keyed probe per label (a publisher's token then costs one PRF
evaluation and no key set-up), and ``match_results`` remembers the topic
pin each event verified under, so only the first broker on an event's
path probes pins (``Broker.match_cache``).  Brokers check every other token
constraint directly: ``r`` is fresh per event, so a memo of ``F_{tok}(r)``
or of a verdict could only hit while one event was being walked.  Every
cache memoizes a pure function, so caching changes no verdict or token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.lru import LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import TokenAuthority, TokenPRFCache, tokenized_match
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


@dataclass(frozen=True)
class EngineConfig:
    """Events the engine accumulates before it walks the tree."""

    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least one event")


#: Pin-memo entries budgeted per event of a batch.  On tokenized traffic
#: the memo is keyed by the event's routable, which holds a fresh nonce,
#: so an entry can only hit while its event is still in the overlay --
#: that is, while it is being walked.  An event leaves one entry (the pin
#: it verified under), so 128 is far more than a batch can use; anything
#: beyond what is in flight holds entries that can never hit again.
MEMO_ENTRIES_PER_EVENT = 128


class EngineCaches:
    """The shared memoization layers, one bundle per trust domain (the
    authority cache holds master-key derived tokens).  ``token_prf`` is
    an empty stub (see :class:`~repro.routing.tokens.TokenPRFCache`)."""

    def __init__(self, config: EngineConfig = EngineConfig()):
        self.token_prf = TokenPRFCache()
        self.match_results = LRUCache(
            MEMO_ENTRIES_PER_EVENT * config.batch_size, "topic_group_memo"
        )

    def token_authority(self, master_key: bytes) -> TokenAuthority:
        """The token authority for *master_key* (it memoizes its probes)."""
        return TokenAuthority(master_key)

    def tokenized_match(self) -> Callable[[Filter, Event], bool]:
        """The tokenized match predicate for broker trees."""
        return tokenized_match


class DisseminationEngine:
    """A ``batch_size`` accumulator in front of ``tree.publish``.

    >>> from repro.siena.filters import Filter
    >>> tree = BrokerTree(num_brokers=3)
    >>> got = []
    >>> tree.attach_subscriber("s", tree.leaf_ids()[0], got.append)
    >>> tree.subscribe("s", Filter.topic("news"))
    >>> engine = DisseminationEngine(tree, EngineConfig(batch_size=2))
    >>> engine.publish(Event({"topic": "news", "n": 1})) is None
    True
    >>> len(got)   # still pending: the batch is not full
    0
    >>> len(engine.publish(Event({"topic": "news", "n": 2})))
    2
    >>> [event["n"] for event in got]   # the size flush walked both
    [1, 2]
    """

    def __init__(self, tree: BrokerTree, config: EngineConfig = EngineConfig()):
        self.tree = tree
        self.config = config
        self.registry = MetricsRegistry()
        self._pending: list[Event] = []
        self._c_batches = {
            reason: self.registry.counter("engine_batches_total", reason=reason)
            for reason in ("size", "flush")
        }

    def publish(self, event: Event) -> list[Event] | None:
        """Enqueue *event*; returns the batch it filled, once walked."""
        self._pending.append(event)
        if len(self._pending) < self.config.batch_size:
            return None
        return self._walk("size")

    def flush(self) -> list[Event] | None:
        """Walk the pending (possibly partial) batch, if any."""
        return self._walk("flush") if self._pending else None

    def _walk(self, reason: str) -> list[Event]:
        batch, self._pending = self._pending, []
        self._c_batches[reason].inc()
        publish = self.tree.publish
        for event in batch:
            publish(event)
        return batch
