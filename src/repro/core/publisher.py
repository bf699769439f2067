"""Publisher-side engine.

A publisher obtains its (per-epoch, possibly per-publisher) topic keys from
the KDC and seals every outgoing event.  Component leaf keys are derived
through the key cache of Section 3.2.3 so that publications with temporal
locality (e.g. consecutive stock quotes) reuse most of the derivation path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace
from repro.core.envelope import SealedEvent, seal_event
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.siena.events import Event


@dataclass
class PublisherStats:
    """Cost counters for the throughput/latency experiments."""

    events_sealed: int = 0
    hash_operations: int = 0
    encrypt_operations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class _CachingSchema:
    """A schema view whose component derivations use the publisher's cache."""

    def __init__(self, publisher: "Publisher", topic: str, schema):
        self.publisher = publisher
        self.topic = topic
        self.schema = schema
        self.attribute_names = schema.attribute_names
        self.space_for = schema.space_for

    def event_component(self, topic_key, attribute, value):
        return self.publisher._cached_component(
            self.topic, topic_key, self.schema, attribute, value
        )


class Publisher:
    """A publishing principal bound to one KDC.

    >>> from repro.core.composite import CompositeKeySpace
    >>> kdc = KDC(master_key=bytes(16))
    >>> kdc.register_topic("news", CompositeKeySpace({}))
    >>> publisher = Publisher("P", kdc)
    >>> sealed = publisher.publish(
    ...     Event({"topic": "news", "body": "hi"}, publisher="P"),
    ...     secret_attributes={"body"})
    >>> "body" in sealed.routable
    False
    """

    def __init__(
        self,
        publisher_id: str,
        kdc: KDC,
        cache_bytes: int = 64 * 1024,
    ):
        self.publisher_id = publisher_id
        self.kdc = kdc
        self.cache = KeyCache(cache_bytes)
        self.stats = PublisherStats()
        #: topic -> {epoch: topic key}, the current and previous epoch only.
        self._topic_keys: dict[str, dict[int, bytes]] = {}
        self._schema_adapters: dict[str, "_CachingSchema"] = {}
        # Monotonic per-publisher sequence, stamped onto every sealed
        # event so subscribers can suppress at-least-once duplicates.
        self._next_sequence = 0

    # -- key acquisition ------------------------------------------------------

    def topic_key(self, topic: str, at_time: float = 0.0) -> bytes:
        """Fetch the topic key from the KDC, memoized for the epoch.

        Two epochs per topic are held (in-flight publishes may straddle a
        boundary); an older *at_time* re-asks the KDC, which is
        deterministic, so the map does not grow with the epochs rolled.
        """
        epoch = self.kdc.epoch_of(topic, at_time)
        held = self._topic_keys.setdefault(topic, {})
        key = held.get(epoch)
        if key is None:
            key = held[epoch] = self.kdc.issue_publisher_key(
                topic, self.publisher_id, at_time
            )
            if len(held) > 2:
                del held[min(held)]
        return key

    # -- publication -----------------------------------------------------------

    def publish(
        self,
        event: Event,
        secret_attributes: set[str] | None = None,
        at_time: float = 0.0,
        extra_lock_subsets: list[tuple[str, ...]] | None = None,
    ) -> SealedEvent:
        """Seal *event* for dissemination.

        When *secret_attributes* is ``None``, every attribute named
        ``message``/``payload``/``body`` is treated as secret -- the
        conventional payload attributes of the paper's examples.
        """
        topic = event.get("topic")
        if not isinstance(topic, str):
            raise ValueError("every publication must carry a string topic")
        if secret_attributes is None:
            secret_attributes = {
                name
                for name in event.attributes
                if name in ("message", "payload", "body")
            }
        topic_key = self.topic_key(topic, at_time)
        schema = self.kdc.config_for(topic).schema

        sealed = seal_event(
            event,
            self._caching_schema(topic, schema),
            topic_key,
            secret_attributes,
            extra_lock_subsets=extra_lock_subsets,
        )
        self.stats.events_sealed += 1
        self.stats.encrypt_operations += 1 if sealed.direct else 1 + len(
            sealed.locks
        )
        # Envelope metadata rides OUTSIDE the sealing step, so the
        # ciphertext is byte-identical to an unstamped publication.
        sequence = self._next_sequence
        self._next_sequence += 1
        return replace(
            sealed, origin=self.publisher_id, sequence=sequence
        )

    def _caching_schema(self, topic, schema):
        """Wrap *schema* so component derivations go through the key cache.

        One adapter per topic is built lazily and reused across publishes.
        """
        adapter = self._schema_adapters.get(topic)
        if adapter is None or adapter.schema is not schema:
            adapter = _CachingSchema(self, topic, schema)
            self._schema_adapters[topic] = adapter
        return adapter

    def _cached_component(self, topic, topic_key, schema, attribute, value):
        from repro.core.derive import cache_namespace, cached_walk, value_path

        space = schema.space_for(attribute)
        if isinstance(space, NumericKeySpace):
            element: object = space.ktid(value)
        elif isinstance(space, CategoryKeySpace):
            element = space.tree.label_of(str(value))
        elif isinstance(space, StringKeySpace):
            element = value
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown key space type {type(space).__name__}")

        namespace = cache_namespace(topic, attribute, topic_key)
        target = value_path(space, value)
        key, ops = cached_walk(
            self.cache, namespace, (), space.root_key(topic_key), target
        )
        self.stats.hash_operations += ops + (1 if ops else 0)  # +root KH
        if ops == 0:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
        return element, key
