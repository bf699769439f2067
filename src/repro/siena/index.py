"""The shared memo of the topic pin each event verified under.

One :class:`MatchResultCache` is handed to every broker of an overlay
(``Broker(match_cache=...)``; the batch engine builds one in
:class:`~repro.engine.engine.EngineCaches`), so a pin one hop verified is
not probed again at the next.
"""

from __future__ import annotations

from repro.obs.lru import LRUCache


class MatchResultCache:
    """Event topic-token value -> the topic pin it verified under.

    Whether an event's routable verifies under a token is a fact about
    the two alone, and an event verifies under at most one pin
    (:data:`repro.siena.broker.MatchPredicate`), so a pairing recorded at
    one broker is valid at every other.  Only positives are stored: "no
    pin matched here" depends on which pins the testing broker carried.

    Every key holds an event's fresh nonce, so an entry can only hit
    while that event is still being routed: size *capacity* to the
    events in flight -- the default is 128 entries for each event of a
    32-event batch, and :class:`repro.engine.EngineCaches` derives it
    from its batch size -- because a larger memo only keeps entries that
    can never hit again.
    """

    def __init__(self, capacity: int = 4096, registry=None, **labels):
        self.cache = LRUCache(capacity, "topic_group_memo", registry, **labels)

    def topic_group(self, topic_token_value: str) -> str | None:
        """Which pin this event routable verified against, if known."""
        return self.cache.get(topic_token_value)

    def remember_topic_group(
        self, topic_token_value: str, group: str
    ) -> None:
        """Record a *verified* (event routable, pin) pairing."""
        self.cache.put(topic_token_value, group)

    def stats(self) -> dict:
        """JSON-able hit/miss/eviction summary (see :class:`LRUCache`)."""
        return self.cache.stats()
