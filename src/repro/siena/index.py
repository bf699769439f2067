"""The shared memo of unit-filter match verdicts brokers consult.

One :class:`MatchResultCache` is handed to every broker of an overlay
(``Broker(match_cache=...)``; the batch engine builds one in
:class:`~repro.engine.engine.EngineCaches`), so a verdict computed at one
hop is reused at the next.
"""

from __future__ import annotations

from repro.siena.events import Event
from repro.siena.filters import Filter


class MatchResultCache:
    """A shared memo of filter-match verdicts for the engine's hot path.

    Match predicates are pure functions of the filter and the event's
    *constrained* attribute values (:data:`repro.siena.broker.
    MatchPredicate`), so a verdict can be memoized exactly.  Brokers
    store the verdicts of the single-constraint *unit filters* their walk
    evaluates, so one entry serves every subscription sharing the
    constraint.  The cache key is ``(filter-id, value-vector)`` where the
    value vector holds the event's values for the filter's constrained
    attribute names (sorted once per filter; one name for a unit).
    Transport bookkeeping attributes such as ``_seq`` never appear in
    filters, so a verdict computed at one broker is valid at every other
    broker carrying an equal filter.

    Entries never go stale (purity), but :meth:`invalidate_filter` drops a
    departed filter's entries eagerly so unsubscription releases memory
    immediately instead of waiting for LRU pressure.

    *capacity* bounds the verdict memo and the topic-group memo alike.
    On tokenized traffic every key holds an event's fresh nonce, so an
    entry can only hit while that event is still being routed: size the
    memo to the events in flight -- the default is 128 entries for each
    event of a 32-event batch, and :class:`repro.engine.EngineCaches`
    derives it from its batch size -- because a larger one only keeps
    entries that can never hit again.
    """

    def __init__(
        self,
        capacity: int = 4096,
        registry=None,
        **labels,
    ):
        from repro.obs.lru import LRUCache

        self.cache = LRUCache(capacity, "match_result_cache", registry, **labels)
        # Filters intern to integer ids so LRU keys hash and compare on
        # small ints instead of re-walking constraint sets per lookup.
        # Ids are never reused: an invalidated filter's id must not come
        # back as a live filter's.
        self._filter_ids: dict[Filter, int] = {}
        self._next_filter_id = 0
        self._names: dict[int, tuple[str, ...]] = {}
        # event topic-token value -> the group token value it verified
        # against.  Verification is a property of the routable and the
        # token alone, so a positive memo recorded at one broker is valid
        # at every other (only positives are stored: "no group matched
        # here" depends on which groups the testing broker carried).
        self._topic_groups = LRUCache(
            capacity, "topic_group_memo", registry, **labels
        )

    def _key(self, subscription_filter: Filter, event: Event):
        filter_id = self._filter_ids.get(subscription_filter)
        if filter_id is None:
            filter_id = self._next_filter_id
            self._next_filter_id += 1
            self._filter_ids[subscription_filter] = filter_id
            self._names[filter_id] = tuple(
                sorted({c.name for c in subscription_filter})
            )
        return (
            filter_id,
            tuple(event.get(name) for name in self._names[filter_id]),
        )

    def lookup(self, subscription_filter: Filter, event: Event):
        """Cached verdict for (filter, event), or None when unknown."""
        return self.cache.get(self._key(subscription_filter, event))

    def store(
        self, subscription_filter: Filter, event: Event, verdict: bool
    ) -> None:
        """Record the verdict computed by the broker's match predicate."""
        self.cache.put(self._key(subscription_filter, event), verdict)

    def topic_group(self, topic_token_value: str) -> str | None:
        """Which group token this event routable verified against, if known."""
        return self._topic_groups.get(topic_token_value)

    def remember_topic_group(
        self, topic_token_value: str, group: str
    ) -> None:
        """Record a *verified* (event routable, group token) pairing."""
        self._topic_groups.put(topic_token_value, group)

    def invalidate_filter(self, subscription_filter: Filter) -> int:
        """Drop all entries for one filter; returns how many were removed."""
        filter_id = self._filter_ids.pop(subscription_filter, None)
        if filter_id is None:
            return 0
        self._names.pop(filter_id, None)
        return self.cache.invalidate_where(lambda key: key[0] == filter_id)

    def stats(self) -> dict:
        """JSON-able hit/miss/eviction summary (see :class:`LRUCache`)."""
        return self.cache.stats()
