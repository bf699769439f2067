"""A counting-algorithm match index for content-based brokers.

Siena's and Gryphon's performance rests on *sublinear* matching: instead
of testing every filter against every event, constraints are indexed per
attribute and the matcher counts, per filter, how many of its constraints
an event satisfied -- a filter matches when its count reaches its
constraint total (Aguilera et al., PODC '99; the paper's reference [3]).

The index keeps three per-attribute structures:

- **equality buckets**: hash lookup for ``EQ`` constraints;
- **sorted inequality bounds**: binary search finds every satisfied
  ``LT/LE/GT/GE`` constraint;
- **a prefix trie** for ``PREFIX`` constraints (``SUFFIX`` uses the trie
  of reversed patterns; rare operators fall back to a small scan list).

``Broker``/``PeerBroker`` accept the index through the same
``MatchPredicate`` seam used by PSGuard's tokenized matching, and the
test suite checks it agrees with naive matching on randomized workloads.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.operators import Op

FilterId = int


@dataclass
class _Trie:
    """A character trie mapping prefixes to constraint owners."""

    children: dict[str, "_Trie"] = field(default_factory=dict)
    owners: list[FilterId] = field(default_factory=list)

    def insert(self, text: str, owner: FilterId) -> None:
        node = self
        for character in text:
            node = node.children.setdefault(character, _Trie())
        node.owners.append(owner)

    def remove(self, text: str, owner: FilterId) -> None:
        node = self
        for character in text:
            node = node.children.get(character)
            if node is None:
                return
        if owner in node.owners:
            node.owners.remove(owner)

    def owners_of_prefixes(self, text: str) -> Iterator[FilterId]:
        """Owners of every prefix of *text* (including the empty prefix)."""
        node = self
        yield from node.owners
        for character in text:
            node = node.children.get(character)
            if node is None:
                return
            yield from node.owners


@dataclass
class _AttributeIndex:
    """All indexed constraints on one attribute name."""

    equals: dict[object, list[FilterId]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: (bound, owner) sorted by bound, for each inequality class
    lower_bounds_open: list[tuple[float, FilterId]] = field(
        default_factory=list
    )  # GT
    lower_bounds_closed: list[tuple[float, FilterId]] = field(
        default_factory=list
    )  # GE
    upper_bounds_open: list[tuple[float, FilterId]] = field(
        default_factory=list
    )  # LT
    upper_bounds_closed: list[tuple[float, FilterId]] = field(
        default_factory=list
    )  # LE
    prefixes: _Trie = field(default_factory=_Trie)
    suffixes: _Trie = field(default_factory=_Trie)
    #: (op, value, owner) for operators not worth indexing (NE, SUBSTRING)
    scan_list: list[tuple[Op, object, FilterId]] = field(default_factory=list)
    #: owners of ANY constraints (match on mere attribute presence)
    any_owners: list[FilterId] = field(default_factory=list)


class MatchIndex:
    """Equality-partitioned, counting-based matching over dynamic filters.

    Two tiers:

    1. Filters with an equality constraint (the overwhelmingly common
       case -- every topic filter) are *partitioned* by one such
       ``(attribute, value)`` pair; an event only ever touches the
       partitions of its own attribute values, so per-event cost tracks
       the few genuinely relevant filters, not the table.
    2. Equality-free filters fall back to the counting algorithm over the
       per-attribute structures.
    """

    def __init__(self):
        self._attributes: dict[str, _AttributeIndex] = defaultdict(
            _AttributeIndex
        )
        self._constraint_totals: dict[FilterId, int] = {}
        self._filters: dict[FilterId, Filter] = {}
        #: (attribute, value) -> ids of filters partitioned there
        self._partitions: dict[tuple[str, object], list[FilterId]] = (
            defaultdict(list)
        )
        self._partition_of: dict[FilterId, tuple[str, object]] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._filters)

    @staticmethod
    def _partition_key(subscription: Filter) -> tuple[str, object] | None:
        """The EQ constraint to partition under (topic preferred)."""
        chosen = None
        for constraint in subscription:
            if constraint.op is not Op.EQ:
                continue
            if constraint.name == "topic":
                return ("topic", constraint.value)
            if chosen is None:
                chosen = (constraint.name, constraint.value)
        return chosen

    # -- maintenance ---------------------------------------------------------

    def add(self, subscription: Filter) -> FilterId:
        """Index *subscription*; returns its id for later removal."""
        filter_id = self._next_id
        self._next_id += 1
        self._filters[filter_id] = subscription
        partition = self._partition_key(subscription)
        if partition is not None:
            self._partitions[partition].append(filter_id)
            self._partition_of[filter_id] = partition
            return filter_id
        self._constraint_totals[filter_id] = len(subscription.constraints)
        for constraint in subscription:
            index = self._attributes[constraint.name]
            if constraint.op is Op.EQ:
                index.equals[constraint.value].append(filter_id)
            elif constraint.op is Op.GT and not isinstance(
                constraint.value, str
            ):
                bisect.insort(
                    index.lower_bounds_open, (constraint.value, filter_id)
                )
            elif constraint.op is Op.GE and not isinstance(
                constraint.value, str
            ):
                bisect.insort(
                    index.lower_bounds_closed, (constraint.value, filter_id)
                )
            elif constraint.op is Op.LT and not isinstance(
                constraint.value, str
            ):
                bisect.insort(
                    index.upper_bounds_open, (constraint.value, filter_id)
                )
            elif constraint.op is Op.LE and not isinstance(
                constraint.value, str
            ):
                bisect.insort(
                    index.upper_bounds_closed, (constraint.value, filter_id)
                )
            elif constraint.op is Op.PREFIX:
                index.prefixes.insert(str(constraint.value), filter_id)
            elif constraint.op is Op.SUFFIX:
                index.suffixes.insert(str(constraint.value)[::-1], filter_id)
            elif constraint.op is Op.ANY:
                index.any_owners.append(filter_id)
            else:
                index.scan_list.append(
                    (constraint.op, constraint.value, filter_id)
                )
        return filter_id

    def remove(self, filter_id: FilterId) -> None:
        """Drop a previously added filter from the index."""
        subscription = self._filters.pop(filter_id, None)
        if subscription is None:
            return
        partition = self._partition_of.pop(filter_id, None)
        if partition is not None:
            owners = self._partitions.get(partition, [])
            if filter_id in owners:
                owners.remove(filter_id)
            return
        self._constraint_totals.pop(filter_id, None)
        for constraint in subscription:
            index = self._attributes[constraint.name]
            if constraint.op is Op.EQ:
                owners = index.equals.get(constraint.value, [])
                if filter_id in owners:
                    owners.remove(filter_id)
            elif constraint.op in (Op.GT, Op.GE, Op.LT, Op.LE) and not (
                isinstance(constraint.value, str)
            ):
                buckets = {
                    Op.GT: index.lower_bounds_open,
                    Op.GE: index.lower_bounds_closed,
                    Op.LT: index.upper_bounds_open,
                    Op.LE: index.upper_bounds_closed,
                }[constraint.op]
                entry = (constraint.value, filter_id)
                if entry in buckets:
                    buckets.remove(entry)
            elif constraint.op is Op.PREFIX:
                index.prefixes.remove(str(constraint.value), filter_id)
            elif constraint.op is Op.SUFFIX:
                index.suffixes.remove(str(constraint.value)[::-1], filter_id)
            elif constraint.op is Op.ANY:
                if filter_id in index.any_owners:
                    index.any_owners.remove(filter_id)
            else:
                entry = (constraint.op, constraint.value, filter_id)
                if entry in index.scan_list:
                    index.scan_list.remove(entry)

    # -- matching ----------------------------------------------------------------

    def _satisfied_owners(
        self, name: str, value: object
    ) -> Iterator[FilterId]:
        index = self._attributes.get(name)
        if index is None:
            return
        yield from index.any_owners
        yield from index.equals.get(value, ())
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # GT bounds strictly below the value.
            position = bisect.bisect_left(
                index.lower_bounds_open, (value, -1)
            )
            for bound, owner in index.lower_bounds_open[:position]:
                yield owner
            position = bisect.bisect_right(
                index.lower_bounds_closed, (value, float("inf"))
            )
            for bound, owner in index.lower_bounds_closed[:position]:
                yield owner
            position = bisect.bisect_right(
                index.upper_bounds_open, (value, float("inf"))
            )
            for bound, owner in index.upper_bounds_open[position:]:
                yield owner
            position = bisect.bisect_left(
                index.upper_bounds_closed, (value, -1)
            )
            for bound, owner in index.upper_bounds_closed[position:]:
                yield owner
        elif isinstance(value, str):
            yield from index.prefixes.owners_of_prefixes(value)
            yield from index.suffixes.owners_of_prefixes(value[::-1])
            # String inequalities live in the EQ/scan fallbacks: the
            # numeric bound lists only hold numbers.
        from repro.siena.operators import matches as _matches

        for op, constraint_value, owner in index.scan_list:
            if _matches(op, constraint_value, value):
                yield owner

    def matching(self, event: Event) -> list[Filter]:
        """Every indexed filter the event satisfies."""
        matched: list[Filter] = []
        # Tier 1: the event's own attribute values select the partitions.
        for name, value in event:
            for owner in self._partitions.get((name, value), ()):
                candidate = self._filters[owner]
                if candidate.matches(event):
                    matched.append(candidate)
        # Tier 2: counting over the (rare) equality-free filters.
        counts: dict[FilterId, int] = defaultdict(int)
        for name, value in event:
            for owner in self._satisfied_owners(name, value):
                counts[owner] += 1
        matched.extend(
            self._filters[owner]
            for owner, count in counts.items()
            if count == self._constraint_totals[owner]
        )
        return matched

    def matches(self, event: Event) -> bool:
        """Whether any indexed filter matches *event*."""
        return bool(self.matching(event))


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
    """

    def __init__(
        self,
        capacity: int = 65536,
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
