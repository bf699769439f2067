"""Instrumented bounded LRU maps for the hot-path memoization layers.

The engine memoizes two pure computations -- Song--Wagner--Perrig label
tokens, and the topic pin an event verified under at the brokers (the
``Broker.match_cache`` memo is a bare :class:`LRUCache`).  Both need the
same substrate: a bounded mapping with LRU eviction whose
hit/miss/eviction counts can surface in a shared
:class:`~repro.obs.metrics.MetricsRegistry`, and whose ``stats()`` the
``benchmarks/e2e`` harness reads, without bespoke plumbing per layer.

The class is deliberately dependency-free (it lives in ``repro.obs`` so
that low layers such as ``repro.routing.tokens`` and ``repro.siena`` can
use it without import cycles through ``repro.core``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Iterator

from repro.obs.metrics import MetricsRegistry


class LRUCache:
    """A bounded mapping with LRU eviction and observable hit/miss counts.

    ``registry`` is optional: when provided, ``<name>_hits_total``,
    ``<name>_misses_total`` and ``<name>_evictions_total`` counters plus a
    ``<name>_entries`` gauge are registered (with ``**labels``) and kept in
    step with the local integer counters, so shared caches show up in
    metrics snapshots alongside broker and transport instruments.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "lru_cache",
        registry: MetricsRegistry | None = None,
        **labels,
    ):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if registry is not None:
            self._c_hits = registry.counter(f"{name}_hits_total", **labels)
            self._c_misses = registry.counter(f"{name}_misses_total", **labels)
            self._c_evictions = registry.counter(
                f"{name}_evictions_total", **labels
            )
            self._g_entries = registry.gauge(f"{name}_entries", **labels)
        else:
            self._c_hits = None
            self._c_misses = None
            self._c_evictions = None
            self._g_entries = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def get(self, key: Hashable, default: object = None) -> object:
        """Counted lookup; refreshes recency on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self._c_hits is not None:
                self._c_hits.inc()
            return self._entries[key]
        self.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()
        return default

    def peek(self, key: Hashable, default: object = None) -> object:
        """Uncounted lookup that leaves recency untouched (for tests)."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry; evicts LRU entries beyond capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._c_evictions is not None:
                self._c_evictions.inc()
        if self._g_entries is not None:
            self._g_entries.set(len(self._entries))

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], object]
    ) -> object:
        """Return the cached value for *key*, computing and storing on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self._c_hits is not None:
                self._c_hits.inc()
            return self._entries[key]
        self.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()
        value = compute()
        self.put(key, value)
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        if key in self._entries:
            del self._entries[key]
            if self._g_entries is not None:
                self._g_entries.set(len(self._entries))
            return True
        return False

    def clear(self) -> None:
        """Drop all entries (counters keep their lifetime totals)."""
        self._entries.clear()
        if self._g_entries is not None:
            self._g_entries.set(0)

    @property
    def hit_rate(self) -> float:
        """Fraction of counted lookups served from cache (0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-able summary; ``benchmarks/e2e`` reads its hit ratios."""
        return {
            "name": self.name,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
