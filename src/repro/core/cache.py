"""The key cache of Section 3.2.3.

When a subscriber derives an encryption key ``K_{ktid_alpha}`` from an
authorization key ``K_{ktid_phi}`` it caches every intermediate key on the
derivation path.  A later derivation for ``ktid_alpha'`` starts from the
*deepest cached ancestor* of the target -- the paper's "optimal cached
key" -- so derivation cost drops from ``H * (|alpha'| - |phi|)`` to
``H * (|alpha'| - |phi'|)``.  The win is largest when events exhibit
temporal locality (e.g. consecutive stock quotes; Figure 11 and
``examples/stock_ticker.py``).

The cache is bounded in bytes and evicts least-recently-used entries,
matching the cache-size axis of Figure 11.

A derivation therefore costs ``D + H * (levels below the deepest cached
ancestor)`` plus bookkeeping that is constant per level: every entry
carries its byte cost, so inserting a walk's keys or evicting for them
never re-walks a path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.crypto.hashes import KEY_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is runtime-free)
    from repro.obs.metrics import MetricsRegistry

#: A derivation path: namespace plus branch labels from the tree root.
CachePath = tuple[Hashable, ...]


def _part_cost(part: Hashable) -> int:
    """Bytes one path element adds to an entry's footprint."""
    return len(part) if isinstance(part, (str, bytes)) else 1


class KeyCache:
    """A byte-bounded LRU cache of derived keys, keyed by derivation path."""

    def __init__(self, capacity_bytes: int = 64 * 1024):
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        #: path -> (key, byte cost): the cost is fixed at insertion so
        #: neither a refresh nor an eviction re-walks the path.
        self._entries: OrderedDict[CachePath, tuple[bytes, int]] = OrderedDict()
        self._size_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._c_hits = None
        self._c_misses = None
        self._c_evictions = None
        self._g_bytes = None

    def instrument(
        self, registry: "MetricsRegistry", name: str = "key_cache", **labels
    ) -> "KeyCache":
        """Register hit/miss/eviction counters and a size gauge in *registry*.

        Counters account from the moment of instrumentation (existing local
        totals are not replayed).  Returns ``self`` for chaining.
        """
        self._c_hits = registry.counter(f"{name}_hits_total", **labels)
        self._c_misses = registry.counter(f"{name}_misses_total", **labels)
        self._c_evictions = registry.counter(f"{name}_evictions_total", **labels)
        self._g_bytes = registry.gauge(f"{name}_size_bytes", **labels)
        self._g_bytes.set(self._size_bytes)
        return self

    @staticmethod
    def entry_cost(path: CachePath) -> int:
        """Approximate memory footprint of one cache entry, in bytes."""
        # key + path + bookkeeping
        return KEY_BYTES + sum(map(_part_cost, path)) + 8

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        """Current footprint of all cached entries."""
        return self._size_bytes

    def put(self, path: CachePath, key: bytes) -> None:
        """Insert (or refresh) a derived key; evicts LRU entries as needed."""
        cost = self.entry_cost(path)
        if cost <= self.capacity_bytes:  # else the entry can never fit
            self._store(path, key, cost)

    def put_descent(
        self, base: CachePath, parts: Sequence[Hashable], keys: Sequence[bytes]
    ) -> None:
        """Insert the keys of one downward walk from *base*, top to bottom.

        ``keys[i]`` is the key at ``base + parts[:i + 1]``.  Equivalent to
        one :meth:`put` per level, but each level's cost is its parent's
        plus one part, so the whole descent prices *base* once instead of
        re-walking a path per level.
        """
        cost = self.entry_cost(base)
        path = base
        for part, key in zip(parts, keys):
            path += (part,)
            cost += _part_cost(part)
            if cost > self.capacity_bytes:
                break  # nor can any level below it ever fit
            self._store(path, key, cost)

    def _store(self, path: CachePath, key: bytes, cost: int) -> None:
        entries = self._entries
        if path in entries:
            entries.move_to_end(path)
            entries[path] = (key, cost)
            return
        entries[path] = (key, cost)
        size = self._size_bytes + cost
        while size > self.capacity_bytes:
            _, (_, evicted_cost) = entries.popitem(last=False)
            size -= evicted_cost
            self.evictions += 1
            if self._c_evictions is not None:
                self._c_evictions.inc()
        self._size_bytes = size
        if self._g_bytes is not None:
            self._g_bytes.set(size)

    def _count_hit(self) -> None:
        self.hits += 1
        if self._c_hits is not None:
            self._c_hits.inc()

    def _count_miss(self) -> None:
        self.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()

    def get(self, path: CachePath) -> bytes | None:
        """Exact-path lookup; refreshes recency on hit."""
        entry = self._entries.get(path)
        if entry is None:
            self._count_miss()
            return None
        self._entries.move_to_end(path)
        self._count_hit()
        return entry[0]

    def deepest_ancestor(
        self, path: CachePath, floor: int = 0
    ) -> tuple[CachePath, bytes] | None:
        """The longest cached prefix of *path* with length >= *floor*.

        This is the optimal starting point for a derivation toward *path*.
        Recency is refreshed on hit.  ``floor`` lets callers exclude
        prefixes above their authorization element (keys above it are never
        cached anyway, but the guard keeps the contract explicit).
        """
        for length in range(len(path), floor - 1, -1):
            candidate = path[:length]
            entry = self._entries.get(candidate)
            if entry is not None:
                self._entries.move_to_end(candidate)
                self._count_hit()
                return candidate, entry[0]
        self._count_miss()
        return None

    def clear(self) -> None:
        """Drop all entries and reset local hit/miss/eviction counters.

        Registry counters (if :meth:`instrument`-ed) are monotonic and keep
        their lifetime totals; only the size gauge tracks the reset.
        """
        self._entries.clear()
        self._size_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self._g_bytes is not None:
            self._g_bytes.set(0)

    def stats(self) -> dict:
        """JSON-able summary; ``benchmarks/e2e`` reads its hit ratios."""
        return {
            "entries": len(self._entries),
            "capacity_bytes": self.capacity_bytes,
            "size_bytes": self._size_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
