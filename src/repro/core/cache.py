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
never re-walks a path, and :meth:`KeyCache.descend` hashes and inserts
each level in one loop.
"""

from __future__ import annotations

from collections import OrderedDict
from hashlib import sha1 as _sha1
from typing import TYPE_CHECKING, Hashable

from repro.crypto.hashes import KEY_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is runtime-free)
    from repro.obs.metrics import MetricsRegistry

#: A derivation path: namespace plus branch labels from the tree root.
CachePath = tuple[Hashable, ...]


class _Steps(dict):
    """``part -> (branch, cost)`` for one step below a tree node: the
    bytes ``H`` appends to the parent key (``H`` is SHA-1 truncated to
    :data:`KEY_BYTES`, :mod:`repro.crypto.hashes`) and what the part
    adds to an entry's cost (:meth:`KeyCache.entry_cost`).  The 256 tree
    digits are prebuilt; a label or character is encoded at each lookup,
    so hostile string values never grow the table."""

    def __missing__(self, part: Hashable) -> tuple[bytes, int]:
        if isinstance(part, int):
            return bytes([part]), 1
        if isinstance(part, str):
            return part.encode("utf-8"), len(part)
        raise TypeError(f"unsupported path part {part!r}")


#: The one-step table :meth:`KeyCache.descend` derives through.
STEPS = _Steps({digit: (bytes([digit]), 1) for digit in range(256)})


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
        """Approximate memory footprint of one cache entry, in bytes.

        The key, 8 bytes of bookkeeping, and the path: a string or bytes
        part costs its length, any other part one byte.
        """
        cost = KEY_BYTES + 8 + len(path)
        for part in path:
            if isinstance(part, (str, bytes)):
                cost += len(part) - 1
        return cost

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        """Current footprint of all cached entries."""
        return self._size_bytes

    def put(self, path: CachePath, key: bytes) -> None:
        """Insert (or refresh) a derived key; evicts LRU entries as needed."""
        cost = self.entry_cost(path)
        if cost > self.capacity_bytes:
            return  # the entry can never fit
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

    def descend(
        self, path: CachePath, floor: int, key: bytes
    ) -> tuple[bytes, int]:
        """Derive the key at *path* from *key*, the key at ``path[:floor]``.

        The walk starts at the deepest cached ancestor of *path* at or
        below *floor* and caches every key it derives, top to bottom, each
        priced as its parent's cost plus one part.  Returns ``(key,
        hash_operations)``.  One loop per level: ``H(key || branch)`` with
        the branch bytes and part cost read from :data:`STEPS`, then the
        insert.  No path it inserts is cached already -- the ancestor
        search found nothing deeper -- so an insert never refreshes.
        """
        position = floor
        hit = self.deepest_ancestor(path, floor)
        if hit is not None:
            position = len(hit[0])
            key = hit[1]
        depth = len(path)
        if position == depth:
            return key, 0
        entries = self._entries
        capacity = self.capacity_bytes
        size = self._size_bytes
        evictions = 0
        cost = self.entry_cost(path[:position])
        operations = depth - position
        while position < depth:
            branch, part_cost = STEPS[path[position]]
            key = _sha1(key + branch).digest()[:KEY_BYTES]
            position += 1
            cost += part_cost
            if cost > capacity:
                continue  # nor can any level below it ever fit
            entries[path[:position]] = (key, cost)
            size += cost
            while size > capacity:
                _, (_, evicted_cost) = entries.popitem(last=False)
                size -= evicted_cost
                evictions += 1
        self._size_bytes = size
        if evictions:
            self.evictions += evictions
            if self._c_evictions is not None:
                self._c_evictions.inc(evictions)
        if self._g_bytes is not None:
            self._g_bytes.set(size)
        return key, operations

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
