"""The :class:`ShardedMatcher`: process-pool parallel match evaluation.

The matcher owns a refcounted table of every registered subscription
filter (fed by :meth:`BrokerTree.bind_parallel` hooks or directly) and a
lazily (re)built :class:`~concurrent.futures.ProcessPoolExecutor` whose
workers each hold the full table, partitioned into ``workers`` shards by
:func:`~repro.parallel.wire.shard_of` (topic-token groups hash by group
value, the constraints of unpinned filters by canonical unit-filter
bytes).

:meth:`prime` is the integration point: given a batch of events it fans
``(shard, chunk)`` match tasks across the pool and seeds the shared
:class:`~repro.siena.index.MatchResultCache` with the returned verdicts
-- the unit-filter verdicts the broker walk reads, and the topic-group
memo.  Dissemination then proceeds down the ordinary serial broker walk,
hitting the cache instead of recomputing PRFs, so delivery order, dedup,
and per-subscriber streams are bit-identical to the serial path.

Serial fallback -- :meth:`prime` becomes a no-op returning 0 -- triggers
when the policy is serial (``workers <= 1``), the batch cannot use a
cache (none attached), the events cannot take the compact wire form, or
the pool cannot be (re)built or breaks mid-batch.  Every fallback counts
in ``parallel_serial_fallbacks_total`` so a silently-serial deployment is
visible in metrics.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.parallel import worker as _worker
from repro.parallel.policy import ParallelPolicy
from repro.parallel.wire import decode_filters, encode_events, encode_filters
from repro.siena.events import Event
from repro.siena.filters import Filter

if TYPE_CHECKING:  # pragma: no cover
    from repro.siena.index import MatchResultCache

_MATCH_MODES = ("tokenized", "plain")


class ShardedMatcher:
    """Sharded parallel match evaluation behind a ``prime()`` call.

    One instance per trust domain and filter population; bind it to a
    tree with :meth:`BrokerTree.bind_parallel` (which wires the
    subscribe/unsubscribe hooks and the shared match cache) or drive
    :meth:`register_filter` / :meth:`prime` directly.
    """

    def __init__(
        self,
        policy: ParallelPolicy,
        match: str = "tokenized",
        registry: MetricsRegistry | None = None,
        mp_context=None,
    ):
        if match not in _MATCH_MODES:
            raise ValueError(
                f"match mode must be one of {_MATCH_MODES}, got {match!r}"
            )
        self.policy = policy
        self.match_mode = match
        self.registry = registry if registry is not None else MetricsRegistry()
        self._mp_context = mp_context
        self._refcounts: dict[Filter, int] = {}
        self._order: list[Filter] = []
        self._generation = 0
        self._built_generation = -1
        self._pool: ProcessPoolExecutor | None = None
        #: The workers' unit table, rebuilt with the pool.
        self._table: _worker.UnitTable | None = None
        self._cache: "MatchResultCache | None" = None
        self._closed = False
        # Plain counters mirrored into the registry so ``stats()`` stays a
        # cheap dict build while exporters see the full metric families.
        self.tasks = 0
        self.primed_verdicts = 0
        self.serial_fallbacks = 0
        self.rebuilds = 0
        self.busy_seconds = 0.0
        self._c_tasks = self.registry.counter(
            "parallel_tasks_total", kind="match"
        )
        self._c_primed = self.registry.counter("parallel_primed_verdicts_total")
        self._c_rebuilds = self.registry.counter("parallel_rebuilds_total")
        self._g_queue_depth = self.registry.gauge("parallel_queue_depth")

    # -- filter table ------------------------------------------------------

    def register_filter(self, subscription_filter: Filter) -> None:
        """Add one registration of *subscription_filter* (refcounted)."""
        count = self._refcounts.get(subscription_filter, 0)
        self._refcounts[subscription_filter] = count + 1
        if count == 0:
            self._order.append(subscription_filter)
            self._generation += 1

    def unregister_filter(self, subscription_filter: Filter) -> None:
        """Drop one registration; the table shrinks at refcount zero."""
        count = self._refcounts.get(subscription_filter)
        if count is None:
            return
        if count <= 1:
            del self._refcounts[subscription_filter]
            self._order.remove(subscription_filter)
            self._generation += 1
        else:
            self._refcounts[subscription_filter] = count - 1

    def attach_cache(self, match_cache: "MatchResultCache | None") -> None:
        """Default verdict sink for :meth:`prime` calls without one."""
        self._cache = match_cache

    @property
    def filter_count(self) -> int:
        return len(self._order)

    # -- pool lifecycle ----------------------------------------------------

    def _fallback(self, reason: str) -> int:
        self.serial_fallbacks += 1
        self.registry.counter(
            "parallel_serial_fallbacks_total", reason=reason
        ).inc()
        return 0

    def _ensure_pool(self) -> bool:
        """(Re)build the pool when the filter table changed; False = can't."""
        if self._pool is not None and self._built_generation == self._generation:
            return True
        rebuilt = self._pool is not None
        self._shutdown_pool()
        try:
            filters_wire = encode_filters(self._order)
            # Built from the wire form, as the workers build theirs:
            # unit indexes must agree across the process boundary.
            self._table = _worker.UnitTable(decode_filters(filters_wire))
            self._pool = ProcessPoolExecutor(
                max_workers=self.policy.workers,
                mp_context=self._mp_context,
                initializer=_worker.init_matcher,
                initargs=(filters_wire, self.policy.workers, self.match_mode),
            )
        except (OSError, TypeError, ValueError):
            self._pool = None
            return False
        self._built_generation = self._generation
        if rebuilt:
            self.rebuilds += 1
            self._c_rebuilds.inc()
        return True

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Release the worker pool; further primes fall back to serial."""
        self._closed = True
        self._shutdown_pool()

    def __enter__(self) -> "ShardedMatcher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- priming -----------------------------------------------------------

    def prime(
        self,
        events: list[Event],
        match_cache: "MatchResultCache | None" = None,
    ) -> int:
        """Precompute match verdicts for *events* across the worker pool.

        Seeds *match_cache* (or the attached default) and returns the
        number of verdicts primed; 0 means the serial path runs uncached
        (serial policy, no cache, unwireable events, or a broken pool --
        all counted under ``parallel_serial_fallbacks_total``).
        """
        cache = match_cache if match_cache is not None else self._cache
        if not events or not self._order:
            return 0
        if self._closed:
            return self._fallback("closed")
        if not self.policy.parallel:
            return self._fallback("serial_policy")
        if cache is None:
            return self._fallback("no_cache")
        try:
            chunks = [
                events[start: start + self.policy.chunk_size]
                for start in range(0, len(events), self.policy.chunk_size)
            ]
            chunk_wires = [encode_events(chunk) for chunk in chunks]
        except TypeError:
            return self._fallback("unwireable_events")
        if not self._ensure_pool():
            return self._fallback("pool_unavailable")

        shards = self.policy.workers
        futures = []
        try:
            for chunk_index, wire in enumerate(chunk_wires):
                for shard in range(shards):
                    futures.append(
                        (chunk_index, shard,
                         self._pool.submit(_worker.match_chunk, shard, wire))
                    )
            self._g_queue_depth.set(len(futures))
            merged: list[list] = [[None, []] for _ in events]
            offsets = [0]
            for chunk in chunks[:-1]:
                offsets.append(offsets[-1] + len(chunk))
            for chunk_index, shard, future in futures:
                busy, results = future.result()
                self.tasks += 1
                self._c_tasks.inc()
                self.busy_seconds += busy
                self.registry.counter(
                    "parallel_worker_busy_seconds_total", shard=str(shard)
                ).inc(busy)
                base = offsets[chunk_index]
                for position, (verified, verdicts) in enumerate(results):
                    bundle = merged[base + position]
                    if verified is not None:
                        bundle[0] = verified
                    bundle[1].extend(verdicts)
        except Exception:
            # A dead worker (OOM kill, interpreter crash) breaks the pool:
            # drop it, run this batch serially, rebuild on the next prime.
            self._shutdown_pool()
            self._built_generation = -1
            return self._fallback("pool_broken")
        finally:
            self._g_queue_depth.set(0)

        from repro.routing.tokens import TOPIC_TOKEN_ATTRIBUTE

        table = self._table
        primed = 0
        for event, (verified, verdicts) in zip(events, merged):
            if verified is not None:
                event_token = event.get(TOPIC_TOKEN_ATTRIBUTE)
                if isinstance(event_token, str):
                    cache.remember_topic_group(
                        event_token, table.pin_value(verified)
                    )
            for index, ok in verdicts:
                cache.store(table.units[index], event, ok)
            primed += len(verdicts)
        self.primed_verdicts += primed
        self._c_primed.inc(primed)
        return primed

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """JSON-able utilization summary for ``parallel_stats()``."""
        return {
            "workers": self.policy.workers,
            "chunk_size": self.policy.chunk_size,
            "match_mode": self.match_mode,
            "filters": len(self._order),
            "tasks": self.tasks,
            "primed_verdicts": self.primed_verdicts,
            "serial_fallbacks": self.serial_fallbacks,
            "rebuilds": self.rebuilds,
            "busy_seconds": self.busy_seconds,
            "pool_live": self._pool is not None,
        }
