"""Figure 11: the key cache's effect (30 nodes, temporally local stream).

Paper: with a 64 KB cache, PSGuard's throughput deficit vs. Siena shrinks
from ~10.8% to ~2.2% and the latency overhead from ~5.7% to ~1.5%,
because cached intermediate keys remove most per-event key derivations.

On this substrate the crypto primitives are ~100x faster relative to the
per-event broker work than on the paper's 550 MHz testbed, so the
throughput shift is within simulation noise (see EXPERIMENTS.md); we
therefore reproduce the *mechanism* the figure measures -- per-event
derivation work and cache hit rate vs. cache size, on the paper's own
temporal-locality workload (consecutive stock quotes, Section 3.2.3) --
next to the wall time of a derivation, because a hash saved is a gain only
when the cache's bookkeeping costs less than the hash did.  That is checked
on the stream a cache helps least as well: uniform values in a depth-20
tree, whose top dozen levels fill 64 KB, so a walk inserts levels only
until its first eviction and derives the rest without keeping them.
"""

from repro.harness.endtoend import (
    max_throughput,
    measure_cache_effect,
    sample_pipeline_costs,
)
from repro.harness.reporting import format_table

CACHE_SIZES_KB = (0, 1, 4, 16, 64)
NODES = 30
EVENTS = 300


def _table(rows, title):
    return format_table(
        ["cache (KB)", "pub H/event", "sub H/event", "pub hit rate",
         "sub hit rate", "crypto/event (us)", "derive (us)"],
        [
            (
                row.cache_kb,
                row.publisher_hash_per_event,
                row.subscriber_hash_per_event,
                row.publisher_hit_rate,
                row.subscriber_hit_rate,
                row.crypto_per_event_s * 1e6,
                row.derive_s * 1e6,
            )
            for row in rows
        ],
        title=title,
    )


def test_fig11_cache_mechanism(benchmark, report):
    rows = benchmark.pedantic(
        lambda: measure_cache_effect(CACHE_SIZES_KB),
        rounds=1,
        iterations=1,
    )
    report(
        "fig11_key_cache",
        _table(rows, "Figure 11: Key Caching (stock-quote stream)"),
    )
    publisher_work = [row.publisher_hash_per_event for row in rows]
    subscriber_work = [row.subscriber_hash_per_event for row in rows]
    # Larger caches strictly cut derivation work...
    assert publisher_work[-1] < 0.5 * publisher_work[0]
    assert subscriber_work[-1] < 0.5 * subscriber_work[0]
    # ...and hit rates climb toward 1.
    assert rows[-1].publisher_hit_rate > 0.8
    assert rows[-1].subscriber_hit_rate > 0.8
    assert rows[0].publisher_hit_rate <= rows[-1].publisher_hit_rate
    # ...and the derivation itself gets faster, not just shorter.
    assert rows[-1].derive_s < rows[0].derive_s
    # A walk stops inserting at its first eviction, which a cache of 16 KB
    # or more never reaches on this stream: every level stays cached.
    for row in rows[-2:]:
        assert round(row.publisher_hash_per_event, 2) == 0.43
        assert round(row.subscriber_hash_per_event, 2) == 0.29


def test_fig11_cache_bookkeeping_on_uniform_values(benchmark, report):
    rows = benchmark.pedantic(
        lambda: measure_cache_effect(
            (0, 64), events=4000, range_size=1 << 20, uniform=True
        ),
        rounds=1,
        iterations=1,
    )
    report(
        "fig11_key_cache_uniform",
        _table(rows, "Figure 11: Key Caching (uniform values, depth 20)"),
    )
    uncached, cached = rows
    assert cached.publisher_hash_per_event < uncached.publisher_hash_per_event
    # Inserting every level below the deepest cached ancestor evicted as
    # many entries per walk, none read again: 14.7 and 13.6 H per event.
    # A walk that stops inserting at its first eviction keeps the top
    # levels the capacity holds and saves more hashes.
    assert cached.publisher_hash_per_event < 13.6
    assert cached.subscriber_hash_per_event < 13.6
    # The bound leaves room for host noise: the cached walk measures at
    # parity with the capacity-0 one, and one run of either row can read
    # 1.5x its usual time.  (Re-pricing a path per level slowed both rows
    # alike, so this bound cannot see it; the spy in
    # tests/core/test_cache_differential.py does.)
    assert cached.derive_s < 2 * uncached.derive_s


def test_fig11_endtoend_never_hurt_by_cache(benchmark, report):
    def sweep():
        results = []
        for size_kb in (0, 64):
            pipeline = sample_pipeline_costs(
                "numeric", cache_bytes=size_kb * 1024
            )
            results.append(
                (size_kb,
                 max_throughput("numeric", NODES, pipeline, events=EVENTS))
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "fig11_endtoend",
        format_table(
            ["cache (KB)", "throughput (ev/s)", "latency (ms)"],
            [
                (size_kb, r.throughput_events_per_s, r.latency_s * 1e3)
                for size_kb, r in results
            ],
            title=f"Figure 11 (end to end, {NODES} nodes, numeric mode)",
        ),
    )
    uncached, cached = results[0][1], results[1][1]
    assert (
        cached.throughput_events_per_s
        >= 0.95 * uncached.throughput_events_per_s
    )
    assert cached.latency_s <= 1.05 * uncached.latency_s
