"""Instrumented LRU cache: eviction order, counters, invalidation."""

import pytest

from repro.obs.lru import LRUCache
from repro.obs.metrics import MetricsRegistry


def test_rejects_nonpositive_capacity():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            LRUCache(bad)


def test_get_counts_hits_and_misses():
    cache = LRUCache(4)
    assert cache.get("a") is None
    assert cache.get("a", "fallback") == "fallback"
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert (cache.hits, cache.misses) == (1, 2)
    assert cache.hit_rate == pytest.approx(1 / 3)


def test_hit_rate_zero_without_lookups():
    assert LRUCache(1).hit_rate == 0.0


def test_eviction_is_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh: "b" is now the LRU entry
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.evictions == 1


def test_peek_does_not_count_or_refresh():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert (cache.hits, cache.misses) == (0, 0)
    cache.put("c", 3)  # "a" was not refreshed, so it is evicted first
    assert "a" not in cache


def test_put_refreshes_existing_key_without_eviction():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert len(cache) == 2
    assert cache.evictions == 0
    assert cache.peek("a") == 10


def test_get_or_compute_computes_once():
    cache = LRUCache(4)
    calls = []

    def compute():
        calls.append(1)
        return "v"

    assert cache.get_or_compute("k", compute) == "v"
    assert cache.get_or_compute("k", compute) == "v"
    assert len(calls) == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_invalidate_single_key():
    cache = LRUCache(4)
    cache.put("a", 1)
    assert cache.invalidate("a") is True
    assert cache.invalidate("a") is False
    assert "a" not in cache


def test_clear_keeps_lifetime_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1


def test_registry_instruments_track_local_counts():
    registry = MetricsRegistry()
    cache = LRUCache(2, "widget_cache", registry, layer="test")
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")
    cache.get("zzz")
    cache.put("c", 3)  # evicts
    counters = registry.snapshot()["counters"]
    assert counters['widget_cache_hits_total{layer="test"}'] == cache.hits == 1
    assert counters['widget_cache_misses_total{layer="test"}'] == 1
    assert counters['widget_cache_evictions_total{layer="test"}'] == 1
    gauges = registry.snapshot()["gauges"]
    assert gauges['widget_cache_entries{layer="test"}'] == len(cache) == 2


def test_stats_summary_is_json_able():
    import json

    cache = LRUCache(3, "s")
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert json.loads(json.dumps(stats)) == stats
    assert stats["name"] == "s"
    assert stats["entries"] == 1
    assert stats["capacity"] == 3
    assert stats["hit_rate"] == pytest.approx(0.5)
