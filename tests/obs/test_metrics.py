"""The metrics substrate: instruments, streaming quantiles, stats views."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistryBackedStats,
    series_name,
)


class TestCounterAndGauge:
    def test_counter_grows(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative_increments(self):
        counter = Counter("x_total")
        with pytest.raises(ValueError, match="only grow"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("view")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", link="0->1")
        b = registry.counter("hits_total", link="0->1")
        other = registry.counter("hits_total", link="0->2")
        assert a is b
        assert a is not other
        a.inc()
        assert registry.total("hits_total") == 1

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_series_name_rendering(self):
        assert series_name("x_total", ()) == "x_total"
        assert (
            series_name("x_total", (("a", "1"), ("b", "2")))
            == 'x_total{a="1",b="2"}'
        )


class TestHistogramQuantiles:
    def test_small_sample_is_exact(self):
        histogram = Histogram("latency")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 3.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0
        assert histogram.mean == 3.0

    def test_untracked_quantile_raises(self):
        histogram = Histogram("latency")
        histogram.observe(1.0)
        with pytest.raises(KeyError, match="not tracked"):
            histogram.quantile(0.25)

    def test_empty_histogram_quantile_is_nan(self):
        histogram = Histogram("latency")
        assert math.isnan(histogram.quantile(0.5))
        assert math.isnan(histogram.mean)

    @pytest.mark.parametrize("q", DEFAULT_QUANTILES)
    def test_p2_accuracy_uniform(self, q):
        # P-squared on 20k uniform(0,1) samples: the estimate must land
        # within 0.02 absolute of the true quantile (= q itself).
        rng = random.Random(42)
        histogram = Histogram("u")
        for _ in range(20_000):
            histogram.observe(rng.random())
        assert histogram.quantile(q) == pytest.approx(q, abs=0.02)

    @pytest.mark.parametrize("q", DEFAULT_QUANTILES)
    def test_p2_accuracy_exponential(self, q):
        # A skewed distribution: within 10% relative of the analytic
        # quantile -ln(1-q)/lambda.
        rng = random.Random(7)
        histogram = Histogram("e")
        for _ in range(20_000):
            histogram.observe(rng.expovariate(2.0))
        true_quantile = -math.log(1.0 - q) / 2.0
        assert histogram.quantile(q) == pytest.approx(
            true_quantile, rel=0.10
        )

    def test_snapshot_shape(self):
        histogram = Histogram("h")
        for value in range(10):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["count"] == 10
        assert snap["min"] == 0.0
        assert snap["max"] == 9.0
        assert set(snap["quantiles"]) == {"p50", "p95", "p99"}

    @given(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1, max_size=200,
    ))
    # The per-quantile P-squared estimators are independent and cross at
    # small counts: on this sample the raw p95 is 2.531 and p99 2.525.
    @example([1.0] * 18 + [5.0, 1.0, 5.0, 1.0, 1.0])
    def test_tracked_quantiles_are_monotone_and_within_range(self, sample):
        histogram = Histogram("h")
        for value in sample:
            histogram.observe(value)
        reads = [histogram.quantile(q) for q in sorted(DEFAULT_QUANTILES)]
        assert reads == sorted(reads)
        assert min(sample) <= reads[0] and reads[-1] <= max(sample)
        assert list(histogram.snapshot()["quantiles"].values()) == reads


class _DemoStats(RegistryBackedStats):
    _int_fields = ("hits", "misses")
    _metric_prefix = "demo_"


class TestRegistryBackedStats:
    def test_attribute_view_over_counters(self):
        registry = MetricsRegistry()
        stats = _DemoStats(registry, node="n1")
        stats.hits += 1
        stats.hits += 1
        stats.misses += 1
        assert stats.hits == 2
        assert isinstance(stats.hits, int)
        assert registry.counter("demo_hits_total", node="n1").value == 2

    def test_value_equality_like_a_dataclass(self):
        a = _DemoStats()
        b = _DemoStats()
        assert a == b
        a.hits += 1
        assert a != b
        assert a != object()

    def test_reset_and_as_dict(self):
        stats = _DemoStats()
        stats.inc("hits", 3)
        assert stats.as_dict() == {"hits": 3, "misses": 0}
        stats.reset()
        assert stats.as_dict() == {"hits": 0, "misses": 0}

    def test_unknown_attribute_still_raises(self):
        stats = _DemoStats()
        with pytest.raises(AttributeError):
            stats.nonexistent
