"""The bounded exactly-once filter: every suppression direction."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.recovery.dedup import DedupWindow


def test_fresh_pairs_accepted_duplicates_suppressed():
    window = DedupWindow(window=8)
    assert window.seen("p", 0) is False
    assert window.seen("p", 1) is False
    assert window.seen("p", 0) is True
    assert window.seen("p", 1) is True
    assert window.accepted == 2
    assert window.suppressed == 2
    assert window.suppressed_total() == 2


def test_sources_are_independent():
    window = DedupWindow(window=8)
    assert window.seen("p", 3) is False
    assert window.seen("q", 3) is False
    assert window.seen("p", 3) is True
    assert window.seen("q", 3) is True
    assert len(window) == 2


def test_out_of_order_within_window_is_tracked_precisely():
    window = DedupWindow(window=16)
    for seq in (5, 2, 9, 0, 7):
        assert window.seen("p", seq) is False
    for seq in (5, 2, 9, 0, 7):
        assert window.seen("p", seq) is True
    assert window.seen("p", 1) is False  # gap fill, still in window


def test_stragglers_behind_the_window_are_suppressed_as_stale():
    window = DedupWindow(window=4)
    for seq in range(10):
        window.seen("p", seq)
    # seq 3 fell behind max(9) - window(4) = 5: suppressed even though
    # it was never re-sent -- the documented bounded-memory trade-off.
    assert window.seen("p", 3) is True
    assert window.suppressed_stale == 1
    assert window.suppressed_total() == 1


def test_window_bounds_per_source_memory():
    window = DedupWindow(window=8)
    for seq in range(1000):
        window.seen("p", seq)
        assert window.tracked("p") <= 8


def test_lru_source_eviction_is_bounded_and_counted():
    window = DedupWindow(window=4, max_sources=2)
    window.seen("a", 0)
    window.seen("b", 0)
    window.seen("a", 1)  # refresh a; b becomes LRU
    window.seen("c", 0)  # evicts b
    assert len(window) == 2
    assert window.sources_evicted == 1
    # The evicted source lost its history: its old pair reads as fresh.
    assert window.seen("b", 0) is False


def test_registry_counters_export_suppressions():
    registry = MetricsRegistry()
    window = DedupWindow(window=4, max_sources=1, registry=registry)
    window.seen("p", 0)
    window.seen("p", 0)
    window.seen("q", 0)  # evicts p
    assert registry.total("dedup_suppressed_total") == 1
    assert registry.total("dedup_sources_evicted_total") == 1


@pytest.mark.parametrize("kwargs", [{"window": 0}, {"max_sources": 0}])
def test_degenerate_bounds_rejected(kwargs):
    with pytest.raises(ValueError):
        DedupWindow(**kwargs)


def test_negative_sequences_are_stale_and_never_tracked():
    """Sources count up from zero.  A negative sequence never raises the
    source's maximum, so nothing would ever slide it out again: 10 000
    of them must not outgrow the window."""
    window = DedupWindow(window=8)
    for seq in range(-1, -10_001, -1):
        assert window.seen("hostile", seq)
    assert window.tracked("hostile") <= window.window
    assert window.tracked("hostile") == 0
    assert window.suppressed_stale == 10_000
    assert window.accepted == 0
    # The source is unharmed for the sequences it should be sending.
    assert [window.seen("hostile", seq) for seq in (0, 1, 1, -1)] == [
        False, False, True, True,
    ]
