"""Bounded end-to-end duplicate suppression.

At-least-once hop transport, multipath fan-out, journal replays, and
tree-repair re-publication all have the same failure-compensation shape:
when in doubt, send again.  The receiving edge therefore needs a single,
*bounded* structure that turns "delivered at least once" into "observed
exactly once": a :class:`DedupWindow`.

The window tracks, per event source (a publisher identity, or a
subscriber endpoint on the overlay), the highest sequence number seen and
the set of sequence numbers inside a sliding window below it.  A sequence
number is suppressed when it was already recorded, or when it has fallen
behind the window (the safe direction: an ancient straggler is suppressed
rather than re-delivered -- re-surfacing a duplicate breaks exactly-once,
while suppressing a first delivery that is more than ``window`` events
stale is the documented, bounded-memory trade-off).

Memory is bounded on both axes: at most ``window`` sequence numbers per
source, at most ``max_sources`` sources (LRU-evicted, counted).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


@dataclass
class _SourceWindow:
    """Dedup state for one event source."""

    max_seq: int = -1
    #: Sequences seen inside ``(max_seq - window, max_seq]``; what slides
    #: out is dropped as ``max_seq`` advances, so at most ``window`` held.
    recent: set[int] = field(default_factory=set)


class DedupWindow:
    """Sliding-window exactly-once filter over (source, sequence) pairs.

    ``seen(source, seq)`` is check-and-record: it returns ``True`` when
    the pair must be suppressed as a duplicate and ``False`` exactly once
    per fresh pair, recording it.  Sequence numbers may arrive out of
    order; anything within ``window`` of the source's maximum is tracked
    precisely.

    >>> window = DedupWindow(window=4)
    >>> [window.seen("p", seq) for seq in (0, 1, 1, 0, 2)]
    [False, False, True, True, False]
    """

    def __init__(
        self,
        window: int = 1024,
        max_sources: int = 4096,
        registry: "MetricsRegistry | None" = None,
        **labels: str,
    ):
        if window < 1:
            raise ValueError("dedup window must hold at least one sequence")
        if max_sources < 1:
            raise ValueError("dedup must track at least one source")
        self.window = window
        self.max_sources = max_sources
        self._sources: OrderedDict[Hashable, _SourceWindow] = OrderedDict()
        #: Fresh pairs accepted.
        self.accepted = 0
        #: Duplicates suppressed (exact window hits).
        self.suppressed = 0
        #: Sequences suppressed for having fallen behind the window.
        self.suppressed_stale = 0
        #: Sources dropped by the LRU bound.
        self.sources_evicted = 0
        self._c_suppressed = self._c_evicted = None
        if registry is not None:
            self._c_suppressed = registry.counter(
                "dedup_suppressed_total", **labels
            )
            self._c_evicted = registry.counter(
                "dedup_sources_evicted_total", **labels
            )

    def __len__(self) -> int:
        return len(self._sources)

    def tracked(self, source: Hashable) -> int:
        """Sequence numbers currently tracked for *source*."""
        state = self._sources.get(source)
        return len(state.recent) if state is not None else 0

    def seen(self, source: Hashable, seq: int) -> bool:
        """Whether (source, seq) is a duplicate; records it when fresh.

        A negative *seq* is always stale: sources count up from zero.
        """
        state = self._sources.get(source)
        if state is None:
            state = _SourceWindow()
            self._sources[source] = state
            if len(self._sources) > self.max_sources:
                self._sources.popitem(last=False)
                self.sources_evicted += 1
                if self._c_evicted is not None:
                    self._c_evicted.inc()
        else:
            self._sources.move_to_end(source)

        horizon = state.max_seq - self.window
        # Tracking a negative sequence would never end: it cannot raise
        # ``max_seq``, so nothing would ever slide it out of ``recent``.
        if seq < 0 or (state.max_seq >= 0 and seq <= horizon):
            self.suppressed_stale += 1
            self._count_suppressed()
            return True
        if seq in state.recent:
            self.suppressed += 1
            self._count_suppressed()
            return True

        if seq > state.max_seq:
            # Only (old horizon, new horizon] slid out of the window; a
            # jump past the whole window leaves nothing to keep.
            if seq - state.max_seq >= self.window:
                state.recent.clear()
            else:
                state.recent.difference_update(
                    range(horizon + 1, seq - self.window + 1)
                )
            state.max_seq = seq
        state.recent.add(seq)
        self.accepted += 1
        return False

    def _count_suppressed(self) -> None:
        if self._c_suppressed is not None:
            self._c_suppressed.inc()

    def suppressed_total(self) -> int:
        """All suppressions, exact and stale."""
        return self.suppressed + self.suppressed_stale
