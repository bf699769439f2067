"""Bounded priority-classed queues with load shedding.

The unbounded hop queues that overload can grow without limit are
replaced by :class:`BoundedPriorityQueue`: a strict-priority queue
(lower class number served first, FIFO within a class) whose depth never
exceeds its capacity.  When an offer would overflow, one event is
*shed*: the **oldest** queued event of the **worst priority class
present** (favoring freshness), unless the incoming event is strictly
worse than everything queued -- then it is refused outright, since
shedding anything else would violate the priority invariant.  The
property tests pin down, for every arrival pattern:

- ``len(queue) <= capacity`` at all times;
- a higher-priority event is never shed while a lower-priority event
  remains queued;
- a shed from the queue is always its oldest worst-class event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.flow.policy import priority_name
from repro.obs.metrics import MetricsRegistry

@dataclass(frozen=True)
class Offer:
    """Outcome of one :meth:`BoundedPriorityQueue.offer`.

    ``accepted`` says whether the offered item is now queued; ``shed``
    is the ``(item, priority)`` evicted to make room (the offered item
    itself when ``accepted`` is false), or ``None`` when nothing was
    shed.
    """

    accepted: bool
    shed: tuple[Any, int] | None = None


class BoundedPriorityQueue:
    """A strict-priority FIFO queue with a hard depth bound.

    ``labels`` (e.g. ``broker="b3", queue="ingress"``) scope the
    emitted metrics: ``flow_shed_total{..., priority}`` counters plus
    ``flow_queue_depth`` / ``flow_queue_peak_depth`` gauges.

    >>> q = BoundedPriorityQueue(capacity=2)
    >>> q.offer("a", priority=2).accepted
    True
    >>> q.offer("b", priority=0).accepted
    True
    >>> q.offer("c", priority=1)            # full: sheds worst class (2)
    Offer(accepted=True, shed=('a', 2))
    >>> q.take()
    ('b', 0)
    """

    def __init__(
        self,
        capacity: int,
        registry: MetricsRegistry | None = None,
        **labels: str,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must hold at least one event")
        self.capacity = capacity
        self._classes: dict[int, deque[Any]] = {}
        self._depth = 0
        self.peak_depth = 0
        self.shed_total = 0
        self._registry = registry
        self._labels = labels
        self._depth_gauge = None
        self._peak_gauge = None
        if registry is not None:
            self._depth_gauge = registry.gauge("flow_queue_depth", **labels)
            self._peak_gauge = registry.gauge(
                "flow_queue_peak_depth", **labels
            )

    def __len__(self) -> int:
        return self._depth

    def __bool__(self) -> bool:
        return self._depth > 0

    def priorities(self) -> Iterator[int]:
        """Priority classes currently present, best first."""
        return iter(sorted(p for p, q in self._classes.items() if q))

    # -- internals ---------------------------------------------------------

    def _worst_queued(self) -> int | None:
        worst = None
        for priority, queue in self._classes.items():
            if queue and (worst is None or priority > worst):
                worst = priority
        return worst

    def _set_depth(self, depth: int) -> None:
        self._depth = depth
        if depth > self.peak_depth:
            self.peak_depth = depth
            if self._peak_gauge is not None:
                self._peak_gauge.set(depth)
        if self._depth_gauge is not None:
            self._depth_gauge.set(depth)

    def _count_shed(self, priority: int) -> None:
        self.shed_total += 1
        if self._registry is not None:
            self._registry.counter(
                "flow_shed_total",
                priority=priority_name(priority),
                **self._labels,
            ).inc()

    def _append(self, item: Any, priority: int) -> None:
        self._classes.setdefault(priority, deque()).append(item)
        self._set_depth(self._depth + 1)

    def _evict(self, priority: int) -> Any:
        victim = self._classes[priority].popleft()
        self._set_depth(self._depth - 1)
        self._count_shed(priority)
        return victim

    # -- the public protocol -----------------------------------------------

    def offer(self, item: Any, priority: int) -> Offer:
        """Enqueue *item*, shedding the oldest worst-class event if the
        queue is full."""
        if self._depth < self.capacity:
            self._append(item, priority)
            return Offer(accepted=True)
        worst = self._worst_queued()
        if worst is None or priority > worst:
            # The incoming event is the sole member of the worst class:
            # reject it rather than shed something better.
            self._count_shed(priority)
            return Offer(accepted=False, shed=(item, priority))
        victim = self._evict(worst)
        self._append(item, priority)
        return Offer(accepted=True, shed=(victim, worst))

    def take(self) -> tuple[Any, int] | None:
        """Dequeue the oldest event of the best class, or ``None``."""
        if self._depth == 0:
            return None
        best = min(p for p, q in self._classes.items() if q)
        item = self._classes[best].popleft()
        self._set_depth(self._depth - 1)
        return item, best

    def drain(self) -> list[tuple[Any, int]]:
        """Dequeue everything in service order."""
        drained: list[tuple[Any, int]] = []
        while True:
            entry = self.take()
            if entry is None:
                return drained
            drained.append(entry)
