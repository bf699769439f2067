"""Bounded priority-classed queues with configurable load shedding.

The unbounded hop queues that overload can grow without limit are
replaced by :class:`BoundedPriorityQueue`: a strict-priority queue
(lower class number served first, FIFO within a class) whose depth never
exceeds its capacity.  When an offer would overflow, one event is *shed*
according to the configured policy -- and regardless of policy the shed
victim always belongs to the **worst priority class present** among the
queued events plus the incoming one.  That yields two invariants the
property tests pin down for every policy and arrival pattern:

- ``len(queue) <= capacity`` at all times;
- a higher-priority event is never shed while a lower-priority event
  remains queued.

The three policies differ only in *which* member of the worst class is
sacrificed:

``drop-oldest``
    Evict the oldest worst-class event (favors freshness).
``drop-lowest-priority``
    Evict the newest *queued* worst-class event (favors the backlog;
    the incoming event is admitted whenever anything equally bad or
    worse is queued).
``reject-new``
    Refuse the incoming event when it belongs to the worst class;
    otherwise evict the newest queued worst-class event to admit it.

Under every policy an incoming event strictly worse than everything
queued is rejected outright -- shedding anything else would violate the
priority invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.flow.policy import priority_name
from repro.obs.metrics import MetricsRegistry

DROP_OLDEST = "drop-oldest"
DROP_LOWEST_PRIORITY = "drop-lowest-priority"
REJECT_NEW = "reject-new"

#: The recognized shed policies.
SHED_POLICIES = frozenset({DROP_OLDEST, DROP_LOWEST_PRIORITY, REJECT_NEW})


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
        shed_policy: str = DROP_OLDEST,
        registry: MetricsRegistry | None = None,
        **labels: str,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must hold at least one event")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r} "
                f"(choose from {sorted(SHED_POLICIES)})"
            )
        self.capacity = capacity
        self.shed_policy = shed_policy
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

    def _evict(self, priority: int, newest: bool) -> Any:
        queue = self._classes[priority]
        victim = queue.pop() if newest else queue.popleft()
        self._set_depth(self._depth - 1)
        self._count_shed(priority)
        return victim

    # -- the public protocol -----------------------------------------------

    def offer(self, item: Any, priority: int) -> Offer:
        """Enqueue *item*, shedding per policy if the queue is full."""
        if self._depth < self.capacity:
            self._append(item, priority)
            return Offer(accepted=True)
        worst = self._worst_queued()
        if worst is None or priority > worst:
            # The incoming event is the sole member of the worst class:
            # every policy rejects it rather than shed something better.
            self._count_shed(priority)
            return Offer(accepted=False, shed=(item, priority))
        if self.shed_policy == REJECT_NEW and priority == worst:
            self._count_shed(priority)
            return Offer(accepted=False, shed=(item, priority))
        newest = self.shed_policy != DROP_OLDEST
        victim = self._evict(worst, newest=newest)
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
