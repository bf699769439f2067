"""Priority classes and the overload-protection policy bundle.

Every publication carries a *priority class* as a routable attribute
(:data:`PRIORITY_ATTRIBUTE`): an integer where **lower is more
important**.  The three conventional classes map onto the service tiers
of the dissemination stack:

- :data:`HIGH` (0) -- control traffic and premium subscriptions; the
  overload gates demand >= 99% delivery for this class at 3-5x the
  sustainable publish rate;
- :data:`NORMAL` (1) -- the default for unstamped events;
- :data:`BEST_EFFORT` (2) -- bulk traffic, first to be shed.

:class:`FlowControlPolicy` sizes the overload-protection stack of a
transport: bounded priority-classed queues and credit-based hop-to-hop
flow control (the watermark-driven circuit breaker that sheds
best-effort traffic while a broker is degraded scales with the queue).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.siena.events import Event

#: Routable attribute carrying an event's priority class (an int; lower
#: is more important).  Rides outside the sealed payload, like ``_seq``.
PRIORITY_ATTRIBUTE = "_class"

#: The conventional priority classes (lower value = higher priority).
HIGH = 0
NORMAL = 1
BEST_EFFORT = 2

_PRIORITY_NAMES = {HIGH: "high", NORMAL: "normal", BEST_EFFORT: "best-effort"}


def priority_name(priority: int) -> str:
    """Human/metric-label name for *priority* (unknown ints stringify)."""
    return _PRIORITY_NAMES.get(priority, str(priority))


def priority_of(event: Event, default: int = NORMAL) -> int:
    """The priority class stamped on *event*, or *default*."""
    value = event.get(PRIORITY_ATTRIBUTE)
    return value if isinstance(value, int) else default


def with_priority(event: Event, priority: int) -> Event:
    """A copy of *event* stamped with *priority*."""
    return event.with_attributes(**{PRIORITY_ATTRIBUTE: priority})


@dataclass(frozen=True)
class FlowControlPolicy:
    """Knobs for the overload-protection stack of one overlay.

    ``queue_capacity`` bounds every broker ingress queue and every
    per-link egress queue; ``credit_window`` is the number of
    unacknowledged in-flight-or-queued events a sender may have toward
    one downstream broker (it must not exceed ``queue_capacity`` or
    credits could overrun the ingress bound).  Overflows shed the oldest
    event of the worst priority class present (see
    :class:`~repro.flow.queues.BoundedPriorityQueue`).
    """

    #: Events one bounded queue may hold (ingress and per-link egress).
    queue_capacity: int = 64
    #: Per-link sender credit window (<= queue_capacity).
    credit_window: int = 32

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must hold at least one event")
        if not 1 <= self.credit_window <= self.queue_capacity:
            raise ValueError(
                "credit_window must be within [1, queue_capacity]: credits "
                "reserve ingress slots, so a larger window could overrun "
                "the bounded queue"
            )
