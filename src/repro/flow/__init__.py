"""Backpressure and graceful degradation.

``repro.flow`` holds the transport-agnostic overload-protection
primitives threaded through the dissemination path:

- :mod:`repro.flow.policy` -- priority classes and the
  :class:`FlowControlPolicy` knob bundle;
- :mod:`repro.flow.queues` -- bounded priority-classed queues that
  shed the oldest event of the worst class present;
- :mod:`repro.flow.credit` -- credit-based hop-to-hop flow control
  (the simulator's model of the TCP receive window);
- :mod:`repro.flow.aimd` -- AIMD rate adaptation (the overload
  scenario's publish pump paces by it).

The timed overlay (:mod:`repro.net.simnet`) composes these pieces, and
the rtnet broker's egress is a :class:`BoundedPriorityQueue`;
everything here is plain data-structure code that unit tests and
property tests can drive directly.
"""

from repro.flow.aimd import AIMDRateLimiter
from repro.flow.credit import CreditGate
from repro.flow.policy import (
    BEST_EFFORT,
    HIGH,
    NORMAL,
    PRIORITY_ATTRIBUTE,
    FlowControlPolicy,
    priority_name,
    priority_of,
    with_priority,
)
from repro.flow.queues import BoundedPriorityQueue, Offer

__all__ = [
    "AIMDRateLimiter",
    "BEST_EFFORT",
    "BoundedPriorityQueue",
    "CreditGate",
    "FlowControlPolicy",
    "HIGH",
    "NORMAL",
    "Offer",
    "PRIORITY_ATTRIBUTE",
    "priority_name",
    "priority_of",
    "with_priority",
]
