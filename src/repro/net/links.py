"""Fixed-latency network links.

The experiments replay one-way delays derived from a transit-stub topology
(RTTs of 24-184 ms, Section 5.2).  A link delivers a payload after its
one-way latency, whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.sim import Simulator


@dataclass
class LinkStats:
    """Traffic counters for one link."""

    messages: int = 0
    bytes: int = 0


class Link:
    """A unidirectional link with fixed one-way latency."""

    def __init__(self, sim: Simulator, latency: float):
        if latency < 0:
            raise ValueError(f"negative link latency {latency}")
        self.sim = sim
        self.latency = latency
        self.stats = LinkStats()

    def send(
        self,
        size_bytes: int,
        on_arrival: Callable[[], None],
        extra_delay: float = 0.0,
    ) -> None:
        """Deliver a message of *size_bytes*; *on_arrival* fires at the far end.

        *extra_delay* adds transient one-way latency (fault injection's
        latency spikes) on top of the link's own latency.
        """
        if extra_delay < 0:
            raise ValueError(f"negative extra delay {extra_delay}")
        self.stats.messages += 1
        self.stats.bytes += size_bytes
        self.sim.schedule(self.latency + extra_delay, on_arrival)
