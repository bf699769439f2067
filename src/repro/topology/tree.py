"""Embedding the broker tree onto an Internet topology.

The experiments build a complete binary tree of pub-sub nodes (0, 2, 6,
14 or 30 brokers plus the publisher root and 32 subscribers) and link them
with TCP connections whose delays come from the underlying GT-ITM topology
(Section 5.2).  ``DisseminationTree`` performs that embedding and exposes
per-overlay-link latencies for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.transit_stub import TransitStubTopology


@dataclass(frozen=True)
class TreeLink:
    """One overlay link with its one-way latency."""

    parent: int
    child: int
    latency: float


class DisseminationTree:
    """A complete ``arity``-ary broker tree embedded in a topology.

    Broker ids follow heap numbering (root 0, children of ``i`` are
    ``arity*i + 1 .. arity*i + arity``).
    """

    def __init__(
        self,
        num_brokers: int,
        topology: TransitStubTopology,
        arity: int = 2,
    ):
        if num_brokers < 1:
            raise ValueError("a tree needs at least the root broker")
        self.num_brokers = num_brokers
        self.arity = arity
        self.topology = topology
        self.placement = dict(
            enumerate(self.topology.sample_overlay(num_brokers))
        )

    def parent_of(self, broker_id: int) -> int | None:
        """Heap parent, or ``None`` at the root."""
        return None if broker_id == 0 else (broker_id - 1) // self.arity

    def links(self) -> list[TreeLink]:
        """All parent-child overlay links with embedded latencies."""
        result = []
        for child in range(1, self.num_brokers):
            parent = self.parent_of(child)
            latency = self.topology.one_way_delay(
                self.placement[parent], self.placement[child]
            )
            result.append(TreeLink(parent, child, latency))
        return result

    def link_latency(self, a: int, b: int) -> float:
        """One-way latency between two overlay brokers."""
        return self.topology.one_way_delay(self.placement[a], self.placement[b])

    def depth(self) -> int:
        """Depth of the tree (root at 0): hops from the last broker up."""
        last = self.num_brokers - 1
        depth = 0
        while last > 0:
            last = (last - 1) // self.arity
            depth += 1
        return depth
