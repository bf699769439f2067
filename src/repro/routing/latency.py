"""Latency accounting for multi-path dissemination.

The paper claims probabilistic multi-path routing "adds no additional
messaging cost or latency" (Section 7): every independent path of
Theorem 4.2 has exactly the tree's depth, and each event still travels
exactly one path.  This module embeds ``G_ind`` onto a transit-stub
topology and measures per-event end-to-end latency, so the claim becomes
a measurement instead of an assertion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.routing.multipath import ProbabilisticRouter
from repro.topology.multipath import MultipathNetwork
from repro.topology.transit_stub import TransitStubTopology


@dataclass(frozen=True)
class LatencyStats:
    """Per-event latency statistics for one routing configuration."""

    mean: float
    minimum: float
    maximum: float
    samples: int


#: Seconds of broker processing added at every overlay hop.
_PER_HOP_PROCESSING = 0.0002


class EmbeddedMultipathNetwork:
    """``G_ind`` with every overlay node placed on an Internet topology."""

    def __init__(self, network: MultipathNetwork, seed: int = 7):
        self.network = network
        self.topology = TransitStubTopology(seed=seed)
        nodes = list(network.brokers()) + list(network.subscribers())
        placement_points = self.topology.sample_overlay(len(nodes))
        self.placement: dict[Hashable, int] = dict(
            zip(nodes, placement_points)
        )

    def path_latency(self, path: list[Hashable]) -> float:
        """One-way latency along an overlay path (links + processing)."""
        total = 0.0
        for source, target in zip(path, path[1:]):
            total += self.topology.one_way_delay(
                self.placement[source], self.placement[target]
            )
            total += _PER_HOP_PROCESSING
        return total

    def measure(
        self,
        router: ProbabilisticRouter,
        events: int = 2000,
        seed: int = 19,
    ) -> LatencyStats:
        """Route *events* and collect end-to-end latency statistics."""
        rng = random.Random(seed)
        tokens = list(router.frequencies)
        weights = [router.frequencies[token] for token in tokens]
        subscribers = self.network.subscribers()
        latencies = []
        for _ in range(events):
            token = rng.choices(tokens, weights)[0]
            subscriber = rng.choice(subscribers)
            path = router.route(token, subscriber)
            latencies.append(self.path_latency(path))
        return LatencyStats(
            mean=sum(latencies) / len(latencies),
            minimum=min(latencies),
            maximum=max(latencies),
            samples=len(latencies),
        )


def compare_latency_across_ind(
    frequencies: Mapping[Hashable, float],
    ind_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    depth: int = 2,
    arity: int = 5,
    events: int = 2000,
    seed: int = 7,
) -> dict[int, LatencyStats]:
    """Mean event latency for each ``ind_max`` over the same embedding.

    All configurations share one node placement, so differences come only
    from which (equal-length) paths events take.
    """
    network = MultipathNetwork(depth=depth, arity=arity,
                               ind=max(2, max(ind_values)))
    embedded = EmbeddedMultipathNetwork(network, seed=seed)
    results = {}
    for ind_max in ind_values:
        router = ProbabilisticRouter(
            network, dict(frequencies), ind_max=ind_max, seed=seed + ind_max
        )
        results[ind_max] = embedded.measure(router, events=events, seed=seed)
    return results
