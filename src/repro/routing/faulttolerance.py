"""Fault-tolerant parallel multi-path dissemination (Section 4.2.1).

The paper notes the multi-path overlay buys more than privacy: "one could
easily extend our probabilistic multi-path routing algorithm to route an
event on two or more independent paths (in parallel).  This would make
our event dissemination system more fault tolerant and resilient to
message dropping based denial of service (DoS) attacks by malicious
routing nodes."

``RedundantRouter`` implements that extension: each event travels over
``k`` of its token's ``ind_t`` independent paths simultaneously.  Because
the paths are node-disjoint (Theorem 4.2), an adversary must place a
dropper on *every* chosen path to suppress an event, so the per-event
loss probability against a random fraction ``f`` of dropping nodes falls
roughly like ``(1 - (1-f)^d)^k``.

``DroppingNetwork`` simulates that adversary and measures delivery rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.routing.multipath import ProbabilisticRouter
from repro.topology.multipath import MultipathNetwork, SubscriberId


class RedundantRouter(ProbabilisticRouter):
    """Multi-path routing with per-event path redundancy ``k``."""

    def __init__(
        self,
        network: MultipathNetwork,
        frequencies: Mapping[Hashable, float],
        redundancy: int = 2,
        ind_max: int | None = None,
        seed: int = 11,
        registry: MetricsRegistry | None = None,
    ):
        super().__init__(network, frequencies, ind_max=ind_max, seed=seed,
                         registry=registry)
        if redundancy < 1:
            raise ValueError("redundancy must be at least one path")
        if redundancy > network.ind:
            raise ValueError(
                f"redundancy {redundancy} exceeds the network's "
                f"ind={network.ind} independent paths"
            )
        self.redundancy = redundancy

    def route_redundant(
        self, token: Hashable, subscriber: SubscriberId
    ) -> list[list[Hashable]]:
        """The paths one event travels: ``min(k, ind_t)`` distinct choices.

        Paths are sampled without replacement from the token's available
        independent paths, so the copies never share an interior node.
        """
        available = self.paths_per_token.get(token, 1)
        paths = self.network.independent_paths(
            subscriber, max(available, self.redundancy)
        )
        count = min(self.redundancy, len(paths))
        return self.rng.sample(paths, count)

    def expected_apparent_frequency(self, token: Hashable) -> float:
        """Redundancy raises the per-node apparent rate to ``k/ind_t``.

        The privacy/fault-tolerance trade-off: each extra copy multiplies
        what any single on-path node observes.
        """
        base = super().expected_apparent_frequency(token)
        return base * min(
            self.redundancy, self.paths_per_token.get(token, 1)
        )


@dataclass
class DeliveryStats:
    """Outcome of a dissemination run under message-dropping nodes."""

    attempted: int = 0
    delivered: int = 0
    copies_sent: int = 0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def overhead(self) -> float:
        """Message copies per attempted delivery."""
        return self.copies_sent / self.attempted if self.attempted else 0.0


class DroppingNetwork:
    """A multi-path overlay where some routing nodes silently drop events.

    Models the DoS adversary the paper's extension defends against: a
    random fraction of interior nodes discard every event they should
    forward.  An event copy survives iff no interior node of its path is
    a dropper; the event is delivered iff any copy survives.
    """

    def __init__(
        self,
        network: MultipathNetwork,
        dropper_fraction: float,
        seed: int = 13,
    ):
        if not 0.0 <= dropper_fraction <= 1.0:
            raise ValueError("dropper fraction must be within [0, 1]")
        self.network = network
        rng = random.Random(seed)
        # Candidate droppers are the nodes that actually occupy interior
        # path positions.  (Selecting on ``len(node)`` would assume sized
        # node ids and breaks for plain int/str broker ids; iterating
        # ``network.brokers()`` keeps the seeded sampling order stable.)
        interior_positions = {
            node
            for subscriber in network.subscribers()
            for path in network.independent_paths(subscriber)
            for node in path[1:-1]
        }
        interior = [
            node for node in network.brokers() if node in interior_positions
        ]
        dropper_count = round(dropper_fraction * len(interior))
        self.droppers: set[Hashable] = set(
            rng.sample(interior, dropper_count)
        )

    def copy_survives(self, path: Iterable[Hashable]) -> bool:
        """Whether one event copy traverses *path* without being dropped."""
        nodes = list(path)
        return not any(node in self.droppers for node in nodes[1:-1])

    def run(
        self,
        router: RedundantRouter,
        events: int,
        seed: int = 17,
    ) -> DeliveryStats:
        """Publish *events* Zipf-sampled events to random subscribers."""
        rng = random.Random(seed)
        tokens = list(router.frequencies)
        weights = [router.frequencies[token] for token in tokens]
        subscribers = self.network.subscribers()
        stats = DeliveryStats()
        for _ in range(events):
            token = rng.choices(tokens, weights)[0]
            subscriber = rng.choice(subscribers)
            paths = router.route_redundant(token, subscriber)
            stats.attempted += 1
            stats.copies_sent += len(paths)
            if any(self.copy_survives(path) for path in paths):
                stats.delivered += 1
        return stats


def analytic_delivery_rate(
    dropper_fraction: float, path_interior_length: int, redundancy: int
) -> float:
    """Closed-form delivery probability for node-disjoint paths.

    One copy survives with probability ``(1-f)^d``; ``k`` disjoint copies
    fail together with probability ``(1 - (1-f)^d)^k``.
    """
    if not 0.0 <= dropper_fraction <= 1.0:
        raise ValueError("dropper fraction must be within [0, 1]")
    survive_one = (1.0 - dropper_fraction) ** path_interior_length
    return 1.0 - (1.0 - survive_one) ** redundancy
