"""Probabilistic multi-path event routing (Section 4.2).

For a token ``t`` published with frequency ``lambda_t``, the publisher
provisions ``ind_t = tau * lambda_t`` independent paths (capped at
``ind_max``) and routes each event over ONE path chosen uniformly at
random.  Every on-path node then observes the apparent frequency
``lambda_t / ind_t ~= 1/tau`` -- constant across tokens, so frequency
inference learns (nearly) nothing.  Routing cost is unchanged: each event
still traverses exactly one path.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.topology.multipath import MultipathNetwork, SubscriberId


def paths_for_frequency(
    frequency: float,
    tau: float,
    ind_max: int,
) -> int:
    """``ind_t = clamp(round(tau * lambda_t), 1, ind_max)``."""
    if frequency < 0:
        raise ValueError("frequencies must be non-negative")
    if ind_max < 1:
        raise ValueError("ind_max must be at least one")
    return max(1, min(ind_max, round(tau * frequency)))


def tau_for(
    frequencies: Mapping[object, float],
    design_paths: int = 10,
    saturate_quantile: float = 0.1,
) -> float:
    """Pick the system constant ``tau`` of ``ind_t = tau * lambda_t``.

    ``tau`` is a *design* constant, independent of the deployed cap
    ``ind_max``: it fixes the apparent per-path frequency ``1/tau`` that
    uncapped tokens present.  The calibration here asks the top
    *saturate_quantile* of tokens for *design_paths* paths, which
    reproduces the paper's Fig 8 observation that with ``ind_max = 10``
    only the ~12 most popular of 128 Zipf tokens use all ten paths while
    ~48 use fewer than two.
    """
    if not 0 < saturate_quantile <= 1:
        raise ValueError("saturate_quantile must be in (0, 1]")
    if design_paths < 1:
        raise ValueError("design_paths must be positive")
    positive = sorted(
        (f for f in frequencies.values() if f > 0), reverse=True
    )
    if not positive:
        raise ValueError("need at least one positive frequency")
    index = min(
        len(positive) - 1, max(0, math.ceil(saturate_quantile * len(positive)) - 1)
    )
    return design_paths / positive[index]


class ProbabilisticRouter:
    """Routes events over ``G_ind``, one uniformly chosen path per event."""

    def __init__(
        self,
        network: MultipathNetwork,
        frequencies: Mapping[Hashable, float],
        ind_max: int | None = None,
        tau: float | None = None,
        seed: int = 11,
        registry: MetricsRegistry | None = None,
    ):
        self.network = network
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_routes = self.registry.counter("multipath_routes_total")
        self._h_path_hops = self.registry.histogram("multipath_path_hops")
        self.frequencies = dict(frequencies)
        self.ind_max = ind_max if ind_max is not None else network.ind
        if self.ind_max > network.ind:
            raise ValueError(
                f"ind_max={self.ind_max} exceeds the network's ind="
                f"{network.ind}"
            )
        self.tau = tau if tau is not None else tau_for(self.frequencies)
        self.rng = random.Random(seed)
        self.paths_per_token = {
            token: paths_for_frequency(freq, self.tau, self.ind_max)
            for token, freq in self.frequencies.items()
        }

    def route(
        self, token: Hashable, subscriber: SubscriberId
    ) -> list[Hashable]:
        """One event's path to *subscriber*, chosen uniformly at random."""
        available = self.paths_per_token.get(token, 1)
        paths = self.network.independent_paths(subscriber, available)
        chosen = self.rng.choice(paths)
        self._c_routes.inc()
        self._h_path_hops.observe(len(chosen))
        return chosen

    def expected_apparent_frequency(self, token: Hashable) -> float:
        """``lambda_t / ind_t`` -- a single on-path node's expectation."""
        return self.frequencies[token] / self.paths_per_token[token]

    def construction_cost(self) -> float:
        """Route-setup cost for this token population (Fig 8 metric)."""
        return self.network.construction_cost(self.paths_per_token)

    def path_usage_histogram(self) -> dict[int, int]:
        """How many tokens use each path count (Fig 8's discussion)."""
        histogram: dict[int, int] = {}
        for paths in self.paths_per_token.values():
            histogram[paths] = histogram.get(paths, 0) + 1
        return histogram


def ideal_ind_max(frequencies: Mapping[object, float]) -> int:
    """``max_t lambda_t / min_t lambda_t`` (Section 5.2.2's ideal)."""
    positive = [f for f in frequencies.values() if f > 0]
    if not positive:
        raise ValueError("need at least one positive frequency")
    return max(1, math.ceil(max(positive) / min(positive)))
