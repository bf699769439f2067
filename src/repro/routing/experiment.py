"""The secure-routing experiments of Section 5.2.2 (Figures 6-8).

Simulates probabilistic multi-path event dissemination over a token
population with Zipf frequencies and Zipf-chosen subscriber interest sets,
then measures the apparent entropy curious routing nodes achieve:

- **non-collusive** (Fig 6): every node analyses only its own flows;
  ``S_app`` is the mean per-node entropy, swept over ``ind_max``;
- **collusive** (Fig 7): a random fraction of nodes pools distinct-event
  observations, swept over the colluding fraction at ``ind = 2``;
- **construction cost** (Fig 8): route-setup cost of ``G_ind`` for the
  same token population, normalized to ``ind_max = 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.routing.entropy import entropy_bits, max_entropy_bits
from repro.routing.multipath import ProbabilisticRouter
from repro.routing.observer import CoalitionObserver, NodeObserver
from repro.topology.multipath import MultipathNetwork
from repro.workloads.zipf import ZipfSampler, zipf_weights


#: The paper's overlay (depth 2, arity 5) and token popularity.
_DEPTH = 2
_ARITY = 5
_ZIPF_EXPONENT = 1.0


@dataclass
class RoutingExperimentConfig:
    """Parameters shared by the Fig 6-8 experiments (paper defaults)."""

    num_tokens: int = 128
    tokens_per_subscriber: int = 32
    events: int = 20000
    seed: int = 23


@dataclass
class RoutingExperimentResult:
    """Entropies measured by one simulation run."""

    ind_max: int
    s_max: float
    s_act: float
    s_app: float
    observer: NodeObserver = field(repr=False)
    router: ProbabilisticRouter = field(repr=False)
    subscriber_sets: dict[object, list[object]] = field(repr=False)


def _setup(
    config: RoutingExperimentConfig, ind_max: int
) -> tuple[MultipathNetwork, ProbabilisticRouter, list, dict, random.Random]:
    if ind_max > _ARITY:
        raise ValueError(
            f"ind_max={ind_max} needs arity >= ind_max (got {_ARITY})"
        )
    rng = random.Random(config.seed)
    network = MultipathNetwork(
        _DEPTH, _ARITY, ind=max(2, ind_max)
    )
    tokens = [f"token-{i}" for i in range(config.num_tokens)]
    frequencies = dict(
        zip(tokens, zipf_weights(config.num_tokens, _ZIPF_EXPONENT))
    )
    router = ProbabilisticRouter(
        network, frequencies, ind_max=ind_max, seed=config.seed + 1
    )
    sampler = ZipfSampler(tokens, _ZIPF_EXPONENT, rng)
    interest: dict[object, list[object]] = {}
    for subscriber in network.subscribers():
        interest[subscriber] = sampler.sample_distinct(
            min(config.tokens_per_subscriber, config.num_tokens)
        )
    subscribers_of: dict[object, list] = {token: [] for token in tokens}
    for subscriber, chosen in interest.items():
        for token in chosen:
            subscribers_of[token].append(subscriber)
    return network, router, tokens, subscribers_of, rng


def run_dissemination(
    config: RoutingExperimentConfig, ind_max: int
) -> RoutingExperimentResult:
    """Publish ``config.events`` events and record node observations."""
    network, router, tokens, subscribers_of, rng = _setup(config, ind_max)
    sampler = ZipfSampler(tokens, _ZIPF_EXPONENT, rng)
    observer = NodeObserver()
    actual_counts: dict[object, int] = {token: 0 for token in tokens}

    for event_id in range(config.events):
        token = sampler.sample()
        actual_counts[token] += 1
        observer.note_event()
        for subscriber in subscribers_of[token]:
            path = router.route(token, subscriber)
            observer.observe_path(path, token, event_id, flow=subscriber)

    s_act = entropy_bits(
        {token: count for token, count in actual_counts.items() if count}
    )
    return RoutingExperimentResult(
        ind_max=ind_max,
        s_max=max_entropy_bits(config.num_tokens),
        s_act=s_act,
        s_app=observer.system_apparent_entropy(),
        observer=observer,
        router=router,
        subscriber_sets=subscribers_of,
    )


def sweep_ind_max(
    config: RoutingExperimentConfig | None = None,
    ind_values: list[int] | None = None,
) -> list[RoutingExperimentResult]:
    """Figure 6: apparent entropy vs. maximum independent paths."""
    config = config or RoutingExperimentConfig()
    ind_values = ind_values or [1, 2, 3, 4, 5]
    return [run_dissemination(config, ind) for ind in ind_values]


def sweep_collusion(
    config: RoutingExperimentConfig | None = None,
    fractions: list[float] | None = None,
    ind_max: int = 5,
    samples: int = 5,
) -> list[tuple[float, float, RoutingExperimentResult]]:
    """Figure 7: coalition entropy vs. fraction of colluding nodes.

    Returns ``(fraction, coalition_entropy, result)`` triples.  The
    dissemination run is shared across fractions; each fraction's entropy
    is averaged over *samples* random coalitions.
    """
    config = config or RoutingExperimentConfig()
    fractions = fractions or [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    result = run_dissemination(config, ind_max)
    rng = random.Random(config.seed + 2)
    nodes = sorted(result.observer.observing_nodes())
    rows = []
    for fraction in fractions:
        if fraction <= 0:
            rows.append((fraction, result.s_app, result))
            continue
        entropies = []
        for _ in range(samples):
            size = max(1, round(fraction * len(nodes)))
            coalition = rng.sample(nodes, size)
            entropies.append(
                CoalitionObserver(result.observer, coalition).entropy()
            )
        rows.append((fraction, sum(entropies) / len(entropies), result))
    return rows


def construction_cost_curve(
    config: RoutingExperimentConfig | None = None,
    ind_values: list[int] | None = None,
) -> list[tuple[int, float]]:
    """Figure 8: normalized route-setup cost vs. ``ind_max``.

    Cost of ``ind_max = 1`` normalizes the curve; saturation appears
    because only the most frequent tokens qualify for many paths.
    """
    config = config or RoutingExperimentConfig()
    ind_values = ind_values or list(range(1, 11))
    tokens = [f"token-{i}" for i in range(config.num_tokens)]
    frequencies = dict(
        zip(tokens, zipf_weights(config.num_tokens, _ZIPF_EXPONENT))
    )
    rows = []
    baseline = None
    for ind_max in ind_values:
        arity = max(_ARITY, ind_max)
        network = MultipathNetwork(_DEPTH, arity, ind=max(2, ind_max))
        router = ProbabilisticRouter(network, frequencies, ind_max=ind_max)
        cost = router.construction_cost()
        if baseline is None:
            baseline = cost
        rows.append((ind_max, cost / baseline))
    return rows
