"""Secure content-based event routing (Section 4).

- :mod:`repro.routing.tokens` -- tokenization of routable attributes via
  the Song-Wagner-Perrig scheme, so semi-honest brokers can match events
  against subscriptions without learning attribute values;
- :mod:`repro.routing.multipath` -- probabilistic multi-path event routing:
  ``ind_t = tau * lambda_t`` independent paths per token flatten the
  apparent token-frequency distribution;
- :mod:`repro.routing.entropy` -- the entropy metrics ``S_act``, ``S_app``,
  ``S_max`` of Section 4.2;
- :mod:`repro.routing.observer` -- per-node and coalition frequency
  observations (collusive and non-collusive settings);
- :mod:`repro.routing.attacks` -- the frequency-inference attack used to
  quantify leakage.
"""

from repro.routing.entropy import entropy_bits, max_entropy_bits, normalize
from repro.routing.faulttolerance import DroppingNetwork, RedundantRouter
from repro.routing.mix import BatchingMix, timing_linkage_attack
from repro.routing.multipath import ProbabilisticRouter, paths_for_frequency
from repro.routing.observer import CoalitionObserver, NodeObserver
from repro.routing.tokens import (
    RoutableToken,
    TokenAuthority,
    TokenProbe,
    grant_routing_filters,
    tokenize_event,
    tokenized_match,
    tokenized_subscription,
)

__all__ = [
    "BatchingMix",
    "CoalitionObserver",
    "DroppingNetwork",
    "NodeObserver",
    "ProbabilisticRouter",
    "RedundantRouter",
    "RoutableToken",
    "TokenAuthority",
    "TokenProbe",
    "entropy_bits",
    "grant_routing_filters",
    "max_entropy_bits",
    "normalize",
    "paths_for_frequency",
    "timing_linkage_attack",
    "tokenize_event",
    "tokenized_match",
    "tokenized_subscription",
]
