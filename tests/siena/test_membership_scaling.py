"""What one leave and one re-join cost the routing plane, in ``covers()``
calls, at the population of the ``inproc-match`` workload.

Counted, not timed: the counts repeat exactly.  The full covering scan
this replaced made more than 800,000 calls for one leave at 64
subscribers (and 8,000-13,000 for the re-join); the budget below is the
same at 16 and at 64 subscribers, which a cost that grew with the square
of the table would not meet.
"""

import pytest

from repro.routing.tokens import (
    TokenAuthority,
    grant_routing_filters,
    tokenized_match,
)
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree
from repro.workloads import PaperWorkload, WorkloadConfig

MASTER_KEY = bytes(range(16))
BUDGET = 5_000


def _population(num_subscribers):
    """``inproc-match``: 8 of 32 topics each (least count 1, as its
    fixture draws them), routed on what the KDC granted."""
    workload = PaperWorkload(
        WorkloadConfig(
            num_topics=32, topics_per_subscriber=8, numeric_least_count=1
        )
    )
    kdc = workload.build_kdc(master_key=MASTER_KEY)
    authority = TokenAuthority(MASTER_KEY)
    population = {}
    for slot in range(num_subscribers):
        name = f"S{slot}"
        population[name] = [
            routing_filter
            for subscription in workload.subscriptions_for(name)
            for routing_filter in grant_routing_filters(
                authority, kdc.authorize(name, subscription.filter)
            )
        ]
    return population


@pytest.mark.parametrize("num_subscribers", [16, 64])
def test_a_leave_and_a_rejoin_cost_the_same_at_16_and_64_subscribers(
    num_subscribers, monkeypatch
):
    tree = BrokerTree(15, arity=2, match=tokenized_match)
    leaves = tree.leaf_ids()
    population = _population(num_subscribers)
    for slot, (name, filters) in enumerate(population.items()):
        tree.attach_subscriber(name, leaves[slot % len(leaves)], lambda e: None)
        for routing_filter in filters:
            tree.subscribe(name, routing_filter)
    if num_subscribers == 64:
        assert tree.root.subscription_count() > 400

    calls = 0
    covers = Filter.covers

    def counting_covers(self, other):
        nonlocal calls
        calls += 1
        return covers(self, other)

    monkeypatch.setattr(Filter, "covers", counting_covers)
    for name in ("S0", "S7", f"S{num_subscribers - 1}"):
        filters = population[name]
        assert 8 <= len(filters) <= 40
        before = {
            broker_id: broker.forwarded_upstream
            for broker_id, broker in tree.brokers.items()
        }
        calls = 0
        for routing_filter in filters:
            tree.unsubscribe(name, routing_filter)
        assert calls < BUDGET, (name, calls)
        calls = 0
        for routing_filter in filters:
            tree.subscribe(name, routing_filter)
        assert calls < BUDGET, (name, calls)
        # Back where it was: same filters forwarded at every broker.
        for broker_id, broker in tree.brokers.items():
            assert set(broker.forwarded_upstream) == set(before[broker_id])
