"""Covering-compression must never change delivery semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.routing.tokens import (
    TokenAuthority,
    grant_routing_filters,
    tokenize_event,
    tokenized_match,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree

RANGE = 64

_SUBSCRIPTIONS = st.lists(
    st.tuples(
        st.integers(0, RANGE - 1),   # low
        st.integers(0, RANGE - 1),   # high (swapped if needed)
        st.integers(0, 3),           # leaf choice
    ),
    min_size=1,
    max_size=10,
)

_EVENTS = st.lists(st.integers(-5, RANGE + 5), min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(subscriptions=_SUBSCRIPTIONS, values=_EVENTS)
def test_tree_delivery_equals_direct_matching(subscriptions, values):
    """Every subscriber gets exactly the events its filter matches.

    Whatever covering compression does to the internal routing tables,
    end-to-end delivery must coincide with direct filter evaluation.
    """
    tree = BrokerTree(num_brokers=7)
    leaves = tree.leaf_ids()
    inboxes = {}
    filters = {}
    for index, (low, high, leaf_choice) in enumerate(subscriptions):
        low, high = min(low, high), max(low, high)
        name = f"s{index}"
        inboxes[name] = []
        filters[name] = Filter.numeric_range("t", "v", low, high)
        tree.attach_subscriber(
            name, leaves[leaf_choice % len(leaves)],
            inboxes[name].append,
        )
        tree.subscribe(name, filters[name])

    events = [Event({"topic": "t", "v": value}) for value in values]
    for event in events:
        tree.publish(event)

    for name, subscription in filters.items():
        expected = [e["v"] for e in events if subscription.matches(e)]
        assert [e["v"] for e in inboxes[name]] == expected


@settings(max_examples=25, deadline=None)
@given(subscriptions=_SUBSCRIPTIONS, values=_EVENTS, drop=st.integers(0, 9))
def test_delivery_correct_after_unsubscription(subscriptions, values, drop):
    """Unsubscription mid-stream leaves everyone else's semantics intact."""
    tree = BrokerTree(num_brokers=7)
    leaves = tree.leaf_ids()
    inboxes = {}
    filters = {}
    for index, (low, high, leaf_choice) in enumerate(subscriptions):
        low, high = min(low, high), max(low, high)
        name = f"s{index}"
        inboxes[name] = []
        filters[name] = Filter.numeric_range("t", "v", low, high)
        tree.attach_subscriber(
            name, leaves[leaf_choice % len(leaves)],
            inboxes[name].append,
        )
        tree.subscribe(name, filters[name])

    dropped = f"s{drop % len(subscriptions)}"
    tree.unsubscribe(dropped, filters[dropped])

    events = [Event({"topic": "t", "v": value}) for value in values]
    for event in events:
        tree.publish(event)

    for name, subscription in filters.items():
        if name == dropped:
            assert inboxes[name] == []
        else:
            expected = [e["v"] for e in events if subscription.matches(e)]
            assert [e["v"] for e in inboxes[name]] == expected


@settings(max_examples=25, deadline=None)
@given(subscriptions=_SUBSCRIPTIONS)
def test_upstream_tables_are_minimal(subscriptions):
    """No forwarded filter is covered by another forwarded filter."""
    tree = BrokerTree(num_brokers=7)
    leaves = tree.leaf_ids()
    for index, (low, high, leaf_choice) in enumerate(subscriptions):
        low, high = min(low, high), max(low, high)
        name = f"s{index}"
        tree.attach_subscriber(
            name, leaves[leaf_choice % len(leaves)], lambda e: None
        )
        tree.subscribe(name, Filter.numeric_range("t", "v", low, high))

    for broker in tree.brokers.values():
        forwarded = broker.forwarded_upstream
        for first in forwarded:
            for second in forwarded:
                if first is second:
                    continue
                assert not (
                    first.covers(second) and first != second
                ), (first, second)


# -- the same two properties under churn, plaintext and tokenized ------------
#
# A leave withdraws forwarded filters and promotes what they covered; a
# re-join displaces them again.  Whatever sequence of those the tree has
# been through, delivery is direct matching and no broker forwards a
# filter another forwarded filter covers.

_MASTER_KEY = bytes(range(16))


class _PlaintextWorld:
    match = None  # BrokerTree's default: Filter.matches

    def filters(self, low, high):
        return [Filter.numeric_range("t", "v", low, high)]

    def event(self, value):
        return Event({"topic": "t", "v": value})


class _TokenizedWorld:
    """Routing filters as the KDC's grants imply them, events tokenized:
    brokers see pins and element tokens, never ``v``."""

    match = staticmethod(tokenized_match)

    def __init__(self):
        self.space = NumericKeySpace("v", RANGE)
        self.kdc = KDC(master_key=_MASTER_KEY)
        self.kdc.register_topic("t", CompositeKeySpace({"v": self.space}))
        self.authority = TokenAuthority(_MASTER_KEY)

    def filters(self, low, high):
        grant = self.kdc.authorize("s", Filter.numeric_range("t", "v", low, high))
        return grant_routing_filters(self.authority, grant)

    def event(self, value):
        return tokenize_event(
            self.authority,
            Event({"topic": "t", "n": value}),
            {"v": self.space.ktid(value)},
            "t",
        ).with_attributes(n=value)


_WORLDS = {"plaintext": _PlaintextWorld, "tokenized": _TokenizedWorld}
_CHURN = st.lists(
    st.tuples(st.sampled_from(["leave", "join"]), st.integers(0, 9)),
    min_size=2,
    max_size=16,
)


def _value_of(event):
    return event["v"] if "v" in event else event["n"]


def _assert_minimal(tree):
    for broker in tree.brokers.values():
        forwarded = broker.forwarded_upstream
        for first in forwarded:
            for second in forwarded:
                assert first is second or not first.covers(second), (
                    broker.broker_id, first, second,
                )


@pytest.mark.parametrize("world_name", sorted(_WORLDS))
@settings(max_examples=40, deadline=None)
@given(
    subscriptions=_SUBSCRIPTIONS,
    churn=_CHURN,
    values=st.lists(st.integers(0, RANGE - 1), min_size=1, max_size=8),
)
def test_delivery_and_minimality_hold_after_leaves_and_rejoins(
    world_name, subscriptions, churn, values
):
    world = _WORLDS[world_name]()
    tree = (
        BrokerTree(num_brokers=7)
        if world.match is None
        else BrokerTree(num_brokers=7, match=world.match)
    )
    leaves = tree.leaf_ids()
    inboxes, ranges, held = {}, {}, {}
    for index, (low, high, leaf_choice) in enumerate(subscriptions):
        name = f"s{index}"
        inboxes[name] = []
        ranges[name] = (min(low, high), max(low, high))
        held[name] = world.filters(*ranges[name])
        tree.attach_subscriber(
            name, leaves[leaf_choice % len(leaves)], inboxes[name].append
        )
        for subscription_filter in held[name]:
            tree.subscribe(name, subscription_filter)
    joined = set(inboxes)

    for action, who in churn:
        name = f"s{who % len(subscriptions)}"
        if action == "leave" and name in joined:
            joined.discard(name)
            for subscription_filter in held[name]:
                tree.unsubscribe(name, subscription_filter)
        elif action == "join" and name not in joined:
            joined.add(name)
            for subscription_filter in held[name]:
                tree.subscribe(name, subscription_filter)
        _assert_minimal(tree)

    for value in values:
        tree.publish(world.event(value))
    for name, (low, high) in ranges.items():
        expected = [
            value for value in values if name in joined and low <= value <= high
        ]
        assert [_value_of(event) for event in inboxes[name]] == expected
