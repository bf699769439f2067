"""Hierarchical broker overlay: topology, dissemination, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


def _tree_with_subscribers(num_brokers, topics_by_subscriber):
    tree = BrokerTree(num_brokers=num_brokers)
    received = {name: [] for name in topics_by_subscriber}
    leaves = tree.leaf_ids()
    for index, (name, topics) in enumerate(topics_by_subscriber.items()):
        tree.attach_subscriber(
            name,
            leaves[index % len(leaves)],
            lambda event, name=name: received[name].append(event),
        )
        for topic in topics:
            tree.subscribe(name, Filter.topic(topic))
    return tree, received


def test_rejects_zero_brokers():
    with pytest.raises(ValueError):
        BrokerTree(num_brokers=0)


def test_rejects_bad_arity():
    with pytest.raises(ValueError):
        BrokerTree(num_brokers=3, arity=0)


def test_single_broker_tree_depth():
    assert BrokerTree(num_brokers=1).depth() == 0
    assert BrokerTree(num_brokers=1).leaf_ids() == [0]


def test_complete_binary_tree_shape():
    tree = BrokerTree(num_brokers=7)
    assert tree.depth() == 2
    assert tree.leaf_ids() == [3, 4, 5, 6]


def test_event_reaches_only_matching_subscribers():
    tree, received = _tree_with_subscribers(
        7, {"alice": ["news"], "bob": ["sports"]}
    )
    tree.publish(Event({"topic": "news"}))
    assert len(received["alice"]) == 1
    assert received["bob"] == []


def test_event_reaches_all_matching_subscribers():
    tree, received = _tree_with_subscribers(
        7, {f"s{i}": ["news"] for i in range(8)}
    )
    tree.publish(Event({"topic": "news"}))
    assert all(len(events) == 1 for events in received.values())
    assert tree.total_deliveries() == 8


def test_duplicate_subscriber_attachment_rejected():
    tree = BrokerTree(num_brokers=3)
    tree.attach_subscriber("s", 1, lambda e: None)
    with pytest.raises(ValueError):
        tree.attach_subscriber("s", 2, lambda e: None)


def test_subscribe_requires_attachment():
    tree = BrokerTree(num_brokers=3)
    with pytest.raises(KeyError):
        tree.subscribe("ghost", Filter.topic("t"))


def test_unsubscribe_stops_delivery():
    tree, received = _tree_with_subscribers(3, {"s": ["news"]})
    tree.unsubscribe("s", Filter.topic("news"))
    tree.publish(Event({"topic": "news"}))
    assert received["s"] == []


def test_range_subscriptions_route_correctly():
    tree = BrokerTree(num_brokers=7)
    received = []
    tree.attach_subscriber("s", 3, received.append)
    tree.subscribe("s", Filter.numeric_range("stock", "price", 10, 20))
    tree.publish(Event({"topic": "stock", "price": 15}))
    tree.publish(Event({"topic": "stock", "price": 25}))
    assert [event["price"] for event in received] == [15]


def test_message_count_grows_with_tree_depth():
    shallow, _ = _tree_with_subscribers(3, {"s": ["news"]})
    deep, _ = _tree_with_subscribers(31, {"s": ["news"]})
    shallow.reset_stats()
    deep.reset_stats()
    shallow.publish(Event({"topic": "news"}))
    deep.publish(Event({"topic": "news"}))
    assert deep.message_count > shallow.message_count


def test_non_matching_event_not_flooded():
    tree, _ = _tree_with_subscribers(7, {"s": ["news"]})
    tree.reset_stats()
    tree.publish(Event({"topic": "nobody-wants-this"}))
    assert tree.message_count == 0
    assert tree.total_deliveries() == 0


def test_reset_stats():
    tree, _ = _tree_with_subscribers(3, {"s": ["news"]})
    tree.publish(Event({"topic": "news"}))
    tree.reset_stats()
    assert tree.message_count == 0
    assert tree.total_deliveries() == 0


@settings(max_examples=25, deadline=None)
@given(
    num_brokers=st.integers(1, 31),
    arity=st.integers(2, 4),
    subscriber_count=st.integers(1, 8),
)
def test_every_matching_subscriber_gets_every_event(
    num_brokers, arity, subscriber_count
):
    """Delivery completeness holds for arbitrary tree shapes."""
    tree = BrokerTree(num_brokers=num_brokers, arity=arity)
    leaves = tree.leaf_ids()
    counters = []
    for index in range(subscriber_count):
        events = []
        counters.append(events)
        tree.attach_subscriber(
            f"s{index}", leaves[index % len(leaves)], events.append
        )
        tree.subscribe(f"s{index}", Filter.topic("t"))
    tree.publish(Event({"topic": "t", "n": 1}))
    assert all(len(events) == 1 for events in counters)
