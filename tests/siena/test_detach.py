"""Detaching a subscriber endpoint: the tree forgets it altogether."""

import gc
import tracemalloc

import pytest

from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


def test_detach_withdraws_remaining_filters_and_forgets_the_endpoint():
    tree = BrokerTree(num_brokers=7)
    leaf = tree.leaf_ids()[0]
    inbox = []
    tree.attach_subscriber("s", leaf, inbox.append)
    tree.subscribe("s", Filter.topic("news"))
    tree.subscribe("s", Filter.topic("sport"))
    tree.unsubscribe("s", Filter.topic("sport"))

    tree.detach_subscriber("s")

    assert "s" not in tree.brokers[leaf].clients
    assert "s" not in tree._subscriber_home
    assert "s" not in tree._client_filters
    # "news" was still held: withdrawn here and all the way up.
    assert all(
        broker.subscription_count() == 0 and not broker.forwarded_upstream
        for broker in tree.brokers.values()
    )
    tree.reset_stats()
    tree.publish(Event({"topic": "news"}))
    assert inbox == [] and tree.message_count == 0


def test_detached_id_can_attach_again():
    tree = BrokerTree(num_brokers=3)
    first, second = [], []
    tree.attach_subscriber("s", tree.leaf_ids()[0], first.append)
    tree.subscribe("s", Filter.topic("t"))
    tree.detach_subscriber("s")
    tree.attach_subscriber("s", tree.leaf_ids()[1], second.append)
    tree.subscribe("s", Filter.topic("t"))
    tree.publish(Event({"topic": "t"}))
    assert first == [] and len(second) == 1


def test_detaching_an_unknown_id_raises_like_subscribe():
    tree = BrokerTree(num_brokers=3)
    with pytest.raises(KeyError):
        tree.subscribe("ghost", Filter.topic("t"))
    with pytest.raises(KeyError):
        tree.detach_subscriber("ghost")
    with pytest.raises(KeyError):
        Broker("b").detach_client("ghost")
    tree.attach_subscriber("s", tree.leaf_ids()[0], lambda event: None)
    tree.detach_subscriber("s")
    with pytest.raises(KeyError):
        tree.detach_subscriber("s")


def test_last_unsubscribe_leaves_no_empty_filter_list_and_does_not_detach():
    tree = BrokerTree(num_brokers=3)
    tree.attach_subscriber("s", tree.leaf_ids()[0], lambda event: None)
    tree.subscribe("s", Filter.topic("t"))
    tree.unsubscribe("s", Filter.topic("t"))
    assert "s" not in tree._client_filters
    assert "s" in tree._subscriber_home       # may subscribe again
    tree.unsubscribe("s", Filter.topic("t"))  # and a second one is a no-op


def test_join_leave_detach_cycles_keep_the_tree_at_its_resident_size():
    """2,000 principals pass through a 7-broker tree that holds four
    residents; what the tree retains does not grow with how many left."""
    tree = BrokerTree(num_brokers=7)
    leaves = tree.leaf_ids()
    for slot in range(4):
        tree.attach_subscriber(f"R{slot}", leaves[slot], lambda event: None)
        tree.subscribe(f"R{slot}", Filter.numeric_range("t", "v", slot, 9))

    def cycle(index):
        name = f"J{index}"
        held = [
            Filter.numeric_range("t", "v", index % 7, 7 + index % 3),
            Filter.topic(f"topic-{index % 5}"),
        ]
        tree.attach_subscriber(name, leaves[index % 4], [].append)
        for subscription_filter in held:
            tree.subscribe(name, subscription_filter)
        for subscription_filter in held:
            tree.unsubscribe(name, subscription_filter)
        tree.detach_subscriber(name)

    def tables():
        return {
            broker_id: (set(broker.subscriptions), broker.forwarded_upstream)
            for broker_id, broker in tree.brokers.items()
        }

    resident_tables = tables()
    for index in range(200):                  # reach the steady state
        cycle(index)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for index in range(200, 2200):
        cycle(index)
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    assert sum(len(broker.clients) for broker in tree.brokers.values()) == 4
    assert len(tree._subscriber_home) == 4
    assert set(tree._client_filters) == {f"R{slot}" for slot in range(4)}
    assert tables() == resident_tables
    grown = sum(
        difference.size_diff
        for difference in after.compare_to(before, "filename")
    )
    # An endpoint left attached costs over a kilobyte (its callable, its
    # home, its table rows); 2,000 of them would be megabytes.
    assert grown < 64 * 1024, grown
