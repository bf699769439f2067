"""Broker crash/restart lifecycle and subscription replay."""

from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


def test_crashed_broker_drops_everything():
    broker = Broker("b")
    broker.crash()
    assert not broker.alive
    broker.subscribe("client", Filter.topic("t"))
    assert broker.subscription_count() == 0
    assert broker.publish(Event({"topic": "t"})) == 0
    assert broker.stats.dropped_while_down == 2
    assert broker.stats.events_received == 0


def test_restart_clears_volatile_state_and_bumps_incarnation():
    broker = Broker("b")
    broker.subscribe("client", Filter.topic("t"))
    assert broker.subscription_count() == 1
    broker.crash()
    broker.restart()
    assert broker.alive
    assert broker.incarnation == 1
    assert broker.subscription_count() == 0
    assert broker.forwarded_upstream == []
    # The pre-crash filter is gone from the rebuilt table: only a
    # post-restart subscription matches.
    broker.subscribe("client", Filter.topic("u"))
    assert broker.publish(Event({"topic": "t"})) == 0
    assert broker.publish(Event({"topic": "u"})) == 1


def test_replay_upstream_reannounces_forwarded_filters():
    parent = Broker("p")
    child = Broker("c")
    sent = []
    child.attach_parent("p", lambda kind, payload: sent.append(
        (kind, payload)
    ))
    child.subscribe("client", Filter.topic("t"))
    assert sent == [("subscribe", Filter.topic("t"))]
    replayed = child.replay_upstream()
    assert replayed == 1
    assert sent == [("subscribe", Filter.topic("t"))] * 2
    assert parent.alive  # unrelated broker untouched


def test_broker_tree_restart_recovers_routing():
    tree = BrokerTree(num_brokers=7)
    received = []
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, received.append)
    tree.subscribe("s", Filter.topic("news"))

    assert tree.publish(Event({"topic": "news"})) >= 1
    assert len(received) == 1

    # Crash the interior broker on the path; deliveries stop.
    tree.crash_broker(1)
    tree.publish(Event({"topic": "news"}))
    assert len(received) == 1
    assert tree.brokers[1].stats.dropped_while_down > 0

    # Restart without the recovery protocol: the subtree stays dark.
    tree.restart_broker(1, replay=False)
    tree.publish(Event({"topic": "news"}))
    assert len(received) == 1

    # The recovery protocol replays the children's filter tables.
    tree.restart_broker(1)
    tree.publish(Event({"topic": "news"}))
    assert len(received) == 2


def test_broker_tree_restart_replays_client_subscriptions():
    tree = BrokerTree(num_brokers=3)
    received = []
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, received.append)
    tree.subscribe("s", Filter.topic("news"))
    tree.crash_broker(leaf)
    tree.restart_broker(leaf)
    tree.publish(Event({"topic": "news"}))
    assert len(received) == 1


def test_broker_tree_unsubscribe_not_replayed():
    tree = BrokerTree(num_brokers=3)
    received = []
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, received.append)
    tree.subscribe("s", Filter.topic("news"))
    tree.unsubscribe("s", Filter.topic("news"))
    tree.crash_broker(leaf)
    tree.restart_broker(leaf)
    tree.publish(Event({"topic": "news"}))
    assert received == []


def test_resubscribed_then_withdrawn_filter_not_replayed():
    """Subscribing the same filter twice is one subscription: a single
    unsubscribe withdraws it, and a restart must not bring it back."""
    tree = BrokerTree(num_brokers=3)
    received = []
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, received.append)
    tree.subscribe("s", Filter.topic("news"))
    tree.subscribe("s", Filter.topic("news"))
    tree.unsubscribe("s", Filter.topic("news"))
    tree.publish(Event({"topic": "news"}))
    assert received == []
    tree.crash_broker(leaf)
    tree.restart_broker(leaf)
    tree.publish(Event({"topic": "news"}))
    assert received == []
