"""Broker subscription handling, covering suppression, event routing."""

from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Filter


def _collecting_sender(log):
    def send(kind, payload):
        log.append((kind, payload))

    return send


def test_subscription_registers_filter():
    broker = Broker("b")
    broker.subscribe("client", Filter.topic("news"))
    assert broker.subscription_count() == 1
    assert broker.filters_for("client") == [Filter.topic("news")]


def test_duplicate_filter_shares_entry():
    broker = Broker("b")
    broker.subscribe("c1", Filter.topic("news"))
    broker.subscribe("c2", Filter.topic("news"))
    assert broker.subscription_count() == 1


def test_subscription_forwarded_upstream():
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", _collecting_sender(upstream))
    broker.subscribe("c", Filter.topic("news"))
    assert upstream == [("subscribe", Filter.topic("news"))]


def test_covered_subscription_not_forwarded():
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", _collecting_sender(upstream))
    broker.subscribe("c1", Filter.numeric_range("t", "age", 0, 100))
    broker.subscribe("c2", Filter.numeric_range("t", "age", 20, 30))
    forwarded = [payload for kind, payload in upstream if kind == "subscribe"]
    assert forwarded == [Filter.numeric_range("t", "age", 0, 100)]


def test_wider_subscription_replaces_forwarded():
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", _collecting_sender(upstream))
    broker.subscribe("c1", Filter.numeric_range("t", "age", 20, 30))
    broker.subscribe("c2", Filter.numeric_range("t", "age", 0, 100))
    assert len(broker.forwarded_upstream) == 1
    assert broker.forwarded_upstream[0] == Filter.numeric_range(
        "t", "age", 0, 100
    )


def test_event_delivered_to_matching_client():
    received = []
    broker = Broker("b")
    broker.attach_client("c", received.append)
    broker.subscribe("c", Filter.topic("news"))
    broker.publish(Event({"topic": "news"}))
    assert len(received) == 1


def test_event_not_delivered_to_non_matching_client():
    received = []
    broker = Broker("b")
    broker.attach_client("c", received.append)
    broker.subscribe("c", Filter.topic("sports"))
    broker.publish(Event({"topic": "news"}))
    assert received == []


def test_event_forwarded_to_matching_child_only():
    child_messages = {"x": [], "y": []}
    broker = Broker("b")
    broker.attach_child("x", _collecting_sender(child_messages["x"]))
    broker.attach_child("y", _collecting_sender(child_messages["y"]))
    broker.subscribe("x", Filter.topic("news"))
    broker.subscribe("y", Filter.topic("sports"))
    broker.publish(Event({"topic": "news"}))
    assert len(child_messages["x"]) == 1
    assert child_messages["y"] == []


def test_event_always_forwarded_to_parent():
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", _collecting_sender(upstream))
    broker.publish(Event({"topic": "whatever"}))
    assert [kind for kind, _ in upstream] == ["publish"]


def test_event_from_parent_not_echoed_back():
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", _collecting_sender(upstream))
    broker.publish(Event({"topic": "t"}), arrived_from="p")
    assert upstream == []


def test_event_not_sent_back_to_arrival_interface():
    child_log = []
    broker = Broker("b")
    broker.attach_child("x", _collecting_sender(child_log))
    broker.subscribe("x", Filter.topic("news"))
    broker.publish(Event({"topic": "news"}), arrived_from="x")
    assert child_log == []


def test_duplicate_matching_filters_deliver_once():
    received = []
    broker = Broker("b")
    broker.attach_client("c", received.append)
    broker.subscribe("c", Filter.topic("news"))
    broker.subscribe("c", Filter.of(*Filter.topic("news").constraints))
    broker.publish(Event({"topic": "news"}))
    assert len(received) == 1


def test_unsubscribe_removes_interface():
    broker = Broker("b")
    broker.subscribe("c", Filter.topic("news"))
    broker.unsubscribe("c", Filter.topic("news"))
    assert broker.subscription_count() == 0


def test_unsubscribe_keeps_other_interfaces():
    broker = Broker("b")
    broker.subscribe("c1", Filter.topic("news"))
    broker.subscribe("c2", Filter.topic("news"))
    broker.unsubscribe("c1", Filter.topic("news"))
    assert broker.subscription_count() == 1
    assert broker.filters_for("c2") == [Filter.topic("news")]


def test_stats_track_activity():
    broker = Broker("b")
    received = []
    broker.attach_client("c", received.append)
    broker.subscribe("c", Filter.topic("news"))
    broker.publish(Event({"topic": "news"}))
    assert broker.stats.subscriptions_received == 1
    assert broker.stats.events_received == 1
    assert broker.stats.deliveries == 1
    assert broker.stats.match_tests >= 1
    broker.stats.reset()
    assert broker.stats.events_received == 0


def test_custom_match_predicate():
    broker = Broker("b", match=lambda _f, _e: True)
    received = []
    broker.attach_client("c", received.append)
    broker.subscribe("c", Filter.topic("never-published"))
    broker.publish(Event({"topic": "anything"}))
    assert len(received) == 1


def test_publish_of_one_event_returns_the_fanout():
    broker = Broker("b")
    got = []
    broker.attach_client("s", got.append)
    broker.subscribe("s", Filter.topic("news"))
    assert broker.publish(Event({"topic": "news"})) == 1
    assert len(got) == 1
