"""Batched dissemination through brokers and trees is semantics-preserving."""

from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import (
    TokenAuthority,
    tokenize_event,
    tokenized_match,
    tokenized_subscription,
)
from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.index import MatchResultCache
from repro.siena.network import BrokerTree

MASTER = bytes(range(16))


def _events(count, topic="news"):
    return [Event({"topic": topic, "n": n}) for n in range(count)]


def _subscribed_broker():
    broker = Broker("b")
    got = []
    broker.attach_client("s", got.append)
    broker.subscribe("s", Filter.topic("news"))
    return broker, got


def test_publish_of_one_event_returns_the_fanout():
    broker, got = _subscribed_broker()
    assert broker.publish(Event({"topic": "news"})) == 1
    assert len(got) == 1


def test_publish_of_a_batch_counts_interfaces_not_deliveries():
    broker, got = _subscribed_broker()
    assert broker.publish(_events(3)) == 1
    assert broker.stats.deliveries == 3
    assert [e.get("n") for e in got] == [0, 1, 2]


def test_batch_deliveries_match_sequential_publishes():
    results = []
    for batched in (False, True):
        tree = BrokerTree(num_brokers=7)
        streams = {}
        for index, leaf in enumerate(tree.leaf_ids()):
            streams[leaf] = []
            tree.attach_subscriber(f"s{index}", leaf, streams[leaf].append)
            tree.subscribe(f"s{index}", Filter.topic("news"))
        events = _events(5) + [Event({"topic": "other"})]
        if batched:
            tree.publish(events)
        else:
            for event in events:
                tree.publish(event)
        results.append(streams)
    assert results[0] == results[1]


def test_batch_transports_one_message_per_hop():
    tree_single = BrokerTree(num_brokers=7)
    tree_batched = BrokerTree(num_brokers=7)
    for tree in (tree_single, tree_batched):
        leaf = tree.leaf_ids()[0]
        tree.attach_subscriber("s", leaf, lambda _e: None)
        tree.subscribe("s", Filter.topic("news"))
    events = _events(10)
    for event in events:
        tree_single.publish(event)
    tree_batched.publish(events)
    assert tree_batched.message_count < tree_single.message_count
    root = tree_batched.root
    assert root.stats.batches_received == 1
    assert root.stats.events_received == 10


def test_dead_broker_drops_whole_batch():
    broker = Broker("b")
    broker.crash()
    assert broker.publish(_events(4)) == 0
    assert broker.stats.dropped_while_down == 4


def test_batch_does_not_return_to_sender():
    """A batch arriving from the parent must not be forwarded back up."""
    upstream = []
    broker = Broker("b")
    broker.attach_parent("p", lambda kind, payload: upstream.append(kind))
    broker.publish(_events(3), arrived_from="p")
    assert upstream == []


def test_group_prefilter_preserves_tokenized_semantics():
    authority = TokenAuthority(MASTER)
    results = []
    for with_cache in (False, True):
        cache = MatchResultCache() if with_cache else None
        tree = BrokerTree(
            num_brokers=7, match=tokenized_match, match_cache=cache
        )
        streams = {}
        for index, (leaf, topic) in enumerate(
            zip(tree.leaf_ids(), ("alpha", "beta", "alpha", "gamma"))
        ):
            streams[index] = []
            tree.attach_subscriber(f"s{index}", leaf, streams[index].append)
            tree.subscribe(
                f"s{index}", tokenized_subscription(authority, topic)
            )
        for seq, topic in enumerate(
            ("alpha", "beta", "delta", "alpha", "gamma")
        ):
            tree.publish(
                tokenize_event(authority, Event({"_seq": seq}), {}, topic)
            )
        results.append(
            {k: [e.get("_seq") for e in v] for k, v in streams.items()}
        )
    assert results[0] == results[1]
    assert results[0][0] == [0, 3]  # alpha subscriber saw both alphas


def test_group_prefilter_reduces_match_tests():
    """With or without a match cache, a broker tests per event at most
    the distinct pins it probes plus the remaining constraints of the
    verified bucket -- far fewer than the filters it stores."""
    authority = TokenAuthority(MASTER)
    topics = [f"topic-{index}" for index in range(4)]
    events = 10
    for with_cache in (False, True):
        cache = MatchResultCache() if with_cache else None
        tree = BrokerTree(
            num_brokers=15, match=tokenized_match, match_cache=cache
        )
        for index, leaf in enumerate(tree.leaf_ids()):
            tree.attach_subscriber(f"s{index}", leaf, lambda _e: None)
            for topic in topics:
                for element in (f"e{index}-0", f"e{index}-1"):
                    tree.subscribe(
                        f"s{index}",
                        tokenized_subscription(
                            authority, topic, {"kind": element}
                        ),
                    )
        for seq in range(events):
            tree.publish(
                tokenize_event(
                    authority, Event({"_seq": seq}), {"kind": "e0-1"},
                    "topic-2",
                )
            )
        routed = [
            broker for broker in tree.brokers.values()
            if broker.stats.events_received
        ]
        assert len(routed) == tree.depth() + 1  # one root-to-leaf path
        # Every pin's bucket holds a quarter of a broker's filters, each
        # with one further (distinct) constraint.
        bound = sum(
            len(topics) + broker.subscription_count() // len(topics)
            for broker in routed
        )
        stored = sum(broker.subscription_count() for broker in routed)
        assert (bound, stored) == (46, 120)
        tests = sum(broker.stats.match_tests for broker in routed)
        assert 0 < tests <= events * bound, with_cache


def test_batch_stats_counters():
    registry = MetricsRegistry()
    tree = BrokerTree(num_brokers=3, registry=registry)
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, lambda _e: None)
    tree.subscribe("s", Filter.topic("news"))
    tree.publish(_events(4))
    assert tree.root.stats.batches_received == 1
    assert tree.root.stats.batches_forwarded == 1
    child = tree.brokers[leaf]
    assert child.stats.batches_received == 1
    assert child.stats.deliveries == 4


def test_unsubscribe_invalidates_match_cache_in_tree():
    cache = MatchResultCache()
    tree = BrokerTree(num_brokers=3, match_cache=cache)
    leaf = tree.leaf_ids()[0]
    got = []
    tree.attach_subscriber("s", leaf, got.append)
    news = Filter.topic("news")
    tree.subscribe("s", news)
    tree.publish(Event({"topic": "news"}))
    tree.unsubscribe("s", news)
    tree.publish(Event({"topic": "news"}))
    assert len(got) == 1
