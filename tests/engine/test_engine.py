"""DisseminationEngine: dispatch, metrics, caches."""

import pytest

from repro.engine import DisseminationEngine, EngineCaches, EngineConfig
from repro.obs.lru import LRUCache
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


def _event(n: int) -> Event:
    return Event({"topic": "t", "n": n})


def test_size_flush_dispatches_to_transport(tree):
    engine = DisseminationEngine(tree, EngineConfig(batch_size=2))
    engine.publish(_event(0))
    assert tree.published == []
    engine.publish(_event(1))
    assert [event.get("n") for event in tree.published] == [0, 1]


def test_dispatch_is_one_tree_publish_per_event():
    calls = []

    class Tree:
        def publish(self, event):
            assert isinstance(event, Event)
            calls.append(event.get("n"))

    engine = DisseminationEngine(Tree(), EngineConfig(batch_size=3))
    for n in range(4):
        engine.publish(_event(n))
    assert calls == [0, 1, 2]
    engine.flush()
    assert calls == [0, 1, 2, 3]


def test_metrics_registered(tree):
    engine = DisseminationEngine(tree, EngineConfig(batch_size=2))
    for n in range(5):
        engine.publish(_event(n))
    engine.flush()
    counters = engine.registry.snapshot()["counters"]
    assert counters['engine_batches_total{reason="size"}'] == 2
    assert counters['engine_batches_total{reason="flush"}'] == 1
    assert engine.registry.total("engine_batches_total") == 3


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        EngineConfig(batch_size=0)


def test_engine_over_broker_tree_delivers_everything():
    tree = BrokerTree(num_brokers=7)
    received = []
    tree.attach_subscriber("s", tree.leaf_ids()[0], received.append)
    tree.subscribe("s", Filter.topic("news"))
    engine = DisseminationEngine(tree, EngineConfig(batch_size=3))
    for n in range(7):
        engine.publish(Event({"topic": "news", "n": n}))
    engine.flush()
    assert [event.get("n") for event in received] == list(range(7))


def test_engine_walks_the_tree_like_per_event_publishes():
    """The accumulator only delays: every hop carries one event, as when
    each event is published with ``tree.publish``."""
    walks = []
    for through_engine in (False, True):
        tree = BrokerTree(num_brokers=7)
        for index, leaf in enumerate(tree.leaf_ids()):
            topic = ("news", "other")[index % 2]
            tree.attach_subscriber(f"s{index}", leaf, lambda _event: None)
            tree.subscribe(f"s{index}", Filter.topic(topic))
        events = [
            Event({"topic": ("news", "other", "none")[n % 3], "n": n})
            for n in range(10)
        ]
        if through_engine:
            engine = DisseminationEngine(tree, EngineConfig(batch_size=4))
            for event in events:
                engine.publish(event)
            engine.flush()
        else:
            for event in events:
                tree.publish(event)
        walks.append((
            tree.message_count,
            {
                broker_id: broker.stats.events_received
                for broker_id, broker in tree.brokers.items()
            },
        ))
    assert walks[0] == walks[1]


def test_engine_caches_bundle():
    caches = EngineCaches(EngineConfig(batch_size=4))
    authority = caches.token_authority(bytes(16))
    token = authority.topic_token("w")
    assert authority.topic_token("w") == token  # memoized, same value
    assert authority.cache.stats()["hits"] == 1
    assert isinstance(caches.match_results, LRUCache)
    stats = caches.match_results.stats()
    assert (stats["name"], stats["capacity"]) == ("topic_group_memo", 512)
    assert caches.token_prf.cache.stats()["hits"] == 0
