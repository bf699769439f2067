"""DisseminationEngine: dispatch, metrics, lifecycle."""

import pytest

from repro.engine import DisseminationEngine, EngineCaches, EngineConfig
from repro.obs.metrics import MetricsRegistry
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class RecordingTransport:
    def __init__(self):
        self.batches: list[list[Event]] = []

    def publish(self, events):
        self.batches.append(list(events))


def _event(n: int) -> Event:
    return Event({"topic": "t", "n": n})


def test_size_flush_dispatches_to_transport():
    transport = RecordingTransport()
    engine = DisseminationEngine(transport, EngineConfig(batch_size=2))
    engine.publish(_event(0))
    assert transport.batches == []
    assert engine.pending == 1
    engine.publish(_event(1))
    assert [[e.get("n") for e in b] for b in transport.batches] == [[0, 1]]
    assert engine.pending == 0


def test_dispatch_is_one_publish_call_per_batch():
    class Transport(RecordingTransport):
        def publish_batch(self, events):  # pragma: no cover
            raise AssertionError("the engine only knows publish()")

    transport = Transport()
    engine = DisseminationEngine(transport, EngineConfig(batch_size=2))
    engine.publish(_event(0))
    engine.publish(_event(1))
    assert len(transport.batches) == 1 and len(transport.batches[0]) == 2


def test_close_drains_partial_and_refuses_publish():
    transport = RecordingTransport()
    engine = DisseminationEngine(transport, EngineConfig(batch_size=10))
    engine.publish(_event(0))
    final = engine.close()
    assert final is not None and final.reason == "close"
    assert len(transport.batches) == 1
    with pytest.raises(RuntimeError):
        engine.publish(_event(1))
    assert engine.close() is None  # idempotent


def test_timeout_flush_via_poll():
    transport = RecordingTransport()
    clock = FakeClock()
    engine = DisseminationEngine(
        transport,
        EngineConfig(batch_size=10, flush_timeout=1.0),
        clock=clock,
    )
    engine.publish(_event(0))
    assert engine.poll() is None
    clock.now = 1.5
    batch = engine.poll()
    assert batch is not None and batch.reason == "timeout"
    assert len(transport.batches) == 1


def test_metrics_registered():
    registry = MetricsRegistry()
    engine = DisseminationEngine(
        RecordingTransport(), EngineConfig(batch_size=2), registry
    )
    for n in range(5):
        engine.publish(_event(n))
    engine.close()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["engine_events_total"] == 5
    assert snapshot["counters"]['engine_batches_total{reason="size"}'] == 2
    assert snapshot["counters"]['engine_batches_total{reason="close"}'] == 1
    assert snapshot["histograms"]["engine_batch_events"]["count"] == 3


def test_engine_over_broker_tree_delivers_everything():
    tree = BrokerTree(num_brokers=7)
    received = []
    tree.attach_subscriber("s", tree.leaf_ids()[0], received.append)
    tree.subscribe("s", Filter.topic("news"))
    engine = DisseminationEngine(tree, EngineConfig(batch_size=3))
    for n in range(7):
        engine.publish(Event({"topic": "news", "n": n}))
    engine.close()
    assert [event.get("n") for event in received] == list(range(7))


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        EngineConfig(batch_size=0)


def test_engine_caches_bundle():
    registry = MetricsRegistry()
    caches = EngineCaches(EngineConfig(), registry)
    authority = caches.token_authority(bytes(16))
    token = authority.topic_token("w")
    assert authority.topic_token("w") == token  # memoized, same value
    stats = caches.stats()
    assert set(stats) == {"match_results"}
    assert all("hit_rate" in section for section in stats.values())
