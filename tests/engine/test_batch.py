"""The engine's batch lifecycle: a size flush and an explicit flush."""

import pytest

from repro.engine import DisseminationEngine, EngineConfig
from repro.siena.events import Event


def _event(n: int) -> Event:
    return Event({"topic": "t", "n": n})


def test_size_flush_includes_triggering_event(tree):
    engine = DisseminationEngine(tree, EngineConfig(batch_size=3))
    assert engine.publish(_event(0)) is None
    assert engine.publish(_event(1)) is None
    assert tree.published == []
    batch = engine.publish(_event(2))
    assert [event.get("n") for event in batch] == [0, 1, 2]
    assert tree.published == batch
    assert engine.flush() is None  # nothing left pending


def test_flush_drains_partial_batch(tree):
    engine = DisseminationEngine(tree, EngineConfig(batch_size=10))
    engine.publish(_event(0))
    engine.publish(_event(1))
    batch = engine.flush()
    assert [event.get("n") for event in batch] == [0, 1]
    assert tree.published == batch
    assert engine.flush() is None


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_batch_size(bad):
    with pytest.raises(ValueError):
        EngineConfig(batch_size=bad)
