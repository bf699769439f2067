"""``System.builder().transport("tcp")``: the synchronous live facade."""

import pytest

from repro.api import System
from repro.core.renewal import RenewalPolicy
from repro.obs import Observability
from repro.siena.events import Event
from repro.siena.filters import Filter


def test_builder_rejects_unknown_transport():
    with pytest.raises(ValueError, match="unknown transport"):
        System.builder().transport("carrier-pigeon")


def test_tcp_transport_accepts_every_builder_setting():
    """``build()`` refuses no setting on tcp that it accepts in process."""
    obs = Observability()
    system = (
        System.builder()
        .brokers(3, arity=2)
        .master_key(bytes(range(16)))
        .observability(obs)
        .renewal(RenewalPolicy(lead=10.0, grace=1.0))
        .topic("t", numeric={"v": 16}, epoch_length=600.0)
        .transport("tcp")
        .build()
    )
    with system:
        assert system.obs is obs
        watcher = system.subscribe("w", Filter.numeric_range("t", "v", 0, 7))
        system.publisher("p").publish(
            Event({"topic": "t", "v": 3, "body": "x"}, publisher="p")
        )
        system.settle()
        assert [r.event["body"] for r in watcher.opened] == ["x"]


def test_tcp_transport_disseminates_over_real_sockets():
    system = (
        System.builder()
        .brokers(3, arity=2)
        .master_key(bytes(range(16)))
        .topic("cancerTrail", numeric={"age": 128})
        .transport("tcp")
        .build()
    )
    with system:
        doctor = system.subscribe(
            "doctor", Filter.numeric_range("cancerTrail", "age", 21, 127)
        )
        outsider = system.subscribe(
            "outsider", Filter.numeric_range("cancerTrail", "age", 90, 127)
        )
        system.publisher("hospital").publish(
            Event(
                {"topic": "cancerTrail", "age": 25, "record": "rec-17"},
                publisher="hospital",
            ),
            secret_attributes={"record"},
        )
        system.settle()

        assert [r.event["record"] for r in doctor.opened] == ["rec-17"]
        assert doctor.unreadable == 0
        assert outsider.opened == []
        assert outsider.unreadable == 0

        assert [verdict for *_, verdict in doctor.log] == ["open"]
        assert system.publisher("hospital").unacked == 0

        # The wired layers are reachable, as in process.
        snapshot = system.obs.snapshot()
        assert any(
            name.startswith("rtnet_") for name in snapshot["counters"]
        )
        stats = system.cluster.stats()
        assert stats["b0"]["events_received"] == 1
        assert "rtnet_frames_total" in system.obs.to_prometheus()


def test_live_publishers_cached_and_duplicate_subscribers_rejected():
    system = (
        System.builder()
        .brokers(1)
        .topic("t", numeric={"v": 16})
        .transport("tcp")
        .build()
    )
    with system:
        assert system.publisher("p") is system.publisher("p")
        system.subscribe("s", Filter.numeric_range("t", "v", 0, 15))
        with pytest.raises(ValueError, match="already attached"):
            system.subscribe("s", Filter.numeric_range("t", "v", 0, 15))
