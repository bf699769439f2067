"""The ``repro.api`` facade: one-call wiring of the whole stack."""

import pytest

from repro.api import System, SystemBuilder
from repro.core.kdc import KDC
from repro.core.renewal import RenewalPolicy
from repro.flow import HIGH, PRIORITY_ATTRIBUTE, with_priority
from repro.obs import Observability
from repro.routing.tokens import tokenized_subscription
from repro.siena.events import Event
from repro.siena.filters import Filter


@pytest.fixture
def medical_system():
    return System.builder().topic("cancerTrail", numeric={"age": 128}).build()


def test_quickstart_flow(medical_system):
    system = medical_system
    doctor = system.subscribe(
        "doctor", Filter.numeric_range("cancerTrail", "age", 21, 127)
    )
    outsider = system.subscribe(
        "outsider", Filter.numeric_range("cancerTrail", "age", 31, 127)
    )
    sealed = system.publisher("hospital").publish(
        Event(
            {"topic": "cancerTrail", "age": 25, "patientRecord": "rec-17"},
            publisher="hospital",
        ),
        secret_attributes={"patientRecord"},
    )
    assert "patientRecord" not in dict(sealed.routable.attributes)
    assert len(doctor.opened) == 1
    assert doctor.opened[0].event["patientRecord"] == "rec-17"
    # The outsider's subscription does not match, so nothing arrives.
    assert outsider.opened == []
    assert outsider.unreadable == 0


def test_unauthorized_range_is_unreadable(medical_system):
    system = medical_system
    # Authorized for 31+, but subscribed broadly: events in [21, 30]
    # arrive yet cannot be decrypted.
    nosy = system.subscribe(
        "nosy", Filter.numeric_range("cancerTrail", "age", 31, 127)
    )
    system.tree.subscribe(
        "nosy", tokenized_subscription(system.authority, "cancerTrail")
    )
    system.publisher("hospital").publish(
        Event(
            {"topic": "cancerTrail", "age": 25, "secret": "s"},
            publisher="hospital",
        ),
        secret_attributes={"secret"},
    )
    assert nosy.opened == []
    assert nosy.unreadable == 1


def test_no_plaintext_routing_value_reaches_an_inprocess_broker(
    monkeypatch,
):
    """Every broker of the in-process tree sees token pairs, the
    sequence stamp and the priority class -- no attribute value."""
    system = (
        System.builder()
        .brokers(7)
        .topic("cancerTrail", numeric={"age": 128})
        .build()
    )
    doctor = system.subscribe(
        "doctor", Filter.numeric_range("cancerTrail", "age", 21, 127)
    )
    seen = []
    for broker in system.tree.brokers.values():
        def tapped(event, arrived_from=None, _publish=broker.publish):
            seen.append(event)
            return _publish(event, arrived_from=arrived_from)

        monkeypatch.setattr(broker, "publish", tapped)
    system.publisher("hospital").publish(
        with_priority(
            Event(
                {"topic": "cancerTrail", "age": 25, "patientRecord": "r",
                 "_seq": 9},
                publisher="hospital",
            ),
            HIGH,
        ),
        secret_attributes={"patientRecord"},
    )
    assert [r.event["patientRecord"] for r in doctor.opened] == ["r"]
    assert len(seen) >= 3  # the root, an inner broker and the leaf
    for event in seen:
        assert {
            name for name in event.attributes if not name.startswith("_etok:")
        } == {"_ttok", "_seq", PRIORITY_ATTRIBUTE}
        assert event[PRIORITY_ATTRIBUTE] == HIGH


def test_standing_subscription_renews_and_revocation_lapses():
    system = (
        System.builder()
        .topic("t", numeric={"v": 16}, epoch_length=100.0)
        .renewal(RenewalPolicy(lead=10.0, grace=0.0))
        .build()
    )
    reader = system.subscribe("r", Filter.numeric_range("t", "v", 0, 7))
    feed = system.publisher("f")

    def publish(body, at_time):
        feed.publish(
            Event({"topic": "t", "v": 3, "body": body}, publisher="f"),
            at_time=at_time,
        )

    publish("a", 5.0)
    assert reader.renewal_stats.renewals == 1  # the first grant
    system.roll_epoch("t", 95.0)  # inside the lead of epoch 0's end
    assert reader.renewal_stats.renewals == 2
    publish("b", 150.0)
    assert [r.event["body"] for r in reader.opened] == ["a", "b"]
    system.revoke("r", "t")
    system.roll_epoch("t", 195.0)
    assert reader.renewal_stats.renewals == 2
    assert reader.renewal_stats.renewals_denied == 1
    # Routing tokens outlive the epoch; the keys do not.
    publish("c", 250.0)
    assert reader.unreadable == 1
    assert [verdict for *_, verdict in reader.log] == [
        "open", "open", "unreadable",
    ]


def test_publisher_sessions_are_cached(medical_system):
    assert medical_system.publisher("p") is medical_system.publisher("p")


def test_duplicate_subscriber_rejected(medical_system):
    medical_system.subscribe("s", Filter.topic("cancerTrail"))
    with pytest.raises(ValueError, match="already attached"):
        medical_system.subscribe("s", Filter.topic("cancerTrail"))


def test_refused_subscribe_leaves_no_trace(medical_system):
    system = medical_system

    def tables():
        return {
            broker_id: broker.subscription_count()
            for broker_id, broker in system.tree.brokers.items()
        }

    before = tables()
    with pytest.raises(KeyError):
        system.subscribe("bob", Filter.topic("typo"))
    # A grant refused after an accepted one registers neither.
    with pytest.raises(KeyError):
        system.subscribe(
            "bob", Filter.topic("cancerTrail"), Filter.topic("typo")
        )
    assert "bob" not in system.subscribers
    assert tables() == before
    bob = system.subscribe("bob", Filter.topic("cancerTrail"))
    system.publisher("hospital").publish(
        Event({"topic": "cancerTrail", "age": 40, "note": "n"},
              publisher="hospital"),
        secret_attributes={"note"},
    )
    assert [r.event["note"] for r in bob.opened] == ["n"]


def test_builder_wires_custom_pieces():
    obs = Observability()
    kdc = KDC(master_key=bytes(16))
    system = (
        System.builder()
        .brokers(7, arity=2)
        .kdc(kdc)
        .observability(obs)
        .topic("t", numeric={"v": 16})
        .build()
    )
    assert system.kdc is kdc
    assert system.obs is obs
    assert system.tree.registry is obs.registry
    assert len(system.tree.leaf_ids()) == 4


def test_subscribers_spread_across_leaves():
    system = System.builder().brokers(7).topic("t", numeric={"v": 8}).build()
    for index in range(4):
        system.subscribe(f"s{index}", Filter.topic("t"))
    homes = {session.home for session in system.subscribers.values()}
    assert homes == set(system.tree.leaf_ids())


def test_facade_traces_and_metrics():
    system = System.builder().topic("t", numeric={"v": 8}).build()
    system.subscribe("s", Filter.numeric_range("t", "v", 0, 7))
    system.publisher("p").publish(
        Event({"topic": "t", "v": 3, "body": "x"}, publisher="p"),
        secret_attributes={"body"},
    )
    summary = system.tracer.summary()
    assert summary["traces_started"] == 1
    assert summary["traces_delivered"] == 1
    assert summary["dropped_spans"] == 0
    assert system.registry.total("broker_deliveries_total") == 1
    assert "broker_deliveries_total" in system.obs.to_prometheus()
    assert system.obs.snapshot()["tracing"]["traces_started"] == 1


def test_package_reexports_blessed_surface():
    import repro

    assert set(repro.__all__) >= {
        "System", "SystemBuilder", "Event", "Filter",
        "KDC", "Publisher", "Subscriber", "Observability",
        "MetricsRegistry", "Tracer",
    }
    for name in repro.__all__:
        assert getattr(repro, name) is not None
