"""Publisher and subscriber engines end to end."""

import pytest

from repro.core.category import CategoryKeySpace, CategoryTree
from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.strings import StringKeySpace
from repro.core.subscriber import Subscriber
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op


@pytest.fixture
def kdc(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic(
        "cancerTrail", CompositeKeySpace({"age": NumericKeySpace("age", 128)})
    )
    tree = CategoryTree.from_spec(
        "conditions", {"oncology": {"lung": {}, "skin": {}}, "cardio": {}}
    )
    kdc.register_topic(
        "diagnoses",
        CompositeKeySpace({"category": CategoryKeySpace("category", tree)}),
    )
    kdc.register_topic(
        "symbols", CompositeKeySpace({"name": StringKeySpace("name")})
    )
    kdc.register_topic("newsletters", CompositeKeySpace({}))
    return kdc


def _lookup(kdc):
    return lambda topic: kdc.config_for(topic).schema


def _publish(kdc, attributes, secret={"message"}):
    publisher = Publisher("P", kdc)
    return publisher.publish(
        Event(attributes, publisher="P"), secret_attributes=set(secret)
    )


class TestNumericFlow:
    def test_matching_subscriber_reads(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 20, 60))
        )
        sealed = _publish(
            kdc, {"topic": "cancerTrail", "age": 25, "message": "m"}
        )
        result = subscriber.receive(sealed, _lookup(kdc))
        assert result is not None
        assert result.event["message"] == "m"
        assert subscriber.stats.events_opened == 1

    def test_non_matching_subscriber_cannot_read(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 30, 40))
        )
        sealed = _publish(
            kdc, {"topic": "cancerTrail", "age": 25, "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)) is None
        assert subscriber.stats.events_unreadable == 1

    def test_paper_example_boundary(self, kdc):
        """f = age > 20 reads age 25; f' = age > 30 must not (Section 1)."""
        can_read = Subscriber("S1")
        can_read.add_grant(
            kdc.authorize("S1", Filter.numeric_range("cancerTrail", "age", 21, 127))
        )
        cannot_read = Subscriber("S2")
        cannot_read.add_grant(
            kdc.authorize("S2", Filter.numeric_range("cancerTrail", "age", 31, 127))
        )
        sealed = _publish(
            kdc, {"topic": "cancerTrail", "age": 25, "message": "record"}
        )
        assert can_read.receive(sealed, _lookup(kdc)).event["message"] == "record"
        assert cannot_read.receive(sealed, _lookup(kdc)) is None

    def test_wrong_topic_not_opened(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 0, 127))
        )
        sealed = _publish(kdc, {"topic": "newsletters", "message": "m"})
        assert subscriber.receive(sealed, _lookup(kdc)) is None


class TestCategoryFlow:
    def test_subsumption_read(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize(
                "S",
                Filter.of(
                    Constraint("topic", Op.EQ, "diagnoses"),
                    Constraint("category", Op.EQ, "oncology"),
                ),
            )
        )
        sealed = _publish(
            kdc, {"topic": "diagnoses", "category": "lung", "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)).event["message"] == "m"

    def test_sibling_category_refused(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize(
                "S",
                Filter.of(
                    Constraint("topic", Op.EQ, "diagnoses"),
                    Constraint("category", Op.EQ, "cardio"),
                ),
            )
        )
        sealed = _publish(
            kdc, {"topic": "diagnoses", "category": "lung", "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)) is None


class TestStringFlow:
    def test_prefix_read(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize(
                "S",
                Filter.of(
                    Constraint("topic", Op.EQ, "symbols"),
                    Constraint("name", Op.PREFIX, "GO"),
                ),
            )
        )
        sealed = _publish(
            kdc, {"topic": "symbols", "name": "GOOG", "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)).event["message"] == "m"

    def test_non_prefix_refused(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize(
                "S",
                Filter.of(
                    Constraint("topic", Op.EQ, "symbols"),
                    Constraint("name", Op.PREFIX, "MS"),
                ),
            )
        )
        sealed = _publish(
            kdc, {"topic": "symbols", "name": "GOOG", "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)) is None


class TestPlainTopicFlow:
    def test_topic_subscriber_reads_plain_events(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(kdc.authorize("S", Filter.topic("newsletters")))
        sealed = _publish(kdc, {"topic": "newsletters", "message": "m"})
        assert subscriber.receive(sealed, _lookup(kdc)).event["message"] == "m"

    def test_topic_subscriber_reads_attributed_events(self, kdc):
        """Topic-only grants hold root components for securable attrs."""
        subscriber = Subscriber("S")
        subscriber.add_grant(kdc.authorize("S", Filter.topic("cancerTrail")))
        sealed = _publish(
            kdc, {"topic": "cancerTrail", "age": 99, "message": "m"}
        )
        assert subscriber.receive(sealed, _lookup(kdc)).event["message"] == "m"

    def test_range_subscriber_cannot_read_plain_event(self, kdc):
        """A filter requiring the age attribute doesn't match plain events."""
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 0, 127))
        )
        sealed = _publish(kdc, {"topic": "cancerTrail", "message": "m"})
        assert subscriber.receive(sealed, _lookup(kdc)) is None


class TestEpochs:
    def test_expired_grant_refused(self, kdc):
        subscriber = Subscriber("S")
        grant = kdc.authorize(
            "S", Filter.numeric_range("cancerTrail", "age", 0, 127),
            at_time=0.0,
        )
        subscriber.add_grant(grant)
        sealed = _publish(
            kdc, {"topic": "cancerTrail", "age": 25, "message": "m"}
        )
        late = grant.expires_at + 1.0
        assert subscriber.receive(sealed, _lookup(kdc), at_time=late) is None

    def test_next_epoch_event_unreadable_with_old_grant(self, kdc):
        """Lazy revocation: old keys cannot open next-epoch events."""
        subscriber = Subscriber("S")
        grant = kdc.authorize(
            "S", Filter.numeric_range("cancerTrail", "age", 0, 127),
            at_time=0.0,
        )
        subscriber.add_grant(grant)
        next_epoch_time = grant.expires_at + 1.0
        publisher = Publisher("P", kdc)
        sealed = publisher.publish(
            Event(
                {"topic": "cancerTrail", "age": 25, "message": "m"},
                publisher="P",
            ),
            secret_attributes={"message"},
            at_time=next_epoch_time,
        )
        # Even at a time where the grant is (wrongly) considered active,
        # the keys simply do not match the new epoch's topic key.
        assert subscriber.receive(sealed, _lookup(kdc), at_time=0.0) is None

    def test_drop_expired(self, kdc):
        subscriber = Subscriber("S")
        grant = kdc.authorize("S", Filter.topic("newsletters"), at_time=0.0)
        subscriber.add_grant(grant)
        dropped = subscriber.drop_expired(grant.expires_at + 1)
        assert dropped == 1
        assert subscriber.key_count() == 0


class TestEngineBookkeeping:
    def test_grant_ownership_enforced(self, kdc):
        subscriber = Subscriber("S")
        grant = kdc.authorize("other", Filter.topic("newsletters"))
        with pytest.raises(ValueError):
            subscriber.add_grant(grant)

    def test_publisher_requires_topic(self, kdc):
        publisher = Publisher("P", kdc)
        with pytest.raises(ValueError):
            publisher.publish(Event({"message": "m"}))

    def test_default_secret_attributes(self, kdc):
        publisher = Publisher("P", kdc)
        sealed = publisher.publish(
            Event({"topic": "newsletters", "message": "m", "body": "b"})
        )
        assert "message" not in sealed.routable
        assert "body" not in sealed.routable

    def test_publisher_memoizes_topic_key(self, kdc):
        publisher = Publisher("P", kdc)
        publisher.publish(Event({"topic": "newsletters", "message": "m"}))
        publisher.publish(Event({"topic": "newsletters", "message": "m2"}))
        assert kdc.stats.publisher_keys_issued == 1

    def test_topic_key_map_holds_two_epochs_per_topic(self, kdc, monkeypatch):
        # Regression: one (topic, epoch) entry per epoch rolled, forever.
        monkeypatch.setattr("os.urandom", lambda n: bytes(n))  # fixed IVs
        kdc.register_topic(
            "ticks",
            CompositeKeySpace({"age": NumericKeySpace("age", 128)}),
            epoch_length=10.0,
        )
        publisher = Publisher("P", kdc)
        topics = ("ticks", "newsletters")
        for epoch in range(50):
            at_time = epoch * 10.0 + 1.0
            for topic in topics:
                event = Event(
                    {"topic": topic, "age": epoch % 128, "message": "m"},
                    publisher="P",
                )
                sealed = publisher.publish(event, {"message"}, at_time)
                fresh = Publisher("P", kdc).publish(event, {"message"}, at_time)
                assert sealed.ciphertext == fresh.ciphertext
                assert sealed.elements == fresh.elements
            assert all(
                len(held) <= 2 for held in publisher._topic_keys.values()
            )
        assert set(publisher._topic_keys) == set(topics)

    def test_older_epoch_re_asks_the_kdc_and_keeps_the_newer_keys(self, kdc):
        kdc.register_topic("ticks", CompositeKeySpace({}), epoch_length=10.0)
        publisher = Publisher("P", kdc)
        newest = [publisher.topic_key("ticks", t) for t in (41.0, 51.0)]
        issued = kdc.stats.publisher_keys_issued
        old = publisher.topic_key("ticks", 1.0)
        assert old == kdc.issue_publisher_key("ticks", "P", 1.0)
        assert old not in newest
        assert kdc.stats.publisher_keys_issued == issued + 2  # not memoized
        assert [publisher.topic_key("ticks", t) for t in (41.0, 51.0)] == newest
        assert kdc.stats.publisher_keys_issued == issued + 2  # still held

    def test_temporal_locality_reduces_hash_work(self, kdc):
        publisher = Publisher("P", kdc)
        publisher.publish(
            Event({"topic": "cancerTrail", "age": 64, "message": "a"})
        )
        cold = publisher.stats.hash_operations
        publisher.publish(
            Event({"topic": "cancerTrail", "age": 64, "message": "b"})
        )
        warm_same = publisher.stats.hash_operations - cold
        assert warm_same == 0  # exact cache hit
        publisher.publish(
            Event({"topic": "cancerTrail", "age": 65, "message": "c"})
        )
        warm_near = publisher.stats.hash_operations - cold
        assert 0 < warm_near < cold

    def test_subscriber_cache_reduces_hash_work(self, kdc):
        subscriber = Subscriber("S")
        subscriber.add_grant(
            kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 0, 127))
        )
        publisher = Publisher("P", kdc)
        lookup = _lookup(kdc)
        first = publisher.publish(
            Event({"topic": "cancerTrail", "age": 33, "message": "x"})
        )
        second = publisher.publish(
            Event({"topic": "cancerTrail", "age": 33, "message": "y"})
        )
        first_result = subscriber.receive(first, lookup)
        cold_ops = first_result.hash_operations
        second_result = subscriber.receive(second, lookup)
        assert second_result.hash_operations == 0
        assert cold_ops > 0
