"""The key distribution center: epochs, statelessness, grants."""

import math

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC, TOPIC_COMPONENT
from repro.core.nakt import NumericKeySpace
from repro.crypto.prf import KH
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op


def test_topic_key_deterministic(medical_kdc):
    assert medical_kdc.topic_key("cancerTrail") == medical_kdc.topic_key(
        "cancerTrail"
    )


def test_topic_key_differs_per_topic(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic("a", CompositeKeySpace({}))
    kdc.register_topic("b", CompositeKeySpace({}))
    assert kdc.topic_key("a") != kdc.topic_key("b")


def test_unregistered_topic_rejected(medical_kdc):
    with pytest.raises(KeyError):
        medical_kdc.topic_key("unknown")


def test_short_master_key_rejected():
    with pytest.raises(ValueError):
        KDC(master_key=b"short")


def test_epoch_rollover_changes_topic_key(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic("t", CompositeKeySpace({}), epoch_length=100.0)
    early = kdc.topic_key("t", at_time=0.0)
    late = kdc.topic_key("t", at_time=500.0)
    assert early != late


def test_epoch_numbering_consistent(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic("t", CompositeKeySpace({}), epoch_length=100.0)
    epoch = kdc.epoch_of("t", 250.0)
    end = kdc.epoch_end("t", 250.0)
    assert kdc.epoch_of("t", end - 1e-6) == epoch
    assert kdc.epoch_of("t", end + 1e-6) == epoch + 1


def test_epoch_offsets_are_staggered_per_topic(master_key):
    """Flash-crowd avoidance: epochs don't all roll over together."""
    kdc = KDC(master_key=master_key)
    for name in ("t0", "t1", "t2", "t3", "t4", "t5"):
        kdc.register_topic(name, CompositeKeySpace({}), epoch_length=1000.0)
    ends = {kdc.epoch_end(name, 0.0) for name in
            ("t0", "t1", "t2", "t3", "t4", "t5")}
    assert len(ends) > 1


class _ReferenceEpochs:
    """Epoch arithmetic as it stood before the per-topic offset fraction
    was memoized: ``KH`` of the topic on every call."""

    def __init__(self, kdc):
        self.kdc = kdc

    def offset(self, topic):
        config = self.kdc.config_for(topic)
        digest = KH(b"psguard:epoch-offset", topic.encode("utf-8"))
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction * config.epoch_length

    def epoch_of(self, topic, at_time):
        config = self.kdc.config_for(topic)
        shifted = at_time - self.offset(topic)
        epoch = int(shifted // config.epoch_length)
        if at_time >= self.epoch_start(topic, epoch + 1):
            epoch += 1
        elif at_time < self.epoch_start(topic, epoch):
            epoch -= 1
        return epoch

    def epoch_start(self, topic, epoch):
        config = self.kdc.config_for(topic)
        return epoch * config.epoch_length + self.offset(topic)


def test_memoized_epoch_offsets_match_reference_at_boundaries(master_key):
    """Boundary instants, and a hair either side, land in the same epoch
    and start at the same float as with the offset recomputed per call,
    also after a retune changes the length under the memo."""
    kdc = KDC(master_key=master_key)
    lengths = {"a": 3600.0, "b": 640.0, "c": 0.1, "d": 7.3, "e": 1e-3}
    for topic, length in lengths.items():
        kdc.register_topic(topic, CompositeKeySpace({}), epoch_length=length)
    reference = _ReferenceEpochs(kdc)
    for retune in (1.0, 0.37):
        for topic, length in lengths.items():
            kdc.config_for(topic).epoch_length = length * retune
            for epoch in range(-3, 60):
                start = reference.epoch_start(topic, epoch)
                assert kdc.epoch_start(topic, epoch) == start
                for instant in (
                    start,
                    math.nextafter(start, -math.inf),
                    math.nextafter(start, math.inf),
                    start + length * retune / 2,
                ):
                    assert kdc.epoch_of(topic, instant) == (
                        reference.epoch_of(topic, instant)
                    )
                assert kdc.epoch_of(topic, start) == epoch
                assert kdc.epoch_end(topic, start) == (
                    reference.epoch_start(topic, epoch + 1)
                )


def test_invalid_epoch_length_rejected(master_key):
    kdc = KDC(master_key=master_key)
    with pytest.raises(ValueError):
        kdc.register_topic("t", CompositeKeySpace({}), epoch_length=0)


def test_replica_is_stateless_equivalent(medical_kdc):
    """Replicas share only rk(KDC) + registry yet issue identical keys."""
    replica = medical_kdc.replicate()
    assert replica.topic_key("cancerTrail") == medical_kdc.topic_key(
        "cancerTrail"
    )
    original = medical_kdc.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 20, 60)
    )
    cloned = replica.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 20, 60)
    )
    assert [c.components for c in original.clauses] == [
        c.components for c in cloned.clauses
    ]


def test_per_publisher_topic_keys(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic("t", CompositeKeySpace({}), per_publisher=True)
    key_p = kdc.topic_key("t", publisher="P")
    key_q = kdc.topic_key("t", publisher="Q")
    assert key_p != key_q
    with pytest.raises(ValueError):
        kdc.topic_key("t")  # publisher identity required


def test_shared_topic_key_ignores_publisher(medical_kdc):
    assert medical_kdc.topic_key(
        "cancerTrail", publisher="P"
    ) == medical_kdc.topic_key("cancerTrail", publisher="Q")


def test_grant_contains_cover_elements(medical_kdc):
    grant = medical_kdc.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 16, 31)
    )
    assert grant.topic == "cancerTrail"
    elements = [
        str(c.element)
        for clause in grant.clauses
        for c in clause.components
        if c.attribute == "age"
    ]
    # (16, 31) is exactly the depth-1 element "1" of a 128-leaf... no:
    # for range 128 the cover of (16, 31) is the single element 0001x ->
    # it must be a single aligned block.
    assert len(elements) == 1


def test_grant_counts_and_bytes(medical_kdc):
    grant = medical_kdc.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 20, 60)
    )
    assert grant.key_count() >= 1
    assert grant.wire_bytes() >= 16 * grant.key_count()
    assert grant.hash_operations > 0


def test_topic_only_grant_gets_topic_and_root_components(medical_kdc):
    grant = medical_kdc.authorize("S", Filter.topic("cancerTrail"))
    clause = grant.clauses[0]
    attributes = {c.attribute for c in clause.components}
    assert TOPIC_COMPONENT in attributes
    assert "age" in attributes  # root component for the securable attr


def test_constrained_grant_has_no_topic_component(medical_kdc):
    grant = medical_kdc.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 20, 60)
    )
    attributes = {
        c.attribute for clause in grant.clauses for c in clause.components
    }
    assert TOPIC_COMPONENT not in attributes


def test_grant_requires_topic_constraint(medical_kdc):
    with pytest.raises(ValueError, match="topic"):
        medical_kdc.authorize(
            "S", Filter.of(Constraint("age", Op.GT, 20))
        )


def test_disjunction_grants_one_clause_each(medical_kdc):
    filters = [
        Filter.numeric_range("cancerTrail", "age", 0, 20),
        Filter.numeric_range("cancerTrail", "age", 60, 100),
    ]
    grant = medical_kdc.authorize("S", filters)
    assert len(grant.clauses) == 2


def test_disjunction_must_share_topic(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic("a", CompositeKeySpace({}))
    kdc.register_topic("b", CompositeKeySpace({}))
    with pytest.raises(ValueError, match="same topic"):
        kdc.authorize("S", [Filter.topic("a"), Filter.topic("b")])


def test_stats_accumulate(medical_kdc):
    medical_kdc.authorize(
        "S", Filter.numeric_range("cancerTrail", "age", 20, 60)
    )
    assert medical_kdc.stats.grants_issued == 1
    assert medical_kdc.stats.keys_issued >= 1
    assert medical_kdc.stats.bytes_sent > 0
    medical_kdc.stats.reset()
    assert medical_kdc.stats.grants_issued == 0


def test_unsatisfiable_numeric_constraints_rejected(medical_kdc):
    unsatisfiable = Filter.of(
        Constraint("topic", Op.EQ, "cancerTrail"),
        Constraint("age", Op.GE, 60),
        Constraint("age", Op.LE, 20),
    )
    with pytest.raises(ValueError, match="unsatisfiable"):
        medical_kdc.authorize("S", unsatisfiable)


def test_issue_token_deterministic(medical_kdc):
    assert medical_kdc.issue_token("cancerTrail") == medical_kdc.issue_token(
        "cancerTrail"
    )
    assert medical_kdc.issue_token("cancerTrail") != medical_kdc.topic_key(
        "cancerTrail"
    )
