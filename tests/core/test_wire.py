"""Wire serialization of grants and sealed events."""

import struct
from dataclasses import replace

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.strings import StringKeySpace
from repro.core.subscriber import Subscriber
from repro.core.wire import (
    decode_grant,
    decode_sealed_event,
    encode_grant,
    encode_sealed_event,
)
from repro.errors import FrameError
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op


@pytest.fixture
def kdc(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic(
        "trial",
        CompositeKeySpace(
            {
                "age": NumericKeySpace("age", 128),
                "site": StringKeySpace("site"),
            }
        ),
    )
    kdc.register_topic("plain", CompositeKeySpace({}))
    return kdc


def test_grant_roundtrip(kdc):
    grant = kdc.authorize(
        "S",
        Filter.of(
            Constraint("topic", Op.EQ, "trial"),
            Constraint("age", Op.GE, 20),
            Constraint("age", Op.LE, 90),
            Constraint("site", Op.PREFIX, "eu-"),
        ),
    )
    decoded = decode_grant(encode_grant(grant))
    assert decoded == grant


def test_disjunctive_grant_roundtrip(kdc):
    grant = kdc.authorize(
        "S",
        [
            Filter.numeric_range("trial", "age", 0, 20),
            Filter.numeric_range("trial", "age", 80, 127),
        ],
    )
    decoded = decode_grant(encode_grant(grant))
    assert decoded == grant
    assert len(decoded.clauses) == 2


def test_decoded_grant_decrypts(kdc):
    """The acid test: a grant survives the wire and still opens events."""
    grant = kdc.authorize(
        "S", Filter.numeric_range("trial", "age", 20, 90)
    )
    subscriber = Subscriber("S")
    subscriber.add_grant(decode_grant(encode_grant(grant)))
    publisher = Publisher("P", kdc)
    sealed = publisher.publish(
        Event({"topic": "trial", "age": 44, "site": "eu-1",
               "message": "m"}),
    )
    wire = encode_sealed_event(sealed)
    received = decode_sealed_event(wire)
    result = subscriber.receive(
        received, lambda t: kdc.config_for(t).schema
    )
    assert result is not None
    assert result.event["message"] == "m"


def test_sealed_event_roundtrip(kdc):
    publisher = Publisher("P", kdc)
    sealed = publisher.publish(
        Event({"topic": "trial", "age": 10, "site": "us-9",
               "message": "x" * 300}),
    )
    decoded = decode_sealed_event(encode_sealed_event(sealed))
    assert decoded.routable == sealed.routable
    assert decoded.elements == sealed.elements
    assert decoded.locks == sealed.locks
    assert decoded.ciphertext == sealed.ciphertext
    assert decoded.direct == sealed.direct


def test_plain_topic_event_roundtrip(kdc):
    publisher = Publisher("P", kdc)
    sealed = publisher.publish(Event({"topic": "plain", "message": "m"}))
    decoded = decode_sealed_event(encode_sealed_event(sealed))
    assert decoded.elements == {"topic": "plain"}


def test_multi_lock_event_roundtrip(kdc):
    publisher = Publisher("P", kdc)
    sealed = publisher.publish(
        Event({"topic": "trial", "age": 5, "site": "eu-2",
               "message": "m"}),
        extra_lock_subsets=[("age",), ("site",)],
    )
    decoded = decode_sealed_event(encode_sealed_event(sealed))
    assert len(decoded.locks) == 3
    assert not decoded.direct


def test_magic_checked():
    with pytest.raises(ValueError):
        decode_grant(b"XXXXgarbage")
    with pytest.raises(ValueError):
        decode_sealed_event(b"XXXXgarbage")


def test_truncation_detected(kdc):
    grant = kdc.authorize("S", Filter.topic("plain"))
    data = encode_grant(grant)
    with pytest.raises((ValueError, IndexError, Exception)):
        decode_grant(data[:-5])


def test_trailing_bytes_rejected(kdc):
    publisher = Publisher("P", kdc)
    sealed = publisher.publish(Event({"topic": "plain", "message": "m"}))
    data = encode_sealed_event(sealed)
    with pytest.raises(ValueError, match="trailing"):
        decode_sealed_event(data + b"\x00")


def test_every_truncation_is_a_frame_error(kdc):
    sealed = Publisher("P", kdc).publish(
        Event({"topic": "trial", "age": 10, "site": "us-9", "message": "m"}),
        extra_lock_subsets=[("age",)],
    )
    data = encode_sealed_event(sealed)
    for cut in range(len(data)):
        with pytest.raises(FrameError):
            decode_sealed_event(data[:cut])


def test_negative_envelope_sequence_rejected(kdc):
    """The wire field is a signed 64-bit integer; publishers count up
    from zero, and a subscriber's duplicate window never ages out a
    sequence below zero."""
    sealed = Publisher("P", kdc).publish(
        Event({"topic": "plain", "message": "m"})
    )
    data = encode_sealed_event(replace(sealed, origin="P", sequence=5))
    at = 4 + 1 + 4 + len(b"P")
    assert data[at: at + 8] == struct.pack(">q", 5)
    for sequence in (-1, -2, -(2 ** 63)):
        forged = data[:at] + struct.pack(">q", sequence) + data[at + 8:]
        with pytest.raises(FrameError, match="negative"):
            decode_sealed_event(forged)
    zero = data[:at] + struct.pack(">q", 0) + data[at + 8:]
    assert decode_sealed_event(zero).sequence == 0
