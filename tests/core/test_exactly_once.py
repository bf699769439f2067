"""End-to-end exactly-once: envelope stamping and subscriber dedup.

The acceptance property: envelope metadata (origin + sequence) is pure
framing, stamped AFTER sealing -- ciphertexts and decrypted streams are
byte-identical with and without it -- while giving the subscriber edge
enough to suppress at-least-once duplicates.
"""

from dataclasses import replace

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.core.wire import decode_sealed_event, encode_sealed_event
from repro.siena.events import Event
from repro.siena.filters import Filter


@pytest.fixture
def kdc():
    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "cancerTrail",
        CompositeKeySpace({"age": NumericKeySpace("age", 128)}),
    )
    return kdc


@pytest.fixture
def lookup(kdc):
    return lambda topic: kdc.config_for(topic).schema


def _reader(kdc):
    subscriber = Subscriber("S")
    subscriber.add_grant(
        kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 0, 127))
    )
    return subscriber


def _publish(kdc, k=0):
    publisher = Publisher("P", kdc)
    return publisher.publish(
        Event(
            {"topic": "cancerTrail", "age": 25, "message": f"m{k}"},
            publisher="P",
        ),
        secret_attributes={"message"},
    )


def test_publisher_stamps_monotonic_sequences(kdc):
    publisher = Publisher("P", kdc)
    event = Event(
        {"topic": "cancerTrail", "age": 25, "message": "m"}, publisher="P"
    )
    sealed = [
        publisher.publish(event, secret_attributes={"message"})
        for _ in range(3)
    ]
    assert [s.origin for s in sealed] == ["P", "P", "P"]
    assert [s.sequence for s in sealed] == [0, 1, 2]


def test_stamp_is_metadata_only_decrypted_stream_unchanged(kdc, lookup):
    stamped = _publish(kdc)
    stripped = replace(stamped, origin=None, sequence=None)
    assert stamped.ciphertext == stripped.ciphertext
    assert stamped.locks == stripped.locks
    assert stamped.elements == stripped.elements
    assert stamped.routable.attributes == stripped.routable.attributes
    opened_stamped = _reader(kdc).receive(stamped, lookup)
    opened_stripped = _reader(kdc).receive(stripped, lookup)
    assert opened_stamped.event.attributes == opened_stripped.event.attributes
    assert (
        opened_stamped.decrypt_operations
        == opened_stripped.decrypt_operations
    )


def test_wire_bytes_identical_past_the_envelope_block(kdc):
    stamped = _publish(kdc)
    stripped = replace(stamped, origin=None, sequence=None)
    stamped_wire = encode_sealed_event(stamped)
    stripped_wire = encode_sealed_event(stripped)
    # magic + flags, then (origin, sequence) only on the stamped frame;
    # everything after -- including the ciphertext -- is byte-identical.
    assert stripped_wire[:5] == b"PSE2\x00"
    assert stamped_wire[4] == 0x01
    assert stamped_wire.endswith(stripped_wire[5:])


def test_wire_roundtrip_preserves_the_stamp(kdc):
    stamped = _publish(kdc, k=3)
    decoded = decode_sealed_event(encode_sealed_event(stamped))
    assert decoded.origin == "P"
    assert decoded.sequence == stamped.sequence
    assert decoded.ciphertext == stamped.ciphertext
    stripped = replace(stamped, origin=None, sequence=None)
    decoded = decode_sealed_event(encode_sealed_event(stripped))
    assert decoded.origin is None and decoded.sequence is None


def test_unknown_flags_rejected(kdc):
    wire = bytearray(
        encode_sealed_event(replace(_publish(kdc), origin=None, sequence=None))
    )
    wire[4] = 0x80
    with pytest.raises(ValueError):
        decode_sealed_event(bytes(wire))


def test_subscriber_suppresses_redelivered_stamped_events(kdc, lookup):
    subscriber = _reader(kdc)
    sealed = _publish(kdc)
    assert subscriber.receive(sealed, lookup) is not None
    assert subscriber.receive(sealed, lookup) is None  # duplicate
    assert subscriber.stats.events_opened == 1
    assert subscriber.stats.duplicates_suppressed == 1
    # Suppression is not "unreadable": the crypto was never attempted.
    assert subscriber.stats.events_unreadable == 0


def test_unstamped_events_bypass_the_dedup_window(kdc, lookup):
    subscriber = _reader(kdc)
    stripped = replace(_publish(kdc), origin=None, sequence=None)
    assert subscriber.receive(stripped, lookup) is not None
    assert subscriber.receive(stripped, lookup) is not None
    assert subscriber.stats.events_opened == 2
    assert subscriber.stats.duplicates_suppressed == 0


def test_dedup_window_zero_disables_suppression(kdc, lookup):
    subscriber = Subscriber("S", dedup_window=0)
    subscriber.add_grant(
        kdc.authorize("S", Filter.numeric_range("cancerTrail", "age", 0, 127))
    )
    sealed = _publish(kdc)
    assert subscriber.receive(sealed, lookup) is not None
    assert subscriber.receive(sealed, lookup) is not None
    assert subscriber.stats.duplicates_suppressed == 0


def test_wire_size_accounts_for_the_stamp(kdc):
    stamped = _publish(kdc)
    stripped = replace(stamped, origin=None, sequence=None)
    assert stamped.wire_size() == stripped.wire_size() + len("P") + 8
