"""Fuzzing the wire decoders: garbage must fail loudly, never silently."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.wire import (
    _MAGIC_EVENT,
    _MAGIC_GRANT,
    decode_grant,
    decode_sealed_event,
    encode_grant,
)
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op


@settings(max_examples=150, deadline=None)
@given(garbage=st.binary(max_size=200))
def test_grant_decoder_never_accepts_garbage(garbage):
    try:
        grant = decode_grant(_MAGIC_GRANT + garbage)
    except Exception:
        return  # loud failure is the contract
    # The astronomically unlikely parse must still be a coherent grant.
    assert grant.key_count() >= 0


@settings(max_examples=150, deadline=None)
@given(garbage=st.binary(max_size=200))
def test_event_decoder_never_accepts_garbage(garbage):
    try:
        sealed = decode_sealed_event(_MAGIC_EVENT + garbage)
    except Exception:
        return
    assert isinstance(sealed.ciphertext, bytes)


@settings(max_examples=60, deadline=None)
@given(
    cut=st.integers(min_value=1, max_value=50),
)
def test_truncated_grants_always_rejected(cut):
    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 64)})
    )
    data = encode_grant(
        kdc.authorize("S", Filter.numeric_range("t", "v", 5, 40))
    )
    truncated = data[: max(4, len(data) - cut)]
    if truncated == data:
        return
    with pytest.raises(Exception):
        decode_grant(truncated)


def test_float_constraint_roundtrip():
    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 64)})
    )
    grant = kdc.authorize(
        "S",
        Filter.of(
            Constraint("topic", Op.EQ, "t"),
            Constraint("v", Op.GE, 1.5),
            Constraint("v", Op.LE, 40.25),
            Constraint("score", Op.GT, 0.125),
        ),
    )
    decoded = decode_grant(encode_grant(grant))
    assert decoded == grant
    values = {
        (c.name, c.op): c.value
        for clause in decoded.clauses
        for c in clause.clause
    }
    assert values[("v", Op.GE)] == 1.5
    assert values[("score", Op.GT)] == 0.125


# -- hardened decode contract: ValueError only, trailing bytes rejected --------


def _sample_grant():
    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 64)})
    )
    return kdc.authorize("S", Filter.numeric_range("t", "v", 5, 40))


def _sample_sealed():
    from repro.core.publisher import Publisher
    from repro.siena.events import Event

    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 64)})
    )
    return Publisher("P", kdc).publish(
        Event({"topic": "t", "v": 9, "body": "x"}, publisher="P"),
        secret_attributes={"body"},
    )


def test_trailing_bytes_after_grant_rejected():
    from repro.core.wire import encode_sealed_event

    data = encode_grant(_sample_grant())
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_grant(data + b"\x00")
    sealed = encode_sealed_event(_sample_sealed())
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_sealed_event(sealed + b"junk")


@settings(max_examples=150, deadline=None)
@given(
    position=st.integers(min_value=4, max_value=10 ** 6),
    bit=st.integers(0, 7),
)
def test_grant_bit_flips_raise_value_error_only(position, bit):
    data = bytearray(encode_grant(_sample_grant()))
    position = 4 + position % (len(data) - 4)  # keep the magic intact
    data[position] ^= 1 << bit
    try:
        decoded = decode_grant(bytes(data))
    except ValueError:
        return  # the only exception type the contract allows
    # A surviving parse must still be structurally coherent.
    assert decoded.key_count() >= 0


@settings(max_examples=150, deadline=None)
@given(
    position=st.integers(min_value=4, max_value=10 ** 6),
    bit=st.integers(0, 7),
)
def test_sealed_event_bit_flips_raise_value_error_only(position, bit):
    from repro.core.wire import encode_sealed_event

    data = bytearray(encode_sealed_event(_sample_sealed()))
    position = 4 + position % (len(data) - 4)
    data[position] ^= 1 << bit
    try:
        sealed = decode_sealed_event(bytes(data))
    except ValueError:
        return
    assert isinstance(sealed.ciphertext, bytes)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(min_value=1, max_value=60))
def test_truncated_sealed_events_raise_value_error_only(cut):
    from repro.core.wire import encode_sealed_event

    data = encode_sealed_event(_sample_sealed())
    truncated = data[: max(4, len(data) - cut)]
    if truncated == data:
        return
    with pytest.raises(ValueError):
        decode_sealed_event(truncated)


def test_pse1_magic_rejected_like_any_unknown_magic():
    from repro.core.wire import encode_sealed_event
    from repro.errors import FrameError

    body = encode_sealed_event(_sample_sealed())[4:]
    for magic in (b"PSE1", b"PSE3"):
        with pytest.raises(FrameError, match="not a serialized sealed event"):
            decode_sealed_event(magic + body)


# -- the filter codec (SUBSCRIBE/UNSUBSCRIBE control frames) -------------------


_NUMERIC_FILTERS = st.builds(
    lambda low, high: Filter.numeric_range("t", "v", min(low, high),
                                           max(low, high)),
    st.integers(0, 63),
    st.integers(0, 63),
)


@settings(max_examples=60, deadline=None)
@given(subscription=_NUMERIC_FILTERS)
def test_filter_roundtrip(subscription):
    from repro.core.wire import decode_filter, encode_filter

    assert decode_filter(encode_filter(subscription)) == subscription


def test_filter_roundtrip_preserves_value_types():
    from repro.core.wire import decode_filter, encode_filter

    subscription = Filter.of(
        Constraint("topic", Op.EQ, "t"),
        Constraint("v", Op.GE, 1.5),
        Constraint("n", Op.LT, 7),
        Constraint("flag", Op.ANY, None),
    )
    decoded = decode_filter(encode_filter(subscription))
    assert decoded == subscription
    values = {c.name: c.value for c in decoded}
    assert isinstance(values["v"], float)
    assert isinstance(values["n"], int)
    assert values["flag"] is None


def test_filter_trailing_bytes_rejected():
    from repro.core.wire import decode_filter, encode_filter

    data = encode_filter(Filter.topic("t"))
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_filter(data + b"\x00")


@settings(max_examples=120, deadline=None)
@given(garbage=st.binary(max_size=120))
def test_filter_decoder_never_accepts_garbage(garbage):
    from repro.core.wire import decode_filter

    try:
        subscription = decode_filter(garbage)
    except ValueError:
        return  # loud, typed failure is the contract
    assert isinstance(subscription, Filter)
