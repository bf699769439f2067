"""The rtnet frame codec: round-trips, corruption, incremental parsing."""

import asyncio
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import KDC, CompositeKeySpace, NumericKeySpace
from repro.core.kdcservice import KDCRequest, KDCResponse, RegistryCommand
from repro.rtnet.frames import (
    FRAME_MAX,
    PROTOCOL_VERSION,
    Ack,
    EventFrame,
    FrameDecoder,
    FrameReader,
    FrameType,
    Hello,
    HelloAck,
    KdcCall,
    KdcReply,
    MalformedCall,
    Ping,
    Pong,
    Rekey,
    Subscribe,
    Unsubscribe,
    decode_payload,
    encode_frame,
)
from repro.siena.filters import Filter

_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TEXT = st.text(max_size=40)
_PATHS = st.lists(_TEXT, max_size=5).map(tuple)


def _roundtrip(frame):
    frames = FrameDecoder().feed(encode_frame(frame))
    assert len(frames) == 1
    return frames[0]


# -- round-trips ---------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(peer_id=_TEXT, role=_TEXT, version=st.integers(0, 2 ** 16 - 1))
def test_hello_roundtrip(peer_id, role, version):
    assert _roundtrip(Hello(peer_id, role, version)) == Hello(
        peer_id, role, version
    )


@settings(max_examples=50, deadline=None)
@given(peer_id=_TEXT, version=st.integers(0, 2 ** 16 - 1))
def test_hello_ack_roundtrip(peer_id, version):
    assert _roundtrip(HelloAck(peer_id, version)) == HelloAck(peer_id, version)


@settings(max_examples=50, deadline=None)
@given(seq=_INT64, sent_at=_FLOATS, payload=st.binary(max_size=300))
def test_event_frame_roundtrip(seq, sent_at, payload):
    decoded = _roundtrip(EventFrame(seq, sent_at, payload))
    assert (decoded.seq, decoded.sent_at, decoded.payload) == (
        seq, sent_at, payload,
    )


@settings(max_examples=50, deadline=None)
@given(seq=_INT64)
def test_ack_roundtrip(seq):
    assert _roundtrip(Ack(seq)) == Ack(seq)


@settings(max_examples=50, deadline=None)
@given(token=st.binary(min_size=1, max_size=16), path=_PATHS)
def test_ping_pong_roundtrip(token, path):
    assert _roundtrip(Ping(token, path)) == Ping(token, path)
    assert _roundtrip(Pong(token, path)) == Pong(token, path)


def test_subscribe_unsubscribe_roundtrip():
    subscription = Filter.numeric_range("t", "v", 5, 40)
    assert _roundtrip(Subscribe(subscription)).filter == subscription
    assert _roundtrip(Unsubscribe(subscription)).filter == subscription


def _authorize(request_id, subscriber="alice", at_time=12.5,
               publisher="pub", min_epoch=3, filters=None):
    return KDCRequest("authorize", request_id, {
        "subscriber": subscriber,
        "filters": filters if filters is not None else Filter.topic("t"),
        "at_time": at_time,
        "publisher": publisher,
        "min_epoch": min_epoch,
    })


@settings(max_examples=50, deadline=None)
@given(
    tag=_INT64,
    request_id=st.none() | st.tuples(_TEXT, _INT64),
    subscriber=_TEXT,
    at_time=_FLOATS,
    min_epoch=st.none() | st.integers(0, 2 ** 62),
    publisher=st.none() | _TEXT.filter(bool),
)
def test_kdc_call_roundtrip(
    tag, request_id, subscriber, at_time, min_epoch, publisher
):
    frame = KdcCall(tag, _authorize(
        request_id, subscriber, at_time, publisher, min_epoch,
        [Filter.topic("t"), Filter.numeric_range("t", "v", 1, 9)],
    ))
    assert _roundtrip(frame) == frame


@settings(max_examples=50, deadline=None)
@given(
    tag=_INT64,
    ok=st.booleans(),
    error=st.none() | _TEXT.filter(bool),
    view=_INT64,
    primary=st.none() | _TEXT.filter(bool),
    seq=st.none() | _INT64,
)
def test_kdc_reply_roundtrip(tag, ok, error, view, primary, seq):
    frame = KdcReply(tag, KDCResponse(ok, seq, error, view, primary))
    assert _roundtrip(frame) == frame


def test_kdc_reply_carries_a_real_grant():
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 16)})
    )
    grant = kdc.authorize("alice", Filter.numeric_range("t", "v", 0, 15))
    decoded = _roundtrip(KdcReply(3, KDCResponse(True, grant)))
    assert decoded.response.ok
    assert decoded.response.value == grant


def test_registry_ops_other_than_revoke_do_not_cross_the_wire():
    schema = CompositeKeySpace({})
    provisioning = RegistryCommand(1, "register_topic", ("t", schema, 1.0, False))
    with pytest.raises(ValueError, match="does not cross the wire"):
        encode_frame(KdcReply(1, KDCResponse(True, [provisioning])))
    with pytest.raises(ValueError, match="does not cross the wire"):
        encode_frame(KdcCall(1, KDCRequest(
            "replicate", None, {"command": provisioning}
        )))


@settings(max_examples=50, deadline=None)
@given(topic=_TEXT, epoch=_INT64, at_time=_FLOATS)
def test_rekey_roundtrip(topic, epoch, at_time):
    frame = Rekey(topic, epoch, at_time)
    assert _roundtrip(frame) == frame


@settings(max_examples=50, deadline=None)
@given(tag=_INT64, seq=_INT64, subscriber=_TEXT, topic=_TEXT)
def test_revoke_roundtrip(tag, seq, subscriber, topic):
    """A revocation rides the call pair three ways: as the admin request,
    replicated, and in a sync answer."""
    args = (subscriber, topic)
    command = RegistryCommand(seq, "revoke", args)
    for frame in (
        KdcCall(tag, KDCRequest(
            "admin", ("admin", seq), {"op": "revoke", "args": args}
        )),
        KdcCall(tag, KDCRequest("replicate", None, {"command": command})),
        KdcCall(tag, KDCRequest("sync", None, {"from_seq": seq})),
        KdcReply(tag, KDCResponse(True, [command, command], view=1)),
    ):
        assert _roundtrip(frame) == frame


# -- corruption never hangs, always ValueError ---------------------------------


def _frame_corpus():
    return [
        Hello("peer", "publisher", PROTOCOL_VERSION),
        HelloAck("b0"),
        Subscribe(Filter.topic("t")),
        EventFrame(3, 1.5, b"payload"),
        Ack(7),
        Pong(b"\x03"),
        Ping(b"\x01\x02", ("b3", "b1")),
        Pong(b"\x01\x02", ("b3",)),
        KdcCall(5, _authorize(("alice", 5))),
        KdcCall(6, KDCRequest(
            "admin", ("admin", 0), {"op": "revoke", "args": ("eve", "t")}
        )),
        KdcReply(5, KDCResponse(False, error="denied", view=2, primary="kdc1")),
        KdcReply(6, KDCResponse(
            True, [RegistryCommand(2, "revoke", ("eve", "t"))]
        )),
        Rekey("t", 4, 99.0),
    ]


_CORPUS_INDEX = st.integers(0, len(_frame_corpus()) - 1)


@settings(max_examples=120, deadline=None)
@given(
    index=_CORPUS_INDEX,
    cut=st.integers(min_value=1, max_value=30),
)
def test_truncated_payloads_rejected(index, cut):
    frame = _frame_corpus()[index]
    payload = encode_frame(frame)[4:]  # strip the length prefix
    truncated = payload[: max(1, len(payload) - cut)]
    if truncated == payload:
        return
    try:
        decode_payload(truncated)
    except ValueError:
        return  # the contract: loud, typed failure
    # EVENT payloads are length-delimited only by the frame, so a cut
    # event still parses (with a shorter payload) -- that is fine; the
    # PSE2 decoder underneath rejects it.
    assert isinstance(frame, EventFrame)


@settings(max_examples=150, deadline=None)
@given(
    index=_CORPUS_INDEX,
    position=st.integers(min_value=0, max_value=10 ** 6),
    bit=st.integers(0, 7),
)
def test_bit_flips_never_hang_or_crash(index, position, bit):
    data = bytearray(encode_frame(_frame_corpus()[index]))
    position %= len(data)
    data[position] ^= 1 << bit
    decoder = FrameDecoder()
    try:
        decoder.feed(bytes(data))
    except ValueError:
        pass  # only ValueError is acceptable


@settings(max_examples=80, deadline=None)
@given(garbage=st.binary(min_size=1, max_size=120))
def test_garbage_payloads_rejected_loudly(garbage):
    try:
        frame = decode_payload(garbage)
    except ValueError:
        return
    assert frame.type in FrameType


def test_oversized_length_prefix_rejected_immediately():
    decoder = FrameDecoder()
    with pytest.raises(ValueError, match="invalid frame length"):
        decoder.feed(struct.pack(">I", FRAME_MAX + 1))


def test_zero_length_prefix_rejected():
    with pytest.raises(ValueError, match="invalid frame length"):
        FrameDecoder().feed(struct.pack(">I", 0) + b"rest")


def test_unknown_frame_type_rejected():
    with pytest.raises(ValueError, match="unknown frame type"):
        decode_payload(bytes([99]) + b"body")


def test_retired_heartbeat_type_byte_rejected():
    """Type byte 7 was HEARTBEAT before protocol version 3; nothing
    decodes it now."""
    assert 7 not in set(FrameType)
    with pytest.raises(ValueError, match="unknown frame type 7"):
        decode_payload(bytes([7]) + struct.pack(">d", 1.0))


def test_empty_payload_rejected():
    with pytest.raises(ValueError, match="empty frame payload"):
        decode_payload(b"")


def test_trailing_bytes_after_hello_rejected():
    payload = encode_frame(Hello("p", "publisher"))[4:] + b"x"
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_payload(payload)


def test_encode_rejects_frames_over_frame_max():
    with pytest.raises(ValueError, match="exceeds FRAME_MAX"):
        encode_frame(EventFrame(0, 0.0, b"\0" * FRAME_MAX))


def test_kdc_reply_over_frame_max_rejected():
    command = RegistryCommand(1, "revoke", ("s" * 200, "t" * 200))
    commands = [command] * (FRAME_MAX // 400 + 1)
    with pytest.raises(ValueError, match="exceeds FRAME_MAX"):
        encode_frame(KdcReply(1, KDCResponse(True, commands)))


@settings(max_examples=80, deadline=None)
@given(cut=st.integers(min_value=1, max_value=40), extra=st.binary(min_size=1))
def test_malformed_kdc_call_keeps_its_tag(cut, extra):
    """A truncated or overlong call body fails loudly but still names
    its tag, so the receiver can answer ``bad_request`` under it."""
    payload = encode_frame(KdcCall(77, _authorize(("alice", 1))))[4:]
    for broken in (payload[: max(9, len(payload) - cut)], payload + extra):
        if broken == payload:
            continue
        with pytest.raises(MalformedCall) as failure:
            decode_payload(broken)
        assert failure.value.args[0] == 77


# -- incremental parsing -------------------------------------------------------


def test_decoder_reassembles_byte_at_a_time():
    wire = b"".join(encode_frame(frame) for frame in _frame_corpus())
    decoder = FrameDecoder()
    frames = []
    for offset in range(len(wire)):
        frames.extend(decoder.feed(wire[offset: offset + 1]))
    assert [frame.type for frame in frames] == [
        frame.type for frame in _frame_corpus()
    ]
    assert decoder.pending == 0


def test_decoder_returns_multiple_frames_per_feed():
    wire = encode_frame(Ack(1)) + encode_frame(Ack(2)) + encode_frame(Ack(3))
    assert FrameDecoder().feed(wire) == [Ack(1), Ack(2), Ack(3)]


def test_decoder_tracks_pending_bytes():
    decoder = FrameDecoder()
    wire = encode_frame(Ack(1))
    assert decoder.feed(wire[:6]) == []
    assert decoder.pending == 6
    assert decoder.feed(wire[6:]) == [Ack(1)]
    assert decoder.pending == 0


# -- stream reader: FrameReader.read ------------------------------------------


def _stream_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def test_read_frame_returns_none_on_clean_eof():
    async def scenario():
        return await FrameReader(_stream_with(b"")).read()

    assert asyncio.run(scenario()) is None


def test_read_frame_raises_on_mid_frame_eof():
    async def scenario():
        wire = encode_frame(Ack(5))
        return await FrameReader(_stream_with(wire[:-2])).read()

    with pytest.raises(ValueError, match="mid frame"):
        asyncio.run(scenario())


def test_read_frame_raises_on_mid_header_eof():
    async def scenario():
        return await FrameReader(_stream_with(b"\x00\x00")).read()

    with pytest.raises(ValueError, match="mid frame header"):
        asyncio.run(scenario())


def test_read_frame_reads_back_to_back_frames():
    async def scenario():
        reader = FrameReader(_stream_with(
            encode_frame(Ack(1)) + encode_frame(Pong(b"\x02"))
        ))
        first = await reader.read()
        second = await reader.read()
        third = await reader.read()
        return first, second, third

    assert asyncio.run(scenario()) == (Ack(1), Pong(b"\x02"), None)
