"""The rtnet wire protocol: length-prefixed frames over TCP.

Every message on an rtnet connection is one *frame*::

    +----------------+------------+------------------+
    | length (4, BE) | type (1)   | body (length - 1) |
    +----------------+------------+------------------+

The length covers the type byte plus the body and must lie in
``[1, FRAME_MAX]``; anything else is a protocol violation surfaced as
:class:`~repro.errors.FrameError` (never a hang, never a crash with an
unexpected exception type).  Bodies reuse the existing PSGuard codecs:
EVENT carries :func:`repro.core.wire.encode_sealed_event` bytes
verbatim, SUBSCRIBE/UNSUBSCRIBE carry
:func:`repro.core.wire.encode_filter` bytes, and KDC_REPLY carries
:func:`repro.core.wire.encode_grant` bytes, so the framing layer adds
no second serialization of the security-bearing payloads.

Every connection reads through one :class:`FrameReader` and opens with
a HELLO / HELLO_ACK exchange negotiating the protocol version (a
``HELLO_ACK`` with version 0 is a rejection; :mod:`repro.rtnet.link`
runs it on both ends); PING /
PONG implement the source-routed settle barrier brokers and clients use
to flush in-flight control traffic (see :mod:`repro.rtnet.server`).
The KDC service links of :mod:`repro.rtnet.service` speak one
request/reply pair, KDC_CALL / KDC_REPLY, carrying the replicated KDC's
``KDCRequest`` / ``KDCResponse``, plus REKEY, the one frame a replica
pushes unasked.
"""

from __future__ import annotations

import asyncio
import enum
import struct
from dataclasses import dataclass

from repro.errors import FrameError
from repro.core.kdc import AuthorizationGrant
from repro.core.kdcservice import KDCRequest, KDCResponse, RegistryCommand
from repro.core.wire import (
    _pack_bytes,
    _unpack_bytes,
    decode_filter,
    decode_grant,
    encode_filter,
    encode_grant,
)
from repro.siena.filters import Filter

#: Version carried in HELLO; bumped on incompatible frame changes.
PROTOCOL_VERSION = 3
#: Hard cap on one frame's (type + body) size: 4 MiB.
FRAME_MAX = 1 << 22
#: Bytes a :class:`FrameReader` asks of its stream per read.
READ_SIZE = 65536

_HEADER = struct.Struct(">I")


class FrameType(enum.IntEnum):
    """The one-byte frame discriminator."""

    HELLO = 1
    HELLO_ACK = 2
    SUBSCRIBE = 3
    UNSUBSCRIBE = 4
    EVENT = 5
    ACK = 6
    PING = 8
    PONG = 9
    KDC_CALL = 10
    KDC_REPLY = 11
    REKEY = 12


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def _unpack_text(data: bytes, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from(">H", data, offset)
    offset += 2
    raw = data[offset: offset + length]
    if len(raw) != length:
        raise FrameError("truncated text field")
    return raw.decode("utf-8"), offset + length


def _pack_path(path: tuple[str, ...]) -> bytes:
    return struct.pack(">H", len(path)) + b"".join(
        _pack_text(hop) for hop in path
    )


def _unpack_path(data: bytes, offset: int) -> tuple[tuple[str, ...], int]:
    (count,) = struct.unpack_from(">H", data, offset)
    offset += 2
    hops = []
    for _ in range(count):
        hop, offset = _unpack_text(data, offset)
        hops.append(hop)
    return tuple(hops), offset


@dataclass(frozen=True)
class Hello:
    """Connection opener: who is dialing, as what, speaking which version."""

    peer_id: str
    role: str  # "broker" | "publisher" | "subscriber"
    version: int = PROTOCOL_VERSION

    type = FrameType.HELLO

    def encode_body(self) -> bytes:
        return (
            struct.pack(">H", self.version)
            + _pack_text(self.peer_id)
            + _pack_text(self.role)
        )


@dataclass(frozen=True)
class HelloAck:
    """Server's answer: its id and the accepted version (0 = rejected)."""

    peer_id: str
    version: int = PROTOCOL_VERSION

    type = FrameType.HELLO_ACK

    def encode_body(self) -> bytes:
        return struct.pack(">H", self.version) + _pack_text(self.peer_id)


@dataclass(frozen=True)
class Subscribe:
    """Register *filter* for the sending peer at the receiving broker."""

    filter: Filter

    type = FrameType.SUBSCRIBE

    def encode_body(self) -> bytes:
        return encode_filter(self.filter)


@dataclass(frozen=True)
class Unsubscribe:
    """Withdraw *filter* for the sending peer."""

    filter: Filter

    type = FrameType.UNSUBSCRIBE

    def encode_body(self) -> bytes:
        return encode_filter(self.filter)


@dataclass(frozen=True)
class EventFrame:
    """One sealed event in flight.

    *payload* is the PSE2 encoding of the (tokenized) sealed event,
    forwarded verbatim hop to hop -- brokers re-frame but never re-seal.
    *seq* numbers the frame on its link (acked on publisher links);
    *sent_at* is the publisher's wall-clock send time, for end-to-end
    latency measurement on a shared clock.
    """

    seq: int
    sent_at: float
    payload: bytes

    type = FrameType.EVENT

    def encode_body(self) -> bytes:
        return struct.pack(">qd", self.seq, self.sent_at) + self.payload


@dataclass(frozen=True)
class Ack:
    """Broker's receipt for EVENT *seq* on a publisher link."""

    seq: int

    type = FrameType.ACK

    def encode_body(self) -> bytes:
        return struct.pack(">q", self.seq)


@dataclass(frozen=True)
class Ping:
    """Settle probe, source-routed to the tree root.

    Each broker forwarding a PING toward its parent appends the peer it
    arrived from to *path*; the root answers with a PONG carrying the
    accumulated path, which unwinds hop by hop back to the prober.
    PING/PONG travel in the same priority class as events, so a returned
    PONG proves every frame queued ahead of it on the round trip has
    been transmitted -- a deterministic flush barrier with no sleeps.
    """

    token: bytes
    path: tuple[str, ...] = ()

    type = FrameType.PING

    def encode_body(self) -> bytes:
        return _pack_text(self.token.hex()) + _pack_path(self.path)


@dataclass(frozen=True)
class Pong:
    """The root's answer to a PING, unwinding *path* back to the prober."""

    token: bytes
    path: tuple[str, ...] = ()

    type = FrameType.PONG

    def encode_body(self) -> bytes:
        return _pack_text(self.token.hex()) + _pack_path(self.path)


@dataclass(frozen=True)
class KdcCall:
    """One :class:`~repro.core.kdcservice.KDCRequest` on a KDC service
    link; *tag* pairs it with its :class:`KdcReply`.  The body is the
    kind, the request id, then per kind: ``authorize``'s fields with
    :func:`repro.core.wire.encode_filter` blobs, ``admin``'s and
    ``replicate``'s revoke command, or ``sync``'s ``from_seq``."""

    tag: int
    request: KDCRequest

    type = FrameType.KDC_CALL

    def encode_body(self) -> bytes:
        return struct.pack(">q", self.tag) + _pack_request(self.request)


@dataclass(frozen=True)
class KdcReply:
    """A replica's :class:`~repro.core.kdcservice.KDCResponse` to the
    :class:`KdcCall` tagged *tag*: the outcome, the replica's view and
    primary, and a value -- an :func:`repro.core.wire.encode_grant`
    blob, a log sequence number, or a ``sync``'s revoke commands."""

    tag: int
    response: KDCResponse

    type = FrameType.KDC_REPLY

    def encode_body(self) -> bytes:
        return struct.pack(">q", self.tag) + _pack_response(self.response)


class MalformedCall(FrameError):
    """A KDC_CALL whose tag (``args[0]``) decoded but whose request did
    not; the frame's length kept the stream in step, so the receiver
    answers ``bad_request`` under the tag and reads on."""


@dataclass(frozen=True)
class Rekey:
    """Epoch-rollover broadcast: *topic* is now in *epoch* as of *at_time*.

    Every live KDC replica pushes this on every client session when an
    epoch boundary is crossed; a client acts on each (topic, epoch) once,
    treating it as a logical-clock advancement and running its renewal
    tick against the new time, which fetches next-epoch grants inside
    the pre-expiry lead window.
    """

    topic: str
    epoch: int
    at_time: float

    type = FrameType.REKEY

    def encode_body(self) -> bytes:
        return _pack_text(self.topic) + struct.pack(
            ">qd", self.epoch, self.at_time
        )


Frame = (
    Hello | HelloAck | Subscribe | Unsubscribe
    | EventFrame | Ack | Ping | Pong
    | KdcCall | KdcReply | Rekey
)


def encode_frame(frame: Frame) -> bytes:
    """Serialize *frame* with its length prefix."""
    payload = bytes([frame.type]) + frame.encode_body()
    if len(payload) > FRAME_MAX:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds FRAME_MAX ({FRAME_MAX})"
        )
    return _HEADER.pack(len(payload)) + payload


def _decode_token_path(body: bytes) -> tuple[bytes, tuple[str, ...], int]:
    text, offset = _unpack_text(body, 0)
    token = bytes.fromhex(text)
    path, offset = _unpack_path(body, offset)
    return token, path, offset


# -- KDC service bodies -------------------------------------------------------


def _pack_command(seq: int, op: str, args: tuple) -> bytes:
    """A revocation: the one registry op that crosses a wire (topics are
    provisioned on every replica, never sent)."""
    if op != "revoke":
        raise FrameError(f"registry op {op!r} does not cross the wire")
    subscriber, topic = args
    return struct.pack(">q", seq) + _pack_text(subscriber) + _pack_text(topic)


def _unpack_command(data: bytes, offset: int) -> tuple[RegistryCommand, int]:
    (seq,) = struct.unpack_from(">q", data, offset)
    subscriber, offset = _unpack_text(data, offset + 8)
    topic, offset = _unpack_text(data, offset)
    return RegistryCommand(seq, "revoke", (subscriber, topic)), offset


def _pack_request(request: KDCRequest) -> bytes:
    payload = request.payload
    parts = [_pack_text(request.kind)]
    if request.request_id is None:
        parts.append(b"\0")
    else:
        client, counter = request.request_id
        parts.append(b"\1" + _pack_text(client) + struct.pack(">q", counter))
    if request.kind == "authorize":
        filters = payload["filters"]
        filters = [filters] if isinstance(filters, Filter) else list(filters)
        min_epoch = payload.get("min_epoch")
        parts += [
            _pack_text(payload["subscriber"]),
            _pack_text(payload.get("publisher") or ""),
            struct.pack(
                ">d?q", payload.get("at_time", 0.0),
                min_epoch is not None, min_epoch or 0,
            ),
            struct.pack(">H", len(filters)),
            *(_pack_bytes(encode_filter(f)) for f in filters),
        ]
    elif request.kind == "admin":
        parts.append(_pack_command(0, payload["op"], payload["args"]))
    elif request.kind == "sync":
        parts.append(struct.pack(">q", payload["from_seq"]))
    elif request.kind == "replicate":
        command = payload["command"]
        parts.append(_pack_command(command.seq, command.op, command.args))
    else:
        raise FrameError(f"KDC request kind {request.kind!r} has no wire form")
    return b"".join(parts)


def _unpack_request(body: bytes, offset: int) -> tuple[KDCRequest, int]:
    kind, offset = _unpack_text(body, offset)
    request_id = None
    flag = body[offset]
    offset += 1
    if flag:
        client, offset = _unpack_text(body, offset)
        request_id = (client, struct.unpack_from(">q", body, offset)[0])
        offset += 8
    if kind == "authorize":
        subscriber, offset = _unpack_text(body, offset)
        publisher, offset = _unpack_text(body, offset)
        at_time, pinned, min_epoch = struct.unpack_from(">d?q", body, offset)
        offset += 17
        (count,) = struct.unpack_from(">H", body, offset)
        offset += 2
        filters = []
        for _ in range(count):
            raw, offset = _unpack_bytes(body, offset)
            filters.append(decode_filter(raw))
        payload = {
            "subscriber": subscriber,
            "filters": filters[0] if len(filters) == 1 else filters,
            "at_time": at_time,
            "publisher": publisher or None,
            "min_epoch": min_epoch if pinned else None,
        }
    elif kind == "admin":
        command, offset = _unpack_command(body, offset)
        payload = {"op": "revoke", "args": command.args}
    elif kind == "sync":
        (from_seq,) = struct.unpack_from(">q", body, offset)
        offset += 8
        payload = {"from_seq": from_seq}
    elif kind == "replicate":
        command, offset = _unpack_command(body, offset)
        payload = {"command": command}
    else:
        raise FrameError(f"unknown KDC request kind {kind!r}")
    return KDCRequest(kind, request_id, payload), offset


#: What a KDC_REPLY's value is: nothing, a grant, a log sequence number,
#: or the revoke commands a ``sync`` answers with.
_NO_VALUE, _GRANT_VALUE, _SEQ_VALUE, _COMMANDS_VALUE = range(4)


def _pack_response(response: KDCResponse) -> bytes:
    value = response.value
    if value is None:
        packed = bytes([_NO_VALUE])
    elif isinstance(value, AuthorizationGrant):
        packed = bytes([_GRANT_VALUE]) + _pack_bytes(
            encode_grant(value)
        )
    elif isinstance(value, int):
        packed = bytes([_SEQ_VALUE]) + struct.pack(">q", value)
    else:
        packed = bytes([_COMMANDS_VALUE]) + struct.pack(">I", len(value))
        packed += b"".join(_pack_command(c.seq, c.op, c.args) for c in value)
    return (
        struct.pack(">?q", response.ok, response.view)
        + _pack_text(response.error or "")
        + _pack_text(response.primary or "")
        + packed
    )


def _unpack_response(body: bytes, offset: int) -> tuple[KDCResponse, int]:
    ok, view = struct.unpack_from(">?q", body, offset)
    error, offset = _unpack_text(body, offset + 9)
    primary, offset = _unpack_text(body, offset)
    kind = body[offset]
    offset += 1
    value: object = None
    if kind == _GRANT_VALUE:
        raw, offset = _unpack_bytes(body, offset)
        value = decode_grant(raw)
    elif kind == _SEQ_VALUE:
        (value,) = struct.unpack_from(">q", body, offset)
        offset += 8
    elif kind == _COMMANDS_VALUE:
        (count,) = struct.unpack_from(">I", body, offset)
        offset += 4
        value = []
        for _ in range(count):
            command, offset = _unpack_command(body, offset)
            value.append(command)
    elif kind != _NO_VALUE:
        raise FrameError(f"unknown KDC_REPLY value kind {kind}")
    return KDCResponse(ok, value, error or None, view, primary or None), offset


def decode_payload(payload: bytes) -> Frame:
    """Decode one frame payload (type byte + body); raises FrameError."""
    if not payload:
        raise FrameError("empty frame payload")
    try:
        frame_type = FrameType(payload[0])
    except ValueError:
        raise FrameError(f"unknown frame type {payload[0]}") from None
    body = payload[1:]
    try:
        if frame_type is FrameType.HELLO:
            (version,) = struct.unpack_from(">H", body, 0)
            peer_id, offset = _unpack_text(body, 2)
            role, offset = _unpack_text(body, offset)
            frame: Frame = Hello(peer_id, role, version)
        elif frame_type is FrameType.HELLO_ACK:
            (version,) = struct.unpack_from(">H", body, 0)
            peer_id, offset = _unpack_text(body, 2)
            frame = HelloAck(peer_id, version)
        elif frame_type is FrameType.SUBSCRIBE:
            return Subscribe(decode_filter(body))
        elif frame_type is FrameType.UNSUBSCRIBE:
            return Unsubscribe(decode_filter(body))
        elif frame_type is FrameType.EVENT:
            if len(body) < 16:
                raise FrameError("truncated event frame")
            seq, sent_at = struct.unpack_from(">qd", body, 0)
            return EventFrame(seq, sent_at, body[16:])
        elif frame_type is FrameType.ACK:
            (seq,) = struct.unpack(">q", body)
            return Ack(seq)
        elif frame_type is FrameType.PING:
            token, path, offset = _decode_token_path(body)
            frame = Ping(token, path)
        elif frame_type is FrameType.PONG:
            token, path, offset = _decode_token_path(body)
            frame = Pong(token, path)
        elif frame_type is FrameType.KDC_CALL:
            (tag,) = struct.unpack_from(">q", body, 0)
            try:
                request, offset = _unpack_request(body, 8)
                if offset != len(body):
                    raise FrameError("trailing bytes")
            except (struct.error, IndexError, ValueError) as exc:
                raise MalformedCall(tag, f"malformed KDC_CALL: {exc}") from exc
            frame = KdcCall(tag, request)
        elif frame_type is FrameType.KDC_REPLY:
            (tag,) = struct.unpack_from(">q", body, 0)
            response, offset = _unpack_response(body, 8)
            frame = KdcReply(tag, response)
        else:
            topic, offset = _unpack_text(body, 0)
            epoch, at_time = struct.unpack_from(">qd", body, offset)
            offset += 16
            frame = Rekey(topic, epoch, at_time)
    except struct.error as exc:
        raise FrameError(f"truncated {frame_type.name} frame: {exc}") from exc
    except IndexError as exc:
        raise FrameError(f"truncated {frame_type.name} frame") from exc
    except UnicodeDecodeError as exc:
        raise FrameError(f"corrupt text in {frame_type.name} frame") from exc
    if offset != len(body):
        raise FrameError(f"trailing bytes after {frame_type.name} frame")
    return frame


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    Feed it whatever the transport hands you; it returns every complete
    frame and buffers the remainder.  Oversized or zero-length prefixes
    raise :class:`~repro.errors.FrameError` immediately -- a malicious
    length prefix must never make the receiver buffer unbounded input.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer.extend(data)
        frames: list[Frame] = []
        while (payload := self._next_payload()) is not None:
            frames.append(decode_payload(payload))
        return frames

    def _next_payload(self) -> bytes | None:
        """Cut the next frame's payload off the buffer, once it is whole."""
        if len(self._buffer) < 4:
            return None
        (length,) = _HEADER.unpack_from(self._buffer, 0)
        if not 1 <= length <= FRAME_MAX:
            raise FrameError(f"invalid frame length {length}")
        if len(self._buffer) < 4 + length:
            return None
        payload = bytes(self._buffer[4: 4 + length])
        del self._buffer[: 4 + length]
        return payload

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


class FrameReader(FrameDecoder):
    """How every rtnet connection reads: a :class:`FrameDecoder` fed from
    ``reader.read(READ_SIZE)``.  :meth:`read` returns one frame, or
    ``None`` on clean EOF; EOF mid frame raises, and so does a frame that
    does not decode, in its place -- the frames behind it stay buffered.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        super().__init__()
        self._reader = reader

    async def read(self) -> Frame | None:
        while (payload := self._next_payload()) is None:
            data = await self._reader.read(READ_SIZE)
            if not data:
                if not self._buffer:
                    return None
                part = "header" if len(self._buffer) < 4 else "body"
                raise FrameError(f"connection closed mid frame {part}")
            self._buffer.extend(data)
        return decode_payload(payload)
