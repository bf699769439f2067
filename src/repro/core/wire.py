"""Wire serialization for PSGuard messages.

A deployable system ships grants from the KDC to subscribers and sealed
events from publishers into the broker network as byte strings.  This
module provides a compact, versioned binary format for both, built on the
event encoding of :mod:`repro.siena.events`.

Security note: these encodings provide *no* integrity or confidentiality
of their own.  Grants must travel over an authenticated confidential
channel to their subscriber (e.g. TLS to the KDC); sealed events are safe
to expose -- their secret attributes are already encrypted, which is the
whole point.
"""

from __future__ import annotations

import struct

from repro.errors import FrameError
from repro.core.composite import AuthorizationComponent
from repro.core.envelope import Lock, SealedEvent
from repro.core.kdc import AuthorizationGrant, ClauseGrant
from repro.core.ktid import KTID
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op

_MAGIC_GRANT = b"PSG1"
#: Sealed-event format: a flags byte after the magic, carrying an
#: optional envelope-metadata block (origin + sequence) when bit 0 is set.
_MAGIC_EVENT = b"PSE2"

_EVENT_FLAG_ENVELOPE = 0x01

_ELEMENT_KTID = 0
_ELEMENT_TEXT = 1


class _decoding:
    """Normalize low-level decode failures into :class:`FrameError`.

    Framed network input must never crash a broker with an unexpected
    exception type: a short buffer raises ``struct.error`` (or
    ``IndexError`` on a direct byte read), corrupt text raises
    ``UnicodeDecodeError``, and an unknown operator name raises
    ``KeyError``.  All of them mean the same thing to a receiver --
    "this buffer is not a valid <what>" -- so they all surface as
    :class:`~repro.errors.FrameError` (a :class:`ValueError` subclass,
    so handlers written before the hierarchy existed keep catching it).

    A plain class rather than a ``contextlib`` generator: it wraps every
    decode of every hop, and the generator protocol cost a microsecond
    a time.
    """

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self) -> None:
        return None

    def __exit__(self, _kind, exc, _traceback) -> bool:
        if isinstance(exc, (struct.error, IndexError)):
            raise FrameError(f"truncated {self.what}: {exc}") from exc
        if isinstance(exc, UnicodeDecodeError):
            raise FrameError(f"corrupt text in {self.what}: {exc}") from exc
        if isinstance(exc, KeyError):
            raise FrameError(f"unknown name in {self.what}: {exc}") from exc
        return False


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _unpack_bytes(data: bytes, offset: int) -> tuple[bytes, int]:
    (length,) = struct.unpack_from(">I", data, offset)
    start = offset + 4
    chunk = data[start: start + length]
    if len(chunk) != length:
        raise FrameError("truncated field")
    return chunk, start + length


def _pack_text(text: str) -> bytes:
    return _pack_bytes(text.encode("utf-8"))


def _unpack_text(data: bytes, offset: int) -> tuple[str, int]:
    raw, offset = _unpack_bytes(data, offset)
    return raw.decode("utf-8"), offset


def _pack_element(element: object) -> bytes:
    if isinstance(element, KTID):
        return bytes([_ELEMENT_KTID]) + _pack_bytes(element.to_bytes())
    if isinstance(element, str):
        return bytes([_ELEMENT_TEXT]) + _pack_text(element)
    raise TypeError(f"unserializable element {element!r}")


def _unpack_element(data: bytes, offset: int) -> tuple[object, int]:
    tag = data[offset]
    offset += 1
    if tag == _ELEMENT_KTID:
        raw, offset = _unpack_bytes(data, offset)
        return KTID.from_bytes(raw), offset
    if tag == _ELEMENT_TEXT:
        return _unpack_text(data, offset)
    raise FrameError(f"unknown element tag {tag}")


# -- filters -------------------------------------------------------------------


def _pack_filter(subscription: Filter) -> bytes:
    parts = [struct.pack(">H", len(subscription.constraints))]
    for constraint in subscription:
        parts.append(_pack_text(constraint.name))
        parts.append(_pack_text(constraint.op.name))
        if constraint.value is None:
            parts.append(bytes([0]))
        elif isinstance(constraint.value, bool):
            raise TypeError("boolean constraint values are not supported")
        elif isinstance(constraint.value, int):
            parts.append(bytes([1]) + struct.pack(">q", constraint.value))
        elif isinstance(constraint.value, float):
            parts.append(bytes([2]) + struct.pack(">d", constraint.value))
        elif isinstance(constraint.value, str):
            parts.append(bytes([3]) + _pack_text(constraint.value))
        else:
            raise TypeError(
                f"unserializable constraint value {constraint.value!r}"
            )
    return b"".join(parts)


def _unpack_filter(data: bytes, offset: int) -> tuple[Filter, int]:
    (count,) = struct.unpack_from(">H", data, offset)
    offset += 2
    constraints = []
    for _ in range(count):
        name, offset = _unpack_text(data, offset)
        op_name, offset = _unpack_text(data, offset)
        tag = data[offset]
        offset += 1
        value: object
        if tag == 0:
            value = None
        elif tag == 1:
            (value,) = struct.unpack_from(">q", data, offset)
            offset += 8
        elif tag == 2:
            (value,) = struct.unpack_from(">d", data, offset)
            offset += 8
        elif tag == 3:
            value, offset = _unpack_text(data, offset)
        else:
            raise FrameError(f"unknown value tag {tag}")
        constraints.append(Constraint(name, Op[op_name], value))
    return Filter(constraints), offset


def encode_filter(subscription: Filter) -> bytes:
    """Serialize one :class:`~repro.siena.filters.Filter`.

    The encoding is the same one grants embed per clause; exposed on its
    own so network control frames (SUBSCRIBE/UNSUBSCRIBE in
    :mod:`repro.rtnet.frames`) can carry filters as byte strings.
    """
    return _pack_filter(subscription)


def decode_filter(data: bytes) -> Filter:
    """Inverse of :func:`encode_filter`; rejects trailing bytes."""
    with _decoding("filter"):
        subscription, offset = _unpack_filter(data, 0)
    if offset != len(data):
        raise FrameError("trailing bytes after filter")
    return subscription


# -- grants --------------------------------------------------------------------


def encode_grant(grant: AuthorizationGrant) -> bytes:
    """Serialize an authorization grant for transport to its subscriber."""
    parts = [
        _MAGIC_GRANT,
        _pack_text(grant.subscriber),
        _pack_text(grant.topic),
        struct.pack(">qdI", grant.epoch, grant.expires_at,
                    grant.hash_operations),
        struct.pack(">H", len(grant.clauses)),
    ]
    for clause in grant.clauses:
        parts.append(_pack_filter(clause.clause))
        parts.append(struct.pack(">H", len(clause.components)))
        for component in clause.components:
            parts.append(_pack_text(component.attribute))
            parts.append(_pack_element(component.element))
            parts.append(_pack_bytes(component.key))
    return b"".join(parts)


def decode_grant(data: bytes) -> AuthorizationGrant:
    """Inverse of :func:`encode_grant`."""
    if data[:4] != _MAGIC_GRANT:
        raise FrameError("not a serialized grant")
    with _decoding("grant"):
        offset = 4
        subscriber, offset = _unpack_text(data, offset)
        topic, offset = _unpack_text(data, offset)
        epoch, expires_at, hash_operations = struct.unpack_from(
            ">qdI", data, offset
        )
        offset += 20
        (clause_count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        clauses = []
        for _ in range(clause_count):
            clause_filter, offset = _unpack_filter(data, offset)
            (component_count,) = struct.unpack_from(">H", data, offset)
            offset += 2
            components = []
            for _ in range(component_count):
                attribute, offset = _unpack_text(data, offset)
                element, offset = _unpack_element(data, offset)
                key, offset = _unpack_bytes(data, offset)
                components.append(
                    AuthorizationComponent(attribute, element, key)
                )
            clauses.append(
                ClauseGrant(clause_filter, topic, tuple(components))
            )
    if offset != len(data):
        raise FrameError("trailing bytes after grant")
    return AuthorizationGrant(
        subscriber=subscriber,
        topic=topic,
        epoch=epoch,
        expires_at=expires_at,
        clauses=tuple(clauses),
        hash_operations=hash_operations,
    )


# -- sealed events --------------------------------------------------------------


def encode_sealed_event(sealed: SealedEvent) -> bytes:
    """Serialize a sealed event for transport through the broker network."""
    stamped = sealed.origin is not None and sealed.sequence is not None
    parts = [
        _MAGIC_EVENT,
        bytes([_EVENT_FLAG_ENVELOPE if stamped else 0]),
    ]
    if stamped:
        parts.append(_pack_text(sealed.origin))
        parts.append(struct.pack(">q", sealed.sequence))
    parts += [
        bytes([1 if sealed.direct else 0]),
        _pack_bytes(sealed.routable.to_bytes()),
        struct.pack(">H", len(sealed.elements)),
    ]
    for name in sorted(sealed.elements):
        parts.append(_pack_text(name))
        parts.append(_pack_element(sealed.elements[name]))
    parts.append(struct.pack(">H", len(sealed.locks)))
    for lock in sealed.locks:
        parts.append(struct.pack(">H", len(lock.attributes)))
        for attribute in lock.attributes:
            parts.append(_pack_text(attribute))
        parts.append(_pack_bytes(lock.wrapped))
    parts.append(_pack_bytes(sealed.ciphertext))
    return b"".join(parts)


def decode_sealed_event(data: bytes) -> SealedEvent:
    """Inverse of :func:`encode_sealed_event`."""
    origin: str | None = None
    sequence: int | None = None
    with _decoding("sealed event"):
        if data[:4] != _MAGIC_EVENT:
            raise FrameError("not a serialized sealed event")
        flags = data[4]
        offset = 5
        if flags & ~_EVENT_FLAG_ENVELOPE:
            raise FrameError(f"unknown sealed-event flags {flags:#x}")
        if flags & _EVENT_FLAG_ENVELOPE:
            origin, offset = _unpack_text(data, offset)
            (sequence,) = struct.unpack_from(">q", data, offset)
            offset += 8
            if sequence < 0:
                # Publishers count up from zero; the field is only signed
                # on the wire, and a receiver's duplicate window is sized
                # for sequences that advance.
                raise FrameError(f"negative envelope sequence {sequence}")
        direct = bool(data[offset])
        offset += 1
        routable_raw, offset = _unpack_bytes(data, offset)
        routable = Event.from_bytes(routable_raw)
        (element_count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        elements = {}
        for _ in range(element_count):
            name, offset = _unpack_text(data, offset)
            elements[name], offset = _unpack_element(data, offset)
        (lock_count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        locks = []
        for _ in range(lock_count):
            (attribute_count,) = struct.unpack_from(">H", data, offset)
            offset += 2
            attributes = []
            for _ in range(attribute_count):
                attribute, offset = _unpack_text(data, offset)
                attributes.append(attribute)
            wrapped, offset = _unpack_bytes(data, offset)
            locks.append(Lock(tuple(attributes), wrapped))
        ciphertext, offset = _unpack_bytes(data, offset)
    if offset != len(data):
        raise FrameError("trailing bytes after sealed event")
    return SealedEvent(
        routable,
        elements,
        tuple(locks),
        ciphertext,
        direct,
        origin=origin,
        sequence=sequence,
    )
