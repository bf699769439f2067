"""Events: typed attribute sets published into the pub-sub network.

An event is a set of named attributes, e.g. (Section 1)::

    e = <<topic, cancerTrail>, <age, 25>, <patientRecord, record>>

Attributes split into *routable* attributes (visible to brokers for
content-based routing, possibly tokenized by PSGuard) and *secret*
attributes (encrypted end to end).  The plain Siena core treats every
attribute as routable; PSGuard's envelope layer
(:mod:`repro.core.envelope`) introduces the distinction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.siena.operators import AttributeValue

_WIRE_TAG_INT = 0
_WIRE_TAG_FLOAT = 1
_WIRE_TAG_STR = 2
_WIRE_TAG_BYTES = 3


def _encode_value(value: AttributeValue) -> bytes:
    if isinstance(value, bool):
        raise TypeError("boolean attribute values are not supported")
    if isinstance(value, int):
        return struct.pack(">Bq", _WIRE_TAG_INT, value)
    if isinstance(value, float):
        return struct.pack(">Bd", _WIRE_TAG_FLOAT, value)
    if isinstance(value, str):
        data = value.encode("utf-8")
        return struct.pack(">BI", _WIRE_TAG_STR, len(data)) + data
    if isinstance(value, (bytes, bytearray)):
        return struct.pack(">BI", _WIRE_TAG_BYTES, len(value)) + bytes(value)
    raise TypeError(f"unsupported attribute value type {type(value).__name__}")


def _decode_value(data: bytes, offset: int) -> tuple[AttributeValue, int]:
    tag = data[offset]
    if tag == _WIRE_TAG_INT:
        (value,) = struct.unpack_from(">q", data, offset + 1)
        return value, offset + 9
    if tag == _WIRE_TAG_FLOAT:
        (value,) = struct.unpack_from(">d", data, offset + 1)
        return value, offset + 9
    if tag in (_WIRE_TAG_STR, _WIRE_TAG_BYTES):
        (length,) = struct.unpack_from(">I", data, offset + 1)
        start = offset + 5
        raw = data[start: start + length]
        if len(raw) != length:
            raise ValueError("truncated attribute value")
        if tag == _WIRE_TAG_STR:
            return raw.decode("utf-8"), start + length
        return raw, start + length
    raise ValueError(f"unknown wire tag {tag}")


def _in_name_order(
    attributes: dict[str, AttributeValue],
) -> dict[str, AttributeValue]:
    """*attributes* itself when its names already ascend, else a sorted copy."""
    names = list(attributes)
    ordered = sorted(names)
    if ordered == names:
        return attributes
    return {name: attributes[name] for name in ordered}


@dataclass(frozen=True)
class Event:
    """An immutable pub-sub event.

    ``attributes`` maps attribute names to values; ``publisher`` identifies
    the publishing principal (used for per-publisher topic keys,
    Section 3.1 "Multiple Publishers").
    """

    #: Held as a dict in name order, which makes it the sorted view that
    #: iteration, hashing and the wire encoding go by: nothing else is
    #: built or kept per event.
    attributes: Mapping[str, AttributeValue]
    publisher: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "attributes", _in_name_order(dict(self.attributes))
        )

    @classmethod
    def _owning(
        cls, attributes: dict[str, AttributeValue], publisher: str | None
    ) -> "Event":
        """An event around *attributes* itself: a dict in name order that
        the caller built and hands over (no defensive copy, no sort)."""
        event = cls.__new__(cls)
        object.__setattr__(event, "attributes", attributes)
        object.__setattr__(event, "publisher", publisher)
        return event

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def __getitem__(self, name: str) -> AttributeValue:
        return self.attributes[name]

    def __iter__(self) -> Iterator[tuple[str, AttributeValue]]:
        return iter(self.attributes.items())

    def __len__(self) -> int:
        return len(self.attributes)

    def __hash__(self) -> int:
        return hash((tuple(self.attributes.items()), self.publisher))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.attributes == other.attributes
            and self.publisher == other.publisher
        )

    def get(self, name: str, default: AttributeValue | None = None):
        """Return the value of attribute *name*, or *default*."""
        return self.attributes.get(name, default)

    def with_attributes(self, **extra: AttributeValue) -> "Event":
        """A copy of this event with *extra* attributes merged in."""
        merged = dict(self.attributes)
        merged.update(extra)
        return Event._owning(_in_name_order(merged), self.publisher)

    def without_attributes(self, *names: str) -> "Event":
        """A copy of this event with the given attributes removed."""
        remaining = {
            name: value for name, value in self.attributes.items()
            if name not in names
        }
        return Event._owning(remaining, self.publisher)

    # -- wire format -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Deterministic wire encoding (used for sizing and encryption)."""
        parts = [struct.pack(">H", len(self.attributes))]
        publisher = (self.publisher or "").encode("utf-8")
        parts.append(struct.pack(">H", len(publisher)))
        parts.append(publisher)
        for name, value in self.attributes.items():
            encoded_name = name.encode("utf-8")
            parts.append(struct.pack(">H", len(encoded_name)))
            parts.append(encoded_name)
            parts.append(_encode_value(value))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Event":
        """Inverse of :meth:`to_bytes`."""
        (count,) = struct.unpack_from(">H", data, 0)
        (publisher_len,) = struct.unpack_from(">H", data, 2)
        offset = 4 + publisher_len
        publisher = data[4:offset].decode("utf-8") or None
        attributes: dict[str, AttributeValue] = {}
        # to_bytes writes names in ascending order; anything else (a
        # foreign encoder, a repeated name) goes through the sort.
        ascending = True
        previous = ""
        for _ in range(count):
            (name_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            name = data[offset: offset + name_len].decode("utf-8")
            offset += name_len
            value, offset = _decode_value(data, offset)
            if attributes and name <= previous:
                ascending = False
            attributes[name] = value
            previous = name
        if ascending:
            return cls._owning(attributes, publisher)
        return cls(attributes, publisher=publisher)

    def wire_size(self) -> int:
        """Size of the event on the wire, in bytes."""
        return len(self.to_bytes())
