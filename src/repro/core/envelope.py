"""Event sealing: end-to-end encryption of secret attributes.

An event splits into *routable* attributes (visible to brokers, possibly
tokenized) and *secret* attributes (encrypted with the event's encryption
key ``K(e)``, Section 3).  ``seal_event`` produces a :class:`SealedEvent`;
``open_event`` recovers the plaintext given key material that matches.

Lock structure
--------------
The event's securable attributes each contribute a component leaf key; the
event is locked under the **combined** key of all of them
(:func:`repro.core.composite.combine_keys`).  Subscribers whose filters do
not constrain some securable attribute hold that attribute's *root* key in
their grant, so they can still derive every component -- "no constraint"
is root-level authorization (see :mod:`repro.core.kdc`).

With a single securable attribute (the paper's experimental workloads) the
payload is encrypted directly under the leaf key, so subscriber cost is
exactly the paper's ``D + H * log2(phi_R)``.  With several attributes, or
when the publisher supplies extra lock subsets for disjunctive access, the
payload is encrypted once under a fresh content key which is then wrapped
under each lock key (hybrid envelope).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.hashes import KEY_BYTES
from repro.core.composite import CompositeKeySpace, combine_keys
from repro.siena.events import Event


@dataclass(frozen=True)
class Lock:
    """One way to open a sealed event.

    ``attributes`` names the securable attributes whose component keys must
    be combined; ``wrapped`` is the content key encrypted under that
    combination (empty for the direct single-lock fast path).
    """

    attributes: tuple[str, ...]
    wrapped: bytes = b""


@dataclass(frozen=True)
class SealedEvent:
    """An encrypted event as it travels through the pub-sub network."""

    routable: Event
    elements: dict[str, object]
    locks: tuple[Lock, ...]
    ciphertext: bytes
    direct: bool
    #: End-to-end delivery metadata, stamped by the publisher AFTER
    #: sealing: the publishing principal and its per-publisher monotonic
    #: sequence number.  Subscriber-side duplicate suppression keys on
    #: the pair.  Plain envelope framing, never an event attribute and
    #: never inside the ciphertext -- sealing (and therefore every
    #: ciphertext and decrypted stream) is byte-identical with and
    #: without it.  ``None`` on events sealed directly via
    #: :func:`seal_event`.
    origin: str | None = None
    sequence: int | None = None

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes."""
        lock_bytes = sum(
            len(lock.wrapped) + sum(len(a) for a in lock.attributes) + 2
            for lock in self.locks
        )
        element_bytes = sum(
            len(name) + _element_size(element)
            for name, element in self.elements.items()
        )
        envelope_bytes = (
            len(self.origin) + 8 if self.origin is not None else 0
        )
        return (
            self.routable.wire_size()
            + element_bytes
            + lock_bytes
            + len(self.ciphertext)
            + envelope_bytes
        )


def _element_size(element: object) -> int:
    if isinstance(element, str):
        return len(element)
    if hasattr(element, "digits"):
        return len(element.digits) + 2  # KTID wire encoding
    return 8


def _encode_secret(secret: Event) -> bytes:
    payload = secret.to_bytes()
    return struct.pack(">I", len(payload)) + payload


def _decode_secret(data: bytes) -> Event:
    # A tampered ciphertext can decrypt to bytes that are no event.
    try:
        (length,) = struct.unpack_from(">I", data, 0)
        return Event.from_bytes(data[4: 4 + length])
    except (struct.error, IndexError) as error:
        raise ValueError("malformed secret payload") from error


def seal_event(
    event: Event,
    schema: CompositeKeySpace,
    topic_key: bytes,
    secret_attributes: set[str],
    extra_lock_subsets: list[tuple[str, ...]] | None = None,
) -> SealedEvent:
    """Encrypt *event*'s secret attributes (publisher side).

    ``secret_attributes`` are stripped from the routable part and carried
    only inside the ciphertext.  Securable attributes (those declared in
    *schema* and present in the event) determine the lock.  Optional
    ``extra_lock_subsets`` add additional locks over subsets of the
    securable attributes (publisher-declared disjunctive access).
    """
    missing = secret_attributes - set(event.attributes)
    if missing:
        raise ValueError(f"secret attributes absent from event: {sorted(missing)}")
    securable = sorted(
        name
        for name in event.attributes
        if name in schema.attribute_names() and name not in secret_attributes
    )

    elements: dict[str, object] = {}
    component_keys: dict[str, bytes] = {}
    if securable:
        for name in securable:
            element, key = schema.event_component(topic_key, name, event[name])
            elements[name] = element
            component_keys[name] = key
    else:
        # Plain-topic event: the topic key itself is the encryption key
        # (Section 3.1's base case, K(e) = K(w)).
        topic = event.get("topic")
        if topic is None:
            raise ValueError(
                "event has neither a securable attribute nor a topic to "
                "derive an encryption key from"
            )
        securable = ["topic"]
        elements["topic"] = topic
        component_keys["topic"] = topic_key

    secret = Event(
        {name: event[name] for name in secret_attributes},
        publisher=event.publisher,
    )
    routable = event.without_attributes(*secret_attributes)
    payload = _encode_secret(secret)

    subsets: list[tuple[str, ...]] = [tuple(securable)]
    for subset in extra_lock_subsets or []:
        ordered = tuple(sorted(subset))
        if not ordered or any(name not in component_keys for name in ordered):
            raise ValueError(f"lock subset {subset!r} is not securable")
        if ordered not in subsets:
            subsets.append(ordered)

    if len(subsets) == 1:
        lock_key = combine_keys(
            {name: component_keys[name] for name in subsets[0]}
        )
        ciphertext = encrypt(lock_key, payload)
        return SealedEvent(
            routable, elements, (Lock(subsets[0]),), ciphertext, direct=True
        )

    content_key = os.urandom(KEY_BYTES)
    locks = []
    for subset in subsets:
        lock_key = combine_keys({name: component_keys[name] for name in subset})
        locks.append(Lock(subset, encrypt(lock_key, content_key)))
    ciphertext = encrypt(content_key, payload)
    return SealedEvent(routable, elements, tuple(locks), ciphertext, direct=False)


@dataclass
class OpenResult:
    """A successfully opened event plus derivation-cost accounting."""

    event: Event
    hash_operations: int = 0
    decrypt_operations: int = 0
    lock: Lock | None = field(default=None)


def open_event(
    sealed: SealedEvent,
    schema: CompositeKeySpace,
    component_keys: dict[str, bytes],
    hash_operations: int = 0,
) -> OpenResult:
    """Decrypt a sealed event given already-derived component leaf keys.

    *component_keys* maps attribute name to the derived leaf key for the
    event's element of that attribute (see
    :meth:`repro.core.subscriber.Subscriber.receive` for the derivation
    step).  Picks the first lock whose attribute set is fully covered.
    Raises :class:`ValueError` when no lock is satisfiable or decryption
    fails.
    """
    for lock in sealed.locks:
        if not all(name in component_keys for name in lock.attributes):
            continue
        lock_key = combine_keys(
            {name: component_keys[name] for name in lock.attributes}
        )
        decrypts = 0
        try:
            if sealed.direct:
                payload = decrypt(lock_key, sealed.ciphertext)
                decrypts = 1
            else:
                content_key = decrypt(lock_key, lock.wrapped)
                decrypts = 1
                payload = decrypt(content_key, sealed.ciphertext)
                decrypts += 1
            secret = _decode_secret(payload)
        except ValueError:
            continue
        merged = dict(sealed.routable.attributes)
        merged.update(secret.attributes)
        return OpenResult(
            Event(merged, publisher=sealed.routable.publisher),
            hash_operations=hash_operations,
            decrypt_operations=decrypts,
            lock=lock,
        )
    raise ValueError("no lock on this event is satisfiable with the given keys")
