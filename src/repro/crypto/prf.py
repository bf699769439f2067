"""Keyed pseudo-random functions.

The paper uses two keyed PRFs:

- ``KH`` -- the keyed hash used for key derivation roots, approximated by
  HMAC-SHA1 (Section 3.1): ``K(w) = KH_{rk(KDC)}(w)``.
- ``F`` -- the PRF used by the Song-Wagner-Perrig tokenization scheme
  (Section 4.1): ``T(w) = F_{rk(KDC)}(w)`` and the routable attribute
  ``<r, F_{T(w)}(r)>``.

Both are HMAC instances over different domain-separation labels so that a
token can never collide with a key.

More than half of one HMAC evaluation is key set-up, and a broker probes
the same subscription token against every event it routes, so both PRFs
come in a *keyed* form (:func:`keyed_F`, :func:`keyed_KH`) that does the
set-up once; ``F`` and ``KH`` are that form used once.  A keyed PRF
holds key-derived hash state: keep it on the object that already holds
the key, so both are dropped together -- this module caches none.
"""

from __future__ import annotations

import hmac

from repro.crypto.hashes import KEY_BYTES, _constructor

_KH_LABEL = b"psguard:kh:"
_F_LABEL = b"psguard:f:"

_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class KeyedPRF:
    """``KH`` or ``F`` under one fixed key: ``prf(message) -> bytes``.

    RFC 2104 HMAC with the inner and outer hash states built once (the
    inner one already past the domain-separation label), so a call is
    two state copies and two short updates; byte-identical to
    ``hmac.new(key, label + message, algorithm).digest()[:KEY_BYTES]``.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes, label: bytes, algorithm: str = "sha1"):
        constructor = _constructor(algorithm)
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"PRF key must be bytes, got {type(key).__name__}")
        inner = constructor()
        block = inner.block_size
        if len(key) > block:
            key = constructor(key).digest()
        padded = bytes(key).ljust(block, b"\x00")
        inner.update(padded.translate(_IPAD))
        inner.update(label)
        self._inner = inner
        self._outer = constructor(padded.translate(_OPAD))

    def __call__(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:KEY_BYTES]


def keyed_KH(key: bytes, algorithm: str = "sha1") -> KeyedPRF:
    """``KH`` under *key*, for callers that evaluate it more than once."""
    return KeyedPRF(key, _KH_LABEL, algorithm)


def keyed_F(key: bytes, algorithm: str = "sha1") -> KeyedPRF:
    """``F`` under *key*, for callers that evaluate it more than once."""
    return KeyedPRF(key, _F_LABEL, algorithm)


def KH(key: bytes, message: bytes, algorithm: str = "sha1") -> bytes:
    """The keyed pseudo-random function ``KH`` (HMAC), truncated to key width.

    Used to derive topic keys and key-tree roots, e.g.
    ``K_root(age) = KH_{K(cancerTrail)}("age")``.
    """
    return KeyedPRF(key, _KH_LABEL, algorithm)(message)


def F(key: bytes, message: bytes, algorithm: str = "sha1") -> bytes:
    """The tokenization PRF ``F`` (HMAC under a distinct label).

    Domain-separated from :func:`KH` so tokens and keys never coincide even
    for equal inputs.
    """
    return KeyedPRF(key, _F_LABEL, algorithm)(message)


def derive_key(parent: bytes, branch: bytes, algorithm: str = "sha1") -> bytes:
    """Derive a child key ``H(parent || branch)`` in the hierarchical key tree.

    Child derivation is one-way: given the child it is computationally
    infeasible to recover the parent or a sibling.
    """
    from repro.crypto.hashes import H

    return H(bytes(parent) + bytes(branch), algorithm)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string comparison for token/MAC verification."""
    return hmac.compare_digest(bytes(a), bytes(b))
