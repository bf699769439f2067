"""One-way hash functions.

The paper approximates the one-way hash function ``H`` with SHA1 (or MD5).
Keys derived from ``H`` live in a 128-bit key space, so every hash output is
truncated to :data:`KEY_BYTES` bytes before it is used as a key.
"""

from __future__ import annotations

import hashlib
from typing import Callable

#: Size of every key in the common key space (AES-128 keys are 16 bytes).
KEY_BYTES = 16

#: Hash algorithms the prototype supports, mirroring the paper's choices.
SUPPORTED_ALGORITHMS = ("sha1", "md5", "sha256")

_DEFAULT_ALGORITHM = "sha1"

#: Constructors bound once at import: ``H`` runs once per tree level of
#: every derivation, so a by-name ``hashlib.new`` per call is the hot path.
_CONSTRUCTORS = {name: getattr(hashlib, name) for name in SUPPORTED_ALGORITHMS}


def _constructor(algorithm: str):
    try:
        return _CONSTRUCTORS[algorithm]
    except KeyError:
        raise ValueError(
            f"unsupported hash algorithm {algorithm!r}; "
            f"expected one of {SUPPORTED_ALGORITHMS}"
        ) from None


def hash_function(algorithm: str = _DEFAULT_ALGORITHM) -> Callable[[bytes], bytes]:
    """Return a full-width one-way hash function for *algorithm*.

    >>> digest = hash_function("sha1")(b"x")
    >>> len(digest)
    20
    """
    constructor = _constructor(algorithm)

    def _hash(data: bytes) -> bytes:
        return constructor(data).digest()

    return _hash


def H(data: bytes, algorithm: str = _DEFAULT_ALGORITHM) -> bytes:
    """The one-way hash ``H`` of the paper, truncated to the key width.

    ``H`` is used for child-key derivation in the hierarchical key trees:
    ``K(xi || b) = H(K(xi) || b)``.  Truncating a cryptographic hash is the
    standard way of fitting its output into a fixed-width key space.
    """
    return _constructor(algorithm)(data).digest()[:KEY_BYTES]
