"""Cryptographic substrate for PSGuard.

The paper's prototype (Section 5.1) uses SHA1 for the one-way hash ``H``,
HMAC-SHA1 for the keyed pseudo-random function ``KH`` and AES-128-CBC for
the symmetric encryption algorithm ``E``.  This package provides those
primitives from scratch:

- :mod:`repro.crypto.hashes` -- one-way hash functions (``H``).
- :mod:`repro.crypto.prf` -- keyed PRFs ``KH`` and ``F`` (HMAC based).
- :mod:`repro.crypto.aes` -- a pure-Python AES block cipher.
- :mod:`repro.crypto.modes` -- CBC mode with PKCS#7 padding.
- :mod:`repro.crypto.cipher` -- the high-level ``encrypt``/``decrypt`` used
  by the rest of the system, with an optional accelerated backend.
"""

from repro.crypto.aes import AES
from repro.crypto.cipher import decrypt, encrypt
from repro.crypto.hashes import H, hash_function, KEY_BYTES
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.crypto.prf import (
    F,
    KH,
    KeyedPRF,
    constant_time_equal,
    derive_key,
    keyed_F,
    keyed_KH,
)

__all__ = [
    "AES",
    "F",
    "H",
    "KEY_BYTES",
    "KH",
    "KeyedPRF",
    "cbc_decrypt",
    "cbc_encrypt",
    "constant_time_equal",
    "decrypt",
    "derive_key",
    "encrypt",
    "hash_function",
    "keyed_F",
    "keyed_KH",
    "pkcs7_pad",
    "pkcs7_unpad",
]
