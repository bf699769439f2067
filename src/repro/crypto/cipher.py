"""High-level symmetric encryption used throughout PSGuard.

``encrypt``/``decrypt`` implement AES-CBC with PKCS#7 padding and a random
IV.  Two interchangeable backends produce and accept the identical wire
format ``iv || ciphertext``:

- ``"cryptography"`` -- the C-backed AES from the ``cryptography`` wheel
  (~100x cheaper per block than pure Python);
- ``"pure"`` -- the from-scratch FIPS-197 implementation in
  :mod:`repro.crypto.aes` / :mod:`repro.crypto.modes`.

Backend selection is *verified-then-preferred*: the first call resolves
the backend lazily, and before the fast backend is adopted it must
reproduce the pure-Python implementation bit-for-bit on a fixed
known-answer vector (encrypt and decrypt round trip).  A missing,
mismatching or broken wheel falls back to the pure implementation rather
than corrupting ciphertexts; :func:`fallback_reason` says why.  The pure
path is also the only one on an install without the wheel
(``dependencies = []``), and :mod:`repro.crypto.modes` stays callable
directly as the reference.
"""

from __future__ import annotations

import os

from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad

try:  # pragma: no cover - exercised indirectly depending on environment
    # The classes are bound here, not read per call: ``algorithms`` and
    # ``modes`` are deprecation-proxy modules, and an attribute read
    # through one costs several times the construction it precedes.
    from cryptography.hazmat.primitives.ciphers import Cipher as _Cipher
    from cryptography.hazmat.primitives.ciphers.algorithms import AES as _AES
    from cryptography.hazmat.primitives.ciphers.modes import CBC as _CBC

    _HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover
    _HAVE_CRYPTOGRAPHY = False

#: Resolved backend name, or None while still unresolved.
_active_backend: str | None = None
#: Why the fast backend was rejected (diagnostics only).
_fallback_reason: str | None = None


def _fast_encrypt(key: bytes, plaintext: bytes, iv: bytes) -> bytes:
    encryptor = _Cipher(_AES(bytes(key)), _CBC(iv)).encryptor()
    return iv + encryptor.update(pkcs7_pad(plaintext)) + encryptor.finalize()


def _fast_decrypt(key: bytes, data: bytes) -> bytes:
    if len(data) < 2 * BLOCK_SIZE or len(data) % BLOCK_SIZE != 0:
        raise ValueError("ciphertext too short or not block aligned")
    iv, ciphertext = data[:BLOCK_SIZE], data[BLOCK_SIZE:]
    decryptor = _Cipher(_AES(bytes(key)), _CBC(iv)).decryptor()
    return pkcs7_unpad(decryptor.update(ciphertext) + decryptor.finalize())


def _self_check() -> str | None:
    """Cross-validate the fast backend against pure Python.

    Returns None on success, else a human-readable failure description.
    The vector exercises padding (non-block-aligned plaintext) and both
    directions; any divergence from the reference implementation rejects
    the backend.
    """
    key = bytes(range(16))
    iv = bytes(range(16, 32))
    plaintext = b"psguard aes backend self-check \x00\x01\x02"
    try:
        reference = cbc_encrypt(key, plaintext, iv)
        candidate = _fast_encrypt(key, plaintext, iv)
        if candidate != reference:
            return "ciphertext mismatch against pure-Python reference"
        if _fast_decrypt(key, reference) != plaintext:
            return "decrypt round trip mismatch"
    except Exception as exc:  # pragma: no cover - defensive
        return f"self-check raised {exc!r}"
    return None


def _resolve_backend() -> str:
    """Resolve (once) which backend serves encrypt/decrypt calls."""
    global _active_backend, _fallback_reason
    if _active_backend is not None:
        return _active_backend
    if not _HAVE_CRYPTOGRAPHY:
        _active_backend = "pure"
        _fallback_reason = "cryptography wheel not importable"
        return _active_backend
    failure = _self_check()
    if failure is None:
        _active_backend = "cryptography"
    else:
        _active_backend = "pure"
        _fallback_reason = f"self-check failed: {failure}"
    return _active_backend


def reset_backend() -> None:
    """Forget the resolved backend so the next call resolves it again.

    Intended for tests that swap the fast backend out.
    """
    global _active_backend, _fallback_reason
    _active_backend = None
    _fallback_reason = None


def backend_name() -> str:
    """Name of the active AES backend (``"cryptography"`` or ``"pure"``).

    Resolves the backend (including the first-use self-check) if no
    encrypt/decrypt call has done so yet.
    """
    return _resolve_backend()


def fallback_reason() -> str | None:
    """Why the fast backend was rejected, or None if it was not."""
    _resolve_backend()
    return _fallback_reason


def encrypt(key: bytes, plaintext: bytes, iv: bytes | None = None) -> bytes:
    """AES-CBC encrypt *plaintext* under *key*; returns ``iv || ciphertext``."""
    if _resolve_backend() == "pure":
        return cbc_encrypt(key, plaintext, iv)
    if iv is None:
        iv = os.urandom(BLOCK_SIZE)
    return _fast_encrypt(key, plaintext, iv)


def decrypt(key: bytes, data: bytes) -> bytes:
    """Inverse of :func:`encrypt`.

    Raises :class:`ValueError` when the ciphertext is malformed or the
    padding check fails (e.g. wrong key).
    """
    if _resolve_backend() == "pure":
        return cbc_decrypt(key, data)
    return _fast_decrypt(key, data)
