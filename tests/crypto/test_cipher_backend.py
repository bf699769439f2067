"""AES backend selection: verified fast backend, pure fallback, reset."""

import pytest

from repro.crypto import cipher
from repro.crypto.modes import cbc_decrypt, cbc_encrypt

KEY = bytes(range(16))
IV = bytes(range(16, 32))


@pytest.fixture(autouse=True)
def _fresh_backend():
    """Each test resolves the backend from what its own patches leave."""
    cipher.reset_backend()
    yield
    cipher.reset_backend()


def test_auto_resolves_to_a_valid_backend():
    assert cipher.backend_name() in ("cryptography", "pure")


def test_pure_override_forces_reference_implementation(monkeypatch):
    monkeypatch.setattr(cipher, "_HAVE_CRYPTOGRAPHY", False)
    assert cipher.backend_name() == "pure"
    assert cipher.fallback_reason() == "cryptography wheel not importable"
    assert cipher.encrypt(KEY, b"hello", IV) == cbc_encrypt(KEY, b"hello", IV)


def test_backends_produce_interoperable_wire_format():
    sealed_pure = cbc_encrypt(KEY, b"cross-backend payload", IV)
    assert cipher.decrypt(KEY, sealed_pure) == b"cross-backend payload"
    sealed_active = cipher.encrypt(KEY, b"cross-backend payload", IV)
    assert sealed_active == sealed_pure
    assert cbc_decrypt(KEY, sealed_active) == b"cross-backend payload"


def test_reset_backend_rereads_environment(monkeypatch):
    first = cipher.backend_name()
    monkeypatch.setattr(cipher, "_HAVE_CRYPTOGRAPHY", False)
    # Resolution is sticky until reset: losing the wheel alone is ignored.
    assert cipher.backend_name() == first
    cipher.reset_backend()
    assert cipher.backend_name() == "pure"


def test_failing_self_check_falls_back_under_auto(monkeypatch):
    if not cipher._HAVE_CRYPTOGRAPHY:
        pytest.skip("fast backend not importable; fallback is trivial")

    def corrupted(key, plaintext, iv):
        good = cipher._Cipher(
            cipher._algorithms.AES(bytes(key)), cipher._modes.CBC(iv)
        ).encryptor()
        data = good.update(cipher.pkcs7_pad(plaintext)) + good.finalize()
        return iv + bytes(byte ^ 0xFF for byte in data)

    monkeypatch.setattr(cipher, "_fast_encrypt", corrupted)
    assert cipher.backend_name() == "pure"
    assert "mismatch" in cipher.fallback_reason()
