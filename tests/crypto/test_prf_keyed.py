"""The keyed PRF form against ``hmac.new``, byte for byte.

``F`` and ``KH`` are RFC 2104 HMAC built from hashlib states so the key
set-up can be done once; the standard library's HMAC is the oracle.
"""

import gc
import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

import repro.crypto.prf as prf
from repro.crypto.hashes import KEY_BYTES, SUPPORTED_ALGORITHMS
from repro.crypto.prf import F, KH, KeyedPRF, keyed_F, keyed_KH

MESSAGES = (b"", b"w", b"r" * 16, bytes(range(200)))


def _key_lengths(algorithm):
    block = hashlib.new(algorithm).block_size
    return (0, 1, 16, block - 1, block, block + 1, 200)


def _reference(key, label, message, algorithm):
    return hmac.new(bytes(key), label + message, algorithm).digest()[:KEY_BYTES]


@pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
@pytest.mark.parametrize("key_type", (bytes, bytearray))
def test_keyed_and_one_shot_forms_equal_hmac(algorithm, key_type):
    for length in _key_lengths(algorithm):
        key = key_type(bytes((7 * i + length) % 256 for i in range(length)))
        keyed = {
            b"psguard:f:": (F, keyed_F(key, algorithm)),
            b"psguard:kh:": (KH, keyed_KH(key, algorithm)),
        }
        for label, (one_shot, keyed_form) in keyed.items():
            for message in MESSAGES:
                expected = _reference(key, label, message, algorithm)
                assert one_shot(key, message, algorithm) == expected
                assert keyed_form(message) == expected
                # A keyed form is reusable: the second call starts from
                # the same states as the first.
                assert keyed_form(message) == expected


@given(key=st.binary(max_size=130), messages=st.lists(st.binary(max_size=80)))
def test_keyed_f_is_f_for_any_key_and_message_sequence(key, messages):
    keyed = keyed_F(key)
    for message in messages:
        assert keyed(message) == F(key, message)
        assert keyed(message) == _reference(key, b"psguard:f:", message, "sha1")


def test_a_keyed_form_does_not_follow_a_mutated_bytearray_key():
    key = bytearray(b"k" * 16)
    keyed = keyed_F(key)
    before = keyed(b"m")
    key[0] ^= 0xFF
    assert keyed(b"m") == before == F(b"k" * 16, b"m")


@pytest.mark.parametrize("build", (keyed_F, keyed_KH))
def test_keyed_forms_reject_what_the_one_shot_forms_reject(build):
    with pytest.raises(ValueError):
        build(b"k" * 16, "whirlpool")
    with pytest.raises(TypeError):
        build("not-bytes")
    # The algorithm is judged first, as in the one-shot forms.
    with pytest.raises(ValueError):
        build("not-bytes", "whirlpool")
    with pytest.raises(ValueError):
        F(b"k" * 16, b"m", algorithm="whirlpool")
    with pytest.raises(TypeError):
        F(memoryview(b"k" * 16), b"m")


def _module_state():
    return {
        name: repr(value)
        for name, value in vars(prf).items()
        if not name.startswith("__")
    }


def _live_keyed_forms():
    return sum(isinstance(obj, KeyedPRF) for obj in gc.get_objects())


def test_no_module_level_state_keeps_key_material():
    """A keyed state lives on its owner: dropping the owner drops it,
    and using the PRFs leaves the module as it was (no memo, no
    ``lru_cache``, no registry of keys)."""
    before = _module_state()
    key = bytes(range(100, 116))
    keyed = keyed_F(key)
    keyed(b"m")
    F(key, b"m")
    KH(key, b"m")
    alive = _live_keyed_forms()
    del keyed
    gc.collect()
    assert _live_keyed_forms() == alive - 1
    assert _module_state() == before
    assert not any(
        hasattr(value, "cache_info") for value in vars(prf).values()
    )
