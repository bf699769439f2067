"""The package exception hierarchy and its backward-compat guarantees."""

import pytest

from repro.errors import (
    FrameError,
    GrantDenied,
    GrantExpired,
    KDCUnavailable,
    ReproError,
)


def test_every_package_error_derives_from_repro_error():
    for error in (
        GrantDenied,
        GrantExpired,
        KDCUnavailable,
        FrameError,
    ):
        assert issubclass(error, ReproError)
        assert issubclass(error, Exception)


def test_stdlib_compat_bridges():
    """Errors that replaced stdlib types still catch as the original."""
    assert issubclass(GrantDenied, PermissionError)
    assert issubclass(KDCUnavailable, RuntimeError)
    assert issubclass(FrameError, ValueError)


def test_top_level_reexports():
    import repro

    assert repro.ReproError is ReproError
    assert repro.GrantDenied is GrantDenied
    assert repro.GrantExpired is GrantExpired
    assert repro.KDCUnavailable is KDCUnavailable
    assert repro.FrameError is FrameError


def test_kdc_denial_raises_the_typed_error():
    from repro.core import KDC, CompositeKeySpace, NumericKeySpace
    from repro.siena.filters import Filter

    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 16)})
    )
    kdc.revoke("mallory", "t")
    wanted = Filter.numeric_range("t", "v", 0, 15)
    with pytest.raises(GrantDenied):
        kdc.authorize("mallory", wanted)
    with pytest.raises(PermissionError):  # legacy catch still works
        kdc.authorize("mallory", wanted)
    with pytest.raises(ReproError):  # blanket package catch too
        kdc.authorize("mallory", wanted)


def test_wire_corruption_raises_the_typed_error():
    from repro.core.wire import decode_sealed_event

    with pytest.raises(FrameError):
        decode_sealed_event(b"\x00garbage")
    with pytest.raises(ValueError):  # legacy catch still works
        decode_sealed_event(b"\x00garbage")


def test_frame_corruption_raises_the_typed_error():
    from repro.rtnet.frames import decode_payload

    with pytest.raises(FrameError):
        decode_payload(b"\xff\xff\xff")
