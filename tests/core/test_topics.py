"""Topic keys K(w) and K_P(w) as the KDC derives them (section 3.1)."""

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC


def _kdc(master_key, *topics, per_publisher=False):
    kdc = KDC(master_key=master_key)
    for topic in topics:
        kdc.register_topic(
            topic, CompositeKeySpace({}), per_publisher=per_publisher
        )
    return kdc


def test_shared_topic_key_deterministic(master_key):
    kdc = _kdc(master_key, "w")
    assert kdc.topic_key("w", epoch=0) == kdc.topic_key("w", epoch=0)


def test_topic_key_differs_by_topic(master_key):
    kdc = _kdc(master_key, "a", "b")
    assert kdc.topic_key("a", epoch=0) != kdc.topic_key("b", epoch=0)


def test_per_publisher_keys_isolate_publishers(master_key):
    """Section 3.1 "Multiple Publishers": K_P(w) != K_Q(w)."""
    kdc = _kdc(master_key, "w", per_publisher=True)
    key_p = kdc.topic_key("w", publisher="P", epoch=0)
    key_q = kdc.topic_key("w", publisher="Q", epoch=0)
    assert key_p != key_q


def test_per_publisher_requires_identity(master_key):
    kdc = _kdc(master_key, "w", per_publisher=True)
    with pytest.raises(ValueError, match="publisher identity is required"):
        kdc.topic_key("w", epoch=0)


def test_per_publisher_key_differs_from_shared(master_key):
    shared = _kdc(master_key, "w").topic_key("w", epoch=0)
    scoped = _kdc(master_key, "w", per_publisher=True).topic_key(
        "w", publisher="P", epoch=0
    )
    assert shared != scoped


def test_separator_prevents_identity_splicing(master_key):
    """K_{"ab"}("c") must differ from K_{"a"}("bc") in the same epoch."""
    kdc = _kdc(master_key, "c", "bc", per_publisher=True)
    assert kdc.topic_key("c", publisher="ab", epoch=0) != kdc.topic_key(
        "bc", publisher="a", epoch=0
    )
