"""Shared fixtures for the PSGuard test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace

# CI's second, deeper pass over tests/siena/test_covering_incremental.py
# (``--hypothesis-profile=covering-deep``).  Registered here because the
# hypothesis plugin loads the named profile before any test module is
# imported; it changes nothing unless selected.
settings.register_profile("covering-deep", max_examples=1000, deadline=None)


@pytest.fixture
def master_key() -> bytes:
    """A fixed KDC master key for reproducible derivations."""
    return bytes(range(16))


@pytest.fixture
def topic_key() -> bytes:
    """A fixed topic key."""
    return bytes(range(16, 32))


@pytest.fixture
def age_space() -> NumericKeySpace:
    """The paper's running example: an age attribute over (0, 127)."""
    return NumericKeySpace("age", 128)


@pytest.fixture
def medical_kdc(master_key: bytes) -> KDC:
    """A KDC with the paper's cancerTrail topic registered."""
    kdc = KDC(master_key=master_key)
    kdc.register_topic(
        "cancerTrail",
        CompositeKeySpace({"age": NumericKeySpace("age", 128)}),
    )
    return kdc
