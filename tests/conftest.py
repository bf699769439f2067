"""Shared fixtures for the PSGuard test suite."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import settings

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.net.virtual import VirtualLoop

# CI's second, deeper passes over tests/siena/test_covering_incremental.py
# (``--hypothesis-profile=covering-deep``) and
# tests/core/test_cache_differential.py (``--hypothesis-profile=cache-deep``).
# Registered here because the hypothesis plugin loads the named profile
# before any test module is imported; neither changes anything unless
# selected.
settings.register_profile("covering-deep", max_examples=1000, deadline=None)
settings.register_profile("cache-deep", max_examples=1000, deadline=None)


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


# -- the socket loop and the virtual loop --------------------------------------

#: The suites whose every test runs on the socket loop and again, as
#: ``<name>[virtual]``, on a :class:`~repro.net.virtual.VirtualLoop`.
BOTH_LOOPS = ("rekey", "rtnet")
#: One-way delay of the virtual loop's streams in those runs.
VIRTUAL_DELAY = 0.001


class _VirtualLoopPolicy(asyncio.DefaultEventLoopPolicy):
    def new_event_loop(self):
        return VirtualLoop(VIRTUAL_DELAY)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "socket_only(reason): runs on the socket loop only -- the test "
        "drives a raw socket, which a virtual loop does not host",
    )
    config.addinivalue_line(
        "markers",
        "virtual_loop: every event loop the test creates is a VirtualLoop",
    )


def pytest_collection_modifyitems(items):
    """Add a ``[virtual]`` copy of every test under :data:`BOTH_LOOPS`
    that is not ``socket_only``."""
    copies = []
    for item in items:
        if item.path.parent.name not in BOTH_LOOPS or item.get_closest_marker(
            "socket_only"
        ) is not None:
            continue
        name = item.name
        name = f"{name[:-1]}-virtual]" if name.endswith("]") else f"{name}[virtual]"
        copy = pytest.Function.from_parent(
            item.parent,
            name=name,
            callspec=getattr(item, "callspec", None),
            callobj=item.obj,
            fixtureinfo=item._fixtureinfo,
            originalname=item.originalname,
        )
        copy.add_marker("virtual_loop")
        copies.append(copy)
    items.extend(copies)


@pytest.fixture(autouse=True)
def _event_loop_host(request):
    """Make ``asyncio.run``/``new_event_loop`` build a VirtualLoop for
    a test marked ``virtual_loop``."""
    if request.node.get_closest_marker("virtual_loop") is None:
        yield
        return
    asyncio.set_event_loop_policy(_VirtualLoopPolicy())
    try:
        yield
    finally:
        asyncio.set_event_loop_policy(None)
