"""Run the doctests embedded in public-API docstrings."""

import doctest

import pytest

import repro.core.kdc
import repro.core.ktid
import repro.core.nakt
import repro.core.publisher
import repro.crypto.aes
import repro.crypto.hashes
import repro.engine
import repro.flow.aimd
import repro.flow.credit
import repro.flow.queues
import repro.recovery.dedup
import repro.siena.network
import repro.workloads.zipf

MODULES = [
    repro.core.kdc,
    repro.core.ktid,
    repro.core.nakt,
    repro.core.publisher,
    repro.crypto.aes,
    repro.crypto.hashes,
    repro.engine,
    repro.flow.aimd,
    repro.flow.credit,
    repro.flow.queues,
    repro.recovery.dedup,
    repro.siena.network,
    repro.workloads.zipf,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.attempted > 0, "expected at least one doctest"
    assert results.failed == 0, f"{results.failed} doctest failures"
