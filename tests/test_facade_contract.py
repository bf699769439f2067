"""One facade contract on both transports: each call on a system from
``System.builder()`` means the same in process and over localhost TCP."""

import asyncio
import gc
import time

import pytest

from repro.api import System
from repro.core.renewal import RenewalPolicy
from repro.siena.events import Event
from repro.siena.filters import Filter

TRANSPORTS = ["inproc", "tcp"]


def _build(transport: str, renewal: bool = False):
    builder = (
        System.builder()
        .brokers(3)
        .topic("t", numeric={"v": 16})
        .transport(transport)
    )
    if renewal:
        builder.renewal(RenewalPolicy(lead=10.0, grace=0.0))
    return builder.build()


def _loop_reports(system) -> list[str]:
    """What the tcp system's event loop reports from here on, such as
    "Task was destroyed but it is pending!"."""
    reports: list[str] = []
    loop = getattr(system, "_loop", None)
    if loop is not None:
        loop.set_exception_handler(
            lambda _loop, context: reports.append(context["message"])
        )
    return reports


def _pending_tasks(system) -> set:
    """Tasks left unfinished on the tcp system's event loop."""
    loop = getattr(system, "_loop", None)
    if loop is None:
        return set()
    return {task for task in asyncio.all_tasks(loop) if not task.done()}


@pytest.mark.parametrize("renewal", [False, True], ids=["oneshot", "renewal"])
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_refused_subscribe_raises_and_leaves_no_session(transport, renewal):
    system = _build(transport, renewal)
    reports = _loop_reports(system)
    try:
        with pytest.raises(KeyError):
            system.subscribe("bob", Filter.topic("typo"))
        # A refused filter after an accepted one attaches neither.
        with pytest.raises(KeyError):
            system.subscribe("bob", Filter.topic("t"), Filter.topic("typo"))
        assert system.subscribers == {}

        bob = system.subscribe("bob", Filter.numeric_range("t", "v", 0, 15))
        system.publisher("p").publish(
            Event({"topic": "t", "v": 3, "body": "x"}, publisher="p"),
            secret_attributes={"body"},
        )
        system.settle()
        assert [result.event["body"] for result in bob.opened] == ["x"]
        assert list(system.subscribers) == ["bob"]
    finally:
        system.close()
    gc.collect()
    assert _pending_tasks(system) == set()
    assert reports == []


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_second_close_returns_at_once(transport):
    system = _build(transport)
    system.subscribe("s", Filter.topic("t"))
    system.publisher("p")
    system.close()
    started = time.monotonic()
    system.close()
    assert time.monotonic() - started < 1.0
