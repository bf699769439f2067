"""One facade contract on both transports: each call on a system from
``System.builder()`` means the same in process and over localhost TCP."""

import asyncio
import gc
import time

import pytest

from repro.api import System
from repro.siena.events import Event
from repro.siena.filters import Filter

TRANSPORTS = ["inproc", "tcp"]
EVERYTHING = Filter.numeric_range("t", "v", 0, 15)


def _build(transport: str, renewal: bool = True):
    """A 3-broker system; *renewal* False keeps the builder's default
    policy (lead 0, grace 0) instead of renewing 10 units ahead."""
    builder = (
        System.builder()
        .brokers(3)
        .topic("t", numeric={"v": 16}, epoch_length=100.0)
        .transport(transport)
    )
    if renewal:
        builder.renewal(lead=10.0)
    return builder.build()


def _publish(system, body: str, at_time: float) -> None:
    system.publisher("p").publish(
        Event({"topic": "t", "v": 3, "body": body}, publisher="p"),
        secret_attributes={"body"},
        at_time=at_time,
    )
    system.settle()


def _verdicts(session) -> list[str]:
    return [verdict for *_, verdict in session.log]


def _broker_clients(system) -> int:
    """Subscriber endpoints attached across the system's brokers."""
    cluster = getattr(system, "cluster", None)
    brokers = (
        system.tree.brokers.values() if cluster is None
        else [server.broker for server in cluster.servers]
    )
    return sum(len(broker.clients) for broker in brokers)


def _eventually(condition, timeout: float = 5.0) -> bool:
    """Whether *condition* holds within *timeout* (a tcp broker drops a
    departed subscriber when its reader sees the connection close)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


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

        bob = system.subscribe("bob", EVERYTHING)
        _publish(system, "x", at_time=0.0)
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


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_subscriber_joining_after_an_epoch_roll_opens_current_traffic(
    transport,
):
    system = _build(transport)
    try:
        early = system.subscribe("early", EVERYTHING)
        system.roll_epoch("t", 150.0)
        late = system.subscribe("late", EVERYTHING)
        _publish(system, "x", at_time=150.0)
        assert _verdicts(late) == ["open"]
        assert _verdicts(early) == ["open"]
    finally:
        system.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_revoked_subscriber_keeps_its_epoch_and_is_denied_at_the_next_roll(
    transport,
):
    system = _build(transport)
    try:
        victim = system.subscribe("victim", EVERYTHING)
        _publish(system, "before", at_time=0.0)
        system.revoke("victim", "t")
        # Lazy revocation: the grant in hand lasts until its epoch ends.
        _publish(system, "revoked", at_time=0.0)
        assert victim.renewal_stats.renewals_denied == 0
        next_epoch = system.kdc.epoch_end("t", 0.0) + 1.0
        system.roll_epoch("t", next_epoch)
        assert victim.renewal_stats.renewals_denied == 1
        _publish(system, "after", at_time=next_epoch)
        assert _verdicts(victim) == ["open", "open", "unreadable"]
        assert [r.event["body"] for r in victim.opened] == [
            "before", "revoked",
        ]
    finally:
        system.close()


def test_roll_epoch_returns_the_same_epoch_on_both_transports():
    instants = [0.0, 150.0, 151.0, 420.0]
    epochs = {}
    for transport in TRANSPORTS:
        system = _build(transport)
        try:
            system.subscribe("s", EVERYTHING)
            epochs[transport] = [
                system.roll_epoch("t", at_time) for at_time in instants
            ]
        finally:
            system.close()
    assert epochs["tcp"] == epochs["inproc"]
    assert epochs["inproc"] == [
        system.kdc.epoch_of("t", at_time) for at_time in instants
    ]
    assert len(set(epochs["inproc"])) == 3


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_leave_stops_delivery_and_frees_the_broker_endpoint(transport):
    system = _build(transport)
    try:
        stayer = system.subscribe("stayer", EVERYTHING)
        resident = _broker_clients(system)
        leaver = system.subscribe("leaver", EVERYTHING)
        _publish(system, "both", at_time=0.0)
        assert system.leave("leaver") is leaver
        assert list(system.subscribers) == ["stayer"]
        _publish(system, "one", at_time=0.0)
        system.roll_epoch("t", 150.0)
        _publish(system, "later", at_time=150.0)
        assert _verdicts(leaver) == ["open"]
        assert _verdicts(stayer) == ["open", "open", "open"]
        assert leaver.renewal_stats.renewals == 1  # the first grant only
        assert _eventually(lambda: _broker_clients(system) == resident)
    finally:
        system.close()


def _kdc_client_state(system) -> tuple[int, int, int]:
    """The hosted KDC network's client state: sessions clients dialed,
    their ends at the replicas, and REKEY push hooks (the replicas'
    sessions to each other are not counted)."""
    network = system.cluster.kdc_network
    replicas = network._handlers
    return (
        sum(src not in replicas for src, _dst in list(network._outbound)),
        sum(
            session.peer not in replicas
            for sessions in list(network._inbound.values())
            for session in list(sessions)
        ),
        len(network._pushes),
    )


def test_tcp_leave_closes_the_kdc_sessions_and_the_id_can_return():
    system = _build("tcp")
    try:
        before = _kdc_client_state(system)
        members = [f"s{index}" for index in range(5)]
        for member in members:
            system.subscribe(member, EVERYTHING)
        assert _kdc_client_state(system) == (15, 15, 5)
        for member in members:
            system.leave(member)
        assert _eventually(lambda: _kdc_client_state(system) == before)

        # A departed id comes back after a roll: its new KDC client must
        # get a current grant, not a replica's cached answer to the old.
        system.roll_epoch("t", 150.0)
        again = system.subscribe("s0", EVERYTHING)
        _publish(system, "x", at_time=150.0)
        assert _verdicts(again) == ["open"]
    finally:
        system.close()
