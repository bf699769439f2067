"""The virtual loop: request/reply over in-memory streams under faults,
on a virtual clock, deterministically."""

import asyncio
import time

import pytest

from repro.core.kdcservice import KDCRequest, KDCResponse
from repro.net.faults import ANY, BrokerCrash, FaultPlan, LinkFault
from repro.net.virtual import VirtualLoop, run
from repro.rtnet.service import TcpServiceNetwork

#: One-way delay of every link in these tests.
DELAY = 0.01


def _call(k):
    """A request whose payload the echo handler hands back."""
    return KDCRequest("sync", None, {"from_seq": k})


def _echo(src, request):
    return KDCResponse(True, request.payload["from_seq"])


def _on_loop(scenario, plan=None, seed=1, handler=_echo):
    """Run ``scenario(loop, net)`` with node ``server`` answering by
    *handler*; returns what it returns."""

    async def main():
        loop = asyncio.get_running_loop()
        net = TcpServiceNetwork()
        loop.play_crashes(net)
        net.register("server", handler)
        await net.start()
        try:
            return await scenario(loop, net)
        finally:
            await net.stop()

    return run(VirtualLoop(DELAY, plan, seed), main())


def _replies(loop, into):
    """An ``on_reply`` that records ``(value, arrival time)``."""
    return lambda response: into.append((response.value, loop.time()))


def test_request_reply_round_trip():
    async def scenario(loop, net):
        replies = []
        net.request("client", "server", _call(42), on_reply=_replies(loop, replies))
        await asyncio.sleep(1.0)
        return replies

    # One round trip dials the session (HELLO, HELLO_ACK), one carries
    # the call and its reply.
    assert _on_loop(scenario) == [(42, pytest.approx(4 * DELAY))]


def test_handler_returning_none_suppresses_reply():
    async def scenario(loop, net):
        replies = []
        net.request("client", "server", _call(1), on_reply=replies.append)
        await asyncio.sleep(1.0)
        return replies, loop.discarded

    assert _on_loop(scenario, handler=lambda src, request: None) == ([], 0)


def test_unregistered_destination_is_silent_loss():
    async def scenario(loop, net):
        replies = []
        net.request("client", "ghost", _call(1), on_reply=replies.append)
        await asyncio.sleep(1.0)
        return replies

    assert _on_loop(scenario) == []


def test_crashed_node_swallows_requests_then_recovers():
    async def scenario(loop, net):
        replies = []
        net.request("client", "server", _call(1), on_reply=replies.append)
        loop.call_later(2.0, lambda: net.request(
            "client", "server", _call(2), on_reply=replies.append
        ))
        await asyncio.sleep(3.0)
        return [reply.value for reply in replies], loop.discarded

    plan = FaultPlan(crashes=[BrokerCrash("server", at=0.0, duration=1.0)])
    # The early call's dial is refused: one discard, no reply.
    assert _on_loop(scenario, plan=plan) == ([2], 1)


def test_partition_holds_both_directions_then_delivers():
    async def scenario(loop, net):
        replies = []
        net.request("client", "server", _call(1), on_reply=_replies(loop, replies))
        loop.call_later(1.5, lambda: net.request(
            "client", "server", _call(2), on_reply=_replies(loop, replies)
        ))
        await asyncio.sleep(3.0)
        return replies, loop.discarded

    plan = FaultPlan(link_faults=[
        LinkFault(ANY, "server", start=0.0, duration=1.0, partitioned=True)
    ])
    replies, discarded = _on_loop(scenario, plan=plan)
    # The HELLO_ACK, then the call, waited out the cut; nothing was lost.
    assert [value for value, _ in replies] == [1, 2]
    assert replies[0][1] == pytest.approx(1.0 + 3 * DELAY)
    assert discarded == 0


def test_held_bytes_arrive_in_order():
    async def scenario(loop, net):
        replies = []
        for k in range(10):
            loop.call_later(0.1 * k, lambda k=k: net.request(
                "client", "server", _call(k), on_reply=replies.append
            ))
        await asyncio.sleep(3.0)
        return [reply.value for reply in replies]

    plan = FaultPlan(link_faults=[
        LinkFault("client", "server", start=0.05, duration=1.0,
                  partitioned=True)
    ])
    assert _on_loop(scenario, plan=plan) == list(range(10))


def test_reply_can_be_lost_after_handler_ran():
    """A lossy link can deliver the request but drop the reply -- the
    handler side effect happens, the caller sees silence -- and a lost
    write resets its session, which the next call dials again."""
    served = []

    def handler(src, request):
        served.append(request.payload["from_seq"])
        return _echo(src, request)

    async def scenario(loop, net):
        replies = []
        for k in range(40):
            loop.call_later(0.1 * k, lambda k=k: net.request(
                "client", "server", _call(k), on_reply=replies.append
            ))
        await asyncio.sleep(5.0)
        return replies

    plan = FaultPlan(link_faults=[LinkFault(loss=0.5)])
    replies = _on_loop(scenario, plan=plan, seed=3, handler=handler)
    assert len(served) < 40  # some requests lost outright
    assert 0 < len(replies) < len(served)  # some replies lost after serving


def test_extra_latency_applies_per_direction():
    async def scenario(loop, net):
        replies = []
        net.request("client", "server", _call(1), on_reply=_replies(loop, replies))
        await asyncio.sleep(1.0)
        return replies

    plan = FaultPlan(link_faults=[LinkFault(extra_latency=0.1)])
    # The HELLO names the dialer only; from the HELLO_ACK on, every
    # direction pays its extra 0.1.
    assert _on_loop(scenario, plan=plan) == [
        (1, pytest.approx(DELAY + 3 * (DELAY + 0.1)))
    ]


def test_duplicate_registration_rejected():
    net = TcpServiceNetwork()
    net.register("a", lambda src, payload: None)
    with pytest.raises(ValueError):
        net.register("a", lambda src, payload: None)


def test_two_runs_are_equal():
    async def scenario(loop, net):
        replies = []
        for k in range(30):
            loop.call_later(0.05 * k, lambda k=k: net.request(
                "client", "server", _call(k), on_reply=_replies(loop, replies)
            ))
        await asyncio.sleep(5.0)
        return replies, loop.discarded

    plan = FaultPlan(
        crashes=[BrokerCrash("server", at=0.4, duration=0.3)],
        link_faults=[LinkFault(loss=0.2),
                     LinkFault(start=1.0, duration=0.2, extra_latency=0.05)],
    )
    first = _on_loop(scenario, plan=plan, seed=9)
    assert first == _on_loop(scenario, plan=plan, seed=9)
    assert first[0] and first[1] > 0


def test_an_hour_of_sleep_takes_under_a_second():
    ticks = []

    async def main():
        loop = asyncio.get_running_loop()

        def tick():
            ticks.append(loop.time())
            loop.call_later(1.0, tick)

        tick()
        await asyncio.sleep(3600.0)
        return loop.time()

    started = time.perf_counter()
    assert run(VirtualLoop(DELAY), main()) == 3600.0
    assert time.perf_counter() - started < 1.0
    assert len(ticks) == 3601


@pytest.mark.virtual_loop
def test_rekey_gates_hold_on_the_virtual_loop():
    from repro.harness.rekey import SCENARIO, RekeyChaosConfig, run_rekey_chaos

    probe = asyncio.new_event_loop()
    probe.close()
    assert isinstance(probe, VirtualLoop)
    config = RekeyChaosConfig()
    result = run_rekey_chaos(config)
    assert SCENARIO.violations(config, result) == []
    assert [gate.name for gate in SCENARIO.gates] == [
        "rollovers", "lazy-revocation", "survivor-delivery", "join-leave",
        "acked", "failover",
    ]
