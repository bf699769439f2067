"""Reconnection: backoff, resubscribe, unacked resend, exactly-once."""

import asyncio
import random
import time

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.routing.tokens import TokenAuthority
from repro.rtnet import BrokerServer, RtPublisher, RtSubscriber
from repro.rtnet.client import _redial_delay
from repro.siena.events import Event
from repro.siena.filters import Filter


def _make_kdc() -> KDC:
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", 64)})
    )
    return kdc


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.01)


class _NoJitter(random.Random):
    def random(self) -> float:
        return 0.0


def test_backoff_policy_grows_and_caps():
    delays = [_redial_delay(attempt, _NoJitter()) for attempt in range(8)]
    assert delays[:6] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
    assert delays[6] == delays[7] == 2.0  # capped


def test_backoff_jitter_only_shrinks_the_delay():
    rng = random.Random(3)
    for attempt in range(20):
        raw = min(2.0, 0.05 * 2 ** attempt)
        assert raw / 2 <= _redial_delay(attempt, rng) <= raw


def test_subscriber_resubscribes_after_broker_restart():
    kdc = _make_kdc()
    authority = TokenAuthority(kdc.master_key)

    async def scenario():
        server = BrokerServer("b0")
        await server.start()
        port = server.port

        subscriber = RtSubscriber(
            "s", server.host, port,
            schema_lookup=lambda topic: kdc.config_for(topic).schema,
            authority=authority,
        )
        await subscriber.connect()
        await subscriber.add_grant(
            kdc.authorize("s", Filter.numeric_range("t", "v", 0, 63))
        )
        await subscriber.settle()

        # Kill the broker; a fresh one takes over the same port.  The
        # restarted broker has no routing state -- delivery only works
        # if the subscriber re-registers its filters on reconnect.
        await server.stop()
        server = BrokerServer("b0-prime", port=port)
        await server.start()
        await _wait_for(lambda: subscriber.stats.reconnects >= 1
                        and subscriber._connected.is_set())
        assert subscriber.broker_id == "b0-prime"

        publisher = RtPublisher(
            "p", server.host, port, kdc, authority=authority
        )
        await publisher.connect()
        await publisher.publish(Event({"topic": "t", "v": 10}, publisher="p"))
        await publisher.settle()
        await subscriber.settle()

        opened = len(subscriber.opened)
        reconnects = subscriber.stats.reconnects
        await subscriber.close()
        await publisher.close()
        await server.stop()
        return opened, reconnects

    opened, reconnects = asyncio.run(scenario())
    assert opened == 1
    assert reconnects >= 1


def test_publisher_resends_unacked_tail_after_restart():
    kdc = _make_kdc()
    authority = TokenAuthority(kdc.master_key)

    async def scenario():
        server = BrokerServer("b0")
        await server.start()
        port = server.port

        publisher = RtPublisher(
            "p", server.host, port, kdc, authority=authority
        )
        await publisher.connect()
        await publisher.publish(Event({"topic": "t", "v": 5}, publisher="p"))
        await publisher.settle()
        await _wait_for(lambda: publisher.unacked == 0)

        # Simulate a lost ACK: re-mark the frame unacked, then restart
        # the broker.  On reconnect the publisher must replay the tail.
        resend = publisher._unacked
        await publisher.publish(Event({"topic": "t", "v": 6}, publisher="p"))
        frame = publisher._unacked[1]
        await _wait_for(lambda: publisher.unacked == 0)
        resend[frame.seq] = frame

        await server.stop()
        server = BrokerServer("b0", port=port)
        await server.start()
        await _wait_for(lambda: publisher.stats.reconnects >= 1
                        and publisher.unacked == 0)
        await publisher.settle()

        received = server.broker.stats.events_received
        await publisher.close()
        await server.stop()
        return received

    # The replayed event is the only one the restarted broker sees.
    assert asyncio.run(scenario()) == 1


def test_dedup_window_makes_resends_exactly_once():
    kdc = _make_kdc()
    authority = TokenAuthority(kdc.master_key)

    async def scenario():
        server = BrokerServer("b0")
        await server.start()

        subscriber = RtSubscriber(
            "s", server.host, server.port,
            schema_lookup=lambda topic: kdc.config_for(topic).schema,
            authority=authority,
        )
        await subscriber.connect()
        await subscriber.add_grant(
            kdc.authorize("s", Filter.numeric_range("t", "v", 0, 63))
        )
        await subscriber.settle()

        publisher = RtPublisher(
            "p", server.host, server.port, kdc, authority=authority
        )
        await publisher.connect()
        await publisher.publish(Event({"topic": "t", "v": 9}, publisher="p"))
        await publisher.settle()
        await subscriber.settle()
        await _wait_for(lambda: len(subscriber.log) == 1)
        await publisher.close()

        # A restarted publisher session with the same identity replays
        # its stream from sequence 0 -- the same (origin, sequence)
        # envelope as the first publication.  The subscriber's dedup
        # window must swallow it: at-least-once in, exactly-once out.
        replayer = RtPublisher(
            "p", server.host, server.port, kdc, authority=authority
        )
        await replayer.connect()
        await replayer.publish(Event({"topic": "t", "v": 9}, publisher="p"))
        await replayer.settle()
        await subscriber.settle()
        await _wait_for(lambda: len(subscriber.log) == 2)

        results = (
            len(subscriber.opened),
            subscriber.duplicates,
            [entry[2] for entry in subscriber.log],
        )
        await subscriber.close()
        await replayer.close()
        await server.stop()
        return results

    opened, duplicates, verdicts = asyncio.run(scenario())
    assert opened == 1
    assert duplicates == 1
    assert verdicts == ["open", "duplicate"]
