"""End-to-end dissemination over a real loopback TCP broker tree."""

import asyncio

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import TokenAuthority
from repro.rtnet import ClusterLauncher, RtPublisher, RtSubscriber
from repro.siena.events import Event
from repro.siena.filters import Filter


def _make_kdc() -> KDC:
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "cancerTrail", CompositeKeySpace({"age": NumericKeySpace("age", 128)})
    )
    return kdc


def _schema_lookup(kdc: KDC):
    return lambda topic: kdc.config_for(topic).schema


def test_two_broker_tree_delivers_only_to_the_authorized():
    kdc = _make_kdc()
    authority = TokenAuthority(kdc.master_key)
    registry = MetricsRegistry()

    async def scenario():
        async with ClusterLauncher(
            num_brokers=2, arity=2, registry=registry
        ) as cluster:
            # The doctor is authorized for ages [21, 127]; the outsider
            # for [90, 127] only -- the event below matches neither of
            # the outsider's token covers, so it is filtered in-network.
            sub_host, sub_port = cluster.subscriber_address()
            doctor = RtSubscriber(
                "doctor", sub_host, sub_port,
                schema_lookup=_schema_lookup(kdc), authority=authority,
            )
            outsider = RtSubscriber(
                "outsider", *cluster.subscriber_address(),
                schema_lookup=_schema_lookup(kdc), authority=authority,
            )
            await doctor.connect()
            await outsider.connect()
            await doctor.add_grant(kdc.authorize(
                "doctor", Filter.numeric_range("cancerTrail", "age", 21, 127)
            ))
            await outsider.add_grant(kdc.authorize(
                "outsider", Filter.numeric_range("cancerTrail", "age", 90, 127)
            ))
            await doctor.settle()
            await outsider.settle()

            publisher = RtPublisher(
                "hospital", *cluster.publisher_address(), kdc,
                authority=authority,
            )
            await publisher.connect()
            await publisher.publish(
                Event(
                    {"topic": "cancerTrail", "age": 25,
                     "patientRecord": "rec-17"},
                    publisher="hospital",
                ),
                secret_attributes={"patientRecord"},
            )
            await publisher.settle()
            await doctor.settle()
            await outsider.settle()

            results = (
                [result.event["patientRecord"] for result in doctor.opened],
                doctor.unreadable,
                outsider.opened,
                outsider.unreadable,
                publisher.unacked,
                cluster.stats(),
            )
            await doctor.close()
            await outsider.close()
            await publisher.close()
            return results

    opened, doc_unreadable, out_opened, out_unreadable, unacked, stats = (
        asyncio.run(scenario())
    )
    assert opened == ["rec-17"]
    assert doc_unreadable == 0
    # Nothing even reaches the outsider: the token covers do not match.
    assert out_opened == []
    assert out_unreadable == 0
    assert unacked == 0
    # The root saw the publication; the leaf delivered it.
    assert stats["b0"]["events_received"] == 1
    assert stats["b1"]["deliveries"] == 1


def test_seven_broker_tree_fans_out_to_every_leaf():
    kdc = _make_kdc()
    authority = TokenAuthority(kdc.master_key)

    async def scenario():
        async with ClusterLauncher(num_brokers=7, arity=2) as cluster:
            assert cluster.leaf_indices() == [3, 4, 5, 6]
            subscribers = []
            for index in range(4):
                subscriber = RtSubscriber(
                    f"s{index}", *cluster.subscriber_address(),
                    schema_lookup=_schema_lookup(kdc), authority=authority,
                )
                await subscriber.connect()
                await subscriber.add_grant(kdc.authorize(
                    f"s{index}",
                    Filter.numeric_range("cancerTrail", "age", 0, 127),
                ))
                subscribers.append(subscriber)
            for subscriber in subscribers:
                await subscriber.settle()

            publisher = RtPublisher(
                "p", *cluster.publisher_address(), kdc, authority=authority
            )
            await publisher.connect()
            for age in (10, 60, 110):
                await publisher.publish(Event(
                    {"topic": "cancerTrail", "age": age}, publisher="p"
                ))
            await publisher.settle()
            for subscriber in subscribers:
                await subscriber.settle()

            counts = [len(subscriber.opened) for subscriber in subscribers]
            for endpoint in subscribers + [publisher]:
                await endpoint.close()
            return counts

    assert asyncio.run(scenario()) == [3, 3, 3, 3]


def test_opened_event_carries_what_was_sealed_not_the_routing_tokens():
    """An event opened over TCP has exactly the attributes the same
    publication opens to in process, except the plaintext routing values
    tokenization keeps off the wire -- and none of the spent tokens."""
    kdc = _make_kdc()
    kdc.register_topic("news", CompositeKeySpace({}))
    authority = TokenAuthority(kdc.master_key)
    publications = [
        Event({"topic": "news", "_seq": 4, "message": "m"}, publisher="p"),
        Event({"topic": "cancerTrail", "age": 25, "message": "m"},
              publisher="p"),
    ]
    filters = [
        Filter.topic("news"),
        Filter.numeric_range("cancerTrail", "age", 0, 127),
    ]

    reference = Subscriber("s")
    sealer = Publisher("p", kdc)
    for subscription_filter in filters:
        reference.add_grant(kdc.authorize("s", subscription_filter))
    in_process = [
        reference.receive(sealer.publish(event), _schema_lookup(kdc)).event
        for event in publications
    ]

    async def scenario():
        async with ClusterLauncher(num_brokers=3, arity=2) as cluster:
            subscriber = RtSubscriber(
                "s", *cluster.subscriber_address(),
                schema_lookup=_schema_lookup(kdc), authority=authority,
            )
            await subscriber.connect()
            for subscription_filter in filters:
                await subscriber.add_grant(
                    kdc.authorize("s", subscription_filter)
                )
            await subscriber.settle()
            publisher = RtPublisher(
                "p", *cluster.publisher_address(), kdc, authority=authority
            )
            await publisher.connect()
            for event in publications:
                await publisher.publish(event)
            await publisher.settle()
            await subscriber.settle()
            opened = [result.event for result in subscriber.opened]
            await subscriber.close()
            await publisher.close()
            return opened

    over_tcp = asyncio.run(scenario())
    assert set(over_tcp[0].attributes) == set(in_process[0].attributes)
    assert over_tcp[0] == in_process[0]
    assert set(over_tcp[1].attributes) == (
        set(in_process[1].attributes) - {"age"}
    )


def test_version_mismatch_is_rejected_with_hello_ack_zero():
    from repro.rtnet import BrokerServer, HandshakeError, RtEndpoint

    async def scenario():
        server = BrokerServer("b0")
        await server.start()
        endpoint = RtEndpoint("late", server.host, server.port)
        # Speak a future protocol version; the server must answer with
        # HELLO_ACK version 0 and the client must not retry.
        import repro.rtnet.client as client_module
        original = client_module.PROTOCOL_VERSION
        client_module.PROTOCOL_VERSION = 99
        try:
            try:
                await endpoint.connect()
            except HandshakeError:
                return True
            finally:
                await endpoint.close()
            return False
        finally:
            client_module.PROTOCOL_VERSION = original
            await server.stop()

    assert asyncio.run(scenario()) is True


def test_a_version_2_hello_gets_hello_ack_zero_and_dial_refuses_it():
    """Protocol version 3 dropped HEARTBEAT with no decoder kept for
    version 2: a version-2 HELLO is answered with version 0, which
    :func:`repro.rtnet.link.dial` raises as final."""
    from repro.rtnet import BrokerServer, HandshakeError
    from repro.rtnet.frames import FrameReader, Hello, HelloAck, encode_frame
    from repro.rtnet.link import dial

    old = Hello("old", "publisher", 2)

    async def scenario():
        server = BrokerServer("b0")
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(encode_frame(old))
            await writer.drain()
            ack = await FrameReader(reader).read()
            writer.close()
            with pytest.raises(HandshakeError):
                await dial(*server.address, old)
            return ack
        finally:
            await server.stop()

    assert asyncio.run(scenario()) == HelloAck("b0", 0)


async def _answer_hello_with(data: bytes):
    """A listener that answers every HELLO with *data* in one write."""

    async def answer(reader, writer):
        await reader.read(65536)
        writer.write(data)
        await writer.drain()
        writer.close()

    return await asyncio.start_server(answer, "127.0.0.1", 0)


def test_a_frame_in_the_hello_ack_segment_comes_back_after_it():
    from repro.rtnet.frames import Ack, HelloAck, Hello, encode_frame
    from repro.rtnet.link import dial

    async def scenario():
        listener = await _answer_hello_with(
            encode_frame(HelloAck("b0")) + encode_frame(Ack(7))
        )
        port = listener.sockets[0].getsockname()[1]
        peer_id, frames, writer = await dial(
            "127.0.0.1", port, Hello("p", "publisher")
        )
        read = [await frames.read(), await frames.read()]
        writer.close()
        listener.close()
        return peer_id, read

    assert asyncio.run(scenario()) == ("b0", [Ack(7), None])


def test_only_a_hello_ack_at_another_version_is_a_handshake_error():
    from repro.rtnet import HandshakeError
    from repro.rtnet.frames import Ack, HelloAck, Hello, encode_frame
    from repro.rtnet.link import dial

    async def outcome(answer: bytes) -> type:
        listener = await _answer_hello_with(answer)
        port = listener.sockets[0].getsockname()[1]
        try:
            await dial("127.0.0.1", port, Hello("p", "publisher"))
        except ConnectionError as exc:
            return type(exc)
        finally:
            listener.close()
        return type(None)

    async def scenario():
        return [
            await outcome(answer)
            for answer in (
                encode_frame(HelloAck("b0", 0)),
                encode_frame(HelloAck("b0", 99)),
                b"",
                encode_frame(HelloAck("b0"))[:5],
                b"\xff" * 8,
                encode_frame(Ack(1)),
            )
        ]

    assert asyncio.run(scenario()) == [
        HandshakeError, HandshakeError,
        ConnectionError, ConnectionError, ConnectionError, ConnectionError,
    ]
