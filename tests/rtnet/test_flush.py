"""One write per pump flush, and where a sealed body is validated.

Raw loopback peers (a socket, HELLO, frames by hand) drive one
``BrokerServer`` so the tests can see exactly what its pump hands the
transport: everything queued goes out as one buffer in ``take()`` order,
``FLUSH_BYTES`` caps a flush, a reader that stalls still fills the egress
queue (where the shed policy acts) rather than the transport buffer, and
a corrupt sealed body is refused by the first broker it reaches,
whatever role the sending peer claimed, before any subscriber can see it.
"""

import asyncio
import socket
import time
from dataclasses import replace

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.envelope import SealedEvent
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.wire import encode_sealed_event
from repro.flow.policy import NORMAL
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import TokenAuthority
from repro.rtnet import ClusterLauncher, RtPublisher, RtSubscriber
from repro.rtnet.frames import (
    Ack,
    EventFrame,
    Hello,
    HelloAck,
    Subscribe,
    FrameReader,
    encode_frame,
)
from repro.rtnet.server import CONTROL_PRIORITY, FLUSH_BYTES, BrokerServer
from repro.siena.events import Event
from repro.siena.filters import Filter


#: The tests that dial the broker through a raw ``socket.socket``
#: (``sock_connect``, ``SO_RCVBUF``): kernel buffers a virtual loop does
#: not have.
raw_socket = pytest.mark.socket_only(
    "dials through a raw socket.socket; a VirtualLoop has no kernel buffers"
)


class RecordingWriter:
    """A ``StreamWriter`` stand-in that forwards to the real one and
    keeps every buffer handed to ``write``."""

    def __init__(self, writer):
        self._writer = writer
        self.writes: list[bytes] = []
        self.drains = 0

    def write(self, data):
        self.writes.append(bytes(data))
        self._writer.write(data)

    async def drain(self):
        self.drains += 1
        await self._writer.drain()

    def __getattr__(self, name):
        return getattr(self._writer, name)


async def _dial(server, peer_id, role, rcvbuf=None):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, server.address)
    reader, writer = await asyncio.open_connection(sock=sock)
    frames = FrameReader(reader)
    writer.write(encode_frame(Hello(peer_id, role)))
    await writer.drain()
    assert isinstance(await frames.read(), HelloAck)
    return frames, writer


async def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _plain_payload(ciphertext=b"c", **attributes):
    """A PSE2 body whose routable is plaintext (mixed deployments route
    those by plain matching), with a ciphertext of any size."""
    return encode_sealed_event(
        SealedEvent(Event({"topic": "t", **attributes}), {}, (), ciphertext, True)
    )


def _out_frames(registry, frame_type):
    return sum(
        counter.value
        for counter in registry.series("rtnet_frames_total")
        if dict(counter.labels).get("direction") == "out"
        and dict(counter.labels).get("type") == frame_type
    )


@raw_socket
def test_frames_queued_while_the_pump_is_parked_leave_in_one_write():
    registry = MetricsRegistry()

    async def scenario():
        server = BrokerServer("b0", registry=registry)
        await server.start()
        try:
            reader, writer = await _dial(server, "s0", "subscriber")
            await _wait_for(lambda: "s0" in server._peers)
            peer = server._peers["s0"]
            await _wait_for(lambda: not peer.wake.is_set())
            peer.writer = recorder = RecordingWriter(peer.writer)
            # No await between these: the pump cannot run in between.
            events = [
                EventFrame(seq, 0.0, _plain_payload(n=seq)) for seq in range(3)
            ]
            control = [Ack(7), Subscribe(Filter.topic("t"))]
            server._enqueue(peer, events[0], NORMAL)
            server._enqueue(peer, control[0], CONTROL_PRIORITY)
            server._enqueue(peer, events[1], NORMAL)
            server._enqueue(peer, control[1], CONTROL_PRIORITY)
            server._enqueue(peer, events[2], NORMAL)
            received = [await reader.read() for _ in range(5)]
            await _wait_for(lambda: not peer.wake.is_set())
            writer.close()
            return recorder, received, control + events
        finally:
            await server.stop()

    recorder, received, expected = asyncio.run(scenario())
    # Control before normal priority, FIFO inside each class.
    assert received == expected
    assert recorder.writes == [b"".join(encode_frame(f) for f in expected)]
    assert recorder.drains == 1
    # Counted per frame, not per write.
    assert _out_frames(registry, "event") == 3
    assert _out_frames(registry, "ack") == 1
    assert _out_frames(registry, "subscribe") == 1


@raw_socket
def test_the_flush_cap_splits_a_large_backlog():
    async def scenario():
        server = BrokerServer("b0")
        await server.start()
        try:
            reader, writer = await _dial(server, "s0", "subscriber")
            await _wait_for(lambda: "s0" in server._peers)
            peer = server._peers["s0"]
            await _wait_for(lambda: not peer.wake.is_set())
            peer.writer = recorder = RecordingWriter(peer.writer)
            payload = _plain_payload(ciphertext=bytes(20_000))
            frames = [EventFrame(seq, 0.0, payload) for seq in range(10)]
            for frame in frames:
                server._enqueue(peer, frame, NORMAL)
            received = [await reader.read() for _ in frames]
            await _wait_for(lambda: not peer.wake.is_set())
            writer.close()
            return recorder, received, frames
        finally:
            await server.stop()

    recorder, received, frames = asyncio.run(scenario())
    assert received == frames
    assert b"".join(recorder.writes) == b"".join(map(encode_frame, frames))
    frame_size = len(encode_frame(frames[0]))
    # A flush stops at the first frame that takes it to the cap: four
    # 20 KB frames here, so ten frames leave as 4 + 4 + 2.
    per_flush = -(-FLUSH_BYTES // frame_size)
    assert [len(data) // frame_size for data in recorder.writes] == [
        per_flush, per_flush, len(frames) - 2 * per_flush,
    ]
    assert all(
        len(data) < FLUSH_BYTES + frame_size for data in recorder.writes
    )
    assert recorder.drains == len(recorder.writes)


@raw_socket
def test_a_stalled_reader_backs_up_into_the_egress_queue_and_sheds():
    registry = MetricsRegistry()
    capacity = 8
    published = 400

    async def scenario():
        server = BrokerServer(
            "b0", registry=registry, egress_capacity=capacity
        )
        await server.start()
        try:
            # A subscriber that registers its filter and then never
            # reads again, behind the smallest receive buffer there is.
            _reader, stalled = await _dial(
                server, "s0", "subscriber", rcvbuf=4096
            )
            stalled.write(encode_frame(Subscribe(Filter.topic("t"))))
            await stalled.drain()
            await _wait_for(lambda: server.broker.subscription_count() == 1)
            pub_reader, pub_writer = await _dial(server, "p0", "publisher")
            payload = _plain_payload(ciphertext=bytes(48 * 1024))
            for seq in range(published):
                pub_writer.write(
                    encode_frame(EventFrame(seq, time.time(), payload))
                )
                await pub_writer.drain()
            acks = [await pub_reader.read() for _ in range(published)]
            peer = server._peers["s0"]
            buffered = peer.writer.transport.get_write_buffer_size()
            depth = len(peer.egress)
            pub_writer.close()
            stalled.close()
            return acks, buffered, depth, len(encode_frame(
                EventFrame(0, 0.0, payload)
            ))
        finally:
            await server.stop()

    acks, buffered, depth, frame_size = asyncio.run(scenario())
    # The publisher is never held up by somebody else's slow reader.
    assert acks == [Ack(seq) for seq in range(published)]
    # The backlog sits in the bounded queue, and the overflow was shed
    # there, by policy, and counted.
    assert depth == capacity
    assert registry.total("flow_shed_total") > published // 2
    assert registry.total("flow_shed_total") <= published - capacity
    # What the transport holds is one flush over its high-water mark at
    # most, not the backlog.
    assert buffered <= 2 * (FLUSH_BYTES + frame_size)


def test_a_corrupt_sealed_body_stops_at_the_publishers_home_broker():
    """Every hop runs the full sealed-event decode, so a body it would
    refuse is dropped by the first broker to see it -- the publisher's
    home broker -- and never relayed, let alone opened."""
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "cancerTrail", CompositeKeySpace({"age": NumericKeySpace("age", 128)})
    )
    authority = TokenAuthority(kdc.master_key)
    registry = MetricsRegistry()
    captured: list[EventFrame] = []

    async def scenario():
        async with ClusterLauncher(
            num_brokers=3, arity=2, registry=registry
        ) as cluster:
            subscriber = RtSubscriber(
                "doctor", *cluster.subscriber_address(),
                schema_lookup=lambda topic: kdc.config_for(topic).schema,
                authority=authority,
            )
            await subscriber.connect()
            await subscriber.add_grant(kdc.authorize(
                "doctor", Filter.numeric_range("cancerTrail", "age", 0, 127)
            ))
            await subscriber.settle()

            publisher = RtPublisher(
                "hospital", *cluster.publisher_address(), kdc,
                authority=authority,
            )
            await publisher.connect()
            send = publisher.send

            async def capturing_send(frame):
                if isinstance(frame, EventFrame):
                    captured.append(frame)
                await send(frame)

            publisher.send = capturing_send
            event = Event(
                {"topic": "cancerTrail", "age": 25, "record": "r-1"},
                publisher="hospital",
            )
            await publisher.publish(event, secret_attributes={"record"})
            await publisher.settle()
            await subscriber.settle()
            assert len(subscriber.opened) == 1

            # The same body with its element name made invalid UTF-8:
            # lengths, flags and tags all still hold, so only a decoder
            # that reads the name can tell.
            good = captured[0].payload
            at = good.index(b"\x00\x00\x00\x03age") + 4
            corrupt = good[:at] + b"\xff\xfe\xfd" + good[at + 3:]
            assert len(corrupt) == len(good)
            await send(replace(captured[0], seq=1, payload=corrupt))
            await send(replace(captured[0], seq=2, payload=good[:-1]))
            await publisher.publish(
                event.with_attributes(record="r-2"),
                secret_attributes={"record"},
            )
            await publisher.settle()
            await subscriber.settle()
            outcome = (
                [result.event["record"] for result in subscriber.opened],
                subscriber.unreadable,
                [verdict for _, _, verdict in subscriber.log],
                cluster.stats(),
            )
            await subscriber.close()
            await publisher.close()
            return outcome

    opened, unreadable, verdicts, stats = asyncio.run(scenario())
    assert opened == ["r-1", "r-2"]
    assert unreadable == 0
    assert verdicts == ["open", "open"]
    assert registry.total("rtnet_protocol_errors_total") == 2
    errors = {
        dict(counter.labels)["broker"]: counter.value
        for counter in registry.series("rtnet_protocol_errors_total")
    }
    assert errors == {"b0": 2}
    # The two refused frames never left the root.
    assert stats["b0"]["events_received"] == 2
    assert stats["b1"]["events_received"] == 2


@raw_socket
@pytest.mark.parametrize("role", ["subscriber", "client", "broker", "made-up"])
def test_a_corrupt_sealed_body_is_refused_whatever_role_the_peer_claims(role):
    """The role in HELLO is the peer's own word, and EVENT frames are
    taken from any of them: none buys a weaker check of the body."""
    registry = MetricsRegistry()
    good = encode_sealed_event(
        SealedEvent(Event({"topic": "t"}), {"age": "a"}, (), b"c", True)
    )
    at = good.index(b"\x00\x00\x00\x03age") + 4
    # Same lengths, flags and tags; only reading the name tells.
    corrupt = good[:at] + b"\xff\xfe\xfd" + good[at + 3:]

    async def scenario():
        server = BrokerServer("b0", registry=registry)
        await server.start()
        try:
            reader, writer = await _dial(server, "s0", "subscriber")
            writer.write(encode_frame(Subscribe(Filter.topic("t"))))
            await writer.drain()
            await _wait_for(lambda: server.broker.subscriptions)
            _, sender = await _dial(server, "x0", role)
            for seq, payload in enumerate((good, corrupt, good[:-1], good)):
                sender.write(encode_frame(EventFrame(seq, 0.0, payload)))
            await sender.drain()
            received = [await reader.read() for _ in range(2)]
            await _wait_for(
                lambda: server.broker.stats.events_received == 2
                and registry.total("rtnet_protocol_errors_total") == 2
            )
            sender.close()
            writer.close()
            return received
        finally:
            await server.stop()

    received = asyncio.run(scenario())
    assert [frame.payload for frame in received] == [good, good]
    assert _out_frames(registry, "event") == 2


@raw_socket
def test_acks_and_events_share_one_flush_per_wakeup():
    """Mixed frame types in one flush are each counted under their own
    ``type`` label."""
    registry = MetricsRegistry()

    async def scenario():
        server = BrokerServer("b0", registry=registry)
        await server.start()
        try:
            reader, writer = await _dial(server, "s0", "subscriber")
            await _wait_for(lambda: "s0" in server._peers)
            peer = server._peers["s0"]
            await _wait_for(lambda: not peer.wake.is_set())
            frames = [
                Ack(1),
                EventFrame(0, 0.0, _plain_payload()),
                Ack(2),
            ]
            for frame in frames:
                server._enqueue(peer, frame, NORMAL)
            received = [await reader.read() for _ in frames]
            writer.close()
            return received, frames
        finally:
            await server.stop()

    received, frames = asyncio.run(scenario())
    assert received == frames
    assert _out_frames(registry, "ack") == 2
    assert _out_frames(registry, "event") == 1
