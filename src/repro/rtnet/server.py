"""An asyncio TCP server hosting one :class:`repro.siena.Broker`.

The broker core stays transport-agnostic; this module supplies the real
network around it:

- one **reader task per connection** feeding a bounded shared ingress
  queue (a full queue stops the reader, TCP's receive window fills, and
  the sender's ``drain()`` blocks -- hop-by-hop backpressure with no
  custom credit protocol on the wire);
- one **dispatcher task** draining the ingress queue, so broker state is
  only ever touched from a single task and per-connection frame order is
  preserved;
- one **egress queue + pump task per peer**: the egress queue is a
  :class:`repro.flow.BoundedPriorityQueue` (control frames at a priority
  class above events, the oldest event of the worst class shed under
  overload), and the pump writes everything queued (up to
  :data:`FLUSH_BYTES`) as one buffer and awaits ``drain()`` once, so a
  slow peer backpressures its queue rather than the whole process.

Events arriving on the wire are PSE2 payloads; the dispatcher decodes
the routable part for matching but forwards the *original payload
bytes* to every matched peer -- brokers re-frame, never re-seal.
PING frames are source-routed to the tree root and answered with a
PONG that unwinds the recorded path, giving clients a deterministic
flush barrier (see :class:`repro.rtnet.frames.Ping`).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Hashable

from repro.flow.policy import NORMAL, priority_of
from repro.flow.queues import BoundedPriorityQueue
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import tokenized_match
from repro.rtnet.client import _redial_delay
from repro.rtnet.frames import (
    PROTOCOL_VERSION,
    Ack,
    EventFrame,
    Frame,
    Heartbeat,
    Hello,
    HelloAck,
    Ping,
    Pong,
    Subscribe,
    Unsubscribe,
    encode_frame,
    read_frame,
)
from repro.siena.broker import Broker, MatchPredicate
from repro.core.wire import decode_sealed_event

#: Priority class for control frames (SUBSCRIBE, ACK, ...): strictly
#: better than every event class, so overload never sheds control state.
CONTROL_PRIORITY = -1

#: Encoded bytes after which a pump stops adding frames to one flush.
#: Whatever a slow reader has not taken must wait in the egress queue,
#: where the shed policy sees it, not in the transport's write buffer.
FLUSH_BYTES = 64 * 1024

#: Frames the readers may queue for the dispatcher before they stop
#: reading (and TCP's receive window starts pushing back).
INGRESS_CAPACITY = 1024


@dataclass
class _Peer:
    """Per-connection server state."""

    peer_id: str
    role: str
    writer: asyncio.StreamWriter
    egress: BoundedPriorityQueue
    wake: asyncio.Event
    pump: asyncio.Task | None = None
    reader_task: asyncio.Task | None = None
    next_seq: int = 0
    last_seen: float = 0.0


class BrokerServer:
    """One broker of the overlay, listening on a TCP socket.

    ``await start()`` binds the listener (``port=0`` picks a free port,
    read back from :attr:`port`); ``await connect_parent(host, port)``
    dials the parent broker and keeps that link alive across parent
    restarts (reconnect + covering-set replay).  ``await stop()`` tears
    everything down.
    """

    def __init__(
        self,
        broker_id: Hashable,
        host: str = "127.0.0.1",
        port: int = 0,
        match: MatchPredicate = tokenized_match,
        registry: MetricsRegistry | None = None,
        egress_capacity: int = 512,
    ):
        self.broker_id = str(broker_id)
        self.host = host
        self.port = port
        self.registry = registry
        self.broker = Broker(broker_id, match=match, registry=registry)
        self.egress_capacity = egress_capacity
        self._server: asyncio.AbstractServer | None = None
        self._ingress: asyncio.Queue = asyncio.Queue(maxsize=INGRESS_CAPACITY)
        self._dispatcher: asyncio.Task | None = None
        self._peers: dict[str, _Peer] = {}
        self._parent: _Peer | None = None
        self._parent_reader: asyncio.StreamReader | None = None
        self._parent_task: asyncio.Task | None = None
        self._parent_addr: tuple[str, int] | None = None
        self._closed = False
        #: The EVENT frame currently being routed; send/deliver closures
        #: forward its payload bytes instead of re-encoding the event.
        self._relay: EventFrame | None = None
        if registry is not None:
            registry.gauge(
                "rtnet_ingress_depth", broker=self.broker_id
            ).set(0)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self) -> None:
        self._closed = True
        tasks = []
        if self._parent_task is not None:
            self._parent_task.cancel()
            tasks.append(self._parent_task)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            tasks.append(self._dispatcher)
        for peer in list(self._peers.values()):
            if peer.pump is not None:
                peer.pump.cancel()
                tasks.append(peer.pump)
            if peer.reader_task is not None:
                peer.reader_task.cancel()
                tasks.append(peer.reader_task)
            peer.writer.close()
        if self._parent is not None and self._parent.pump is not None:
            self._parent.pump.cancel()
            tasks.append(self._parent.pump)
            self._parent.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- inbound connections --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Swallow the shutdown cancellation so asyncio's stream-protocol
        # done-callback does not log it as an unhandled exception.
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await read_frame(reader)
        except (ValueError, OSError):
            writer.close()
            return
        if not isinstance(hello, Hello) or hello.version != PROTOCOL_VERSION:
            # Version 0 in the HELLO_ACK tells the dialer "rejected".
            try:
                writer.write(encode_frame(HelloAck(self.broker_id, 0)))
                await writer.drain()
            except OSError:
                pass
            writer.close()
            self._count("rtnet_handshakes_rejected_total")
            return
        writer.write(encode_frame(HelloAck(self.broker_id, PROTOCOL_VERSION)))
        await writer.drain()

        peer = self._register_peer(hello.peer_id, hello.role, writer)
        if hello.role == "broker":
            self.broker.attach_child(
                hello.peer_id, self._link_sender(peer)
            )
        elif hello.role == "subscriber":
            self.broker.attach_client(
                hello.peer_id, self._client_deliverer(peer)
            )
        peer.reader_task = asyncio.current_task()
        await self._reader_loop(peer, reader)

    def _register_peer(
        self, peer_id: str, role: str, writer: asyncio.StreamWriter
    ) -> _Peer:
        stale = self._peers.pop(peer_id, None)
        if stale is not None and stale.pump is not None:
            stale.pump.cancel()
            stale.writer.close()
        peer = _Peer(
            peer_id,
            role,
            writer,
            BoundedPriorityQueue(
                self.egress_capacity,
                registry=self.registry,
                broker=self.broker_id,
                queue=f"egress:{peer_id}",
            ),
            asyncio.Event(),
            last_seen=time.time(),
        )
        peer.pump = asyncio.ensure_future(self._pump_loop(peer))
        self._peers[peer_id] = peer
        return peer

    async def _reader_loop(
        self, peer: _Peer, reader: asyncio.StreamReader
    ) -> None:
        try:
            while not self._closed:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self._count(
                    "rtnet_frames_total",
                    direction="in",
                    type=frame.type.name.lower(),
                )
                await self._ingress.put((peer, frame))
                self._gauge("rtnet_ingress_depth", self._ingress.qsize())
        except (ValueError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            if not self._closed:
                self._drop_peer(peer)

    def _drop_peer(self, peer: _Peer) -> None:
        if self._peers.get(peer.peer_id) is not peer:
            return
        del self._peers[peer.peer_id]
        if peer.pump is not None:
            peer.pump.cancel()
        peer.writer.close()
        if peer.role == "broker":
            self.broker.detach_child(peer.peer_id)
        elif peer.role == "subscriber":
            self.broker.detach_client(peer.peer_id)
        self._count("rtnet_peer_disconnects_total", role=peer.role)

    # -- parent link -----------------------------------------------------------

    async def connect_parent(self, host: str, port: int) -> None:
        """Dial the parent broker; keeps the link alive until stopped."""
        self._parent_addr = (host, port)
        await self._dial_parent(first=True)
        self._parent_task = asyncio.ensure_future(self._parent_loop())

    async def _dial_parent(self, first: bool) -> None:
        attempt = 0
        while not self._closed:
            try:
                reader, writer = await asyncio.open_connection(
                    *self._parent_addr
                )
                writer.write(
                    encode_frame(
                        Hello(self.broker_id, "broker", PROTOCOL_VERSION)
                    )
                )
                await writer.drain()
                ack = await read_frame(reader)
            except (OSError, ValueError):
                await asyncio.sleep(_redial_delay(attempt, self.backoff_rng))
                attempt += 1
                continue
            if not isinstance(ack, HelloAck) or ack.version != PROTOCOL_VERSION:
                writer.close()
                raise ConnectionError(
                    f"parent rejected handshake: {ack!r}"
                )
            parent = _Peer(
                ack.peer_id,
                "parent",
                writer,
                BoundedPriorityQueue(
                    self.egress_capacity,
                        registry=self.registry,
                    broker=self.broker_id,
                    queue="egress:parent",
                ),
                asyncio.Event(),
            )
            parent.pump = asyncio.ensure_future(self._pump_loop(parent))
            self._parent = parent
            self._parent_reader = reader
            self.broker.attach_parent(ack.peer_id, self._link_sender(parent))
            if not first:
                # The parent lost this interface's registrations; replay
                # the covering set (tree repair over a real socket).
                self.broker.replay_upstream()
                self._count("rtnet_parent_reconnects_total")
            return

    async def _parent_loop(self) -> None:
        """Read from the parent link; redial (with replay) when it dies."""
        while not self._closed:
            try:
                frame = await read_frame(self._parent_reader)
            except (ValueError, OSError, asyncio.IncompleteReadError):
                frame = None
            if frame is None:
                if self._closed:
                    return
                old = self._parent
                if old is not None and old.pump is not None:
                    old.pump.cancel()
                    old.writer.close()
                self._parent = None
                await self._dial_parent(first=False)
                continue
            self._count(
                "rtnet_frames_total",
                direction="in",
                type=frame.type.name.lower(),
            )
            await self._ingress.put((self._parent, frame))

    # The backoff RNG is deliberately shared process state: parent links
    # of co-located brokers should not redial in lockstep either.
    backoff_rng = random.Random()

    # -- dispatch ---------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            peer, frame = await self._ingress.get()
            self._gauge("rtnet_ingress_depth", self._ingress.qsize())
            try:
                self._dispatch(peer, frame)
            except ValueError:
                self._count("rtnet_protocol_errors_total")

    def _dispatch(self, peer: _Peer, frame: Frame) -> None:
        peer.last_seen = time.time()
        if isinstance(frame, Subscribe):
            self.broker.subscribe(peer.peer_id, frame.filter)
        elif isinstance(frame, Unsubscribe):
            self.broker.unsubscribe(peer.peer_id, frame.filter)
        elif isinstance(frame, EventFrame):
            self._dispatch_event(peer, frame)
        elif isinstance(frame, Ping):
            if self._parent is not None:
                self._enqueue(
                    self._parent,
                    Ping(frame.token, frame.path + (peer.peer_id,)),
                    NORMAL,
                )
            else:
                # Root of the tree: start the unwind.
                self._enqueue(peer, Pong(frame.token, frame.path), NORMAL)
        elif isinstance(frame, Pong):
            if frame.path:
                next_hop = self._peers.get(frame.path[-1])
                if next_hop is not None:
                    self._enqueue(
                        next_hop,
                        Pong(frame.token, frame.path[:-1]),
                        NORMAL,
                    )
        elif isinstance(frame, Heartbeat):
            self._count("rtnet_heartbeats_total")
        elif isinstance(frame, Ack):
            pass
        else:
            raise ValueError(f"unexpected frame {frame.type.name}")

    def _dispatch_event(self, peer: _Peer, frame: EventFrame) -> None:
        sealed = decode_sealed_event(frame.payload)
        if self.registry is not None:
            self.registry.histogram(
                "rtnet_relay_latency_seconds", broker=self.broker_id
            ).observe(max(0.0, time.time() - frame.sent_at))
        arrived_from = (
            None if peer.role == "publisher" else peer.peer_id
        )
        self._relay = frame
        try:
            self.broker.publish(sealed.routable, arrived_from=arrived_from)
        finally:
            self._relay = None
        if peer.role == "publisher":
            self._enqueue(peer, Ack(frame.seq), CONTROL_PRIORITY)

    # -- egress -----------------------------------------------------------------

    def _link_sender(self, peer: _Peer):
        """The ``send(kind, payload)`` callable the broker core expects."""

        def send(kind: str, payload) -> None:
            if kind == "subscribe":
                self._enqueue(peer, Subscribe(payload), CONTROL_PRIORITY)
            elif kind == "unsubscribe":
                self._enqueue(peer, Unsubscribe(payload), CONTROL_PRIORITY)
            elif kind == "publish":
                self._forward_event(peer, payload)
            else:  # pragma: no cover - the broker sends no other kind
                raise ValueError(f"unroutable message kind {kind!r}")

        return send

    def _client_deliverer(self, peer: _Peer):
        def deliver(event) -> None:
            self._forward_event(peer, event)

        return deliver

    def _forward_event(self, peer: _Peer, event) -> None:
        relay = self._relay
        if relay is None:  # pragma: no cover - defensive
            raise ValueError("event forwarded outside a relay context")
        frame = EventFrame(peer.next_seq, relay.sent_at, relay.payload)
        peer.next_seq += 1
        self._enqueue(peer, frame, priority_of(event))

    def _enqueue(self, peer: _Peer, frame: Frame, priority: int) -> None:
        offer = peer.egress.offer(frame, priority)
        if offer.accepted:
            peer.wake.set()
        # Shed frames are counted by the queue itself (flow_shed_total).

    async def _pump_loop(self, peer: _Peer) -> None:
        """Write *peer*'s egress queue to its socket, one write and one
        ``drain()`` per flush: every frame queued when the pump comes
        round, in ``take()`` order, up to :data:`FLUSH_BYTES`."""
        try:
            while True:
                entry = peer.egress.take()
                if entry is None:
                    peer.wake.clear()
                    await peer.wake.wait()
                    continue
                frames: list[Frame] = []
                chunks: list[bytes] = []
                size = 0
                while entry is not None:
                    frames.append(entry[0])
                    chunks.append(encode_frame(entry[0]))
                    size += len(chunks[-1])
                    if size >= FLUSH_BYTES:
                        break
                    entry = peer.egress.take()
                peer.writer.write(b"".join(chunks))
                await peer.writer.drain()
                if self.registry is not None:
                    for frame in frames:
                        self._count(
                            "rtnet_frames_total",
                            direction="out",
                            type=frame.type.name.lower(),
                        )
        except (OSError, asyncio.CancelledError):
            return

    # -- metrics ----------------------------------------------------------------

    def _count(self, name: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                name, broker=self.broker_id, **labels
            ).inc()

    def _gauge(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name, broker=self.broker_id).set(value)
