"""An asyncio TCP server hosting one :class:`repro.siena.Broker`.

The broker core stays transport-agnostic; this module supplies the real
network around it:

- one **reader task per connection** that dispatches each frame where
  it reads it: the broker update runs to completion before the next
  read (dispatch never awaits), so broker state is never touched by two
  frames at once and per-connection frame order is preserved;
- one **egress queue + pump task per peer**: the egress queue is a
  :class:`repro.flow.BoundedPriorityQueue` (control frames at a priority
  class above events, the oldest event of the worst class shed under
  overload), and the pump writes everything queued (up to
  :data:`FLUSH_BYTES`) as one buffer and awaits ``drain()`` once, so a
  slow peer backpressures its queue rather than the whole process.

Backpressure is hop by hop with no credit protocol on the wire: a busy
loop does not read, TCP's receive window fills, the upstream pump's
``drain()`` blocks, and its egress queue sheds by priority.

Events arriving on the wire are PSE2 payloads; the reader decodes the
routable part for matching but forwards the *original payload bytes* to
every matched peer -- brokers re-frame, never re-seal.  PING frames are
source-routed to the tree root and answered with a PONG that unwinds
the recorded path, giving clients a deterministic flush barrier (see
:class:`repro.rtnet.frames.Ping`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Hashable

from repro.flow.policy import NORMAL, priority_of
from repro.flow.queues import BoundedPriorityQueue
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import tokenized_match
from repro.rtnet.frames import (
    Ack,
    EventFrame,
    Frame,
    FrameReader,
    Hello,
    Ping,
    Pong,
    Subscribe,
    Unsubscribe,
    encode_frame,
)
from repro.rtnet.link import accept, redial
from repro.siena.broker import Broker, MatchPredicate
from repro.core.wire import decode_sealed_event

#: Priority class for control frames (SUBSCRIBE, ACK, ...): strictly
#: better than every event class, so overload never sheds control state.
CONTROL_PRIORITY = -1

#: Encoded bytes after which a pump stops adding frames to one flush.
#: Whatever a slow reader has not taken must wait in the egress queue,
#: where the shed policy sees it, not in the transport's write buffer.
FLUSH_BYTES = 64 * 1024


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
        self._peers: dict[str, _Peer] = {}
        self._parent: _Peer | None = None
        self._parent_task: asyncio.Task | None = None
        self._parent_addr: tuple[str, int] | None = None
        self._closed = False
        #: The EVENT frame currently being routed; send/deliver closures
        #: forward its payload bytes instead of re-encoding the event.
        self._relay: EventFrame | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._closed = True
        tasks = [self._parent_task]
        for peer in [*self._peers.values(), self._parent]:
            if peer is not None:
                tasks += [peer.pump, peer.reader_task]
                peer.writer.close()
        tasks = [task for task in tasks if task is not None]
        for task in tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.gather(*tasks, return_exceptions=True)

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
            accepted = await accept(reader, writer, self.broker_id)
            if accepted is None:
                self._count("rtnet_handshakes_rejected_total")
                return
            hello, frames = accepted
            stale = self._peers.get(hello.peer_id)
            if stale is not None:
                stale.pump.cancel()
                stale.writer.close()
            peer = self._peers[hello.peer_id] = self._new_peer(
                hello.peer_id, hello.role, writer, f"egress:{hello.peer_id}"
            )
            if hello.role == "broker":
                self.broker.attach_child(
                    hello.peer_id, self._link_sender(peer)
                )
            elif hello.role == "subscriber":
                self.broker.attach_client(
                    hello.peer_id,
                    lambda event: self._forward_event(peer, event),
                )
            peer.reader_task = asyncio.current_task()
            await self._read_loop(peer, frames)
        except asyncio.CancelledError:
            pass

    def _new_peer(
        self, peer_id: str, role: str, writer: asyncio.StreamWriter, queue: str
    ) -> _Peer:
        peer = _Peer(
            peer_id,
            role,
            writer,
            BoundedPriorityQueue(
                self.egress_capacity,
                registry=self.registry,
                broker=self.broker_id,
                queue=queue,
            ),
            asyncio.Event(),
        )
        peer.pump = asyncio.ensure_future(self._pump_loop(peer))
        return peer

    async def _read_loop(self, peer: _Peer, frames: FrameReader) -> None:
        """Dispatch *peer*'s frames as they are read until its connection
        ends; then drop an inbound peer, or redial a lost parent and
        replay the covering set to it (tree repair over a real socket).
        A frame that does not decode ends the connection; one that
        decodes but cannot be dispatched is counted and skipped."""
        while True:
            try:
                while (frame := await frames.read()) is not None:
                    self._count(
                        "rtnet_frames_total",
                        direction="in",
                        type=frame.type.name.lower(),
                    )
                    try:
                        self._dispatch(peer, frame)
                    except ValueError:
                        self._count("rtnet_protocol_errors_total")
            except (ValueError, OSError):
                pass
            if self._closed:
                return
            if peer is not self._parent:
                self._drop_peer(peer)
                return
            peer.pump.cancel()
            peer.writer.close()
            self._parent = None
            peer, frames = await self._dial_parent()
            self.broker.replay_upstream()
            self._count("rtnet_parent_reconnects_total")

    def _drop_peer(self, peer: _Peer) -> None:
        if self._peers.get(peer.peer_id) is not peer:
            return
        del self._peers[peer.peer_id]
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
        link = await self._dial_parent()
        self._parent_task = asyncio.ensure_future(self._read_loop(*link))

    async def _dial_parent(self) -> tuple[_Peer, FrameReader]:
        parent_id, frames, writer = await redial(
            *self._parent_addr, Hello(self.broker_id, "broker"),
            lambda: self._closed,
        )
        self._parent = self._new_peer(
            parent_id, "parent", writer, "egress:parent"
        )
        self.broker.attach_parent(parent_id, self._link_sender(self._parent))
        return self._parent, frames

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, peer: _Peer, frame: Frame) -> None:
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
