"""The KDC endpoint: grants, revocations, and epoch rollover over TCP.

:class:`KdcServer` hosts a :class:`~repro.core.kdc.KDC` behind an rtnet
listener, turning the key-distribution center from a library object into
a live service beside the broker tree:

- **GRANT / GRANT_ACK** -- request-reply authorization.  A request
  carries the subscriber, its filters, the anchoring time, and an
  optional ``min_epoch`` (the renewal path asking for next-epoch keys
  before the boundary); the reply carries the serialized grant, a
  terminal denial (revoked), or a retryable unavailability;
- **REVOKE** -- an administrative client revokes a (subscriber, topic)
  pair; acknowledged with a ``GRANT_DONE``.  Lazy revocation per the
  paper's Section 3.1: the victim's current-epoch grant keeps working
  until its epoch lapses, but every later renewal is denied;
- **REKEY** -- :meth:`KdcServer.roll_epoch` broadcasts the new epoch to
  every connected client.  Clients treat it as a logical-clock
  advancement and run their renewal tick, so rollover is driven by one
  explicit, settle-barrier-verifiable control frame instead of wall
  clocks and sleeps;
- **PING / PONG** -- the server answers settle probes directly (it is
  its own root), so ``settle()`` works against it exactly as against a
  broker: a returned PONG proves every GRANT_ACK and REKEY queued ahead
  of it has been written.

The server is stateless beyond the KDC's own revocation set -- every
key is derivable from the master key (paper Section 4), so a restarted
KdcServer serves the same grants without recovery work.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.kdc import KDC
from repro.errors import GrantDenied, KDCUnavailable
from repro.obs.metrics import MetricsRegistry
from repro.rtnet.frames import (
    GRANT_DENIED,
    GRANT_DONE,
    GRANT_OK,
    GRANT_UNAVAILABLE,
    PROTOCOL_VERSION,
    FrameError,
    GrantAck,
    GrantRequest,
    Heartbeat,
    Hello,
    HelloAck,
    Ping,
    Pong,
    Rekey,
    Revoke,
    encode_frame,
    read_frame,
)


#: The peer id the endpoint answers HELLO with, and its metrics label.
_SERVER_ID = "kdc"


class _Session:
    """One connected client of the KDC endpoint."""

    def __init__(self, peer_id: str, writer: asyncio.StreamWriter) -> None:
        self.peer_id = peer_id
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, frame) -> None:
        async with self.lock:
            self.writer.write(encode_frame(frame))
            await self.writer.drain()


class KdcServer:
    """A :class:`~repro.core.kdc.KDC` listening on a TCP socket."""

    def __init__(
        self,
        kdc: KDC,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ):
        self.kdc = kdc
        self.host = host
        self.port = port
        self.registry = registry
        self._server: asyncio.AbstractServer | None = None
        self._sessions: dict[str, _Session] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self._closed = True
        for session in list(self._sessions.values()):
            session.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- connections ---------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve(reader, writer)
        except asyncio.CancelledError:
            pass

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await read_frame(reader)
        except (ValueError, OSError):
            writer.close()
            return
        if not isinstance(hello, Hello) or hello.version != PROTOCOL_VERSION:
            try:
                writer.write(encode_frame(HelloAck(_SERVER_ID, 0)))
                await writer.drain()
            except OSError:
                pass
            writer.close()
            self._count("rekey_handshakes_rejected_total")
            return
        session = _Session(hello.peer_id, writer)
        stale = self._sessions.pop(hello.peer_id, None)
        if stale is not None:
            stale.writer.close()
        self._sessions[hello.peer_id] = session
        await session.send(HelloAck(_SERVER_ID, PROTOCOL_VERSION))
        try:
            while not self._closed:
                try:
                    frame = await read_frame(reader)
                except (ValueError, OSError, asyncio.IncompleteReadError):
                    break
                if frame is None:
                    break
                await self._dispatch(session, frame)
        finally:
            if self._sessions.get(session.peer_id) is session:
                del self._sessions[session.peer_id]
            writer.close()

    async def _dispatch(self, session: _Session, frame) -> None:
        if isinstance(frame, GrantRequest):
            await session.send(self._answer_grant(frame))
        elif isinstance(frame, Revoke):
            self.kdc.revoke(frame.subscriber, frame.topic)
            self._count("rekey_revocations_total")
            await session.send(GrantAck(frame.request_id, GRANT_DONE))
        elif isinstance(frame, Ping):
            # The KDC endpoint is its own settle root.
            await session.send(Pong(frame.token, frame.path))
        elif isinstance(frame, Heartbeat):
            pass
        else:
            self._count("rekey_protocol_errors_total")

    def _answer_grant(self, frame: GrantRequest) -> GrantAck:
        started = time.perf_counter()
        filters = (
            frame.filters[0] if len(frame.filters) == 1
            else list(frame.filters)
        )
        try:
            grant = self.kdc.authorize(
                frame.subscriber,
                filters,
                at_time=frame.at_time,
                publisher=frame.publisher,
                min_epoch=frame.min_epoch,
            )
        except GrantDenied as exc:
            self._count("rekey_grants_denied_total")
            return GrantAck(frame.request_id, GRANT_DENIED, str(exc))
        except KDCUnavailable as exc:
            self._count("rekey_grants_unavailable_total")
            return GrantAck(frame.request_id, GRANT_UNAVAILABLE, str(exc))
        except (FrameError, KeyError, ValueError) as exc:
            # A malformed or unregistered-topic request must not kill
            # the session; surface it as an unavailability the client
            # can log.
            self._count("rekey_protocol_errors_total")
            return GrantAck(frame.request_id, GRANT_UNAVAILABLE, str(exc))
        self._count("rekey_grants_issued_total")
        if self.registry is not None:
            self.registry.histogram(
                "rekey_authorize_seconds", server=_SERVER_ID
            ).observe(time.perf_counter() - started)
        return GrantAck(frame.request_id, GRANT_OK, grant=grant)

    # -- epoch rollover --------------------------------------------------------

    async def roll_epoch(self, topic: str, at_time: float) -> int:
        """Broadcast *topic*'s epoch as of *at_time* to every client.

        Returns the epoch number announced.  The broadcast is the whole
        mechanism: receivers advance their logical clocks and run their
        renewal ticks, which come back here as GRANT requests pinned to
        ``min_epoch = old + 1``.
        """
        epoch = self.kdc.epoch_of(topic, at_time)
        frame = Rekey(topic, epoch, at_time)
        for session in list(self._sessions.values()):
            try:
                await session.send(frame)
            except (OSError, ConnectionError):
                pass  # the reader loop reaps the dead session
        self._count("rekey_rollovers_total")
        return epoch

    # -- metrics ----------------------------------------------------------------

    def _count(self, name: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                name, server=_SERVER_ID, **labels
            ).inc()
