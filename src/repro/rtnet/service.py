"""The KDC service network over asyncio TCP.

:class:`TcpServiceNetwork` hosts the replicated-KDC classes with the
semantics of the simulated :class:`~repro.net.service.ServiceNetwork`.
Each node is one listener; a request rides a session from its sender
(HELLO first) as a :class:`~repro.rtnet.frames.KdcCall` and its reply
returns as a :class:`~repro.rtnet.frames.KdcReply`, replica traffic and
client traffic alike.  A request to a dead node, or on a reset session,
vanishes: the caller's timeout is the only failure detector.  ``crash``
and ``restart`` fire the fault injector's transition hook, the clock is
the event loop's, and REKEY (``push``) is the one frame sent unasked.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable, Hashable

from repro.core.kdcservice import KDCResponse
from repro.obs.metrics import MetricsRegistry
from repro.rtnet.frames import (
    Hello,
    KdcCall,
    KdcReply,
    MalformedCall,
    Rekey,
    encode_frame,
)
from repro.rtnet.link import accept, dial


class _LoopClock:
    """The running event loop as a ``now``/``schedule`` clock."""

    now = property(lambda _self: asyncio.get_running_loop().time())

    def schedule(self, delay: float, callback: Callable[[], object]):
        return asyncio.get_running_loop().call_later(delay, callback)


class _Session:
    """One end of a service connection; frames queue until it is dialed."""

    def __init__(self, peer: Hashable, writer=None):
        self.peer = peer
        self.writer: asyncio.StreamWriter | None = writer
        self.queued: list[bytes] = []
        #: ``tag -> on_reply`` for the calls this end sent.
        self.replies: dict[int, Callable[[object], None]] = {}
        self.dialing: asyncio.Task | None = None

    def send(self, frame) -> None:
        if self.writer is None:
            self.queued.append(encode_frame(frame))
        elif not self.writer.is_closing():
            self.writer.write(encode_frame(frame))


class TcpServiceNetwork:
    """Point-to-point request/response messaging over loopback TCP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
    ):
        self.host = host
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = _LoopClock()
        #: Listening port per node, kept across a crash for the restart.
        self.ports: dict[Hashable, int] = {}
        self._handlers: dict[Hashable, Callable] = {}
        self._servers: dict[Hashable, asyncio.AbstractServer] = {}
        self._inbound: dict[Hashable, set[_Session]] = {}
        self._outbound: dict[tuple, _Session] = {}
        self._pushes: dict[Hashable, Callable[[Rekey], None]] = {}
        self._listeners: list[Callable[[str, Hashable], None]] = []
        self._tags = itertools.count()
        self._tasks: set[asyncio.Task] = set()

    # -- the service-network interface ----------------------------------------

    def register(self, node_id: Hashable, handler: Callable) -> None:
        """Bind *handler* to *node_id*; :meth:`start` opens its listener."""
        if node_id in self._handlers:
            raise ValueError(f"service node {node_id!r} already registered")
        self._handlers[node_id] = handler
        self._inbound[node_id] = set()

    def node_up(self, node_id: Hashable) -> bool:
        return node_id in self._servers

    def on_transition(self, listener: Callable[[str, Hashable], None]) -> None:
        """Call ``listener(kind, node)`` on every crash/restart."""
        self._listeners.append(listener)

    def request(self, src, dst, payload, on_reply=None) -> None:
        """Send *payload* from *src* to *dst*; a lost request or reply
        simply never calls *on_reply*."""
        session = self._session(src, dst)
        tag = next(self._tags)
        if on_reply is not None:
            session.replies[tag] = on_reply
        session.send(KdcCall(tag, payload))

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        for node_id in self._handlers:
            await self._listen(node_id)

    async def stop(self) -> None:
        """Close every listener and session, then wait out their tasks."""
        for node_id in list(self._servers):
            self._shut(node_id)
        for key, session in list(self._outbound.items()):
            self._forget(key, session)
        await asyncio.gather(*self._tasks, return_exceptions=True)

    def crash(self, node_id: Hashable) -> None:
        """Kill *node_id*: its listener and sessions close, and what was
        in flight to it is lost."""
        self._shut(node_id)
        for listener in list(self._listeners):
            listener("crash", node_id)

    async def restart(self, node_id: Hashable) -> None:
        """Reopen a crashed node's listener on its old port."""
        await self._listen(node_id)
        for listener in list(self._listeners):
            listener("restart", node_id)

    async def _listen(self, node_id: Hashable) -> None:
        server = await asyncio.start_server(
            lambda reader, writer: self._serve(node_id, reader, writer),
            self.host, self.ports.get(node_id, 0),
        )
        self._servers[node_id] = server
        self.ports[node_id] = server.sockets[0].getsockname()[1]

    def _shut(self, node_id: Hashable) -> None:
        self._servers.pop(node_id).close()
        for session in self._inbound[node_id]:
            session.writer.close()
        self._inbound[node_id].clear()
        for key, session in list(self._outbound.items()):
            if key[0] == node_id:
                self._forget(key, session)

    # -- the REKEY push -------------------------------------------------------

    def push(self, frame: Rekey) -> None:
        """Write *frame* on every client session of every live node."""
        for node_id in self._servers:
            for session in self._inbound[node_id]:
                if session.peer not in self._handlers:
                    session.send(frame)

    async def attach(self, client_id, on_push: Callable[[Rekey], None]):
        """Dial a session from *client_id* to every live node, handing
        the frames they push to *on_push*."""
        self._pushes[client_id] = on_push
        await asyncio.gather(*(
            self._session(client_id, node_id).dialing
            for node_id in list(self._servers)
        ))

    def detach(self, client_id) -> None:
        """Undo :meth:`attach`: close *client_id*'s sessions (the nodes'
        ends close on EOF) and stop handing it pushes."""
        self._pushes.pop(client_id, None)
        for key, session in list(self._outbound.items()):
            if key[0] == client_id:
                self._forget(key, session)

    # -- sessions -------------------------------------------------------------

    def _spawn(self, coroutine) -> asyncio.Task:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _session(self, src, dst) -> _Session:
        session = self._outbound.get((src, dst))
        if session is None:
            session = self._outbound[(src, dst)] = _Session(dst)
            session.dialing = self._spawn(self._dial(src, dst, session))
        return session

    def _forget(self, key: tuple, session: _Session) -> None:
        if self._outbound.get(key) is session:
            del self._outbound[key]
        if session.writer is not None:
            session.writer.close()

    async def _dial(self, src, dst, session: _Session) -> None:
        """Connect, shake hands, flush the queue, then read replies and
        pushes in a task of their own."""
        try:
            _, frames, session.writer = await dial(
                self.host, self.ports[dst], Hello(str(src), "kdc")
            )
        except (KeyError, OSError):
            frames = None
        # A session forgotten while it dialed -- its node crashed, or the
        # host stopped -- sends nothing it queued.
        if frames is None or self._outbound.get((src, dst)) is not session:
            self._forget((src, dst), session)
            return
        session.writer.write(b"".join(session.queued))
        session.queued.clear()
        self._spawn(self._read_replies(src, dst, session, frames))

    async def _read_replies(self, src, dst, session, frames) -> None:
        while True:
            try:
                frame = await frames.read()
            except (ValueError, OSError):
                break
            if frame is None:
                break
            if isinstance(frame, KdcReply):
                on_reply = session.replies.pop(frame.tag, None)
                if on_reply is not None:
                    on_reply(frame.response)
            elif isinstance(frame, Rekey) and src in self._pushes:
                self._pushes[src](frame)
        self._forget((src, dst), session)

    async def _serve(self, node_id, reader, writer) -> None:
        self._tasks.add(task := asyncio.current_task())
        task.add_done_callback(self._tasks.discard)
        accepted = await accept(reader, writer, str(node_id))
        if accepted is None:
            return
        (hello, frames), live = accepted, self._inbound[node_id]
        session = _Session(hello.peer_id, writer)
        # A node that crashed while this HELLO was in flight serves nothing.
        if self.node_up(node_id):
            live.add(session)
        while session in live:
            try:
                frame = await frames.read()
            except MalformedCall as exc:
                session.send(KdcReply(
                    exc.args[0], KDCResponse(ok=False, error="bad_request")
                ))
                continue
            except (ValueError, OSError):
                break
            # A crash closed the session: what it had buffered is lost.
            if frame is None or session not in live:
                break
            if isinstance(frame, KdcCall):
                reply = self._handlers[node_id](session.peer, frame.request)
                if reply is not None:
                    session.send(KdcReply(frame.tag, reply))
        live.discard(session)
        writer.close()
