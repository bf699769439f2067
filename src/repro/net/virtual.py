"""An asyncio event loop on a virtual clock, with in-memory streams.

:class:`VirtualLoop` runs asyncio code -- all of rtnet -- unchanged.
When every task waits on a timer it jumps its clock there instead of
sleeping, and ``start_server``/``open_connection`` pair in-memory
transports whose bytes arrive, in order, *delay* seconds after the
write.  Each end is named by the peer id of its first frame (HELLO or
HELLO_ACK); the loop's :class:`~repro.net.faults.FaultInjector` plays
the plan on named links: ``partitioned`` holds bytes until the window
ends, ``extra_latency`` adds to that direction's delay, and ``loss=p``
drops the write and resets its connection.  :attr:`VirtualLoop.
discarded` counts what never arrived: lost writes, bytes that reached
a closed end, refused dials.  :func:`run` drives a coroutine on any
loop to its end and closes the loop.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import math
import selectors
from collections import deque
from types import SimpleNamespace

from repro.net.faults import FaultInjector, FaultPlan
from repro.rtnet.frames import Hello, HelloAck, decode_payload


class _Selector(selectors.DefaultSelector):
    """Polls; a wait on a timer moves the clock, a wait on nothing (for
    another thread's wake-up) blocks."""

    def select(self, timeout=None):
        ready = super().select(None if timeout is None else 0)
        if not ready and timeout:
            loop = self.loop
            loop._now = min(loop._scheduled[0]._when, loop._now + timeout)
        return ready


class _End(asyncio.Transport):
    """One end of an in-memory connection.  There is no backpressure: a
    slow reader's buffer grows (``StreamReader`` copes with a transport
    that cannot pause)."""

    def __init__(self, loop: "VirtualLoop", protocol):
        super().__init__()
        self._loop, self._protocol = loop, protocol
        self.peer: _End | None = None
        self.name: str | None = None
        self._head: bytearray | None = bytearray()
        self._closed = False
        #: What this end sent that has not arrived, and when the last lands.
        self.inflight: deque = deque()
        self.last = 0.0

    def is_closing(self) -> bool:
        return self._closed

    def write(self, data) -> None:
        if self._closed or not data:
            return
        if self._head is not None:  # until the first frame names this end
            self._head += data
            size = int.from_bytes(self._head[:4], "big")
            if len(self._head) >= 4 + size:
                try:
                    first = decode_payload(bytes(self._head[4:4 + size]))
                except ValueError:
                    first = None
                if isinstance(first, (Hello, HelloAck)):
                    self.name = first.peer_id
                self._head = None
        self._loop._carry(self, bytes(data))

    def close(self, exc: Exception | None = None) -> None:
        """The peer reads EOF (``None``), or with *exc* a reset, behind
        what is in flight."""
        if not self._closed:
            self._closed = True
            if not self.peer._closed:
                self._loop._carry(self, exc)
            self._loop.call_soon(self._protocol.connection_lost, exc)

    def arrive(self) -> None:
        item, peer = self.inflight.popleft(), self.peer
        if peer._closed:
            self._loop.discarded += isinstance(item, bytes)
        elif isinstance(item, bytes):
            peer._protocol.data_received(item)
        elif item is not None:
            peer.close(ConnectionResetError("connection reset by peer"))
        elif not peer._protocol.eof_received():
            peer.close()


class VirtualLoop(asyncio.SelectorEventLoop):
    """Streams with *delay* seconds one way and *plan* played on them
    (*seed* draws its losses), on a clock that starts at 0."""

    def __init__(self, delay: float, plan: FaultPlan | None = None, seed: int = 0):
        selector = _Selector()
        super().__init__(selector)
        selector.loop = self
        self.delay = delay
        self._now = 0.0
        self._listeners: dict[int, SimpleNamespace] = {}
        self._ports = itertools.count(49152)
        self.discarded = 0
        self.faults = FaultInjector(self, plan or FaultPlan(), seed)
        self.faults.install()

    def time(self) -> float:
        return self._now

    #: ``now`` and ``schedule_at``: the clock a ``FaultInjector`` reads.
    now = property(time)

    def schedule_at(self, when: float, callback) -> asyncio.TimerHandle:
        return self.call_at(when, callback)

    def play_crashes(self, network) -> None:
        """Crash and restart *network*'s nodes as the plan says."""
        self.faults.on_transition(
            lambda kind, node: network.crash(node) if kind == "crash"
            else self.create_task(network.restart(node))
        )

    async def create_server(self, protocol_factory, host=None, port=None, **_):
        port = port or next(p for p in self._ports if p not in self._listeners)
        if port in self._listeners:
            raise OSError(f"port {port} already in use")
        server = self._listeners[port] = SimpleNamespace(
            factory=protocol_factory,
            sockets=[SimpleNamespace(getsockname=lambda: (host, port))],
            close=lambda: self._listeners.get(port) is server
            and self._listeners.pop(port),
            # Nothing to wait for: ``close`` frees the port at once.
            wait_closed=functools.partial(asyncio.sleep, 0),
        )
        return server

    async def create_connection(self, protocol_factory, host=None, port=None, **_):
        if port not in self._listeners:
            self.discarded += 1
            raise ConnectionRefusedError(f"nothing listens on port {port}")
        dialer = _End(self, protocol_factory())
        acceptor = _End(self, self._listeners[port].factory())
        dialer.peer, acceptor.peer = acceptor, dialer
        dialer._protocol.connection_made(dialer)
        acceptor._protocol.connection_made(acceptor)
        return dialer, dialer._protocol

    def _carry(self, end: _End, item) -> None:
        """Send *item* from *end* to its peer on the named link's terms."""
        start, extra = self._now, 0.0
        if end.name is not None and end.peer.name is not None:
            link = end.name, end.peer.name
            start = self.faults.severed_until(*link)
            if isinstance(item, bytes) and start == self._now \
                    and not self.faults.deliverable(*link):
                self.discarded += 1
                end.close(ConnectionResetError("write lost on the link"))
                return
            extra = self.faults.extra_latency(*link)
        end.last = max(start + self.delay + extra, end.last)
        end.inflight.append(item)
        if math.isfinite(end.last):
            self.call_at(end.last, end.arrive)


def run(loop: asyncio.AbstractEventLoop, main):
    """Run coroutine *main* on *loop*, cancel the tasks it left, close
    *loop*: ``asyncio.run`` on a loop the caller built, which Python
    3.10 cannot do (``asyncio.Runner`` is 3.11+).  Nothing under
    ``repro`` makes an async generator or uses the default executor."""
    try:
        return loop.run_until_complete(main)
    finally:
        if left := asyncio.all_tasks(loop):
            for task in left:
                task.cancel()
            # return_exceptions: the gather itself never raises.
            loop.run_until_complete(asyncio.gather(*left, return_exceptions=True))
        loop.close()
