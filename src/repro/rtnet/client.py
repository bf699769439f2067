"""Publisher and subscriber endpoints for the TCP runtime.

Both endpoints share one connection core (:class:`RtEndpoint`): dial,
HELLO/HELLO_ACK version negotiation, a reader task handling each inbound
frame as it reads it, and automatic reconnection with exponential
backoff + jitter.  What differs is what rides on top:

- :class:`RtPublisher` seals and tokenizes events locally (the broker
  network never sees plaintext routing attributes), numbers each EVENT
  frame, and keeps the unacked tail for resend after a reconnect --
  at-least-once to its home broker;
- :class:`RtSubscriber` re-registers every filter after a reconnect and
  opens arriving events through :class:`~repro.routing.tokens.
  TokenOpener`, the subscriber edge the in-process facade shares, whose
  engine's :class:`~repro.recovery.dedup.DedupWindow` turns the
  publisher's at-least-once resends into exactly-once processing.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.envelope import OpenResult
from repro.core.kdc import KDC, AuthorizationGrant
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager, RenewalPolicy
from repro.core.subscriber import Subscriber
from repro.core.wire import decode_sealed_event, encode_sealed_event
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import TokenAuthority, TokenOpener, tokenize_sealed
from repro.rtnet.frames import (
    PROTOCOL_VERSION,
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
from repro.rtnet.link import redial
from repro.siena.events import Event
from repro.siena.filters import Filter


@dataclass
class EndpointStats:
    """Connection-lifecycle counters an endpoint keeps."""

    connects: int = 0
    reconnects: int = 0


class RtEndpoint:
    """The connection core shared by publisher and subscriber endpoints."""

    role = "client"

    def __init__(
        self,
        peer_id: str,
        host: str,
        port: int,
        registry: MetricsRegistry | None = None,
    ):
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.registry = registry
        self.broker_id: str | None = None
        self.stats = EndpointStats()
        self._frames: FrameReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._recv_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._connected = asyncio.Event()
        self._closed = False
        self._pongs: dict[bytes, asyncio.Future] = {}

    # -- connection lifecycle ----------------------------------------------

    async def connect(self) -> None:
        """Dial the broker, shake hands, and start the receive loop."""
        await self._establish()
        self._recv_task = asyncio.ensure_future(self._recv_loop())

    async def _establish(self) -> None:
        self.broker_id, self._frames, self._writer = await redial(
            self.host, self.port,
            Hello(self.peer_id, self.role, PROTOCOL_VERSION),
            lambda: self._closed,
        )
        self.stats.connects += 1
        self._count("rtnet_client_connects_total")
        self._connected.set()
        self._writer.write(b"".join(map(encode_frame, self._replay())))
        try:
            await self._writer.drain()
        except OSError:
            pass  # the receive loop sees the dead link and redials

    def _replay(self) -> list[Frame]:
        """Frames to resend first on every (re)connection."""
        return []

    async def _recv_loop(self) -> None:
        while not self._closed:
            try:
                frame = await self._frames.read()
            except (ValueError, OSError):
                frame = None
            if frame is None:
                if self._closed:
                    return
                self._connected.clear()
                self._writer.close()
                self.stats.reconnects += 1
                self._count("rtnet_client_reconnects_total")
                try:
                    await self._establish()
                except ConnectionError:  # a rejection, or closed meanwhile
                    self._closed = True
                    return
                continue
            self._handle(frame)

    def _handle(self, frame: Frame) -> None:
        if isinstance(frame, Pong) and not frame.path:
            waiter = self._pongs.pop(frame.token, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    async def close(self) -> None:
        """Tear the connection down; no reconnection afterwards."""
        self._closed = True
        if self._recv_task is not None:
            self._recv_task.cancel()
            await asyncio.gather(self._recv_task, return_exceptions=True)
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    # -- sending -------------------------------------------------------------

    async def send(self, frame: Frame) -> None:
        """Write one frame, honouring transport backpressure."""
        async with self._write_lock:
            await self._connected.wait()
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        self._count("rtnet_client_frames_sent_total")

    async def settle(self, timeout: float = 10.0) -> None:
        """Flush the broker path: returns once a PING has round-tripped
        to the tree root and back, proving every frame sent before it
        (same priority class, FIFO per link) has been processed."""
        token = os.urandom(8)
        waiter = asyncio.get_event_loop().create_future()
        self._pongs[token] = waiter
        try:
            await self.send(Ping(token))
            await asyncio.wait_for(waiter, timeout)
        finally:
            self._pongs.pop(token, None)

    def _count(self, name: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                name, peer=self.peer_id, **labels
            ).inc()


class RtPublisher(RtEndpoint):
    """A publishing principal speaking rtnet to its home broker.

    Seals with the standard :class:`~repro.core.publisher.Publisher`
    engine, tokenizes the routable part so brokers match without
    learning attribute values, and resends the unacked tail after every
    reconnect (the subscriber-side dedup window absorbs the duplicates).
    """

    role = "publisher"

    def __init__(
        self,
        publisher_id: str,
        host: str,
        port: int,
        kdc: KDC,
        authority: TokenAuthority | None = None,
        **kwargs,
    ):
        super().__init__(publisher_id, host, port, **kwargs)
        self.engine = Publisher(publisher_id, kdc)
        self.authority = (
            authority
            if authority is not None
            else TokenAuthority(kdc.master_key)
        )
        self._next_seq = 0
        self._unacked: dict[int, EventFrame] = {}

    async def publish(
        self,
        event: Event,
        secret_attributes: set[str] | None = None,
        at_time: float = 0.0,
    ) -> None:
        """Seal, tokenize, frame and send one publication."""
        sealed = tokenize_sealed(
            self.authority,
            self.engine.publish(
                event, secret_attributes=secret_attributes, at_time=at_time
            ),
        )
        frame = EventFrame(
            self._next_seq, time.time(), encode_sealed_event(sealed)
        )
        self._next_seq += 1
        self._unacked[frame.seq] = frame
        await self.send(frame)

    @property
    def unacked(self) -> int:
        """EVENT frames not yet receipted by the home broker."""
        return len(self._unacked)

    def _replay(self) -> list[Frame]:
        # At-least-once: replay the unacked tail in order; subscribers
        # suppress any double delivery through their dedup windows.
        return [self._unacked[seq] for seq in sorted(self._unacked)]

    def _handle(self, frame: Frame) -> None:
        if isinstance(frame, Ack):
            self._unacked.pop(frame.seq, None)
            return
        super()._handle(frame)


class RtSubscriber(RtEndpoint, TokenOpener):
    """A subscribing principal speaking rtnet to its home broker.

    Holds KDC grants; each grant is turned into its tokenized routing
    filters (:meth:`~repro.routing.tokens.TokenOpener.routing_filters`)
    and registered with the broker.  Arriving EVENT frames are decoded
    and opened by :meth:`~repro.routing.tokens.TokenOpener.receive`;
    a body that does not decode logs ``corrupt``.
    """

    role = "subscriber"

    def __init__(
        self,
        subscriber_id: str,
        host: str,
        port: int,
        schema_lookup: Callable,
        authority: TokenAuthority,
        grace_period: float = 0.0,
        dedup_window: int = 1024,
        on_open: Callable[[OpenResult], None] | None = None,
        clock: Callable[[], float] | None = None,
        kdc_client=None,
        renewal: "RenewalPolicy | None" = None,
        **kwargs,
    ):
        if renewal is not None and kdc_client is None:
            raise ValueError("a renewal policy needs a kdc_client")
        if renewal is not None:
            grace_period = renewal.grace
        super().__init__(subscriber_id, host, port, **kwargs)
        TokenOpener.__init__(
            self,
            Subscriber(
                subscriber_id,
                grace_period=grace_period,
                dedup_window=dedup_window,
            ),
            schema_lookup,
            authority,
        )
        self.on_open = on_open
        #: Events are opened at this logical time; with a KDC client
        #: attached it defaults to the client's REKEY-advanced clock.
        if clock is None:
            clock = kdc_client.now if kdc_client is not None else lambda: 0.0
        self.clock = clock
        #: The :class:`~repro.core.kdcclient.KDCClient` grants renew
        #: through, when attached (``ClusterLauncher.kdc_client``).
        self.kdc_client = kdc_client
        self.renewal: RenewalManager | None = None
        if kdc_client is not None:
            policy = renewal if renewal is not None else RenewalPolicy()
            kdc_client.grace_period = max(
                kdc_client.grace_period, policy.grace
            )
            self.renewal = RenewalManager(
                self.engine, kdc_client, renew_lead_time=policy.lead
            )
            kdc_client.on_rekey.append(self._on_rekey)
            kdc_client.on_install.append(self._on_grant_installed)
        self._grant_tasks: set[asyncio.Task] = set()
        self._filters: list[Filter] = []

    # -- subscriptions -------------------------------------------------------

    async def add_grant(self, grant: AuthorizationGrant) -> None:
        """Install a pre-provisioned grant and register its routing
        filters (the out-of-band path; live deployments use :meth:`join`)."""
        self.engine.add_grant(grant)
        await self._register_grant(grant)

    async def subscribe(self, routing_filter: Filter) -> None:
        """Register one (tokenized) filter with the home broker."""
        if routing_filter in self._filters:
            return
        self._filters.append(routing_filter)
        await self.send(Subscribe(routing_filter))

    async def unsubscribe(self, routing_filter: Filter) -> None:
        if routing_filter in self._filters:
            self._filters.remove(routing_filter)
            await self.send(Unsubscribe(routing_filter))

    # -- live key lifecycle (requires a kdc_client) --------------------------

    async def join(
        self,
        filters: Filter | list[Filter],
        at_time: float | None = None,
        publisher: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        """Fetch a grant for *filters* in-band and keep it renewed.

        Registers a standing subscription with the renewal manager (the
        first grant is requested immediately through the KDC client) and
        returns once the grant round trip and the resulting routing-
        filter registrations have settled -- after ``join`` returns, the
        next matching publication will be delivered and opened.
        """
        if self.renewal is None:
            raise ValueError("join() needs a kdc_client")
        if at_time is None:
            at_time = self.kdc_client.now()
        self.renewal.add_subscription(
            filters, at_time=at_time, publisher=publisher
        )
        await self.settle_rekey(timeout=timeout)

    async def leave(self, at_time: float | None = None) -> None:
        """Stop renewing and withdraw every registered routing filter.

        Lazy semantics on the key plane (held grants simply lapse) but
        eager on the routing plane: the broker stops forwarding to this
        subscriber as soon as the unsubscriptions flush.
        """
        if self.renewal is not None:
            if at_time is None:
                at_time = self.kdc_client.now()
            self.renewal.cancel_all(at_time)
        for routing_filter in list(self._filters):
            await self.unsubscribe(routing_filter)
        await self.settle()

    async def settle_rekey(self, timeout: float = 10.0) -> None:
        """Flush the grant plane: the KDC client has no open call, every
        resulting routing registration has been sent, and the home-broker
        path has settled behind them."""
        if self.kdc_client is not None:
            idle = asyncio.get_running_loop().create_future()
            self.kdc_client.when_idle(
                lambda: idle.done() or idle.set_result(None)
            )
            await asyncio.wait_for(idle, timeout)
        while self._grant_tasks:
            await asyncio.gather(
                *list(self._grant_tasks), return_exceptions=True
            )
        await self.settle(timeout=timeout)

    def _on_rekey(self, frame) -> None:
        """REKEY broadcast: tick the renewal engine at the new time.

        The client has already advanced the logical clock; due grants
        (inside their pre-expiry lead of the announced time) start
        renewing here, pinned to ``min_epoch = old + 1``.
        """
        if self.renewal is not None:
            self.renewal.tick(frame.at_time)

    def _on_grant_installed(self, grant: AuthorizationGrant) -> None:
        """A renewal landed: register its routing state with the broker.

        Routing tokens are epoch-independent -- they drive routing, not
        decryption -- so a renewed grant dedupes to zero new SUBSCRIBE
        frames; only a genuinely new subscription registers filters.
        """
        task = asyncio.ensure_future(self._register_grant(grant))
        self._grant_tasks.add(task)
        task.add_done_callback(self._grant_tasks.discard)

    async def _register_grant(self, grant: AuthorizationGrant) -> None:
        for routing_filter in self.routing_filters(grant):
            await self.subscribe(routing_filter)

    def _replay(self) -> list[Frame]:
        # Resubscribe-on-reconnect: the broker dropped this interface's
        # registrations when the connection died.
        return [Subscribe(routing_filter) for routing_filter in self._filters]

    # -- delivery ------------------------------------------------------------

    def _handle(self, frame: Frame) -> None:
        if not isinstance(frame, EventFrame):
            super()._handle(frame)
            return
        try:
            sealed = decode_sealed_event(frame.payload)
        except ValueError:
            self.unreadable += 1
            self.log.append((None, None, "corrupt"))
            return
        result = self.receive(sealed, self.clock())
        if result is not None:
            if self.registry is not None:
                self.registry.histogram(
                    "rtnet_e2e_latency_seconds", peer=self.peer_id
                ).observe(time.time() - frame.sent_at)
            if self.on_open is not None:
                self.on_open(result)
