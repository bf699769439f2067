"""Publisher and subscriber endpoints for the TCP runtime.

Both endpoints share one connection core (:class:`RtEndpoint`): dial,
HELLO/HELLO_ACK version negotiation, a reader task dispatching inbound
frames, and automatic reconnection with exponential backoff + jitter.
What differs is what rides on top:

- :class:`RtPublisher` seals and tokenizes events locally (the broker
  network never sees plaintext routing attributes), numbers each EVENT
  frame, and keeps the unacked tail for resend after a reconnect --
  at-least-once to its home broker;
- :class:`RtSubscriber` re-registers every filter after a reconnect,
  resolves each arriving event's topic from its held topic tokens, and
  opens events through the standard :class:`~repro.core.subscriber.
  Subscriber` engine, whose
  :class:`~repro.recovery.dedup.DedupWindow` turns the publisher's
  at-least-once resends into exactly-once processing.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.envelope import OpenResult
from repro.core.kdc import KDC, AuthorizationGrant
from repro.core.ktid import KTID
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager, RenewalPolicy
from repro.core.subscriber import Subscriber
from repro.core.wire import decode_sealed_event, encode_sealed_event
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import (
    ELEMENT_TOKEN_ATTRIBUTE,
    TOPIC_TOKEN_ATTRIBUTE,
    RoutableToken,
    TokenAuthority,
    TokenProbe,
    grant_routing_filters,
    tokenize_event,
)
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
from repro.siena.events import Event
from repro.siena.filters import Filter


_TOKEN_ATTRIBUTES = (TOPIC_TOKEN_ATTRIBUTE, ELEMENT_TOKEN_ATTRIBUTE)


class HandshakeError(ConnectionError):
    """The server rejected our HELLO (version mismatch); do not retry."""


#: Redial backoff: attempt ``n`` (0-based) waits ``_REDIAL_BASE *
#: _REDIAL_FACTOR**n`` seconds, capped at ``_REDIAL_MAX_DELAY`` and scaled
#: down by up to ``_REDIAL_JITTER`` at random, so a herd of clients does
#: not redial in lockstep.
_REDIAL_BASE = 0.05
_REDIAL_FACTOR = 2.0
_REDIAL_MAX_DELAY = 2.0
_REDIAL_JITTER = 0.5


def _redial_delay(attempt: int, rng: random.Random) -> float:
    """Seconds to wait before redial *attempt* (exponential, jittered)."""
    raw = min(_REDIAL_MAX_DELAY, _REDIAL_BASE * _REDIAL_FACTOR ** attempt)
    return raw * (1.0 - _REDIAL_JITTER * rng.random())


@dataclass
class EndpointStats:
    """Connection-lifecycle counters an endpoint keeps."""

    connects: int = 0
    reconnects: int = 0
    frames_sent: int = 0
    frames_received: int = 0


class RtEndpoint:
    """The connection core shared by publisher and subscriber endpoints."""

    role = "client"

    def __init__(
        self,
        peer_id: str,
        host: str,
        port: int,
        registry: MetricsRegistry | None = None,
        rng: random.Random | None = None,
    ):
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.registry = registry
        self.rng = rng if rng is not None else random.Random()
        self.broker_id: str | None = None
        self.stats = EndpointStats()
        self._reader: asyncio.StreamReader | None = None
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
        attempt = 0
        while True:
            if self._closed:
                raise ConnectionError("endpoint closed")
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
                break
            except OSError:
                await asyncio.sleep(_redial_delay(attempt, self.rng))
                attempt += 1
        writer.write(
            encode_frame(Hello(self.peer_id, self.role, PROTOCOL_VERSION))
        )
        await writer.drain()
        ack = await read_frame(reader)
        if not isinstance(ack, HelloAck) or ack.version != PROTOCOL_VERSION:
            writer.close()
            raise HandshakeError(
                f"broker rejected handshake: {ack!r}"
            )
        self.broker_id = ack.peer_id
        self._reader, self._writer = reader, writer
        self.stats.connects += 1
        self._count("rtnet_client_connects_total")
        self._connected.set()
        await self._on_connected()

    async def _on_connected(self) -> None:
        """Hook run after every successful (re)connection."""

    async def _recv_loop(self) -> None:
        while not self._closed:
            try:
                frame = await read_frame(self._reader)
            except (ValueError, OSError, asyncio.IncompleteReadError):
                frame = None
            if frame is None:
                if self._closed:
                    return
                self._connected.clear()
                self.stats.reconnects += 1
                self._count("rtnet_client_reconnects_total")
                try:
                    await self._establish()
                except HandshakeError:
                    self._closed = True
                    return
                except ConnectionError:
                    return
                continue
            self.stats.frames_received += 1
            await self._handle(frame)

    async def _handle(self, frame: Frame) -> None:
        if isinstance(frame, Pong) and not frame.path:
            waiter = self._pongs.pop(frame.token, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    async def close(self) -> None:
        """Tear the connection down; no reconnection afterwards."""
        self._closed = True
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except (asyncio.CancelledError, Exception):
                pass
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
        self.stats.frames_sent += 1
        self._count("rtnet_client_frames_sent_total")

    async def heartbeat(self) -> None:
        await self.send(Heartbeat(time.time()))

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
        topic = event.get("topic")
        sealed = self.engine.publish(
            event, secret_attributes=secret_attributes, at_time=at_time
        )
        elements = {
            attribute: element
            for attribute, element in sealed.elements.items()
            if isinstance(element, KTID)
        }
        tokenized = tokenize_event(
            self.authority, sealed.routable, elements, topic
        )
        payload = encode_sealed_event(replace(sealed, routable=tokenized))
        frame = EventFrame(self._next_seq, time.time(), payload)
        self._next_seq += 1
        self._unacked[frame.seq] = frame
        await self.send(frame)

    @property
    def unacked(self) -> int:
        """EVENT frames not yet receipted by the home broker."""
        return len(self._unacked)

    async def _on_connected(self) -> None:
        # At-least-once: replay the unacked tail in order; subscribers
        # suppress any double delivery through their dedup windows.
        for seq in sorted(self._unacked):
            frame = self._unacked[seq]
            self._writer.write(encode_frame(frame))
        if self._unacked:
            await self._writer.drain()

    async def _handle(self, frame: Frame) -> None:
        if isinstance(frame, Ack):
            self._unacked.pop(frame.seq, None)
            return
        await super()._handle(frame)


class RtSubscriber(RtEndpoint):
    """A subscribing principal speaking rtnet to its home broker.

    Holds KDC grants; each grant is turned into its tokenized routing
    filters (:func:`~repro.routing.tokens.grant_routing_filters`) and
    registered with the broker.  Arriving events carry only token pairs,
    so the subscriber first resolves the topic by matching the event's
    topic token against the tokens of its granted topics, then opens the
    event with the standard engine -- an unauthorized subscriber resolves
    nothing (no token held) or fails cryptographically (no matching
    grant keys), and only :attr:`unreadable` moves.
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
        kdc_channel=None,
        renewal: "RenewalPolicy | None" = None,
        **kwargs,
    ):
        if renewal is not None and kdc_channel is None:
            raise ValueError("a renewal policy needs a kdc_channel")
        if renewal is not None:
            grace_period = renewal.grace
        super().__init__(subscriber_id, host, port, **kwargs)
        self.engine = Subscriber(
            subscriber_id,
            grace_period=grace_period,
            dedup_window=dedup_window,
        )
        self.schema_lookup = schema_lookup
        self.authority = authority
        self.on_open = on_open
        #: Events are opened at this logical time; with a KDC channel
        #: attached it defaults to the channel's REKEY-advanced clock.
        if clock is None:
            clock = kdc_channel.now if kdc_channel is not None else lambda: 0.0
        self.clock = clock
        #: The live key-lifecycle plane, when attached (see repro.rekey).
        self.kdc_channel = kdc_channel
        self.renewal: RenewalManager | None = None
        if kdc_channel is not None:
            policy = renewal if renewal is not None else RenewalPolicy()
            kdc_channel.grace_period = max(
                kdc_channel.grace_period, policy.grace
            )
            self.renewal = RenewalManager(
                self.engine, kdc_channel, renew_lead_time=policy.lead
            )
            kdc_channel.on_rekey.append(self._on_rekey)
            kdc_channel.on_install.append(self._on_grant_installed)
        self._grant_tasks: set[asyncio.Task] = set()
        self.opened: list[OpenResult] = []
        self.unreadable = 0
        self.duplicates = 0
        #: Delivery log: one ``(origin, sequence, verdict)`` triple per
        #: arriving event, with verdict ``open``/``unreadable``/
        #: ``duplicate`` -- the benchmark compares this stream against an
        #: in-process reference run for end-to-end equivalence.
        self.log: list[tuple[object, object, str]] = []
        #: end-to-end publish->open latencies (seconds), one per opened
        #: event, measured against the EVENT frame's sent_at stamp.
        self.latencies_s: list[float] = []
        self._filters: list[Filter] = []
        #: topic-token material for topic resolution: (probe, topic).
        self._topic_tokens: list[tuple[TokenProbe, str]] = []

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

    # -- live key lifecycle (requires a kdc_channel) -------------------------

    async def join(
        self,
        filters: Filter | list[Filter],
        at_time: float | None = None,
        publisher: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        """Fetch a grant for *filters* in-band and keep it renewed.

        Registers a standing subscription with the renewal manager (the
        first grant is requested immediately over the KDC channel) and
        returns once the grant round trip and the resulting routing-
        filter registrations have settled -- after ``join`` returns, the
        next matching publication will be delivered and opened.
        """
        if self.renewal is None:
            raise ValueError("join() needs a kdc_channel")
        if at_time is None:
            at_time = self.kdc_channel.now()
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
                at_time = self.kdc_channel.now()
            self.renewal.cancel_all(at_time)
        for routing_filter in list(self._filters):
            await self.unsubscribe(routing_filter)
        await self.settle()

    async def settle_rekey(self, timeout: float = 10.0) -> None:
        """Flush the grant plane: every initiated grant request has been
        answered, every resulting routing registration has been sent,
        and the home-broker path has settled behind them."""
        if self.kdc_channel is not None:
            await self.kdc_channel.settle_grants(timeout=timeout)
        while self._grant_tasks:
            await asyncio.gather(
                *list(self._grant_tasks), return_exceptions=True
            )
        await self.settle(timeout=timeout)

    def _on_rekey(self, frame) -> None:
        """REKEY broadcast: tick the renewal engine at the new time.

        The channel has already advanced the logical clock; due grants
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
        if all(topic != grant.topic for _, topic in self._topic_tokens):
            self._topic_tokens.append(
                (
                    TokenProbe(self.authority.topic_token(grant.topic)),
                    grant.topic,
                )
            )
        for routing_filter in grant_routing_filters(self.authority, grant):
            await self.subscribe(routing_filter)

    async def _on_connected(self) -> None:
        # Resubscribe-on-reconnect: the broker dropped this interface's
        # registrations when the connection died.
        for routing_filter in self._filters:
            self._writer.write(encode_frame(Subscribe(routing_filter)))
        if self._filters:
            await self._writer.drain()

    # -- delivery ------------------------------------------------------------

    def _resolve_topic(self, routable: Event) -> str | None:
        """Recover the topic from the event's topic token, if granted."""
        value = routable.get(TOPIC_TOKEN_ATTRIBUTE)
        if not isinstance(value, str):
            # Mixed deployments may route plaintext events.
            topic = routable.get("topic")
            return topic if isinstance(topic, str) else None
        try:
            token_pair = RoutableToken.decode(value)
        except ValueError:
            return None
        for probe, topic in self._topic_tokens:
            if probe.matches(token_pair.nonce, token_pair.proof):
                return topic
        return None

    async def _handle(self, frame: Frame) -> None:
        if not isinstance(frame, EventFrame):
            await super()._handle(frame)
            return
        try:
            sealed = decode_sealed_event(frame.payload)
        except ValueError:
            self.unreadable += 1
            self.log.append((None, None, "corrupt"))
            return
        topic = self._resolve_topic(sealed.routable)
        if topic is not None and sealed.routable.get("topic") is None:
            # Open on what the publisher sealed -- the routable with its
            # topic back and the routing tokens, spent once the event
            # arrived, gone: every opened event is retained.
            routable = sealed.routable
            attributes = {
                name: value
                for name, value in routable.attributes.items()
                if not name.startswith(_TOKEN_ATTRIBUTES)
            }
            attributes["topic"] = topic
            sealed = replace(
                sealed, routable=Event(attributes, publisher=routable.publisher)
            )
        duplicates_before = self.engine.stats.duplicates_suppressed
        result = (
            self.engine.receive(
                sealed, self.schema_lookup, at_time=self.clock()
            )
            if topic is not None
            else None
        )
        if self.engine.stats.duplicates_suppressed > duplicates_before:
            self.duplicates += 1
            self.log.append((sealed.origin, sealed.sequence, "duplicate"))
            return
        self.log.append(
            (
                sealed.origin,
                sealed.sequence,
                "open" if result is not None else "unreadable",
            )
        )
        if result is not None:
            self.opened.append(result)
            self.latencies_s.append(time.time() - frame.sent_at)
            if self.registry is not None:
                self.registry.histogram(
                    "rtnet_e2e_latency_seconds", peer=self.peer_id
                ).observe(self.latencies_s[-1])
            if self.on_open is not None:
                self.on_open(result)
        else:
            self.unreadable += 1
