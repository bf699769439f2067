"""``repro.api`` -- the one-call facade over the PSGuard stack.

Standing up the reproduction by hand means wiring a KDC, topic schemas,
authorization grants, a broker tree, publisher and subscriber engines,
and (if you want to see anything) an observability bundle.  The facade
collapses that into a builder::

    from repro.api import System
    from repro.siena import Event, Filter

    system = System.builder().topic("news", numeric={"price": 128}).build()
    watcher = system.subscribe(
        "watcher", Filter.numeric_range("news", "price", 0, 63))
    feed = system.publisher("feed")
    feed.publish(Event({"topic": "news", "price": 10, "body": "hi"},
                       publisher="feed"))
    watcher.opened[0].event["body"]   # -> "hi"

Everything the builder wires is reachable afterwards (``system.kdc``,
``system.tree``, ``system.obs``) so a session can start simple and reach
into the layers when it needs to.  The facade is synchronous -- events
flow through the in-process :class:`~repro.siena.network.BrokerTree`;
the timed/fault-injected variants stay with the harnesses
(:mod:`repro.harness.chaos`, :mod:`repro.harness.kdcchaos`), which share
the same observability substrate.

Both transports route the same way (Section 4.1): a session publishes
the sealed event with its routable part tokenized
(:func:`~repro.routing.tokens.tokenize_sealed`), the brokers match with
:func:`~repro.routing.tokens.tokenized_match` on the filters each grant
implies, and subscribers open through
:class:`~repro.routing.tokens.TokenOpener`.  No broker sees a plaintext
attribute value; ``repro demo`` prints the routable part::

    event routable part : ['_etok:age:0', ..., '_etok:age:7', '_ttok']
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.composite import CompositeKeySpace
from repro.core.envelope import SealedEvent
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager, RenewalPolicy
from repro.core.subscriber import Subscriber
from repro.obs import Observability
from repro.routing.tokens import (
    TokenAuthority,
    TokenOpener,
    tokenize_sealed,
    tokenized_match,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtnet.live import LiveSystem


class SessionPublisher:
    """A publishing principal bound to one :class:`System`."""

    #: Publications the home broker has not acknowledged: in process a
    #: publish returns delivered (:attr:`LivePublisher.unacked` counts).
    unacked = 0

    def __init__(self, system: "System", publisher_id: str):
        self.system = system
        self.engine = Publisher(publisher_id, system.kdc)

    @property
    def publisher_id(self) -> str:
        return self.engine.publisher_id

    def publish(
        self,
        event: Event,
        secret_attributes: set[str] | None = None,
        at_time: float = 0.0,
    ) -> SealedEvent:
        """Seal and tokenize *event*, then disseminate it through the
        broker tree; returns what the brokers saw."""
        sealed = tokenize_sealed(
            self.system.authority,
            self.engine.publish(
                event, secret_attributes=secret_attributes, at_time=at_time
            ),
        )
        self.system._disseminate(sealed, at_time)
        return sealed


class SessionSubscriber(TokenOpener):
    """A subscribing principal attached to one leaf broker.

    Registers the tokenized routing filters of each grant and opens what
    the broker tree hands it through :class:`TokenOpener`: decryptable
    events land in :attr:`opened`, cryptographically unreadable ones only
    bump :attr:`unreadable`, and :attr:`log` records every verdict.
    """

    def __init__(
        self,
        system: "System",
        subscriber_id: str,
        filters: Iterable[Filter],
        at_time: float = 0.0,
    ):
        self.system = system
        policy = system.renewal
        super().__init__(
            Subscriber(subscriber_id, grace_period=policy.grace),
            system.schema_lookup,
            system.authority,
        )
        #: Every grant is a lease: this manager fetches each one and
        #: renews it at :meth:`System.roll_epoch`.
        self.renewal = RenewalManager(
            self.engine, system.kdc, renew_lead_time=policy.lead
        )
        # Every grant first: a refused filter raises before the tree or
        # the system holds anything of this session.
        routing_filters: list[Filter] = []
        for subscription_filter in filters:
            grant = self.renewal.add_subscription(
                subscription_filter, at_time=at_time
            )
            if grant is not None:
                routing_filters += self.routing_filters(grant)
        self.home = system._next_leaf()
        system.tree.attach_subscriber(subscriber_id, self.home, self._deliver)
        for routing_filter in routing_filters:
            system.tree.subscribe(subscriber_id, routing_filter)

    @property
    def renewal_stats(self):
        """The session's :class:`~repro.core.renewal.RenewalStats`."""
        return self.renewal.stats

    @property
    def subscriber_id(self) -> str:
        return self.engine.subscriber_id

    def _deliver(self, _routable: Event) -> None:
        system = self.system
        result = self.receive(system._current_sealed, system._current_time)
        system.tracer.span(
            system._current_seq,
            "deliver" if result is not None else "decrypt",
            self.engine.subscriber_id,
            system._current_time,
            decrypted=result is not None,
        )


class System:
    """A fully wired PSGuard instance: KDC, broker tree, observability."""

    def __init__(
        self,
        kdc: KDC,
        tree: BrokerTree,
        obs: Observability,
        renewal: RenewalPolicy,
    ):
        self.kdc = kdc
        self.tree = tree
        self.obs = obs
        self.authority = TokenAuthority(kdc.master_key)
        #: Key-lifecycle policy of every subscriber: each grant is a
        #: lease that :meth:`roll_epoch` renews across epoch boundaries.
        self.renewal = renewal
        #: The publication timeline's current instant: only
        #: :meth:`roll_epoch` moves it, and :meth:`subscribe` anchors
        #: first grants at it by default.
        self.clock = 0.0
        self.registry = obs.registry
        self.tracer = obs.tracer
        self.publishers: dict[str, SessionPublisher] = {}
        self.subscribers: dict[str, SessionSubscriber] = {}
        self._leaf_cursor = 0
        self._next_seq = 0
        self._current_sealed: SealedEvent | None = None
        self._current_seq: int | None = None
        self._current_time = 0.0

    @staticmethod
    def builder() -> "SystemBuilder":
        return SystemBuilder()

    # -- principals -----------------------------------------------------------

    def publisher(self, publisher_id: str) -> SessionPublisher:
        """Get or create the publishing session for *publisher_id*."""
        session = self.publishers.get(publisher_id)
        if session is None:
            session = SessionPublisher(self, publisher_id)
            self.publishers[publisher_id] = session
        return session

    def subscribe(
        self,
        subscriber_id: str,
        *filters: Filter,
        at_time: float | None = None,
    ) -> SessionSubscriber:
        """Authorize and attach a subscriber in one call.

        Every subscription is *standing*: the session's
        :class:`~repro.core.renewal.RenewalManager` fetches the first
        grants, anchored at *at_time* (default: the system clock), and
        :meth:`roll_epoch` renews them across epoch boundaries.  An
        expired grant stays usable for the policy's ``grace``, as on
        the tcp transport.
        """
        if subscriber_id in self.subscribers:
            raise ValueError(f"subscriber {subscriber_id!r} already attached")
        session = SessionSubscriber(
            self,
            subscriber_id,
            filters,
            at_time=at_time if at_time is not None else self.clock,
        )
        self.subscribers[subscriber_id] = session
        return session

    # -- key lifecycle and membership churn ----------------------------------

    def roll_epoch(self, topic: str, at_time: float) -> int:
        """Move the publication timeline to *at_time* and run every
        session's renewal tick (renew due grants, drop expired ones);
        returns *topic*'s epoch at *at_time*.  The in-process REKEY
        push of :meth:`LiveSystem.roll_epoch`."""
        self.clock = max(self.clock, at_time)
        for session in self.subscribers.values():
            session.renewal.tick(self.clock)
        return self.kdc.epoch_of(topic, at_time)

    def revoke(self, subscriber_id: str, topic: str) -> None:
        """Revoke (subscriber, topic) lazily at the KDC, which is the
        primary here: the current grant lapses with its epoch, the next
        renewal is denied."""
        self.kdc.revoke(subscriber_id, topic)

    def leave(self, subscriber_id: str) -> SessionSubscriber:
        """Detach *subscriber_id*: stop renewing (held grants lapse),
        withdraw its routing filters and free its broker endpoint."""
        session = self.subscribers.pop(subscriber_id)
        session.renewal.cancel_all(self.clock)
        self.tree.detach_subscriber(subscriber_id)
        return session

    def schema_lookup(self, topic: str) -> CompositeKeySpace:
        """Topic schema resolver (schemas are public configuration)."""
        return self.kdc.config_for(topic).schema

    def settle(self) -> None:
        """Nothing to flush: in process a publish returns delivered (the
        synchronous half of :meth:`LiveSystem.settle`)."""

    def close(self) -> None:
        """Nothing to release (the synchronous half of
        :meth:`LiveSystem.close`)."""

    # -- dissemination --------------------------------------------------------

    def _next_leaf(self) -> Hashable:
        leaves = self.tree.leaf_ids()
        leaf = leaves[self._leaf_cursor % len(leaves)]
        self._leaf_cursor += 1
        return leaf

    def _disseminate(self, sealed: SealedEvent, at_time: float) -> int:
        """Push one sealed publication into the tree; returns the fan-out."""
        self._current_time = at_time
        seq = self._next_seq
        self._next_seq += 1
        self.tracer.start_trace(("api", seq), at=at_time)
        self.tracer.span(("api", seq), "publish", 0, at_time)
        self._current_sealed = sealed
        self._current_seq = ("api", seq)
        try:
            return self.tree.publish(sealed.routable)
        finally:
            self._current_sealed = None
            self._current_seq = None


class SystemBuilder:
    """Fluent construction of a :class:`System` or a
    :class:`~repro.rtnet.LiveSystem` -- the one way to build either.

    Defaults give a working three-broker tree with an in-process KDC;
    every setting is optional and has one spelling.  Values are checked
    by what they configure (the tree shape by ``BrokerTree`` and
    ``ClusterLauncher``) when :meth:`build` runs.
    """

    def __init__(self):
        self._transport = "inproc"
        self._num_brokers = 3
        self._arity = 2
        self._master_key: bytes | None = None
        self._renewal = RenewalPolicy()
        self._kdc: KDC | None = None
        self._obs: Observability | None = None
        self._topics: list[tuple[str, CompositeKeySpace, float]] = []

    def brokers(self, num_brokers: int, arity: int = 2) -> "SystemBuilder":
        """Size the dissemination tree."""
        self._num_brokers = num_brokers
        self._arity = arity
        return self

    def master_key(self, key: bytes) -> "SystemBuilder":
        """Fix ``rk(KDC)`` (reproducible key material)."""
        self._master_key = key
        return self

    def kdc(self, kdc: KDC) -> "SystemBuilder":
        """Use an existing KDC (e.g. one replica of a cluster)."""
        self._kdc = kdc
        return self

    def observability(self, obs: Observability) -> "SystemBuilder":
        """Share an existing metrics/tracing bundle."""
        self._obs = obs
        return self

    def transport(self, kind: str) -> "SystemBuilder":
        """Choose how events move: ``"inproc"`` (default) keeps the
        synchronous in-process :class:`~repro.siena.network.BrokerTree`;
        ``"tcp"`` deploys the same broker tree as a localhost TCP
        cluster (:class:`repro.rtnet.LiveSystem`) -- real sockets and
        framed PSE2 events over the same tokenized matching."""
        if kind not in ("inproc", "tcp"):
            raise ValueError(f"unknown transport {kind!r}")
        self._transport = kind
        return self

    def renewal(
        self,
        policy: RenewalPolicy | None = None,
        *,
        lead: float = 0.0,
        grace: float = 0.0,
    ) -> "SystemBuilder":
        """How subscriber grants are renewed across epoch boundaries.

        Pass a ready :class:`~repro.core.renewal.RenewalPolicy`, or let
        the builder make one from *lead* (renew this many seconds before
        a grant's epoch expires) and *grace* (keep an expired grant
        usable this long after the boundary).  The default is
        ``RenewalPolicy()``: renew and drop exactly at the boundary.
        Renewals run at ``roll_epoch`` on either transport: in process
        against the KDC, on tcp in-band through a failover client to
        the 3 KDC replicas the :class:`~repro.rtnet.LiveSystem` hosts.
        """
        if policy is None:
            policy = RenewalPolicy(lead=lead, grace=grace)
        self._renewal = policy
        return self

    def topic(
        self,
        name: str,
        schema: CompositeKeySpace | None = None,
        numeric: dict[str, int] | None = None,
        epoch_length: float = 3600.0,
    ) -> "SystemBuilder":
        """Register a topic; *numeric* maps attribute name -> range size."""
        if schema is None:
            schema = CompositeKeySpace(
                {
                    attribute: NumericKeySpace(attribute, size)
                    for attribute, size in (numeric or {}).items()
                }
            )
        self._topics.append((name, schema, epoch_length))
        return self

    def build(self) -> "System | LiveSystem":
        obs = self._obs if self._obs is not None else Observability()
        kdc = self._kdc
        if kdc is None:
            kdc = KDC(master_key=self._master_key)
        for name, schema, epoch_length in self._topics:
            kdc.register_topic(name, schema, epoch_length)
        if self._transport == "tcp":
            from repro.rtnet.live import LiveSystem

            return LiveSystem(
                kdc,
                obs,
                num_brokers=self._num_brokers,
                arity=self._arity,
                renewal=self._renewal,
            )
        tree = BrokerTree(
            num_brokers=self._num_brokers,
            arity=self._arity,
            match=tokenized_match,
            registry=obs.registry,
        )
        return System(kdc, tree, obs, self._renewal)
