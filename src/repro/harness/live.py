"""Live harness: a loopback TCP tree against the in-process reference.

The other chaos scenarios break something and measure what survives;
this one breaks nothing and proves the two transports agree.  A
fixed-seed Zipf workload is sealed and tokenized at the publisher,
framed as PSE2 bytes, routed hop by hop through ``num_brokers`` asyncio
broker servers (:mod:`repro.rtnet`) with token matching, and decrypted
at the subscribing edges.  The same workload also runs through the
in-process :class:`~repro.siena.network.BrokerTree` as the
**reference**, and each subscriber's delivery stream -- the set of
``(publisher sequence, "open" | "unreadable")`` pairs -- is compared.

``SCENARIO.gates`` are the acceptance gates, all absolute:

- ``equivalence`` -- every subscriber's live stream equals its
  reference stream (nothing lost, duplicated or invented on the
  sockets);
- ``confidentiality`` -- zero unauthorized opens: nobody opens an event
  the reference run says they could not;
- ``acked`` -- zero unacked publications: the home broker acknowledged
  every publish.

The workload derives from the config seed, so the streams are exactly
reproducible; only wall-clock time varies between runs, and nothing
here reads it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.kdc import AuthorizationGrant
from repro.core.ktid import KTID
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.harness.scenario import Gate, Scenario, all_of
from repro.routing.tokens import (
    TokenAuthority,
    grant_routing_filters,
    tokenize_event,
    tokenized_match,
)
from repro.rtnet.client import RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree
from repro.workloads.generator import (
    PaperWorkload,
    TopicSpec,
    WorkloadConfig,
)

_SEQ = "_seq"
_PUBLISHER = "P"
_MESSAGE_BYTES = 64
_ARITY = 2
_NUM_TOPICS = 16
_TOPICS_PER_SUBSCRIBER = 4
#: Wall-clock seconds any one settle barrier may take.
_SETTLE_TIMEOUT = 30.0

#: subscriber id -> {(publisher sequence, verdict)}
Streams = dict[str, set[tuple]]


@dataclass
class LiveConfig:
    """One live run's knobs; every randomness source derives from *seed*."""

    seed: int = 7
    events: int = 200
    num_brokers: int = 7
    num_subscribers: int = 8

    def validate(self) -> None:
        if self.events < 1:
            raise ValueError("need at least one event")
        if self.num_brokers < 1:
            raise ValueError("need at least one broker")
        if self.num_subscribers < 1:
            raise ValueError("need at least one subscriber")


@dataclass
class LiveResult:
    """Outcome of one live run: both transports' delivery streams."""

    reference: Streams = field(default_factory=dict)
    live: Streams = field(default_factory=dict)
    publisher_unacked: int = 0

    def diverged(self) -> dict[str, tuple[int, int]]:
        """subscriber -> (deliveries missing from, extra in) its live
        stream, for every subscriber whose two streams differ."""
        empty: set[tuple] = set()
        counts = {}
        for subscriber_id in sorted(set(self.reference) | set(self.live)):
            reference = self.reference.get(subscriber_id, empty)
            live = self.live.get(subscriber_id, empty)
            if live != reference:
                counts[subscriber_id] = (
                    len(reference - live), len(live - reference)
                )
        return counts

    def unauthorized_opens(self) -> int:
        """Live opens the reference run did not grant."""
        return sum(
            1
            for subscriber_id, stream in self.live.items()
            for sequence, verdict in stream
            if verdict == "open"
            and (sequence, "open")
            not in self.reference.get(subscriber_id, ())
        )


class _Fixture:
    """Workload, KDC, grants and the event sequence both paths share."""

    def __init__(self, config: LiveConfig):
        self.config = config
        self.workload = PaperWorkload(
            WorkloadConfig(
                num_topics=_NUM_TOPICS,
                topics_per_subscriber=_TOPICS_PER_SUBSCRIBER,
                message_bytes=_MESSAGE_BYTES,
                seed=config.seed,
            )
        )
        self.master_key = bytes(
            (config.seed + index) % 256 for index in range(16)
        )
        self.kdc = self.workload.build_kdc(master_key=self.master_key)
        self.grants: list[tuple[str, AuthorizationGrant]] = []
        for index in range(config.num_subscribers):
            subscriber_id = f"S{index}"
            for subscription in self.workload.subscriptions_for(subscriber_id):
                self.grants.append(
                    (
                        subscriber_id,
                        self.kdc.authorize(subscriber_id, subscription.filter),
                    )
                )
        self.events: list[tuple[TopicSpec, Event]] = []
        for _ in range(config.events):
            topic = self.workload.topic_sampler.sample()
            self.events.append(
                (topic, self.workload.random_event(topic,
                                                   publisher=_PUBLISHER))
            )

    def schema_lookup(self, topic: str):
        return self.kdc.config_for(topic).schema


def _run_reference(fixture: _Fixture) -> Streams:
    """The in-process ground truth: per-subscriber delivery streams."""
    config = fixture.config
    authority = TokenAuthority(fixture.master_key)
    tree = BrokerTree(
        num_brokers=config.num_brokers,
        arity=_ARITY,
        match=tokenized_match,
    )
    streams: Streams = {}
    engines: dict[str, Subscriber] = {}
    sealed_by_seq: dict[int, object] = {}
    leaves = tree.leaf_ids()

    def deliverer(subscriber_id: str):
        def deliver(routable: Event) -> None:
            seq = routable.get(_SEQ)
            opened = engines[subscriber_id].receive(
                sealed_by_seq[seq], fixture.schema_lookup
            )
            streams[subscriber_id].add(
                (seq, "open" if opened is not None else "unreadable")
            )

        return deliver

    registered: dict[str, set[Filter]] = {}
    for subscriber_id, grant in fixture.grants:
        if subscriber_id not in engines:
            engines[subscriber_id] = Subscriber(subscriber_id)
            streams[subscriber_id] = set()
            home = leaves[len(engines) % len(leaves)]
            tree.attach_subscriber(
                subscriber_id, home, deliverer(subscriber_id)
            )
        engines[subscriber_id].add_grant(grant)
        issued = registered.setdefault(subscriber_id, set())
        for routing_filter in grant_routing_filters(authority, grant):
            if routing_filter not in issued:
                issued.add(routing_filter)
                tree.subscribe(subscriber_id, routing_filter)

    publisher = Publisher(_PUBLISHER, fixture.kdc)
    for seq, (topic, event) in enumerate(fixture.events):
        sealed = publisher.publish(event)
        sealed_by_seq[seq] = sealed
        elements = {
            attribute: element
            for attribute, element in sealed.elements.items()
            if isinstance(element, KTID)
        }
        routable = sealed.routable.with_attributes(**{_SEQ: seq})
        tree.publish(
            tokenize_event(authority, routable, elements, topic.name)
        )
    return streams


async def _run_live(fixture: _Fixture, result: LiveResult) -> None:
    """The socket path: same workload over a localhost TCP tree."""
    config = fixture.config
    authority = TokenAuthority(fixture.master_key)
    subscribers: dict[str, RtSubscriber] = {}
    async with ClusterLauncher(
        num_brokers=config.num_brokers, arity=_ARITY
    ) as cluster:
        publisher = RtPublisher(
            _PUBLISHER, *cluster.publisher_address(), fixture.kdc,
            authority=authority,
        )
        try:
            for subscriber_id, grant in fixture.grants:
                endpoint = subscribers.get(subscriber_id)
                if endpoint is None:
                    endpoint = subscribers[subscriber_id] = RtSubscriber(
                        subscriber_id, *cluster.subscriber_address(),
                        schema_lookup=fixture.schema_lookup,
                        authority=authority,
                    )
                    await endpoint.connect()
                await endpoint.add_grant(grant)
            # Flush the subscription plane before the first publication.
            for endpoint in subscribers.values():
                await endpoint.settle(timeout=_SETTLE_TIMEOUT)
            await publisher.connect()
            for _topic, event in fixture.events:
                await publisher.publish(event)
            await publisher.settle(timeout=_SETTLE_TIMEOUT)
            for endpoint in subscribers.values():
                await endpoint.settle(timeout=_SETTLE_TIMEOUT)
        finally:
            await publisher.close()
            for endpoint in subscribers.values():
                await endpoint.close()
    result.publisher_unacked = publisher.unacked
    result.live = {
        subscriber_id: {
            (sequence, verdict) for _origin, sequence, verdict in endpoint.log
        }
        for subscriber_id, endpoint in subscribers.items()
    }


def run_live(config: LiveConfig) -> LiveResult:
    """One workload through the reference tree and the socket tree."""
    config.validate()
    fixture = _Fixture(config)
    result = LiveResult(reference=_run_reference(fixture))
    asyncio.run(_run_live(fixture, result))
    return result


def _equivalence(_config, result: LiveResult) -> str | None:
    return all_of(
        f"{subscriber_id}: socket-path stream diverges from the "
        f"in-process reference ({missing} deliveries missing, "
        f"{extra} extra)"
        for subscriber_id, (missing, extra) in result.diverged().items()
    )


def _confidentiality(_config, result: LiveResult) -> str | None:
    unauthorized = result.unauthorized_opens()
    if unauthorized:
        return (
            f"{unauthorized} events opened by subscribers the reference "
            "run says were unauthorized"
        )
    return None


def _acked(config: LiveConfig, result: LiveResult) -> str | None:
    if result.publisher_unacked:
        return (
            f"{result.publisher_unacked} of {config.events} publications "
            "never acked by the home broker"
        )
    return None


def format_live_report(config: LiveConfig, result: LiveResult) -> str:
    """Human-readable run summary for the chaos CLI."""

    def tally(streams: Streams, verdict: str) -> int:
        return sum(
            1 for stream in streams.values() for entry in stream
            if entry[1] == verdict
        )

    diverged = len(result.diverged())
    return "\n".join([
        f"Live run: seed {config.seed}, {config.events} events through a "
        f"{config.num_brokers}-broker loopback TCP tree (arity "
        f"{_ARITY}) vs the in-process reference",
        f"  reference          {tally(result.reference, 'open')} opened, "
        f"{tally(result.reference, 'unreadable')} unreadable across "
        f"{len(result.reference)} subscribers",
        f"  live               {tally(result.live, 'open')} opened, "
        f"{tally(result.live, 'unreadable')} unreadable",
        f"  equivalence        "
        + ("ok" if not diverged else f"DIVERGED at {diverged} subscribers"),
        f"  unauthorized opens {result.unauthorized_opens()}",
        f"  unacked publishes  {result.publisher_unacked}",
    ])


SCENARIO = Scenario(
    name="live",
    description="no faults, two transports: a loopback TCP tree must "
    "deliver exactly the in-process reference streams, with zero "
    "unauthorized opens",
    configure=lambda args: LiveConfig(
        seed=args.seed, events=int(args.duration * args.rate),
        num_brokers=args.brokers, num_subscribers=args.subscribers,
    ),
    run=run_live,
    format=format_live_report,
    gates=(
        Gate("equivalence", _equivalence),
        Gate("confidentiality", _confidentiality),
        Gate("acked", _acked),
    ),
)
