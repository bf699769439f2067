"""Live harness: one workload through both transports of the facade.

The other chaos scenarios break something and measure what survives;
this one breaks nothing and proves the two transports agree.  One
driver builds ``System.builder().kdc(...).brokers(n, 2).transport(t)``
for ``t`` in ``"inproc"`` and ``"tcp"``, subscribes every subscriber's
filters, publishes a fixed-seed Zipf workload as ``"P"`` and reads each
session's ``(origin, sequence, verdict)`` log.  Both sides seal and
tokenize at the publisher, match tokens at every broker and open at the
edge through the same code; only the carrier differs -- the in-process
:class:`~repro.siena.network.BrokerTree`, the **reference**, or PSE2
frames routed hop by hop through ``num_brokers`` asyncio broker servers
(:mod:`repro.rtnet`).  Each subscriber's delivery stream -- the set of
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

from dataclasses import dataclass, field

from repro.api import System
from repro.harness.scenario import Gate, Scenario, all_of
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.workloads.generator import PaperWorkload, WorkloadConfig

_PUBLISHER = "P"
_MESSAGE_BYTES = 64
_ARITY = 2
_NUM_TOPICS = 16
_TOPICS_PER_SUBSCRIBER = 4

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
    """Workload, KDC, subscriptions and the events both runs share."""

    def __init__(self, config: LiveConfig):
        self.config = config
        workload = PaperWorkload(
            WorkloadConfig(
                num_topics=_NUM_TOPICS,
                topics_per_subscriber=_TOPICS_PER_SUBSCRIBER,
                message_bytes=_MESSAGE_BYTES,
                seed=config.seed,
            )
        )
        self.kdc = workload.build_kdc(
            master_key=bytes((config.seed + index) % 256 for index in range(16))
        )
        self.subscriptions: dict[str, list[Filter]] = {}
        for index in range(config.num_subscribers):
            subscriber_id = f"S{index}"
            self.subscriptions[subscriber_id] = [
                subscription.filter
                for subscription in workload.subscriptions_for(subscriber_id)
            ]
        self.events: list[Event] = [
            workload.random_event(
                workload.topic_sampler.sample(), publisher=_PUBLISHER
            )
            for _ in range(config.events)
        ]


def _run(fixture: _Fixture, transport: str) -> tuple[Streams, int]:
    """The fixture through one transport of the facade: each
    subscriber's stream, and the publications left unacked."""
    system = (
        System.builder()
        .kdc(fixture.kdc)
        .brokers(fixture.config.num_brokers, _ARITY)
        .transport(transport)
        .build()
    )
    try:
        sessions = [
            system.subscribe(subscriber_id, *filters)
            for subscriber_id, filters in fixture.subscriptions.items()
        ]
        # Flush the subscription plane before the first publication.
        system.settle()
        publisher = system.publisher(_PUBLISHER)
        for event in fixture.events:
            publisher.publish(event)
        system.settle()
        streams = {
            session.subscriber_id: {
                (sequence, verdict) for _origin, sequence, verdict in session.log
            }
            for session in sessions
        }
        return streams, publisher.unacked
    finally:
        system.close()


def run_live(config: LiveConfig) -> LiveResult:
    """One workload through the reference tree and the socket tree."""
    config.validate()
    fixture = _Fixture(config)
    reference, _unacked = _run(fixture, "inproc")
    live, unacked = _run(fixture, "tcp")
    return LiveResult(reference=reference, live=live, publisher_unacked=unacked)


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
