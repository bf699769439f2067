"""The ``repro livebench`` socket-path benchmark.

Pushes a fixed-seed Zipf workload through a real localhost TCP broker
tree (:mod:`repro.rtnet`): events are sealed and tokenized at the
publisher, framed as PSE2 bytes, routed hop by hop through ``--brokers``
asyncio broker servers with token matching, and decrypted at the
subscribing edges.  The same workload also runs through the in-process
:class:`~repro.siena.network.BrokerTree` as a **reference**, and the two
per-subscriber delivery streams -- ``(publisher sequence, opened or
unreadable)`` -- must agree exactly before any number is reported.  That
single check is both the delivery-completeness gate (nothing lost on the
sockets) and the security gate (nobody opened an event the reference run
says they were not authorized to open).

The report (``BENCH_rtnet.json``; schema ``repro.bench/rtnet.v1``) holds
socket-path throughput and end-to-end latency quantiles, and
:func:`check_rtnet_regression` gates a fresh run against a committed
baseline like the engine/overload suites.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

from repro.bench.driver import load_report, write_report  # noqa: F401
from repro.core.kdc import AuthorizationGrant
from repro.core.ktid import KTID
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.obs import Observability
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

BENCH_RTNET_SCHEMA = "repro.bench/rtnet.v1"
_SEQ = "_seq"
_PUBLISHER = "P"


@dataclass(frozen=True)
class RtnetBenchConfig:
    """Workload shape for one socket-path bench run."""

    seed: int = 7
    events: int = 200
    num_brokers: int = 7
    arity: int = 2
    num_subscribers: int = 8
    num_topics: int = 16
    topics_per_subscriber: int = 4
    message_bytes: int = 64
    settle_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.events < 1:
            raise ValueError("need at least one event")
        if self.num_brokers < 1:
            raise ValueError("need at least one broker")


class _RtnetFixture:
    """Workload, KDC, grants and the event sequence both paths share."""

    def __init__(self, config: RtnetBenchConfig):
        self.config = config
        self.workload = PaperWorkload(
            WorkloadConfig(
                num_topics=config.num_topics,
                topics_per_subscriber=config.topics_per_subscriber,
                message_bytes=config.message_bytes,
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


def _run_reference(fixture: _RtnetFixture) -> dict[str, set[tuple]]:
    """The in-process ground truth: per-subscriber delivery streams."""
    config = fixture.config
    authority = TokenAuthority(fixture.master_key)
    tree = BrokerTree(
        num_brokers=config.num_brokers,
        arity=config.arity,
        match=tokenized_match,
    )
    streams: dict[str, set[tuple]] = {}
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


async def _run_live(
    fixture: _RtnetFixture, obs: Observability
) -> tuple[dict[str, set[tuple]], dict, list[float], float]:
    """The socket path: same workload over a localhost TCP tree."""
    config = fixture.config
    authority = TokenAuthority(fixture.master_key)
    cluster = ClusterLauncher(
        num_brokers=config.num_brokers,
        arity=config.arity,
        registry=obs.registry,
    )
    await cluster.start()
    subscribers: dict[str, RtSubscriber] = {}
    try:
        for subscriber_id, grant in fixture.grants:
            endpoint = subscribers.get(subscriber_id)
            if endpoint is None:
                host, port = cluster.subscriber_address()
                endpoint = RtSubscriber(
                    subscriber_id,
                    host,
                    port,
                    schema_lookup=fixture.schema_lookup,
                    authority=authority,
                    registry=obs.registry,
                )
                await endpoint.connect()
                subscribers[subscriber_id] = endpoint
            await endpoint.add_grant(grant)
        # Flush the subscription plane before the first publication.
        for endpoint in subscribers.values():
            await endpoint.settle(timeout=config.settle_timeout)

        publisher = RtPublisher(
            _PUBLISHER,
            *cluster.publisher_address(),
            fixture.kdc,
            authority=authority,
            registry=obs.registry,
        )
        await publisher.connect()
        started = time.perf_counter()
        for _topic, event in fixture.events:
            await publisher.publish(event)
        await publisher.settle(timeout=config.settle_timeout)
        for endpoint in subscribers.values():
            await endpoint.settle(timeout=config.settle_timeout)
        wall_s = time.perf_counter() - started

        streams = {
            subscriber_id: {
                (sequence, verdict)
                for _origin, sequence, verdict in endpoint.log
            }
            for subscriber_id, endpoint in subscribers.items()
        }
        latencies = [
            latency
            for endpoint in subscribers.values()
            for latency in endpoint.latencies_s
        ]
        totals = {
            "deliveries": sum(len(e.log) for e in subscribers.values()),
            "opened": sum(len(e.opened) for e in subscribers.values()),
            "unreadable": sum(e.unreadable for e in subscribers.values()),
            "duplicates": sum(e.duplicates for e in subscribers.values()),
            "publisher_unacked": publisher.unacked,
            "broker_stats": cluster.stats(),
        }
        await publisher.close()
    finally:
        for endpoint in subscribers.values():
            await endpoint.close()
        await cluster.stop()
    return streams, totals, latencies, wall_s


def run_rtnet_bench(
    config: RtnetBenchConfig = RtnetBenchConfig(),
    obs: Observability | None = None,
) -> dict:
    """Run reference + socket path; returns the report document."""
    if obs is None:
        obs = Observability()
    fixture = _RtnetFixture(config)
    reference = _run_reference(fixture)
    live, totals, latencies, wall_s = asyncio.run(
        _run_live(fixture, obs)
    )

    equivalent = live == reference
    reference_opens = {
        (subscriber_id, entry[0])
        for subscriber_id, stream in reference.items()
        for entry in stream
        if entry[1] == "open"
    }
    unauthorized = sum(
        1
        for subscriber_id, stream in live.items()
        for entry in stream
        if entry[1] == "open"
        and (subscriber_id, entry[0]) not in reference_opens
    )

    from repro.obs.metrics import Histogram

    histogram = Histogram("rtnet_e2e_latency_seconds")
    for value in latencies:
        histogram.observe(value)

    return {
        "schema": BENCH_RTNET_SCHEMA,
        "config": asdict(config),
        "live": {
            "events": config.events,
            "wall_s": wall_s,
            "events_per_sec": (
                config.events / wall_s if wall_s > 0 else float("inf")
            ),
            "deliveries": totals["deliveries"],
            "opened": totals["opened"],
            "unreadable": totals["unreadable"],
            "duplicates": totals["duplicates"],
            "publisher_unacked": totals["publisher_unacked"],
            "latency_s": histogram.snapshot(),
        },
        "reference": {
            "deliveries": sum(len(s) for s in reference.values()),
            "opened": sum(
                1
                for stream in reference.values()
                for entry in stream
                if entry[1] == "open"
            ),
        },
        "equivalence": {
            "checked": True,
            "holds": equivalent,
            "subscribers": len(reference),
            "deliveries": sum(len(s) for s in reference.values()),
        },
        "security": {"unauthorized_opens": unauthorized},
        "cluster": {
            "brokers": config.num_brokers,
            "arity": config.arity,
            "frames_relayed": sum(
                stats["events_forwarded"]
                for stats in totals["broker_stats"].values()
            ),
        },
    }


def check_rtnet_regression(
    report: dict, baseline: dict, tolerance: float = 0.25
) -> list[str]:
    """Gate a fresh socket-path run against a committed baseline.

    Structural gates are absolute (stream equivalence with the in-process
    reference, zero unauthorized opens, zero unacked publications,
    latency quantiles present); the throughput gate allows *tolerance*
    plus a 2x hardware-variance band, matching the other suites.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be within [0, 1)")
    problems: list[str] = []
    if report.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema mismatch: report {report.get('schema')!r} "
            f"vs baseline {baseline.get('schema')!r}"
        )
        return problems
    if not report["equivalence"]["holds"]:
        problems.append(
            "socket-path deliveries diverge from the in-process reference"
        )
    if report["security"]["unauthorized_opens"]:
        problems.append(
            f"{report['security']['unauthorized_opens']} events opened "
            "by subscribers the reference run says were unauthorized"
        )
    live = report["live"]
    if live["publisher_unacked"]:
        problems.append(
            f"{live['publisher_unacked']} publications never acked by "
            "the home broker"
        )
    quantiles = live.get("latency_s", {}).get("quantiles", {})
    for quantile in ("p50", "p95", "p99"):
        if quantile not in quantiles:
            problems.append(f"missing live latency quantile {quantile}")
    floor = baseline["live"]["events_per_sec"] * (1 - tolerance) / 2
    if live["events_per_sec"] < floor:
        problems.append(
            f"throughput regression: {live['events_per_sec']:.0f} ev/s < "
            f"{floor:.0f} ev/s (baseline "
            f"{baseline['live']['events_per_sec']:.0f} - {tolerance:.0%}, "
            "/2 hardware allowance)"
        )
    return problems


def render_rtnet_report(report: dict) -> str:
    """Human-readable summary printed by ``repro livebench``."""
    live = report["live"]
    quantiles = live["latency_s"]["quantiles"]
    return "\n".join(
        [
            "livebench: socket-path dissemination over a "
            f"{report['cluster']['brokers']}-broker loopback TCP tree "
            f"(seed={report['config']['seed']}, "
            f"events={report['config']['events']})",
            f"  throughput : {live['events_per_sec']:9.1f} ev/s "
            f"({live['events']} events in {live['wall_s']:.2f}s)",
            f"  latency    : p50 {quantiles['p50'] * 1e3:7.2f} ms   "
            f"p95 {quantiles['p95'] * 1e3:7.2f} ms   "
            f"p99 {quantiles['p99'] * 1e3:7.2f} ms",
            f"  deliveries : {live['deliveries']} "
            f"({live['opened']} opened, {live['unreadable']} unreadable, "
            f"{live['duplicates']} duplicates suppressed)",
            "  equivalence: "
            + ("ok" if report["equivalence"]["holds"] else "DIVERGED")
            + f" vs in-process reference ({report['equivalence']['subscribers']}"
            " subscribers); unauthorized opens: "
            + str(report["security"]["unauthorized_opens"]),
        ]
    )
