"""KDC-outage chaos: epoch continuity through a replicated key service.

The paper's availability claim (Section 3.2.1) is that a stateless KDC
"can be replicated on demand"; this harness measures the end-to-end
consequence.  One seeded run publishes a plain-topic workload across an
epoch boundary while the fault plan takes KDC replicas down exactly when
subscribers must renew:

- the first replica crashes for a window **straddling the boundary**
  (the worst instant: every subscriber's renewal lands inside it);
- the second replica crashes for a nested window around the boundary
  itself, forcing a second failover;
- earlier in the run, a partition cuts every client off from the first
  replica without crashing it (failover must work on silence alone).

The KDC runs on :class:`~repro.rtnet.service.TcpServiceNetwork`, the
network production runs, over a :class:`~repro.net.virtual.VirtualLoop`
that plays the plan: calls cross real frames and sessions on a virtual
clock, and a crash closes real sessions.

The same timeline is replayed twice:

- **baseline** -- a single KDC replica and no grace window: renewals
  fail for the whole outage, so new-epoch events are undecryptable until
  the restart, and in-flight old-epoch events die at the boundary;
- **replicated** -- three replicas behind a
  :class:`~repro.core.kdcclient.KDCClient` plus a post-expiry grace
  window: lead-time renewals fail over to the surviving replica before
  the boundary, and grace keeps late old-epoch arrivals readable.

Success is *cryptographic*: an event counts only when the subscriber
actually decrypts it with an epoch-correct grant.  For a fixed seed the
whole run -- fault timeline, retry jitter, every counter -- is exactly
reproducible.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.kdcclient import KDCClient
from repro.core.kdcservice import KDCCluster
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager
from repro.core.subscriber import Subscriber
from repro.harness.reporting import counter_total, format_table
from repro.harness.scenario import Gate, Scenario
from repro.net.faults import ANY, BrokerCrash, FaultPlan, LinkFault
from repro.net.virtual import VirtualLoop, run
from repro.obs import Observability
from repro.rtnet.service import TcpServiceNetwork
from repro.siena.events import Event
from repro.siena.filters import Filter

#: Fixed cluster master key -- the experiment compares availability, not
#: secrecy, and a fixed ``rk(KDC)`` keeps both runs byte-comparable.
MASTER_KEY = bytes(range(16))


_TOPIC = "chaos"
_EPOCH_LENGTH = 2.0
#: Extra virtual seconds for late renewals/ticks to settle.
_DRAIN = 2.0
#: One-way latency of the dissemination path (publisher to subscriber);
#: old-epoch events in flight for this long after the boundary are what
#: the grace window saves.
_DELIVERY_LATENCY = 0.05
#: One-way control-plane latency (client to KDC replica).
_RPC_LATENCY = 0.005
_TICK_INTERVAL = 0.1
#: How long before expiry subscribers start renewing.
_RENEW_LEAD_TIME = 0.3
#: An earlier client-side partition from the first replica.
_PARTITION_START = 0.6
_PARTITION_DURATION = 0.5


@dataclass
class KdcChaosConfig:
    """One KDC-outage run's knobs; all randomness derives from *seed*."""

    seed: int = 7
    #: Seconds of publishing (the outage is centered on the epoch
    #: boundary nearest half of this horizon).
    duration: float = 8.0
    replicas: int = 3
    subscribers: int = 8
    publish_rate: float = 40.0
    #: Post-expiry grace window in the replicated run (baseline gets 0).
    grace_period: float = 1.0
    #: Length of the primary's crash window straddling the boundary.
    outage_duration: float = 1.0

    def boundary(self) -> float:
        """The epoch boundary the outage straddles (topic-staggered)."""
        reference = KDC(master_key=MASTER_KEY)
        reference.register_topic(_TOPIC, CompositeKeySpace({}), _EPOCH_LENGTH)
        return reference.epoch_end(_TOPIC, self.duration / 2.0)


@dataclass
class KdcChaosResult:
    """Outcome of one KDC-outage run (one KDC deployment mode).

    ``obs`` holds the run's control-plane metrics (client request
    latency, failovers, breaker state, view changes); it takes no part
    in ``==``, so two runs of one seed compare equal.
    """

    mode: str
    replicas: int
    attempted: int
    decrypted: int
    #: Decrypts that needed the post-expiry grace window.
    grace_opens: int
    renewals: int
    renewal_failures: int
    late_renewals: int
    client_failovers: int
    client_retries: int
    client_timeouts: int
    breaker_opens: int
    view_changes: int
    #: What the loop discarded: writes lost on a link, bytes that reached
    #: a crashed replica, dials to a dead one.
    messages_lost: int
    #: Whether every alive replica ended with the same registry log.
    converged: bool
    obs: Observability = field(compare=False, repr=False)

    @property
    def decrypt_rate(self) -> float:
        return self.decrypted / self.attempted if self.attempted else 0.0


def _fault_plan(config: KdcChaosConfig, replicas: int) -> FaultPlan:
    """Crash/partition timeline against the first ``replicas`` KDC nodes."""
    boundary, outage = config.boundary(), config.outage_duration
    # Clamped at t=0 so short horizons (boundary close to the run start)
    # still yield a schedulable plan.
    crashes = [BrokerCrash("kdc0", max(0.0, boundary - outage / 2), outage)]
    if replicas > 1:
        # A nested second outage right at the boundary: the client must
        # fail over twice to keep renewing.
        crashes.append(
            BrokerCrash("kdc1", max(0.0, boundary - outage / 4), outage / 2)
        )
    partition = LinkFault(
        ANY, "kdc0", start=_PARTITION_START, duration=_PARTITION_DURATION,
        partitioned=True,
    )
    return FaultPlan(crashes=crashes, link_faults=[partition])


def run_kdc_chaos_mode(
    config: KdcChaosConfig, replicas: int, grace_period: float, mode: str
) -> KdcChaosResult:
    """One full workload against a *replicas*-node KDC deployment."""
    if config.duration <= 0 or config.publish_rate <= 0:
        raise ValueError("duration and publish rate must be positive")
    if config.subscribers < 1:
        raise ValueError("need at least one subscriber")
    plan = _fault_plan(config, replicas)
    return run(
        VirtualLoop(_RPC_LATENCY, plan, config.seed + 1),
        _run_mode(config, replicas, grace_period, mode),
    )


async def _run_mode(config, replicas, grace_period, mode) -> KdcChaosResult:
    loop = asyncio.get_running_loop()
    obs = Observability()
    network = TcpServiceNetwork(registry=obs.registry)
    loop.play_crashes(network)
    replica_ids = [f"kdc{i}" for i in range(replicas)]
    cluster = KDCCluster(network, replica_ids, MASTER_KEY)
    cluster.register_topic(_TOPIC, CompositeKeySpace({}), _EPOCH_LENGTH)
    await network.start()

    # The publisher holds prefetched epoch keys (it seals against a local
    # stateless replica); the measured degradation is the *subscriber*
    # renewal path, which is where the outage bites.
    publisher_kdc = KDC(master_key=MASTER_KEY)
    publisher_kdc.register_topic(_TOPIC, CompositeKeySpace({}), _EPOCH_LENGTH)
    publisher = Publisher("pub", publisher_kdc)
    schema_lookup = lambda t: publisher_kdc.config_for(t).schema  # noqa: E731

    subscribers: list[Subscriber] = []
    managers: list[RenewalManager] = []
    subscription = Filter.topic(_TOPIC)
    for index in range(config.subscribers):
        subscriber = Subscriber(f"sub{index}", grace_period=grace_period)
        client = KDCClient(
            network, f"sub{index}", replica_ids, seed=config.seed + 10 + index
        )
        manager = RenewalManager(
            subscriber, client, renew_lead_time=_RENEW_LEAD_TIME
        )
        manager.add_subscription(subscription, at_time=0.0)
        subscribers.append(subscriber)
        managers.append(manager)

    counters = {"attempted": 0, "decrypted": 0}

    def deliver(sealed) -> None:
        for subscriber in subscribers:
            counters["attempted"] += 1
            opened = subscriber.receive(
                sealed, schema_lookup, at_time=loop.time()
            )
            if opened is not None:
                counters["decrypted"] += 1

    def publish(k: int) -> None:
        sealed = publisher.publish(
            Event({"topic": _TOPIC, "k": k, "payload": f"m{k}"},
                  publisher="pub"),
            secret_attributes={"payload"}, at_time=loop.time(),
        )
        loop.call_later(_DELIVERY_LATENCY, deliver, sealed)

    for k in range(max(1, int(config.publish_rate * config.duration))):
        loop.call_at(k / config.publish_rate, publish, k)

    def tick() -> None:
        for manager in managers:
            manager.tick(loop.time())
        loop.call_later(_TICK_INTERVAL, tick)

    loop.call_later(_TICK_INTERVAL, tick)
    await asyncio.sleep(config.duration + _DRAIN)

    result = KdcChaosResult(
        mode=mode,
        replicas=replicas,
        attempted=counters["attempted"],
        decrypted=counters["decrypted"],
        grace_opens=sum(s.stats.grace_opens for s in subscribers),
        renewals=sum(m.stats.renewals for m in managers),
        renewal_failures=sum(m.stats.renewal_failures for m in managers),
        late_renewals=sum(m.stats.late_renewals for m in managers),
        client_failovers=counter_total(obs.registry, "kdc_client_failovers_total"),
        client_retries=counter_total(obs.registry, "kdc_client_retries_total"),
        client_timeouts=counter_total(obs.registry, "kdc_client_timeouts_total"),
        breaker_opens=counter_total(obs.registry, "kdc_client_breaker_opens_total"),
        view_changes=cluster.stats.view_changes,
        messages_lost=loop.discarded,
        converged=cluster.converged(),
        obs=obs,
    )
    await network.stop()
    return result


@dataclass
class KdcChaosReport:
    """Everything one ``repro chaos --scenario kdc`` invocation measured."""

    baseline: KdcChaosResult
    replicated: KdcChaosResult


def run_kdc_chaos(config: KdcChaosConfig) -> KdcChaosReport:
    """Baseline (1 replica, no grace) vs replicated (N replicas + grace)."""
    return KdcChaosReport(
        baseline=run_kdc_chaos_mode(
            config, replicas=1, grace_period=0.0, mode="single-kdc"
        ),
        replicated=run_kdc_chaos_mode(
            config,
            replicas=config.replicas,
            grace_period=config.grace_period,
            mode="replicated",
        ),
    )


def _kdc_metrics_section(result: KdcChaosResult) -> str:
    registry = result.obs.registry
    latencies = [
        h for h in registry.series("kdc_client_request_latency_seconds")
        if h.count
    ]
    if latencies:
        p95s = sorted(h.quantile(0.95) * 1e3 for h in latencies)
        total = sum(h.count for h in latencies)
        latency = (
            f"p95 across {len(latencies)} clients "
            f"{p95s[0]:.1f}-{p95s[-1]:.1f}ms (n={total})"
        )
    else:
        latency = "no observations"
    view = registry.get("kdc_view")
    lines = [
        f"Metrics snapshot ({result.mode})",
        f"  renewal latency : {latency}",
        f"  control plane   : "
        f"{counter_total(registry, 'kdc_client_requests_total')} requests, "
        f"{counter_total(registry, 'kdc_client_retries_total')} retries, "
        f"{counter_total(registry, 'kdc_client_failovers_total')} "
        f"failovers, "
        f"{counter_total(registry, 'kdc_client_timeouts_total')} timeouts, "
        f"{counter_total(registry, 'kdc_client_breaker_opens_total')} "
        f"breaker opens",
        f"  cluster         : "
        f"{counter_total(registry, 'kdc_view_changes_total')} view changes, "
        f"final view {int(view.value) if view is not None else 0}",
    ]
    return "\n".join(lines)


def format_kdc_chaos_report(
    config: KdcChaosConfig, report: KdcChaosReport
) -> str:
    """Render the KDC chaos report as a paper-style table."""
    header = (
        f"KDC chaos run: seed {config.seed}, {config.duration:.0f}s x "
        f"{config.publish_rate:.0f} ev/s to {config.subscribers} "
        f"subscribers, epoch {_EPOCH_LENGTH:.1f}s, "
        f"{config.outage_duration:.1f}s outage straddling the boundary at "
        f"t={config.boundary():.2f}s"
    )
    rows = [
        (
            result.mode,
            result.replicas,
            result.decrypt_rate,
            result.grace_opens,
            result.renewal_failures,
            result.late_renewals,
            result.client_failovers,
            result.view_changes,
            "yes" if result.converged else "NO",
        )
        for result in (report.baseline, report.replicated)
    ]
    table = format_table(
        ["deployment", "N", "decrypt", "grace", "renew fail",
         "late", "failovers", "views", "converged"],
        rows,
        title="End-to-end decrypt success under KDC outage",
    )
    return "\n\n".join(
        [header, table, _kdc_metrics_section(report.replicated)]
    )


#: The replicated deployment's decrypt floor through the outage (what
#: ``tests/harness/test_kdc_chaos.py`` held).
MIN_REPLICATED_DECRYPT = 0.99


def _replicated_decrypt(_config, report: KdcChaosReport) -> str | None:
    rate = report.replicated.decrypt_rate
    if rate < MIN_REPLICATED_DECRYPT:
        return (
            f"replicated decrypt rate {rate:.4f} below the "
            f"{MIN_REPLICATED_DECRYPT:.2f} gate"
        )
    return None


def _replication_helps(_config, report: KdcChaosReport) -> str | None:
    single = report.baseline.decrypt_rate
    replicated = report.replicated.decrypt_rate
    if replicated <= single:
        return (
            f"replicated decrypt rate {replicated:.4f} is not above the "
            f"single-KDC {single:.4f}: the outage never bit"
        )
    return None


def _converged(_config, report: KdcChaosReport) -> str | None:
    if not report.replicated.converged:
        return "alive replicas ended with different registry logs"
    return None


SCENARIO = Scenario(
    name="kdc",
    description="key-service outage straddling an epoch boundary: "
    "replicated KDC failover and decrypt success",
    configure=lambda args: KdcChaosConfig(
        seed=args.seed, duration=args.duration, publish_rate=args.rate,
        replicas=args.kdc_replicas, subscribers=args.subscribers,
        grace_period=args.grace, outage_duration=args.outage,
    ),
    run=run_kdc_chaos,
    format=format_kdc_chaos_report,
    gates=(
        Gate("replicated-decrypt", _replicated_decrypt),
        Gate("replication-helps", _replication_helps),
        Gate("converged", _converged),
    ),
    snapshot=lambda report: report.replicated.obs.snapshot(),
)
