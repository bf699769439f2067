"""Chaos harness: workloads under injected faults, measured end to end.

Two complementary experiments, both exactly reproducible for a fixed
seed, validate the fault-tolerance story of Section 4.2.1 against
*dynamic* failures rather than the static dropper adversary:

- **Tree chaos** runs the timed Siena overlay
  (:class:`~repro.net.simnet.SimulatedPubSub`) under a random
  :class:`~repro.net.faults.FaultPlan` -- broker crashes with restarts
  plus background link loss -- once with the fire-and-forget transport
  and once with the reliable at-least-once stack (per-hop acks, retries,
  heartbeat failure detection, subscription replay).  It reports
  delivery rate, duplicate rate, dead letters, retry overhead, and the
  failure detector's detection/recovery latencies.

- **Multipath chaos** drives the paper's redundant multi-path router
  (:class:`~repro.routing.faulttolerance.RedundantRouter`) hop by hop on
  the simulator clock through the same dynamic fault state, composing
  per-hop retries with path redundancy ``k``.  The measured
  fire-and-forget rate is compared against the paper's
  ``1 - (1 - (1-f)^d)^k`` loss model evaluated at the plan's effective
  per-hop failure probability.

:func:`run_timed_tree` is the one timed-tree workload: tree chaos and
the recovery harness drive it.  :func:`check_invariants` audits the
instrumentation of both tree runs (the ``instrumentation`` gate).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable

from repro.harness.reporting import format_quantiles, format_table
from repro.harness.scenario import Gate, Scenario, all_of
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.sim import Simulator
from repro.net.simnet import (
    RETRY_ATTEMPTS,
    RetryPolicy,
    SimulatedPubSub,
    retry_timeout,
)
from repro.obs import Observability
from repro.routing.faulttolerance import (
    RedundantRouter,
    analytic_delivery_rate,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.topology.multipath import MultipathNetwork
from repro.workloads.zipf import zipf_weights


#: The tree overlay every timed-tree scenario runs: its arity, per-hop
#: latency, and failure-detector cadence -- faster heartbeats than the
#: library default, because the outages last ~0.5s, so detection must
#: complete within ~0.3s for the detector (and its parking/recovery
#: path) to participate.
TREE_ARITY = 2
HOP_LATENCY = 0.010
HEARTBEAT_INTERVAL = 0.1
#: Seconds each random broker crash lasts before its restart.
_CRASH_DURATION = 0.5
#: Extra simulated seconds for in-flight retries/replays to settle.
_DRAIN = 3.0
# Multipath overlay shape (``G_ind``) and its token population.
_DEPTH = 3
_IND = 4
_TOKENS = 16


@dataclass
class ChaosConfig:
    """One chaos run's knobs; every randomness source derives from *seed*."""

    seed: int = 7
    #: Seconds of publishing; faults are scheduled within this horizon.
    duration: float = 5.0
    publish_rate: float = 40.0
    crash_probability: float = 0.2
    link_loss: float = 0.05
    #: Path redundancy ``k`` for the reliable multipath run.
    redundancy: int = 2
    num_brokers: int = 15

    @property
    def events(self) -> int:
        return max(1, int(self.publish_rate * self.duration))


@dataclass
class TreeChaosResult:
    """Outcome of one tree-overlay chaos run.

    ``obs`` is the run's metrics/tracing bundle; it takes no part in
    ``==``, so two runs of one seed compare equal on what they measured.
    """

    mode: str
    published: int
    expected: int
    delivered: int
    duplicates: int
    data_sends: int
    retries: int
    dead_letters: int
    acks_sent: int
    heartbeats_sent: int
    failures_detected: int
    recoveries_detected: int
    subscriptions_replayed: int
    #: The failure detector's crash-to-suspect and restart-to-clear
    #: times; empty on the fire-and-forget transport.
    detection_latencies: list[float]
    recovery_latencies: list[float]
    obs: Observability = field(compare=False, repr=False)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.expected if self.expected else 0.0

    @property
    def duplicate_rate(self) -> float:
        """Duplicate arrivals suppressed, per expected delivery."""
        return self.duplicates / self.expected if self.expected else 0.0

    @property
    def retry_overhead(self) -> float:
        """Fraction of data transmissions that were retransmissions."""
        return self.retries / self.data_sends if self.data_sends else 0.0


@dataclass
class MultipathChaosResult:
    """Outcome of one multipath chaos run (``obs`` as in
    :class:`TreeChaosResult`)."""

    mode: str
    redundancy: int
    attempted: int
    delivered: int
    duplicates: int
    copies_sent: int
    hop_sends: int
    retries: int
    dead_copies: int
    #: The paper's loss model at the plan's effective per-hop failure
    #: probability (fire-and-forget prediction for this redundancy).
    analytic_rate: float
    obs: Observability = field(compare=False, repr=False)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def duplicate_rate(self) -> float:
        """Redundant copies arriving after the first, per event."""
        return self.duplicates / self.attempted if self.attempted else 0.0

    @property
    def retry_overhead(self) -> float:
        return self.retries / self.hop_sends if self.hop_sends else 0.0


def _tree_fault_plan(config: ChaosConfig) -> FaultPlan:
    # The root hosts the publisher; the paper's model keeps the
    # publishing site up, so random crashes target brokers 1..n-1.
    return FaultPlan.random(
        range(1, config.num_brokers),
        config.duration,
        seed=config.seed,
        crash_probability=config.crash_probability,
        crash_duration=_CRASH_DURATION,
        link_loss=config.link_loss,
    )


def run_timed_tree(
    config,
    plan: FaultPlan,
    obs: Observability,
    *,
    topic: str,
    reliability: RetryPolicy | None,
    drain: float = _DRAIN,
    **overlay,
) -> tuple[SimulatedPubSub, int]:
    """The timed-tree workload every tree scenario drives.

    *plan* behind a fault injector, a ``num_brokers`` tree (*overlay*
    passes the recovery extras to :class:`SimulatedPubSub`), one *topic*
    subscriber per leaf, ``config.events`` publications paced at
    ``publish_rate``, run until ``duration + drain``.  Returns the
    finished overlay and the deliveries a fault-free run would make.
    """
    if config.duration <= 0 or config.publish_rate <= 0:
        raise ValueError("duration and publish rate must be positive")
    sim = Simulator()
    injector = FaultInjector(sim, plan, seed=config.seed + 1)
    net = SimulatedPubSub(
        sim,
        config.num_brokers,
        arity=TREE_ARITY,
        link_latency=HOP_LATENCY,
        reliability=reliability,
        faults=injector,
        seed=config.seed + 2,
        obs=obs,
        **overlay,
    )
    injector.install()
    subscription = Filter.topic(topic)
    leaves = net.leaf_ids()
    for index, leaf in enumerate(leaves):
        subscriber_id = f"sub{index}"
        net.attach_subscriber(subscriber_id, leaf)
        net.subscribe(subscriber_id, subscription)
    for k in range(config.events):
        net.publish(
            Event({"topic": topic, "k": k}),
            delay=k / config.publish_rate,
        )
    sim.run(until=config.duration + drain)
    return net, config.events * len(leaves)


def run_tree_chaos(config: ChaosConfig, reliable: bool) -> TreeChaosResult:
    """One tree-overlay workload under the config's fault plan."""
    obs = Observability()
    net, expected = run_timed_tree(
        config,
        _tree_fault_plan(config),
        obs,
        topic="chaos",
        reliability=(
            RetryPolicy(heartbeat_interval=HEARTBEAT_INTERVAL)
            if reliable else None
        ),
    )
    stats = net.rstats
    return TreeChaosResult(
        mode="reliable" if reliable else "fire-and-forget",
        published=config.events,
        expected=expected,
        delivered=len(net.deliveries),
        duplicates=stats.duplicates_suppressed + stats.duplicate_deliveries,
        data_sends=stats.data_sends,
        retries=stats.retries,
        dead_letters=stats.dead_letters,
        acks_sent=stats.acks_sent,
        heartbeats_sent=stats.heartbeats_sent,
        failures_detected=stats.failures_detected,
        recoveries_detected=stats.recoveries_detected,
        subscriptions_replayed=stats.subscriptions_replayed,
        detection_latencies=list(stats.detection_latencies),
        recovery_latencies=list(stats.recovery_latencies),
        obs=obs,
    )


def check_invariants(
    config: ChaosConfig, result: TreeChaosResult
) -> list[str]:
    """Accounting identities the instrumentation must keep; [] == pass.

    One trace per published event, no span against an unknown or
    evicted trace, traced deliveries equal to the overlay's delivery
    log, broker counters that moved.
    """
    problems: list[str] = []
    tracer = result.obs.tracer
    if tracer.traces_started != config.events:
        problems.append(
            f"events published ({config.events}) != traces started "
            f"({tracer.traces_started})"
        )
    if tracer.dropped_spans:
        problems.append(
            f"{tracer.dropped_spans} spans recorded against unknown "
            "trace ids"
        )
    if tracer.late_spans:
        problems.append(
            f"{tracer.late_spans} spans arrived after trace eviction"
        )
    traced_deliveries = sum(
        trace.fan_out for trace in tracer.traces()
    )
    if traced_deliveries != result.delivered:
        problems.append(
            f"traced deliveries ({traced_deliveries}) != recorded "
            f"deliveries ({result.delivered})"
        )
    if result.obs.registry.total("broker_events_received_total") <= 0:
        problems.append("broker counters never moved")
    return problems


def run_multipath_chaos(
    config: ChaosConfig, reliable: bool, redundancy: int
) -> MultipathChaosResult:
    """Redundant multi-path dissemination under dynamic faults.

    Each event travels over ``redundancy`` node-disjoint paths chosen by
    :class:`RedundantRouter`; every hop is subject to the fault state at
    traversal time (link loss sampled per transmission, crashed brokers
    swallow copies).  With *reliable*, a hop that fails is retried with
    the overlay's retry timeout up to its retry budget.

    Every event is traced: one trace per publication, a ``hop``/``drop``
    span per transmission attempt (tagged with its path index and
    attempt number), and a ``deliver`` span at first arrival, so any
    event's multipath fan-out and retransmissions reconstruct from the
    tracer alone.
    """
    obs = Observability()
    tracer = obs.tracer
    c_hop_retries = obs.registry.counter("multipath_hop_retries_total")
    h_e2e = obs.registry.histogram("multipath_e2e_latency_seconds")
    sim = Simulator()
    network = MultipathNetwork(
        depth=_DEPTH, arity=max(_IND, 2), ind=_IND
    )
    interior = [node for node in network.brokers() if len(node) >= 1]
    plan = FaultPlan.random(
        interior,
        config.duration,
        seed=config.seed,
        crash_probability=config.crash_probability,
        crash_duration=_CRASH_DURATION,
        link_loss=config.link_loss,
    )
    injector = FaultInjector(sim, plan, seed=config.seed + 1)
    injector.install()
    tokens = [f"t{i}" for i in range(_TOKENS)]
    weights = zipf_weights(_TOKENS)
    router = RedundantRouter(
        network,
        dict(zip(tokens, weights)),
        redundancy=redundancy,
        ind_max=_IND,
        seed=config.seed + 2,
        registry=obs.registry,
    )
    rng = random.Random(config.seed + 3)
    subscribers = network.subscribers()

    counters = {
        "delivered": 0,
        "duplicates": 0,
        "copies_sent": 0,
        "hop_sends": 0,
        "retries": 0,
        "dead_copies": 0,
    }
    arrivals: dict[int, int] = {}
    started: dict[int, float] = {}

    def hop_attempt(
        seq: int, path: list[Hashable], index: int, attempt: int,
        path_id: int,
    ) -> None:
        source, target = path[index], path[index + 1]
        counters["hop_sends"] += 1
        if attempt > 0:
            counters["retries"] += 1
            c_hop_retries.inc()
        survives = injector.deliverable(source, target)
        delay = HOP_LATENCY + injector.extra_latency(source, target)
        sent_at = sim.now

        def arrive() -> None:
            terminal = index + 1 == len(path) - 1
            if survives and (terminal or injector.broker_up(target)):
                tracer.span(
                    seq, "hop", str(target), sent_at, end=sim.now,
                    attempt=attempt, path=path_id,
                    link=f"{source}->{target}",
                )
                if terminal:
                    arrivals[seq] = arrivals.get(seq, 0) + 1
                    if arrivals[seq] == 1:
                        counters["delivered"] += 1
                        h_e2e.observe(sim.now - started[seq])
                        tracer.span(
                            seq, "deliver", str(target), started[seq],
                            end=sim.now, path=path_id,
                        )
                    else:
                        counters["duplicates"] += 1
                else:
                    hop_attempt(seq, path, index + 1, 0, path_id)
                return
            tracer.span(
                seq, "drop", str(target), sent_at, end=sim.now,
                attempt=attempt, path=path_id,
                link=f"{source}->{target}",
            )
            # No ack will come back for this copy.
            if reliable and attempt + 1 < RETRY_ATTEMPTS:
                sim.schedule(
                    retry_timeout(attempt, rng),
                    lambda: hop_attempt(seq, path, index, attempt + 1,
                                        path_id),
                )
            else:
                counters["dead_copies"] += 1

        sim.schedule(delay, arrive)

    def launch(seq: int) -> None:
        token = rng.choices(tokens, weights)[0]
        subscriber = rng.choice(subscribers)
        paths = router.route_redundant(token, subscriber)
        counters["copies_sent"] += len(paths)
        started[seq] = sim.now
        tracer.start_trace(seq, at=sim.now, token=str(token))
        tracer.span(seq, "publish", str(paths[0][0]), sim.now,
                    fan_out=len(paths))
        for path_id, path in enumerate(paths):
            hop_attempt(seq, path, 0, 0, path_id)

    for seq in range(config.events):
        sim.schedule(seq / config.publish_rate, lambda seq=seq: launch(seq))
    sim.run()

    down_fraction = plan.mean_down_fraction(interior, config.duration)
    per_hop_failure = (
        config.link_loss + down_fraction - config.link_loss * down_fraction
    )
    return MultipathChaosResult(
        mode="reliable" if reliable else "fire-and-forget",
        redundancy=redundancy,
        attempted=config.events,
        delivered=counters["delivered"],
        duplicates=counters["duplicates"],
        copies_sent=counters["copies_sent"],
        hop_sends=counters["hop_sends"],
        retries=counters["retries"],
        dead_copies=counters["dead_copies"],
        analytic_rate=analytic_delivery_rate(
            per_hop_failure, _DEPTH, redundancy
        ),
        obs=obs,
    )


@dataclass
class ChaosReport:
    """Everything one ``repro chaos --scenario overlay`` run measured."""

    tree_baseline: TreeChaosResult
    tree_reliable: TreeChaosResult
    multipath_baseline: MultipathChaosResult
    multipath_reliable: MultipathChaosResult


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run all four chaos experiments for *config*."""
    return ChaosReport(
        tree_baseline=run_tree_chaos(config, reliable=False),
        tree_reliable=run_tree_chaos(config, reliable=True),
        multipath_baseline=run_multipath_chaos(
            config, reliable=False, redundancy=1
        ),
        multipath_reliable=run_multipath_chaos(
            config, reliable=True, redundancy=config.redundancy
        ),
    )


def _mean(samples: list[float]) -> float:
    return sum(samples) / len(samples) if samples else math.nan


def _format_hop_retries(registry, name: str, limit: int = 6) -> str:
    series = [
        metric for metric in registry.series(name) if metric.value > 0
    ]
    if not series:
        return "none"
    series.sort(key=lambda metric: -metric.value)
    shown = ", ".join(
        f"{dict(metric.labels).get('link', 'total')}:"
        f"{int(metric.value)}"
        for metric in series[:limit]
    )
    hidden = len(series) - limit
    return shown + (f" (+{hidden} more links)" if hidden > 0 else "")


def _metrics_section(title: str, obs: Observability,
                     latency_metric: str, retry_metric: str) -> str:
    summary = obs.tracer.summary()
    histograms = obs.registry.series(latency_metric)
    latency = format_quantiles(histograms[0] if histograms else None)
    lines = [
        f"Metrics snapshot ({title})",
        f"  e2e latency   : {latency}",
        f"  hop retries   : "
        f"{_format_hop_retries(obs.registry, retry_metric)}",
        f"  traces        : {summary['traces_started']} started, "
        f"{summary['traces_delivered']} delivered, "
        f"{summary['total_retransmits']} retransmits, "
        f"{summary['total_drops']} drops, "
        f"{summary['dropped_spans']} dropped spans",
    ]
    return "\n".join(lines)


def format_chaos_report(config: ChaosConfig, report: ChaosReport) -> str:
    """Render the chaos report as paper-style tables."""
    header = (
        f"Chaos run: seed {config.seed}, {config.duration:.0f}s x "
        f"{config.publish_rate:.0f} ev/s, crash p={config.crash_probability}"
        f" ({_CRASH_DURATION:.1f}s outages), link loss "
        f"{config.link_loss:.0%}"
    )
    tree_rows = [
        (
            result.mode,
            result.delivery_rate,
            result.duplicate_rate,
            result.dead_letters,
            result.retry_overhead,
            result.failures_detected,
            _mean(result.detection_latencies),
            _mean(result.recovery_latencies),
        )
        for result in (report.tree_baseline, report.tree_reliable)
    ]
    tree_table = format_table(
        ["transport", "delivery", "dup rate", "dead", "retry ovh",
         "detects", "t_detect", "t_recover"],
        tree_rows,
        title=f"Tree overlay ({config.num_brokers} brokers, "
        f"arity {TREE_ARITY})",
    )
    multipath_rows = [
        (
            result.mode,
            result.redundancy,
            result.delivery_rate,
            result.analytic_rate,
            result.duplicate_rate,
            result.retry_overhead,
            result.dead_copies,
        )
        for result in (
            report.multipath_baseline,
            report.multipath_reliable,
        )
    ]
    multipath_table = format_table(
        ["transport", "k", "delivery", "analytic", "dup rate",
         "retry ovh", "dead copies"],
        multipath_rows,
        title=f"Multipath G_ind (depth {_DEPTH}, ind {_IND})",
    )
    tree_metrics = _metrics_section(
        "reliable tree",
        report.tree_reliable.obs,
        "net_delivery_latency_seconds",
        "net_hop_retries_total",
    )
    multipath_metrics = _metrics_section(
        f"reliable multipath k={report.multipath_reliable.redundancy}",
        report.multipath_reliable.obs,
        "multipath_e2e_latency_seconds",
        "multipath_hop_retries_total",
    )
    return "\n\n".join([
        header, tree_table, multipath_table, tree_metrics,
        multipath_metrics,
    ])


#: The reliable stack's delivery floor under the scenario's fault load
#: (Section 4.2.1's claim; what ``tests/harness/test_chaos.py`` held).
MIN_RELIABLE_DELIVERY = 0.99


def _overlays(report: ChaosReport):
    return (
        ("tree", report.tree_baseline, report.tree_reliable),
        ("multipath", report.multipath_baseline, report.multipath_reliable),
    )


def _reliable_delivery(_config, report: ChaosReport) -> str | None:
    return all_of(
        f"reliable {which} delivery {reliable.delivery_rate:.4f} below "
        f"the {MIN_RELIABLE_DELIVERY:.2f} gate"
        for which, _baseline, reliable in _overlays(report)
        if reliable.delivery_rate < MIN_RELIABLE_DELIVERY
    )


def _baseline_degrades(_config, report: ChaosReport) -> str | None:
    """Fire-and-forget strictly below reliable on both overlays: the
    faults bit, so the reliable rows prove something."""
    return all_of(
        f"fire-and-forget {which} delivery {baseline.delivery_rate:.4f} "
        f"is not below the reliable {reliable.delivery_rate:.4f}"
        for which, baseline, reliable in _overlays(report)
        if baseline.delivery_rate >= reliable.delivery_rate
    )


def _instrumentation(config, report: ChaosReport) -> str | None:
    return all_of(
        f"{result.mode} tree: {problem}"
        for result in (report.tree_baseline, report.tree_reliable)
        for problem in check_invariants(config, result)
    )


SCENARIO = Scenario(
    name="overlay",
    description="broker crashes + link loss: fire-and-forget vs the "
    "reliable at-least-once stack",
    configure=lambda args: ChaosConfig(
        seed=args.seed, duration=args.duration, publish_rate=args.rate,
        crash_probability=args.crash_prob, link_loss=args.link_loss,
        redundancy=args.redundancy, num_brokers=args.brokers,
    ),
    run=run_chaos,
    format=format_chaos_report,
    gates=(
        Gate("reliable-delivery", _reliable_delivery),
        Gate("baseline-degrades", _baseline_degrades),
        Gate("instrumentation", _instrumentation),
    ),
    snapshot=lambda report: {
        "tree": report.tree_reliable.obs.snapshot(),
        "multipath": report.multipath_reliable.obs.snapshot(),
        "workload": {
            "published": report.tree_reliable.published,
            "expected": report.tree_reliable.expected,
            "delivered": report.tree_reliable.delivered,
        },
    },
)
