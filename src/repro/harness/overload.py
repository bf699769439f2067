"""Overload harness: publisher storms against the flow-controlled overlay.

The chaos and recovery harnesses break the overlay from the *outside*
(crashes, loss, partitions); this one breaks it from the *inside* by
offering more load than the brokers can serve.  A Zipf-popular topic
storm is driven at a multiple of the sustainable rate through the
fire-and-forget overlay with :class:`~repro.flow.FlowControlPolicy`
backpressure engaged, and the run measures exactly the properties the
overload stack promises:

- **bounded queues** -- no broker ingress/egress queue ever exceeds its
  configured capacity, and the underlying CPU nodes never grow an
  unbounded backlog (the service pump admits one job at a time);
- **priority protection** -- high-priority events ride out a storm at
  several times capacity with >= 99% delivery while best-effort traffic
  is shed;
- **graceful degradation** -- a sweep over storm factors shows
  best-effort delivery degrading smoothly toward the analytic floor
  ``(1 - h*f) / ((1 - h) * f)`` (offered factor ``f``, high-priority
  fraction ``h``) instead of falling off a cliff;
- **recovery** -- after the storm, queues drain, the breaker closes,
  and steady-state traffic delivers fully again;
- **backpressure** -- a slowed-down interior broker makes its parents
  stall on credits instead of queueing without limit;
- **adaptation** -- an AIMD-paced publisher fed by shed signals sheds a
  smaller fraction of its storm than a fixed-rate one.

``SCENARIO.gates`` are those six, by name; everything derives from the
config seed, so a run is exactly reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.flow import (
    BEST_EFFORT,
    HIGH,
    AIMDRateLimiter,
    FlowControlPolicy,
    priority_of,
    with_priority,
)
from repro.harness.reporting import counter_total, format_table
from repro.harness.scenario import Gate, Scenario, all_of
from repro.net.faults import BrokerSlowdown, FaultInjector, FaultPlan
from repro.net.sim import Simulator
from repro.net.simnet import SimulatedPubSub
from repro.obs import Observability
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.workloads.zipf import ZipfSampler


@dataclass
class OverloadConfig:
    """One overload run's knobs; every randomness source derives from *seed*.

    The root broker serves one event per ``broker_cost`` seconds, so the
    sustainable rate is ``1 / broker_cost``; all offered rates are
    expressed as multiples (*factors*) of it.
    """

    seed: int = 7
    num_brokers: int = 7
    arity: int = 2
    #: Seconds of broker CPU per event: capacity = 1 / broker_cost.
    broker_cost: float = 0.004
    link_latency: float = 0.002
    client_latency: float = 0.0005
    #: The bounded-queue / credit policy under test.
    queue_capacity: int = 32
    credit_window: int = 16
    shed_policy: str = "drop-oldest"
    #: Fraction of the storm published at HIGH priority.
    high_fraction: float = 0.1
    #: The headline storm's offered rate, as a multiple of capacity.
    storm_factor: float = 4.0
    #: Steady-state offered rate before/after the storm.
    steady_factor: float = 0.8
    steady_duration: float = 0.4
    storm_duration: float = 0.5
    #: Quiet seconds between storm end and the recovery phase.
    recovery_gap: float = 0.4
    #: Simulated seconds after the last publish for deliveries to settle.
    drain: float = 1.5
    # Zipf topic popularity (the paper's Gnutella-style workload).
    num_topics: int = 16
    zipf_exponent: float = 1.0
    topics_per_subscriber: int = 4
    #: Storm factors for the graceful-degradation sweep.
    sweep_factors: tuple = (1.0, 2.0, 3.0, 5.0, 6.0)
    sweep_duration: float = 0.4
    #: Interior-broker slowdown for the backpressure run.
    slowdown_factor: float = 6.0
    slowdown_duration: float = 0.5
    # Acceptance gates.
    min_high_delivery: float = 0.99
    min_recovery_delivery: float = 0.99
    #: Measured best-effort ratio must stay above this fraction of the
    #: analytic ideal at every sweep point (the non-cliff gate).
    degradation_floor: float = 0.5
    #: Tolerance when requiring the sweep to degrade monotonically.
    monotone_tolerance: float = 0.05

    @property
    def capacity(self) -> float:
        """Sustainable event rate of one broker (events/second)."""
        return 1.0 / self.broker_cost

    @property
    def high_every(self) -> int:
        """Publish every n-th event at HIGH priority."""
        return max(1, round(1.0 / self.high_fraction))

    def flow_policy(self) -> FlowControlPolicy:
        return FlowControlPolicy(
            queue_capacity=self.queue_capacity,
            credit_window=self.credit_window,
            shed_policy=self.shed_policy,
        )

    def validate(self) -> None:
        if self.broker_cost <= 0:
            raise ValueError("broker_cost must be positive")
        if not 0.0 < self.high_fraction < 1.0:
            raise ValueError("high_fraction must be a fraction in (0, 1)")
        if self.storm_factor * self.high_fraction >= 1.0:
            raise ValueError(
                "storm_factor x high_fraction must stay below 1: the "
                "high-priority slice alone may not exceed capacity"
            )
        for factor in self.sweep_factors:
            if factor * self.high_fraction >= 1.0:
                raise ValueError(
                    f"sweep factor {factor} puts the high-priority slice "
                    "over capacity"
                )
        if self.storm_factor <= self.steady_factor:
            raise ValueError("storm_factor must exceed steady_factor")
        if self.steady_factor >= 1.0:
            raise ValueError("steady_factor must be below 1 (sustainable)")
        if self.num_brokers < 3:
            raise ValueError("need at least three brokers (root + leaves)")
        if self.topics_per_subscriber > self.num_topics:
            raise ValueError("topics_per_subscriber exceeds num_topics")


@dataclass
class PhaseStats:
    """Delivery outcome of one phase of the storm timeline."""

    name: str
    factor: float
    offered: int
    high_offered: int
    #: delivered / expected over events with at least one subscriber.
    high_delivery: float
    best_effort_delivery: float
    overall_delivery: float


@dataclass
class SweepPoint:
    """One storm factor of the graceful-degradation sweep."""

    factor: float
    high_delivery: float
    best_effort_delivery: float
    #: The analytic best-effort floor (1 - h*f) / ((1 - h) * f).
    ideal_best_effort: float
    shed_events: int
    #: Share of sheds that fell on best-effort, the lowest class the
    #: storm carries: 1.0 = no better-priority event was sacrificed.
    shed_fairness: float


@dataclass
class OverloadResult:
    """Outcome of one overload run (storm, sweep, slowdown, adaptive).

    ``obs`` is the headline storm's metrics/tracing bundle; it takes no
    part in ``==``, so two runs of one seed compare equal.
    """

    phases: list[PhaseStats] = field(default_factory=list)
    sweep: list[SweepPoint] = field(default_factory=list)
    peak_ingress_depth: int = 0
    peak_egress_depth: int = 0
    max_node_backlog: int = 0
    shed_events: int = 0
    breaker_final: str = "closed"
    queues_drained: bool = True
    # Backpressure (slow broker) run.
    credit_stalls: int = 0
    credit_stall_seconds: float = 0.0
    slowdown_peak_depth: int = 0
    slowdown_high_delivery: float = 0.0
    # Adaptive (AIMD) vs fixed-rate storm.
    static_offered: int = 0
    static_shed_fraction: float = 0.0
    adaptive_offered: int = 0
    adaptive_shed_fraction: float = 0.0
    adaptive_final_rate: float = 0.0
    obs: Observability = field(
        default_factory=Observability, compare=False, repr=False
    )

    @property
    def storm_phase(self) -> PhaseStats:
        return next(p for p in self.phases if p.name == "storm")

    @property
    def recovery_phase(self) -> PhaseStats:
        return next(p for p in self.phases if p.name == "recovery")


class _Workload:
    """Shared wiring: a flow-controlled overlay plus delivery accounting."""

    def __init__(
        self,
        config: OverloadConfig,
        obs: Observability,
        faults: FaultInjector | None = None,
    ):
        self.config = config
        self.sim = faults.sim if faults is not None else Simulator()
        self.obs = obs
        self.net = SimulatedPubSub(
            self.sim,
            num_brokers=config.num_brokers,
            arity=config.arity,
            link_latency=config.link_latency,
            client_latency=config.client_latency,
            broker_cost=lambda _b, _e: config.broker_cost,
            faults=faults,
            flow=config.flow_policy(),
            seed=config.seed,
            obs=obs,
        )
        self.topics = [f"t{rank:02d}" for rank in range(config.num_topics)]
        self.publisher_sampler = ZipfSampler(
            self.topics, config.zipf_exponent, seed=config.seed
        )
        #: topic -> number of subscribers (= expected deliveries/event).
        self.audience: Counter = Counter()
        for index, leaf in enumerate(self.net.leaf_ids()):
            subscriber_id = f"sub{index}"
            self.net.attach_subscriber(subscriber_id, leaf)
            chosen = ZipfSampler(
                self.topics,
                config.zipf_exponent,
                seed=config.seed * 1000 + index + 1,
            ).sample_distinct(config.topics_per_subscriber)
            for topic in chosen:
                self.net.subscribe(subscriber_id, Filter.topic(topic))
                self.audience[topic] += 1
        #: seq -> (tag, priority, expected deliveries)
        self.ledger: dict[int, tuple[str, int, int]] = {}
        self._published = 0

    def publish_one(self, tag: str, delay: float = 0.0) -> int:
        """Publish the next storm event; every n-th one is HIGH."""
        k = self._published
        self._published += 1
        priority = (
            HIGH if k % self.config.high_every == 0 else BEST_EFFORT
        )
        topic = self.publisher_sampler.sample()
        event = with_priority(
            Event({"topic": topic, "k": k}), priority
        )
        seq = self.net.publish(event, delay=delay)
        self.ledger[seq] = (tag, priority, self.audience[topic])
        return seq

    def schedule_phase(self, tag: str, start: float, duration: float,
                       factor: float) -> int:
        """Pre-schedule a constant-rate phase; returns its event count."""
        rate = factor * self.config.capacity
        count = max(1, int(rate * duration))
        for k in range(count):
            self.publish_one(tag, delay=start + k / rate)
        return count

    def delivery_ratios(self, tag: str) -> tuple[float, float, float]:
        """(high, best-effort, overall) delivered/expected for *tag*."""
        delivered: Counter = Counter()
        for record in self.net.deliveries:
            delivered[record.seq] += 1
        sums = {HIGH: [0, 0], BEST_EFFORT: [0, 0]}
        for seq, (seq_tag, priority, expected) in self.ledger.items():
            if seq_tag != tag or expected == 0:
                continue
            sums[priority][0] += min(delivered[seq], expected)
            sums[priority][1] += expected
        high = _ratio(*sums[HIGH])
        best = _ratio(*sums[BEST_EFFORT])
        overall = _ratio(
            sums[HIGH][0] + sums[BEST_EFFORT][0],
            sums[HIGH][1] + sums[BEST_EFFORT][1],
        )
        return high, best, overall

    def offered(self, tag: str) -> tuple[int, int]:
        """(total, high) events published under *tag*."""
        entries = [e for e in self.ledger.values() if e[0] == tag]
        return len(entries), sum(1 for e in entries if e[1] == HIGH)


def _ratio(delivered: int, expected: int) -> float:
    return delivered / expected if expected else 1.0


def _run_storm_timeline(config: OverloadConfig,
                        result: OverloadResult) -> None:
    """Steady -> storm -> recover: the headline phase timeline."""
    load = _Workload(config, result.obs)
    timeline = [
        ("steady", config.steady_factor, config.steady_duration, 0.0),
        ("storm", config.storm_factor, config.storm_duration, 0.0),
        ("recovery", config.steady_factor, config.steady_duration,
         config.recovery_gap),
    ]
    clock = 0.0
    spans = []
    for name, factor, duration, gap in timeline:
        clock += gap
        load.schedule_phase(name, clock, duration, factor)
        spans.append((name, factor))
        clock += duration
    load.sim.run(until=clock + config.drain)

    for name, factor in spans:
        offered, high_offered = load.offered(name)
        high, best, overall = load.delivery_ratios(name)
        result.phases.append(PhaseStats(
            name=name,
            factor=factor,
            offered=offered,
            high_offered=high_offered,
            high_delivery=high,
            best_effort_delivery=best,
            overall_delivery=overall,
        ))
    net = load.net
    depths = net.flow_peak_depths().values()
    result.peak_ingress_depth = max(depths, default=0)
    result.peak_egress_depth = max(
        net.flow_egress_peak_depths().values(), default=0
    )
    result.max_node_backlog = max(
        node.stats.peak_backlog for node in net.nodes.values()
    )
    result.shed_events = net.shed_events
    result.breaker_final = net.breaker_state(0) or "closed"
    result.queues_drained = all(
        depth == 0 for depth in net.flow_depths().values()
    )


def _run_sweep(config: OverloadConfig, result: OverloadResult) -> None:
    """Graceful degradation: one storm per factor, fresh overlay each."""
    for factor in config.sweep_factors:
        load = _Workload(config, Observability())
        sheds: Counter = Counter()  # by priority
        load.net.on_shed(lambda priority, *_: sheds.update([priority]))
        load.schedule_phase("sweep", 0.0, config.sweep_duration, factor)
        load.sim.run(
            until=config.sweep_duration + config.drain
        )
        high, best, _overall = load.delivery_ratios("sweep")
        ideal = min(
            1.0,
            (1.0 - config.high_fraction * factor)
            / ((1.0 - config.high_fraction) * factor),
        )
        result.sweep.append(SweepPoint(
            factor=factor,
            high_delivery=high,
            best_effort_delivery=best,
            ideal_best_effort=ideal,
            shed_events=load.net.shed_events,
            shed_fairness=_ratio(sheds[BEST_EFFORT], sum(sheds.values())),
        ))


def _run_slowdown(config: OverloadConfig, result: OverloadResult) -> None:
    """Backpressure: a slow interior broker must stall its parent."""
    sim = Simulator()
    plan = FaultPlan(slowdowns=[
        BrokerSlowdown(
            broker=1,
            start=0.0,
            duration=config.slowdown_duration,
            factor=config.slowdown_factor,
        )
    ])
    injector = FaultInjector(sim, plan, seed=config.seed + 1)
    load = _Workload(config, Observability(), faults=injector)
    injector.install()
    load.schedule_phase(
        "slow", 0.0, config.slowdown_duration, config.steady_factor
    )
    load.sim.run(until=config.slowdown_duration + config.drain)
    stalls, seconds = load.net.flow_credit_stalls()
    result.credit_stalls = stalls
    result.credit_stall_seconds = seconds
    result.slowdown_peak_depth = max(
        load.net.flow_peak_depths().values(), default=0
    )
    high, _best, _overall = load.delivery_ratios("slow")
    result.slowdown_high_delivery = high


def _run_adaptive_comparison(config: OverloadConfig,
                             result: OverloadResult) -> None:
    """The same storm, fixed-rate vs AIMD-paced; compare shed fractions."""
    duration = config.storm_duration

    def run(adaptive: bool) -> tuple[int, int, float]:
        load = _Workload(config, Observability())
        offered_interval = 1.0 / (config.storm_factor * config.capacity)
        limiter = AIMDRateLimiter(
            rate=config.storm_factor * config.capacity,
            min_rate=config.capacity * 0.1,
            cooldown=4 * config.broker_cost,
        )
        if adaptive:
            load.net.on_shed(
                lambda _p, _stage, _b: limiter.on_overload(load.sim.now)
            )

        def pump() -> None:
            if load.sim.now >= duration:
                return
            load.publish_one("pump")
            if adaptive:
                limiter.on_success()
                interval = max(offered_interval, limiter.interval())
            else:
                interval = offered_interval
            load.sim.schedule(interval, pump)

        load.sim.schedule(0.0, pump)
        load.sim.run(until=duration + config.drain)
        offered, _high = load.offered("pump")
        return offered, load.net.shed_events, limiter.rate

    static_offered, static_shed, _rate = run(adaptive=False)
    adaptive_offered, adaptive_shed, final_rate = run(adaptive=True)
    result.static_offered = static_offered
    result.static_shed_fraction = (
        static_shed / static_offered if static_offered else 0.0
    )
    result.adaptive_offered = adaptive_offered
    result.adaptive_shed_fraction = (
        adaptive_shed / adaptive_offered if adaptive_offered else 0.0
    )
    result.adaptive_final_rate = final_rate


def run_overload(config: OverloadConfig) -> OverloadResult:
    """One overload workload: storm timeline, sweep, slowdown, adaptive."""
    config.validate()
    result = OverloadResult()
    _run_storm_timeline(config, result)
    _run_sweep(config, result)
    _run_slowdown(config, result)
    _run_adaptive_comparison(config, result)
    return result


def _bounded_queues(
    config: OverloadConfig, result: OverloadResult
) -> str | None:
    problems = []
    if result.peak_ingress_depth > config.queue_capacity:
        problems.append(
            f"ingress queue peaked at {result.peak_ingress_depth}, over "
            f"the {config.queue_capacity} bound"
        )
    if result.peak_egress_depth > config.queue_capacity:
        problems.append(
            f"egress queue peaked at {result.peak_egress_depth}, over "
            f"the {config.queue_capacity} bound"
        )
    if result.max_node_backlog > 4:
        problems.append(
            f"a broker CPU backlog reached {result.max_node_backlog}; "
            "the service pump must keep it O(1)"
        )
    return all_of(problems)


def _priority_protection(
    config: OverloadConfig, result: OverloadResult
) -> str | None:
    """High-priority events ride out the storm and every sweep rung, and
    the sheds that make room land on best-effort."""
    problems = []
    storm = result.storm_phase
    if storm.high_delivery < config.min_high_delivery:
        problems.append(
            f"high-priority delivery {storm.high_delivery:.4f} during the "
            f"storm below the {config.min_high_delivery:.2f} gate"
        )
    if result.shed_events == 0:
        problems.append(
            "the storm shed nothing: offered load never exceeded "
            "capacity, so the run proves nothing"
        )
    for point in result.sweep:
        if point.high_delivery < config.min_high_delivery:
            problems.append(
                f"sweep factor {point.factor:g}: high-priority delivery "
                f"{point.high_delivery:.4f} below the gate"
            )
        if point.shed_fairness < 0.95:
            problems.append(
                f"sweep factor {point.factor:g}: shed fairness "
                f"{point.shed_fairness:.4f} below 0.95 (better-priority "
                "events are being sacrificed)"
            )
    return all_of(problems)


def _graceful_degradation(
    config: OverloadConfig, result: OverloadResult
) -> str | None:
    problems = []
    previous = math.inf
    for point in result.sweep:
        floor = config.degradation_floor * point.ideal_best_effort
        if point.best_effort_delivery < floor:
            problems.append(
                f"sweep factor {point.factor:g}: best-effort delivery "
                f"{point.best_effort_delivery:.4f} fell off a cliff "
                f"(floor {floor:.4f})"
            )
        if point.best_effort_delivery > previous + config.monotone_tolerance:
            problems.append(
                f"sweep factor {point.factor:g}: best-effort delivery "
                "is not degrading monotonically"
            )
        previous = point.best_effort_delivery
    return all_of(problems)


def _recovery(config: OverloadConfig, result: OverloadResult) -> str | None:
    problems = []
    recovery = result.recovery_phase
    if recovery.overall_delivery < config.min_recovery_delivery:
        problems.append(
            f"post-storm delivery {recovery.overall_delivery:.4f} below "
            f"the {config.min_recovery_delivery:.2f} recovery gate"
        )
    if not result.queues_drained:
        problems.append("queues still hold events after the drain window")
    if result.breaker_final != "closed":
        problems.append(
            f"root breaker finished {result.breaker_final!r}, not closed"
        )
    return all_of(problems)


def _backpressure(
    config: OverloadConfig, result: OverloadResult
) -> str | None:
    problems = []
    if result.credit_stalls == 0:
        problems.append(
            "the slowed-down broker never stalled its parent on credits"
        )
    if result.slowdown_peak_depth > config.queue_capacity:
        problems.append(
            "the slow-broker run overflowed a bounded queue"
        )
    return all_of(problems)


def _adaptation(_config, result: OverloadResult) -> str | None:
    if result.static_shed_fraction > 0 and (
        result.adaptive_shed_fraction >= result.static_shed_fraction
    ):
        return (
            f"AIMD pacing shed {result.adaptive_shed_fraction:.3f} of its "
            f"storm, not less than the fixed-rate "
            f"{result.static_shed_fraction:.3f}"
        )
    return None


def format_overload_report(
    config: OverloadConfig, result: OverloadResult
) -> str:
    """Render the overload run as paper-style tables."""
    header = (
        f"Overload run: seed {config.seed}, capacity "
        f"{config.capacity:.0f} ev/s, storm {config.storm_factor:g}x for "
        f"{config.storm_duration:.1f}s, {config.high_fraction:.0%} "
        f"high-priority, queues {config.queue_capacity} deep "
        f"({config.shed_policy}), credits {config.credit_window}/link"
    )
    phase_table = format_table(
        ["phase", "factor", "offered", "high del", "best-effort del",
         "overall"],
        [(p.name, p.factor, p.offered, p.high_delivery,
          p.best_effort_delivery, p.overall_delivery)
         for p in result.phases],
        title=f"Storm timeline ({config.num_brokers} brokers, "
        f"arity {config.arity})",
    )
    sweep_table = format_table(
        ["factor", "high del", "best-effort del", "ideal", "shed",
         "fairness"],
        [(s.factor, s.high_delivery, s.best_effort_delivery,
          s.ideal_best_effort, s.shed_events, s.shed_fairness)
         for s in result.sweep],
        title="Graceful degradation sweep",
    )
    backpressure = "\n".join([
        "Backpressure and adaptation",
        f"  slow broker   : {config.slowdown_factor:g}x slowdown -> "
        f"{result.credit_stalls} credit stalls "
        f"({result.credit_stall_seconds:.3f}s), peak depth "
        f"{result.slowdown_peak_depth}/{config.queue_capacity}, "
        f"high-priority delivery {result.slowdown_high_delivery:.4f}",
        f"  fixed-rate    : {result.static_offered} offered, "
        f"{result.static_shed_fraction:.1%} shed",
        f"  AIMD-paced    : {result.adaptive_offered} offered, "
        f"{result.adaptive_shed_fraction:.1%} shed, final rate "
        f"{result.adaptive_final_rate:.0f} ev/s",
    ])
    registry = result.obs.registry
    metrics = "\n".join([
        "Metrics snapshot (overload)",
        f"  sheds         : "
        f"{counter_total(registry, 'flow_shed_total')} total "
        f"(queues + admission)",
        f"  queue peaks   : ingress {result.peak_ingress_depth}, "
        f"egress {result.peak_egress_depth} "
        f"(bound {config.queue_capacity})",
        f"  breaker       : "
        f"{counter_total(registry, 'flow_breaker_transitions_total')} "
        f"transitions, finished {result.breaker_final}",
        f"  cpu backlog   : peak {result.max_node_backlog} "
        "(service pump)",
    ])
    return "\n\n".join(
        [header, phase_table, sweep_table, backpressure, metrics]
    )


SCENARIO = Scenario(
    name="overload",
    description="publisher storm at a multiple of sustainable rate: "
    "bounded queues, priority protection, graceful degradation, "
    "post-storm recovery",
    configure=lambda args: OverloadConfig(
        seed=args.seed, storm_factor=args.storm_factor
    ),
    run=run_overload,
    format=format_overload_report,
    gates=(
        Gate("bounded-queues", _bounded_queues),
        Gate("priority-protection", _priority_protection),
        Gate("graceful-degradation", _graceful_degradation),
        Gate("recovery", _recovery),
        Gate("backpressure", _backpressure),
        Gate("adaptation", _adaptation),
    ),
    snapshot=lambda result: result.obs.snapshot(),
)
