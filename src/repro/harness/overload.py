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


#: Seconds of root-broker CPU per event: the sustainable rate is
#: ``CAPACITY = 1 / BROKER_COST``, and every offered rate below is a
#: multiple (*factor*) of it.
BROKER_COST = 0.004
CAPACITY = 1.0 / BROKER_COST
_NUM_BROKERS = 7
_ARITY = 2
_LINK_LATENCY = 0.002
_CLIENT_LATENCY = 0.0005
#: The bounded-queue / credit policy under test.
QUEUE_CAPACITY = 32
_FLOW = FlowControlPolicy(queue_capacity=QUEUE_CAPACITY, credit_window=16)
#: Fraction of the storm published at HIGH priority: every n-th event.
HIGH_FRACTION = 0.1
_HIGH_EVERY = round(1.0 / HIGH_FRACTION)
#: Steady-state offered rate before/after the storm.
STEADY_FACTOR = 0.8
_STEADY_DURATION = 0.4
_STORM_DURATION = 0.5
#: Quiet seconds between storm end and the recovery phase.
_RECOVERY_GAP = 0.4
#: Simulated seconds after the last publish for deliveries to settle.
_DRAIN = 1.5
# Zipf topic popularity (the paper's Gnutella-style workload).
_NUM_TOPICS = 16
_ZIPF_EXPONENT = 1.0
_TOPICS_PER_SUBSCRIBER = 4
#: Storm factors for the graceful-degradation sweep.
SWEEP_FACTORS = (1.0, 2.0, 3.0, 5.0, 6.0)
_SWEEP_DURATION = 0.4
#: Interior-broker slowdown for the backpressure run.
_SLOWDOWN_FACTOR = 6.0
_SLOWDOWN_DURATION = 0.5


@dataclass
class OverloadConfig:
    """One overload run's knobs; every randomness source derives from *seed*."""

    seed: int = 7
    #: The headline storm's offered rate, as a multiple of ``CAPACITY``.
    storm_factor: float = 4.0

    def validate(self) -> None:
        if self.storm_factor * HIGH_FRACTION >= 1.0:
            raise ValueError(
                "storm_factor x high_fraction must stay below 1: the "
                "high-priority slice alone may not exceed capacity"
            )
        if self.storm_factor <= STEADY_FACTOR:
            raise ValueError("storm_factor must exceed steady_factor")


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
        self.sim = faults.sim if faults is not None else Simulator()
        self.obs = obs
        self.net = SimulatedPubSub(
            self.sim,
            num_brokers=_NUM_BROKERS,
            arity=_ARITY,
            link_latency=_LINK_LATENCY,
            client_latency=_CLIENT_LATENCY,
            broker_cost=lambda _b, _e: BROKER_COST,
            faults=faults,
            flow=_FLOW,
            seed=config.seed,
            obs=obs,
        )
        self.topics = [f"t{rank:02d}" for rank in range(_NUM_TOPICS)]
        self.publisher_sampler = ZipfSampler(
            self.topics, _ZIPF_EXPONENT, seed=config.seed
        )
        #: topic -> number of subscribers (= expected deliveries/event).
        self.audience: Counter = Counter()
        for index, leaf in enumerate(self.net.leaf_ids()):
            subscriber_id = f"sub{index}"
            self.net.attach_subscriber(subscriber_id, leaf)
            chosen = ZipfSampler(
                self.topics,
                _ZIPF_EXPONENT,
                seed=config.seed * 1000 + index + 1,
            ).sample_distinct(_TOPICS_PER_SUBSCRIBER)
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
            HIGH if k % _HIGH_EVERY == 0 else BEST_EFFORT
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
        rate = factor * CAPACITY
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
        ("steady", STEADY_FACTOR, _STEADY_DURATION, 0.0),
        ("storm", config.storm_factor, _STORM_DURATION, 0.0),
        ("recovery", STEADY_FACTOR, _STEADY_DURATION, _RECOVERY_GAP),
    ]
    clock = 0.0
    spans = []
    for name, factor, duration, gap in timeline:
        clock += gap
        load.schedule_phase(name, clock, duration, factor)
        spans.append((name, factor))
        clock += duration
    load.sim.run(until=clock + _DRAIN)

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
    for factor in SWEEP_FACTORS:
        load = _Workload(config, Observability())
        sheds: Counter = Counter()  # by priority
        load.net.on_shed(lambda priority, *_: sheds.update([priority]))
        load.schedule_phase("sweep", 0.0, _SWEEP_DURATION, factor)
        load.sim.run(until=_SWEEP_DURATION + _DRAIN)
        high, best, _overall = load.delivery_ratios("sweep")
        ideal = min(
            1.0,
            (1.0 - HIGH_FRACTION * factor)
            / ((1.0 - HIGH_FRACTION) * factor),
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
            duration=_SLOWDOWN_DURATION,
            factor=_SLOWDOWN_FACTOR,
        )
    ])
    injector = FaultInjector(sim, plan, seed=config.seed + 1)
    load = _Workload(config, Observability(), faults=injector)
    injector.install()
    load.schedule_phase("slow", 0.0, _SLOWDOWN_DURATION, STEADY_FACTOR)
    load.sim.run(until=_SLOWDOWN_DURATION + _DRAIN)
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
    duration = _STORM_DURATION

    def run(adaptive: bool) -> tuple[int, int, float]:
        load = _Workload(config, Observability())
        offered_interval = 1.0 / (config.storm_factor * CAPACITY)
        limiter = AIMDRateLimiter(
            rate=config.storm_factor * CAPACITY,
            min_rate=CAPACITY * 0.1,
            cooldown=4 * BROKER_COST,
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
        load.sim.run(until=duration + _DRAIN)
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


def _bounded_queues(_config, result: OverloadResult) -> str | None:
    problems = []
    if result.peak_ingress_depth > QUEUE_CAPACITY:
        problems.append(
            f"ingress queue peaked at {result.peak_ingress_depth}, over "
            f"the {QUEUE_CAPACITY} bound"
        )
    if result.peak_egress_depth > QUEUE_CAPACITY:
        problems.append(
            f"egress queue peaked at {result.peak_egress_depth}, over "
            f"the {QUEUE_CAPACITY} bound"
        )
    if result.max_node_backlog > 4:
        problems.append(
            f"a broker CPU backlog reached {result.max_node_backlog}; "
            "the service pump must keep it O(1)"
        )
    return all_of(problems)


#: High-priority delivery the storm and every sweep rung must reach.
MIN_HIGH_DELIVERY = 0.99


def _priority_protection(_config, result: OverloadResult) -> str | None:
    """High-priority events ride out the storm and every sweep rung, and
    the sheds that make room land on best-effort."""
    problems = []
    storm = result.storm_phase
    if storm.high_delivery < MIN_HIGH_DELIVERY:
        problems.append(
            f"high-priority delivery {storm.high_delivery:.4f} during the "
            f"storm below the {MIN_HIGH_DELIVERY:.2f} gate"
        )
    if result.shed_events == 0:
        problems.append(
            "the storm shed nothing: offered load never exceeded "
            "capacity, so the run proves nothing"
        )
    for point in result.sweep:
        if point.high_delivery < MIN_HIGH_DELIVERY:
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


#: Measured best-effort ratio must stay above this fraction of the
#: analytic ideal at every sweep point (the non-cliff gate).
DEGRADATION_FLOOR = 0.5
#: Tolerance when requiring the sweep to degrade monotonically.
_MONOTONE_TOLERANCE = 0.05


def _graceful_degradation(_config, result: OverloadResult) -> str | None:
    problems = []
    previous = math.inf
    for point in result.sweep:
        floor = DEGRADATION_FLOOR * point.ideal_best_effort
        if point.best_effort_delivery < floor:
            problems.append(
                f"sweep factor {point.factor:g}: best-effort delivery "
                f"{point.best_effort_delivery:.4f} fell off a cliff "
                f"(floor {floor:.4f})"
            )
        if point.best_effort_delivery > previous + _MONOTONE_TOLERANCE:
            problems.append(
                f"sweep factor {point.factor:g}: best-effort delivery "
                "is not degrading monotonically"
            )
        previous = point.best_effort_delivery
    return all_of(problems)


#: Overall delivery the post-storm phase must reach.
MIN_RECOVERY_DELIVERY = 0.99


def _recovery(_config, result: OverloadResult) -> str | None:
    problems = []
    recovery = result.recovery_phase
    if recovery.overall_delivery < MIN_RECOVERY_DELIVERY:
        problems.append(
            f"post-storm delivery {recovery.overall_delivery:.4f} below "
            f"the {MIN_RECOVERY_DELIVERY:.2f} recovery gate"
        )
    if not result.queues_drained:
        problems.append("queues still hold events after the drain window")
    if result.breaker_final != "closed":
        problems.append(
            f"root breaker finished {result.breaker_final!r}, not closed"
        )
    return all_of(problems)


def _backpressure(_config, result: OverloadResult) -> str | None:
    problems = []
    if result.credit_stalls == 0:
        problems.append(
            "the slowed-down broker never stalled its parent on credits"
        )
    if result.slowdown_peak_depth > QUEUE_CAPACITY:
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
        f"{CAPACITY:.0f} ev/s, storm {config.storm_factor:g}x for "
        f"{_STORM_DURATION:.1f}s, {HIGH_FRACTION:.0%} "
        f"high-priority, queues {QUEUE_CAPACITY} deep "
        f"(drop-oldest), credits {_FLOW.credit_window}/link"
    )
    phase_table = format_table(
        ["phase", "factor", "offered", "high del", "best-effort del",
         "overall"],
        [(p.name, p.factor, p.offered, p.high_delivery,
          p.best_effort_delivery, p.overall_delivery)
         for p in result.phases],
        title=f"Storm timeline ({_NUM_BROKERS} brokers, arity {_ARITY})",
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
        f"  slow broker   : {_SLOWDOWN_FACTOR:g}x slowdown -> "
        f"{result.credit_stalls} credit stalls "
        f"({result.credit_stall_seconds:.3f}s), peak depth "
        f"{result.slowdown_peak_depth}/{QUEUE_CAPACITY}, "
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
        f"(bound {QUEUE_CAPACITY})",
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
