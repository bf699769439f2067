"""Deterministic fault injection for the simulated broker overlay.

The paper's Section 4.2.1 argues multi-path dissemination buys fault
tolerance, but the static :class:`~repro.routing.faulttolerance.DroppingNetwork`
adversary only models nodes that *always* drop.  This module supplies the
dynamic failure modes real deployments hit -- broker crashes with later
restarts, lossy links, partitions, and latency spikes -- as a declarative,
seeded :class:`FaultPlan` that a :class:`FaultInjector` replays against the
deterministic :class:`~repro.net.sim.Simulator`.  The same seed and plan
always produce the same failure timeline and the same per-message loss
decisions, so chaos experiments are exactly reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from repro.net.sim import Simulator

#: Wildcard endpoint for :class:`LinkFault`: matches every link.
ANY = None


@dataclass(frozen=True)
class BrokerCrash:
    """Broker *broker* fails at *at* and restarts ``duration`` later.

    A restarted broker comes back with empty (volatile) routing state; an
    infinite *duration* models a permanent failure.
    """

    broker: Hashable
    at: float
    duration: float = math.inf

    @property
    def restart_at(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class LinkFault:
    """A symmetric link impairment active on ``[start, start + duration)``.

    ``a``/``b`` name the endpoints; either (or both) may be :data:`ANY` to
    match every link.  ``loss`` is the independent per-transmission drop
    probability, ``extra_latency`` a one-way delay added to every message
    (a latency spike), and ``partitioned`` drops everything.
    """

    a: Hashable = ANY
    b: Hashable = ANY
    start: float = 0.0
    duration: float = math.inf
    loss: float = 0.0
    extra_latency: float = 0.0
    partitioned: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss probability {self.loss} outside [0, 1]")
        if self.extra_latency < 0:
            raise ValueError("extra latency must be non-negative")
        if self.duration < 0:
            raise ValueError("fault duration must be non-negative")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration

    def severs(self, x: Hashable, y: Hashable) -> bool:
        """Whether this fault, when active, cuts the link ``x -- y``."""
        return self.partitioned and self.applies(x, y)

    def applies(self, x: Hashable, y: Hashable) -> bool:
        if self.a is ANY and self.b is ANY:
            return True
        if self.a is ANY or self.b is ANY:
            endpoint = self.b if self.a is ANY else self.a
            return endpoint in (x, y)
        return {self.a, self.b} == {x, y}


@dataclass(frozen=True)
class BrokerSlowdown:
    """Broker *broker* processes events ``factor``x slower for a while.

    Models CPU contention, GC pauses, or a noisy neighbour: the broker
    stays alive and keeps acking, but every unit of matching work costs
    ``factor`` times as long on ``[start, start + duration)``.  This is
    the overload-adjacent failure mode -- a slow broker whose bounded
    queues must backpressure its parents instead of growing without
    limit.
    """

    broker: Hashable
    start: float = 0.0
    duration: float = math.inf
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1 (1 = no-op)")
        if self.duration < 0:
            raise ValueError("fault duration must be non-negative")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class PartitionFault:
    """A network partition isolating *group* from every other broker.

    While active on ``[start, start + duration)``, every link with
    exactly one endpoint inside *group* drops all traffic in both
    directions; links internal to the group (and links entirely outside
    it) are untouched.  Both sides stay alive -- this is the failure
    mode a repair coordinator must NOT mistake for a dead broker.
    """

    group: tuple
    start: float = 0.0
    duration: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", tuple(self.group))
        if not self.group:
            raise ValueError("a partition needs at least one broker inside")
        if self.duration < 0:
            raise ValueError("fault duration must be non-negative")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration

    def severs(self, x: Hashable, y: Hashable) -> bool:
        """Whether the link ``x -- y`` crosses the partition boundary."""
        return (x in self.group) != (y in self.group)


@dataclass
class FaultPlan:
    """A declarative failure schedule: what breaks, when, for how long."""

    crashes: list[BrokerCrash] = field(default_factory=list)
    link_faults: list[LinkFault] = field(default_factory=list)
    partitions: list[PartitionFault] = field(default_factory=list)
    slowdowns: list[BrokerSlowdown] = field(default_factory=list)

    @classmethod
    def random(
        cls,
        brokers: Sequence[Hashable],
        horizon: float,
        *,
        seed: int,
        crash_probability: float = 0.2,
        crash_duration: float | None = None,
        permanent_crash_probability: float = 0.0,
        link_loss: float = 0.0,
        latency_spikes: int = 0,
        spike_extra_latency: float = 0.1,
        links: Sequence[tuple[Hashable, Hashable]] | None = None,
    ) -> "FaultPlan":
        """A seeded random plan over *horizon* seconds.

        Each broker independently crashes with *crash_probability* at a
        uniform time in the first 80% of the horizon and restarts after
        *crash_duration* (default: 10% of the horizon, jittered +-50%);
        with *permanent_crash_probability* a crashing broker instead
        never restarts (sampled after the crash decision, so raising it
        does not change which brokers crash or when).  *link_loss*
        applies a background drop probability to every link for the
        whole run; *latency_spikes* adds that many transient delay
        bursts on random *links* (ignored when no links are given).
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError("crash probability must be within [0, 1]")
        if not 0.0 <= permanent_crash_probability <= 1.0:
            raise ValueError(
                "permanent crash probability must be within [0, 1]"
            )
        rng = random.Random(seed)
        # Permanence decisions come from their own stream so that raising
        # permanent_crash_probability never perturbs the crash schedule.
        permanence_rng = random.Random(f"permanent-crashes-{seed}")
        base_duration = (
            crash_duration if crash_duration is not None else 0.1 * horizon
        )
        crashes = []
        for broker in brokers:
            if rng.random() >= crash_probability:
                continue
            at = rng.uniform(0.0, 0.8 * horizon)
            duration = base_duration * rng.uniform(0.5, 1.5)
            if permanence_rng.random() < permanent_crash_probability:
                duration = math.inf
            crashes.append(BrokerCrash(broker, at, duration))
        link_faults = []
        if link_loss > 0:
            link_faults.append(LinkFault(loss=link_loss))
        if latency_spikes and links:
            for _ in range(latency_spikes):
                a, b = rng.choice(list(links))
                start = rng.uniform(0.0, 0.8 * horizon)
                link_faults.append(
                    LinkFault(
                        a,
                        b,
                        start=start,
                        duration=0.1 * horizon,
                        extra_latency=spike_extra_latency,
                    )
                )
        return cls(crashes=crashes, link_faults=link_faults)

    # -- analytics (feed the paper's loss model) ----------------------------

    def downtime(self, broker: Hashable, horizon: float) -> float:
        """Total seconds *broker* is down within ``[0, horizon)``."""
        total = 0.0
        for crash in self.crashes:
            if crash.broker != broker:
                continue
            start = max(0.0, crash.at)
            end = min(horizon, crash.restart_at)
            total += max(0.0, end - start)
        return total

    def mean_down_fraction(
        self, brokers: Iterable[Hashable], horizon: float
    ) -> float:
        """Average fraction of the horizon a broker spends crashed."""
        population = list(brokers)
        if not population or horizon <= 0:
            return 0.0
        return sum(
            self.downtime(broker, horizon) for broker in population
        ) / (len(population) * horizon)


class FaultInjector:
    """Replays a :class:`FaultPlan` against a :class:`Simulator`.

    The injector keeps the *current* failure state queryable
    (:meth:`broker_up`, :meth:`link_loss`, :meth:`extra_latency`) and
    samples per-transmission loss decisions from its own seeded RNG
    (:meth:`deliverable`), so every consumer of the same plan + seed sees
    the identical failure trace.  Overlays register a transition listener
    to learn when a broker actually crashes or restarts.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, seed: int = 0):
        self.sim = sim
        self.plan = plan
        self.rng = random.Random(seed)
        self._down: set[Hashable] = set()
        self._listeners: list[Callable[[str, Hashable], None]] = []
        self._installed = False
        #: Chronological ``(time, "crash" | "restart", broker)`` log.
        self.transitions: list[tuple[float, str, Hashable]] = []

    # -- wiring -------------------------------------------------------------

    def on_transition(self, listener: Callable[[str, Hashable], None]) -> None:
        """Call ``listener(kind, broker)`` on every crash/restart."""
        self._listeners.append(listener)

    def install(self) -> None:
        """Schedule every planned crash/restart on the simulator."""
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        for crash in self.plan.crashes:
            self.sim.schedule_at(
                crash.at, lambda b=crash.broker: self._crash(b)
            )
            if math.isfinite(crash.restart_at):
                self.sim.schedule_at(
                    crash.restart_at, lambda b=crash.broker: self._restart(b)
                )

    def _crash(self, broker: Hashable) -> None:
        if broker in self._down:
            return
        self._down.add(broker)
        self.transitions.append((self.sim.now, "crash", broker))
        for listener in self._listeners:
            listener("crash", broker)

    def _restart(self, broker: Hashable) -> None:
        if broker not in self._down:
            return
        self._down.discard(broker)
        self.transitions.append((self.sim.now, "restart", broker))
        for listener in self._listeners:
            listener("restart", broker)

    # -- queryable failure state -------------------------------------------

    def broker_up(self, broker: Hashable) -> bool:
        """Whether *broker* is currently alive."""
        return broker not in self._down

    def _active_faults(
        self, a: Hashable, b: Hashable
    ) -> Iterable[LinkFault]:
        now = self.sim.now
        for fault in self.plan.link_faults:
            if fault.active(now) and fault.applies(a, b):
                yield fault

    def severed_until(self, a: Hashable, b: Hashable) -> float:
        """When every cut of link ``a -- b`` active now has healed: now
        when none is, ``inf`` when one never heals."""
        until = self.sim.now
        while ends := [
            cut.start + cut.duration
            for cut in (*self.plan.link_faults, *self.plan.partitions)
            if cut.active(until) and cut.severs(a, b)
        ]:
            until = max(ends)
        return until

    def link_loss(self, a: Hashable, b: Hashable) -> float:
        """Combined drop probability on link ``a -- b`` right now."""
        if self.severed_until(a, b) > self.sim.now:
            return 1.0
        survive = 1.0
        for fault in self._active_faults(a, b):
            survive *= 1.0 - fault.loss
        return 1.0 - survive

    def extra_latency(self, a: Hashable, b: Hashable) -> float:
        """Additional one-way delay on link ``a -- b`` right now."""
        return sum(
            fault.extra_latency for fault in self._active_faults(a, b)
        )

    def cost_factor(self, broker: Hashable) -> float:
        """Processing-cost multiplier for *broker* right now (>= 1).

        Active :class:`BrokerSlowdown`\\ s compound multiplicatively;
        overlays multiply every unit of broker matching work by this.
        """
        factor = 1.0
        now = self.sim.now
        for slowdown in self.plan.slowdowns:
            if slowdown.broker == broker and slowdown.active(now):
                factor *= slowdown.factor
        return factor

    def deliverable(self, a: Hashable, b: Hashable) -> bool:
        """Sample whether one transmission over ``a -- b`` survives.

        Consumes the injector RNG only when the link is actually lossy,
        so fault-free runs stay byte-identical to un-injected ones.
        """
        loss = self.link_loss(a, b)
        if loss <= 0.0:
            return True
        if loss >= 1.0:
            return False
        return self.rng.random() >= loss
