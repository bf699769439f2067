"""Recovery harness: permanent failures, tree repair, exactly-once.

The chaos harness (:mod:`repro.harness.chaos`) exercises *transient*
faults: brokers crash and come back, and the at-least-once stack rides
the outage out.  This harness kills brokers **permanently** and proves
the self-healing story end to end:

- two interior brokers are crashed and never restarted, orphaning their
  subtrees; the :class:`~repro.recovery.repair.RepairCoordinator` must
  detect each corpse, re-parent the orphans to the nearest live
  ancestor, re-home directly attached subscribers, and replay the dead
  broker's journaled in-flight events through the adopter;
- a network partition isolates a live subtree for a while -- long enough
  for the repair timer to fire -- and the coordinator must recognise it
  as a partition (management-plane probe) and **not** excise the live
  brokers (a counted false alarm);
- every broker runs a durable journal
  (:mod:`repro.recovery.journal`), and the overlay-level dedup window
  plus hop-level dedup keep every salvage/redirect re-send invisible:
  the gate demands **zero** ``(event, subscriber)`` collisions among
  surfaced deliveries while the suppression counters show the machinery
  actually worked.

``SCENARIO.gates`` are the acceptance gates: delivery ratio at least
``min_delivery_rate`` (default 99%), zero surfaced duplicates at any
subscriber, and every permanent kill repaired (finite convergence time
reported through the ``recovery_convergence_seconds`` histogram).
Everything derives from the config seed, so a run is exactly
reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.harness.chaos import run_timed_tree
from repro.harness.reporting import (
    counter_total,
    format_quantiles,
    format_table,
)
from repro.harness.scenario import Gate, Scenario, all_of
from repro.net.faults import (
    BrokerCrash,
    FaultPlan,
    LinkFault,
    PartitionFault,
)
from repro.net.simnet import RetryPolicy
from repro.obs import Observability
from repro.recovery import JournalStore, RepairPolicy
from repro.recovery.repair import RepairRecord


@dataclass
class RecoveryConfig:
    """One recovery run's knobs; every randomness source derives from *seed*.

    Fault timing is expressed as fractions of *duration* so shortening
    or stretching the run rescales the whole failure timeline.  The
    default scenario (two permanent kills plus one partition) assumes
    the default 15-broker binary tree; overriding ``num_brokers`` below
    15 requires also overriding ``kill_brokers``/``partition_group``.
    """

    seed: int = 7
    #: Seconds of publishing; faults land inside this horizon.
    duration: float = 6.0
    #: Extra simulated seconds for repairs, replays and flushes to settle.
    drain: float = 4.0
    publish_rate: float = 40.0
    num_brokers: int = 15
    arity: int = 2
    hop_latency: float = 0.010
    #: Background per-transmission loss, so retries stay in play.
    link_loss: float = 0.02
    #: Brokers killed permanently (never restarted), with their kill
    #: times as fractions of the duration.  Interior brokers with live
    #: ancestors, so every repair has an adopter.
    kill_brokers: tuple = (1, 6)
    kill_times: tuple = (0.18, 0.35)
    #: A live subtree isolated by a partition (both sides stay up); the
    #: repair coordinator must refuse to excise it.
    partition_group: tuple = (5, 11, 12)
    partition_start: float = 0.55
    partition_length: float = 0.17
    #: Continuous down-time past detection before tree surgery.
    repair_after: float = 0.5
    #: Overlay-level end-to-end dedup window (events per subscriber).
    dedup_window: int = 4096
    # Journal shape.
    snapshot_every: int = 64
    inflight_capacity: int = 512
    #: The floor of the ``delivery`` gate.
    min_delivery_rate: float = 0.99
    # Fast heartbeats (as in the chaos harness) so detection completes
    # well inside the repair timer; jittered so post-partition flushes
    # do not stampede in lock-step.
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            heartbeat_interval=0.1, heartbeat_jitter=0.05
        )
    )

    @property
    def events(self) -> int:
        return max(1, int(self.publish_rate * self.duration))

    def validate(self) -> None:
        if len(self.kill_brokers) != len(self.kill_times):
            raise ValueError("kill_brokers and kill_times must parallel")
        participants = set(self.kill_brokers) | set(self.partition_group)
        if 0 in self.kill_brokers:
            raise ValueError("broker 0 hosts the publisher; cannot kill it")
        for broker in participants:
            if not 0 <= broker < self.num_brokers:
                raise ValueError(
                    f"scenario broker {broker} outside the "
                    f"{self.num_brokers}-broker overlay; override "
                    "kill_brokers/partition_group for small trees"
                )
        if set(self.kill_brokers) & set(self.partition_group):
            raise ValueError(
                "partition_group must hold live brokers, not kill targets"
            )


@dataclass
class RecoveryResult:
    """Outcome of one recovery run.

    ``obs`` is the run's metrics/tracing bundle; it takes no part in
    ``==``, so two runs of one seed compare equal on what they measured.
    """

    expected: int
    delivered: int
    #: ``(event, subscriber)`` pairs surfaced more than once -- the
    #: exactly-once gate demands zero.
    duplicate_collisions: int
    #: Duplicate arrivals the edge dedup window made invisible.
    duplicates_suppressed: int
    dead_letters: int
    data_sends: int
    retries: int
    retx_evicted: int
    journal_records: int
    journal_restores: int
    events_salvaged: int
    repairs_attempted: int
    repairs_converged: int
    reparented: int
    clients_rehomed: int
    inflight_replayed: int
    false_alarms: int
    failures_detected: int
    recoveries_detected: int
    #: Slowest crash-to-repaired time; NaN (which makes a result unequal
    #: to itself) only when nothing was repaired.
    max_convergence: float
    #: The coordinator's repair log, one record per attempt.
    records: list[RepairRecord]
    obs: Observability = field(compare=False, repr=False)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.expected if self.expected else 0.0

    @property
    def failed_repairs(self) -> int:
        return self.repairs_attempted - self.repairs_converged


def _recovery_fault_plan(config: RecoveryConfig) -> FaultPlan:
    crashes = [
        BrokerCrash(broker, at=fraction * config.duration)  # permanent
        for broker, fraction in zip(config.kill_brokers, config.kill_times)
    ]
    partitions = [
        PartitionFault(
            group=tuple(config.partition_group),
            start=config.partition_start * config.duration,
            duration=config.partition_length * config.duration,
        )
    ]
    link_faults = (
        [LinkFault(loss=config.link_loss)] if config.link_loss > 0 else []
    )
    return FaultPlan(
        crashes=crashes, link_faults=link_faults, partitions=partitions
    )


def run_recovery(config: RecoveryConfig) -> RecoveryResult:
    """One self-healing workload: permanent kills + partition + repair."""
    config.validate()
    obs = Observability()
    journals = JournalStore(
        snapshot_every=config.snapshot_every,
        inflight_capacity=config.inflight_capacity,
        registry=obs.registry,
    )
    net, expected = run_timed_tree(
        config,
        _recovery_fault_plan(config),
        obs,
        topic="recovery",
        reliability=replace(config.retry),
        journals=journals,
        repair=RepairPolicy(repair_after=config.repair_after),
        dedup_window=config.dedup_window,
    )
    collisions = sum(
        count - 1
        for count in Counter(
            (record.seq, record.subscriber_id) for record in net.deliveries
        ).values()
        if count > 1
    )
    coordinator = net.repair
    records = list(coordinator.records)
    converged = [record for record in records if record.converged]
    stats = net.rstats
    return RecoveryResult(
        expected=expected,
        delivered=len(net.deliveries),
        duplicate_collisions=collisions,
        duplicates_suppressed=stats.duplicate_deliveries,
        dead_letters=stats.dead_letters,
        data_sends=stats.data_sends,
        retries=stats.retries,
        retx_evicted=stats.retx_evicted,
        journal_records=journals.total_records(),
        journal_restores=stats.journal_restores,
        events_salvaged=stats.events_salvaged,
        repairs_attempted=len(records),
        repairs_converged=len(converged),
        reparented=sum(record.orphans for record in converged),
        clients_rehomed=sum(record.clients_rehomed for record in converged),
        inflight_replayed=sum(
            record.inflight_replayed for record in converged
        ),
        false_alarms=coordinator.false_alarms,
        failures_detected=stats.failures_detected,
        recoveries_detected=stats.recoveries_detected,
        max_convergence=coordinator.max_convergence_time(),
        records=records,
        obs=obs,
    )


def _delivery(config: RecoveryConfig, result: RecoveryResult) -> str | None:
    if result.delivery_rate < config.min_delivery_rate:
        return (
            f"delivery rate {result.delivery_rate:.4f} below the "
            f"{config.min_delivery_rate:.2f} gate "
            f"({result.delivered}/{result.expected})"
        )
    return None


def _exactly_once(_config, result: RecoveryResult) -> str | None:
    if result.duplicate_collisions != 0:
        return (
            f"{result.duplicate_collisions} duplicate deliveries surfaced "
            "at subscribers (exactly-once gate demands zero)"
        )
    return None


def _repair(config: RecoveryConfig, result: RecoveryResult) -> str | None:
    """Every permanent kill repaired, by a live adopter, in finite time."""
    problems = []
    if result.repairs_converged != len(config.kill_brokers):
        problems.append(
            f"{result.repairs_converged} repairs converged for "
            f"{len(config.kill_brokers)} permanent kills"
        )
    if result.failed_repairs:
        problems.append(
            f"{result.failed_repairs} repairs found no live adopter"
        )
    if result.repairs_converged and not math.isfinite(
        result.max_convergence
    ):
        problems.append("repair convergence time was not recorded")
    return all_of(problems)


def _format_seconds(value: float) -> str:
    return f"{value:.3f}s" if math.isfinite(value) else "n/a"


def format_recovery_report(
    config: RecoveryConfig, result: RecoveryResult
) -> str:
    """Render the recovery run as paper-style tables."""
    header = (
        f"Recovery run: seed {config.seed}, {config.duration:.0f}s x "
        f"{config.publish_rate:.0f} ev/s, permanent kills "
        f"{list(config.kill_brokers)}, partition "
        f"{list(config.partition_group)} for "
        f"{config.partition_length * config.duration:.1f}s, link loss "
        f"{config.link_loss:.0%}"
    )
    delivery_table = format_table(
        ["delivery", "surfaced dups", "suppressed", "dead", "retry ovh",
         "salvaged", "rehomed"],
        [(
            result.delivery_rate,
            result.duplicate_collisions,
            result.duplicates_suppressed,
            result.dead_letters,
            (result.retries / result.data_sends
             if result.data_sends else 0.0),
            result.events_salvaged,
            result.clients_rehomed,
        )],
        title=f"Self-healing overlay ({config.num_brokers} brokers, "
        f"arity {config.arity})",
    )
    repair_rows = [
        (
            str(record.dead),
            str(record.adopter) if record.converged else "none",
            record.orphans,
            record.clients_rehomed,
            record.inflight_replayed,
            _format_seconds(record.convergence_time),
        )
        for record in result.records
    ] or [("-", "-", 0, 0, 0, "n/a")]
    repair_table = format_table(
        ["dead", "adopter", "orphans", "rehomed", "replayed",
         "convergence"],
        repair_rows,
        title=f"Tree repairs ({result.repairs_converged} converged, "
        f"{result.false_alarms} partition false alarms)",
    )
    registry = result.obs.registry
    convergence = registry.series("recovery_convergence_seconds")
    metrics = "\n".join([
        "Metrics snapshot (recovery)",
        f"  convergence   : "
        f"{format_quantiles(convergence[0] if convergence else None, 's')}",
        f"  repairs       : "
        f"{counter_total(registry, 'recovery_repairs_total')} total, "
        f"{counter_total(registry, 'recovery_reparent_total')} "
        f"reparented, "
        f"{counter_total(registry, 'recovery_false_alarms_total')} "
        f"false alarms",
        f"  journal       : "
        f"{counter_total(registry, 'journal_records_total')} records, "
        f"{counter_total(registry, 'journal_replays_total')} replays, "
        f"{result.journal_restores} restarts restored",
        f"  dedup         : "
        f"{counter_total(registry, 'dedup_suppressed_total')} "
        f"suppressed, "
        f"{counter_total(registry, 'net_retx_evicted_total')} parked "
        f"evictions",
    ])
    return "\n\n".join([header, delivery_table, repair_table, metrics])


SCENARIO = Scenario(
    name="recovery",
    description="permanent broker kills + a partition: tree repair, "
    "durable journals, exactly-once delivery",
    configure=lambda args: RecoveryConfig(
        seed=args.seed, duration=args.duration, publish_rate=args.rate,
        num_brokers=args.brokers, link_loss=args.link_loss,
    ),
    run=run_recovery,
    format=format_recovery_report,
    gates=(
        Gate("delivery", _delivery),
        Gate("exactly-once", _exactly_once),
        Gate("repair", _repair),
    ),
    snapshot=lambda result: result.obs.snapshot(),
)
