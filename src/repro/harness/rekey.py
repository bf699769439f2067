"""Churn chaos: live epoch rollover, renewal, and lazy revocation.

The scenario stands up a real loopback TCP cluster with the KDC hosted
beside the broker tree (:class:`~repro.rekey.service.KdcServer`) and
drives membership churn while events are flowing:

- a population of *survivor* subscribers joins in-band (grants fetched
  over GRANT/GRANT_ACK, renewed by REKEY-driven ticks);
- a *victim* is revoked after the first tranche -- lazy revocation
  means its current-epoch grant keeps opening that epoch's traffic, but
  its renewal at the next boundary is denied and every later epoch is
  unreadable to it;
- a *joiner* joins mid-stream after the first rollover and a *leaver*
  leaves mid-stream after the second, exercising admission and
  withdrawal under load;
- the clock then crosses ``rollovers`` live epoch boundaries.  Each
  rollover is one REKEY broadcast at ``boundary - lead/2`` (inside the
  survivors' pre-expiry lead window), after which the grant plane is
  settle-barrier flushed -- no sleeps anywhere.

Gates (``SCENARIO.gates``; ``repro chaos --scenario rekey --check``):

- ``rollovers``: >= 3 live rollovers actually crossed;
- ``lazy-revocation``: zero unauthorized opens -- the victim never opens
  an event sealed in an epoch after its revocation -- and its boundary
  renewal is denied exactly once;
- ``survivor-delivery``: no delivery gap -- every survivor opens >= 99%
  of all tranches (in this deterministic choreography that ratio is
  exactly 1.0 unless something is broken) and no survivor renewal ever
  failed or was denied;
- ``join-leave``: the joiner sees exactly the post-join tranches, the
  leaver exactly the pre-leave tranches;
- ``acked``: every publication was acknowledged.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.renewal import RenewalPolicy
from repro.harness.scenario import Gate, Scenario, all_of
from repro.obs.metrics import MetricsRegistry
from repro.rekey.client import KdcChannel
from repro.routing.tokens import TokenAuthority
from repro.rtnet.client import RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from repro.siena.events import Event
from repro.siena.filters import Filter

TOPIC = "cancerTrail"


_NUM_BROKERS = 3
_ARITY = 2
_EPOCH_LENGTH = 10.0
#: Live epoch boundaries to cross (the acceptance floor is 3).
_ROLLOVERS = 3
_EVENTS_PER_EPOCH = 8
_RENEW_LEAD = 2.0


@dataclass(frozen=True)
class RekeyChaosConfig:
    """Knobs for one churn run."""

    seed: int = 7
    #: Subscribers that stay for the whole run.
    survivors: int = 3
    grace: float = 1.0


@dataclass
class SubscriberOutcome:
    """Per-principal tallies, keyed by the tranche tag of each open."""

    subscriber_id: str
    opened_by_tranche: dict[int, int] = field(default_factory=dict)
    unreadable: int = 0
    renewals: int = 0
    renewal_failures: int = 0
    renewals_denied: int = 0

    def opened_total(self) -> int:
        return sum(self.opened_by_tranche.values())


@dataclass
class RekeyChaosResult:
    """What one churn run produced."""

    rollovers_completed: int = 0
    epochs_announced: list[int] = field(default_factory=list)
    tranches: int = 0
    events_published: int = 0
    survivor_outcomes: list[SubscriberOutcome] = field(default_factory=list)
    victim: SubscriberOutcome | None = None
    joiner: SubscriberOutcome | None = None
    leaver: SubscriberOutcome | None = None
    #: Tranche index after which the victim was revoked (it legitimately
    #: opens tranches <= this).
    victim_last_authorized_tranche: int = 0
    joiner_first_tranche: int = 0
    leaver_last_tranche: int = 0
    #: Wall-clock seconds per rollover: REKEY broadcast -> every
    #: survivor's grant plane settled (renewed + re-registered).
    rollover_latencies_s: list[float] = field(default_factory=list)
    #: Wall-clock request->install seconds per granted renewal.
    grant_latencies_s: list[float] = field(default_factory=list)
    unacked_publications: int = 0
    #: The cluster's ``rekey_*``/``rtnet_*`` metrics; no part of ``==``.
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, compare=False, repr=False
    )

    # -- derived gates -------------------------------------------------------

    def unauthorized_opens(self) -> int:
        """Victim opens of events sealed after its revocation epoch."""
        if self.victim is None:
            return 0
        return sum(
            count
            for tranche, count in self.victim.opened_by_tranche.items()
            if tranche > self.victim_last_authorized_tranche
        )

    def survivor_delivery_ratio(self) -> float:
        expected = self.tranches * self.events_per_tranche
        if expected == 0 or not self.survivor_outcomes:
            return 1.0
        ratios = [
            outcome.opened_total() / expected
            for outcome in self.survivor_outcomes
        ]
        return min(ratios)

    events_per_tranche: int = 0


def run_rekey_chaos(config: RekeyChaosConfig) -> RekeyChaosResult:
    """Execute the churn choreography on a live loopback cluster."""
    rng = random.Random(config.seed)
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        TOPIC,
        CompositeKeySpace({"age": NumericKeySpace("age", 128)}),
        epoch_length=_EPOCH_LENGTH,
    )
    authority = TokenAuthority(kdc.master_key)
    policy = RenewalPolicy(lead=_RENEW_LEAD, grace=config.grace)
    result = RekeyChaosResult(events_per_tranche=_EVENTS_PER_EPOCH)
    registry = result.registry

    def schema_lookup(topic: str):
        return kdc.config_for(topic).schema

    full_range = Filter.numeric_range(TOPIC, "age", 0, 127)

    async def attach(cluster: ClusterLauncher, subscriber_id: str):
        channel = KdcChannel(
            f"{subscriber_id}-kdc", *cluster.kdc_address(), registry=registry
        )
        await channel.connect()
        subscriber = RtSubscriber(
            subscriber_id,
            *cluster.subscriber_address(),
            schema_lookup=schema_lookup,
            authority=authority,
            registry=registry,
            kdc_channel=channel,
            renewal=policy,
        )
        await subscriber.connect()
        return subscriber

    def outcome(subscriber: RtSubscriber) -> SubscriberOutcome:
        tally = SubscriberOutcome(subscriber.peer_id)
        for opened in subscriber.opened:
            tranche = int(opened.event["record"].split(".")[0][1:])
            tally.opened_by_tranche[tranche] = (
                tally.opened_by_tranche.get(tranche, 0) + 1
            )
        tally.unreadable = subscriber.unreadable
        stats = subscriber.renewal.stats
        tally.renewals = stats.renewals
        tally.renewal_failures = stats.renewal_failures
        tally.renewals_denied = stats.renewals_denied
        return tally

    async def scenario() -> None:
        async with ClusterLauncher(
            num_brokers=_NUM_BROKERS,
            arity=_ARITY,
            registry=registry,
            kdc=kdc,
        ) as cluster:
            # Epochs are staggered per topic; anchor the choreography on
            # the first full epoch after t=0.
            base = kdc.epoch_of(TOPIC, 0.0) + 1
            length = _EPOCH_LENGTH

            def mid(index: int) -> float:
                return kdc.epoch_start(TOPIC, base + index) + length / 2

            survivors = [
                await attach(cluster, f"survivor{index}")
                for index in range(config.survivors)
            ]
            victim = await attach(cluster, "victim")
            leaver = await attach(cluster, "leaver")
            start = mid(0)
            for subscriber in survivors + [victim, leaver]:
                subscriber.kdc_channel.advance(start)
                await subscriber.join(full_range, at_time=start)
            joiner = await attach(cluster, "joiner")

            publisher = RtPublisher(
                "press", *cluster.publisher_address(), kdc,
                authority=authority, registry=registry,
            )
            await publisher.connect()
            active = survivors + [victim, leaver]

            async def tranche(index: int) -> None:
                at_time = mid(index)
                for subscriber in active:
                    subscriber.kdc_channel.advance(at_time)
                for _ in range(_EVENTS_PER_EPOCH):
                    # The tranche tag rides inside the encrypted payload
                    # (routable attributes are tokenized away), so every
                    # successful open proves which epoch's keys worked.
                    await publisher.publish(
                        Event(
                            {
                                "topic": TOPIC,
                                "age": rng.randrange(128),
                                "record": (
                                    f"t{index}.r{result.events_published}"
                                ),
                            },
                            publisher="press",
                        ),
                        secret_attributes={"record"},
                        at_time=at_time,
                    )
                    result.events_published += 1
                await publisher.settle()
                for subscriber in active:
                    await subscriber.settle()
                result.tranches += 1

            # Tranche 0 flows to everyone; then the victim is revoked --
            # lazily, so nothing changes until its epoch lapses.
            await tranche(0)
            kdc.revoke(victim.peer_id, TOPIC)
            result.victim_last_authorized_tranche = 0

            for rollover in range(1, _ROLLOVERS + 1):
                boundary = kdc.epoch_start(TOPIC, base + rollover)
                announce_at = boundary - policy.lead / 2
                started = time.perf_counter()
                epoch = await cluster.kdc_server.roll_epoch(
                    TOPIC, announce_at
                )
                for subscriber in active:
                    await subscriber.settle_rekey()
                result.rollover_latencies_s.append(
                    time.perf_counter() - started
                )
                result.epochs_announced.append(epoch)
                result.rollovers_completed += 1

                if rollover == 1:
                    # Mid-stream admission: the joiner arrives with the
                    # new epoch already in force, so its first grant is
                    # anchored at the announced boundary.
                    joiner.kdc_channel.advance(announce_at)
                    await joiner.join(full_range, at_time=boundary)
                    active.append(joiner)
                    result.joiner_first_tranche = result.tranches
                if rollover == 2:
                    # Mid-stream withdrawal: the leaver walks away.
                    result.leaver_last_tranche = result.tranches - 1
                    await leaver.leave()
                    active.remove(leaver)

                await tranche(rollover)

            result.unacked_publications = publisher.unacked
            result.survivor_outcomes = [
                outcome(subscriber) for subscriber in survivors
            ]
            result.victim = outcome(victim)
            result.joiner = outcome(joiner)
            result.leaver = outcome(leaver)
            for subscriber in (
                survivors + [victim, leaver, joiner]
            ):
                result.grant_latencies_s.extend(
                    subscriber.kdc_channel.grant_latencies_s
                )
                await subscriber.kdc_channel.close()
                await subscriber.close()
            await publisher.close()

    asyncio.run(scenario())
    return result


def _rollovers(_config, result: RekeyChaosResult) -> str | None:
    if result.rollovers_completed < 3:
        return f"only {result.rollovers_completed} live rollovers (need >= 3)"
    return None


def _lazy_revocation(_config, result: RekeyChaosResult) -> str | None:
    problems = []
    unauthorized = result.unauthorized_opens()
    if unauthorized:
        problems.append(
            f"revoked subscriber opened {unauthorized} post-revocation "
            "events (lazy revocation must deny the next epoch)"
        )
    if result.victim is not None and result.victim.renewals_denied != 1:
        problems.append(
            "victim's boundary renewal was not denied exactly once "
            f"(got {result.victim.renewals_denied})"
        )
    return all_of(problems)


def _survivor_delivery(_config, result: RekeyChaosResult) -> str | None:
    problems = []
    ratio = result.survivor_delivery_ratio()
    if ratio < 0.99:
        problems.append(
            f"survivor delivery ratio {ratio:.4f} < 0.99 across rollovers"
        )
    for tally in result.survivor_outcomes:
        if tally.renewal_failures:
            problems.append(
                f"{tally.subscriber_id}: {tally.renewal_failures} renewal "
                "failures"
            )
        if tally.renewals_denied:
            problems.append(
                f"{tally.subscriber_id}: renewal denied without revocation"
            )
    return all_of(problems)


def _join_leave(_config, result: RekeyChaosResult) -> str | None:
    problems = []
    if result.joiner is not None:
        early = sum(
            count
            for tranche, count in result.joiner.opened_by_tranche.items()
            if tranche < result.joiner_first_tranche
        )
        expected = (
            (result.tranches - result.joiner_first_tranche)
            * result.events_per_tranche
        )
        if early:
            problems.append(f"joiner opened {early} pre-join events")
        if result.joiner.opened_total() != expected:
            problems.append(
                f"joiner opened {result.joiner.opened_total()} of "
                f"{expected} post-join events"
            )
    if result.leaver is not None:
        late = sum(
            count
            for tranche, count in result.leaver.opened_by_tranche.items()
            if tranche > result.leaver_last_tranche
        )
        if late:
            problems.append(f"leaver received {late} post-leave events")
    return all_of(problems)


def _acked(_config, result: RekeyChaosResult) -> str | None:
    if result.unacked_publications:
        return f"{result.unacked_publications} publications never acked"
    return None


def format_rekey_report(
    config: RekeyChaosConfig, result: RekeyChaosResult
) -> str:
    """Human-readable run summary for the chaos CLI."""
    lines = [
        "rekey churn: live rollover, renewal, and lazy revocation",
        f"  cluster            {_NUM_BROKERS} brokers, KDC endpoint "
        "hosted beside the tree",
        f"  epochs crossed     {result.rollovers_completed} "
        f"(announced: {result.epochs_announced})",
        f"  events published   {result.events_published} across "
        f"{result.tranches} tranches",
        f"  survivor delivery  {result.survivor_delivery_ratio():.4f} "
        "(min across survivors)",
        f"  unauthorized opens {result.unauthorized_opens()} "
        "(victim, post-revocation)",
    ]
    if result.victim is not None:
        lines.append(
            f"  victim             opened {result.victim.opened_total()} "
            f"(all in tranche <= {result.victim_last_authorized_tranche}), "
            f"{result.victim.unreadable} unreadable, "
            f"{result.victim.renewals_denied} renewal denied"
        )
    if result.joiner is not None:
        lines.append(
            f"  joiner             opened {result.joiner.opened_total()} "
            f"from tranche {result.joiner_first_tranche}"
        )
    if result.leaver is not None:
        lines.append(
            f"  leaver             opened {result.leaver.opened_total()} "
            f"through tranche {result.leaver_last_tranche}"
        )
    if result.rollover_latencies_s:
        worst = max(result.rollover_latencies_s)
        lines.append(
            f"  rollover latency   max {worst * 1000.0:.1f} ms "
            "(REKEY -> grant plane settled)"
        )
    if result.grant_latencies_s:
        ordered = sorted(result.grant_latencies_s)
        p50 = ordered[len(ordered) // 2]
        lines.append(
            f"  grant latency      p50 {p50 * 1000.0:.1f} ms over "
            f"{len(ordered)} grants"
        )
    return "\n".join(lines)


SCENARIO = Scenario(
    name="rekey",
    description="live membership churn over real sockets: epoch "
    "rollovers, in-band grant renewal, lazy revocation, mid-stream "
    "join/leave",
    configure=lambda args: RekeyChaosConfig(seed=args.seed, grace=args.grace),
    run=run_rekey_chaos,
    format=format_rekey_report,
    gates=(
        Gate("rollovers", _rollovers),
        Gate("lazy-revocation", _lazy_revocation),
        Gate("survivor-delivery", _survivor_delivery),
        Gate("join-leave", _join_leave),
        Gate("acked", _acked),
    ),
    snapshot=lambda result: result.registry.snapshot(),
)
