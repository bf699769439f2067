"""Tree repair on the live overlay: adoption, re-homing, salvage.

Every test drives a real :class:`SimulatedPubSub` (seeded, deterministic)
with permanent :class:`BrokerCrash` faults and asserts on the repair
coordinator's records plus the delivery stream -- not on internals of the
surgery.  Fast heartbeats (0.1s) keep detection ~0.3-0.4s so a whole
scenario fits in a few simulated seconds.
"""

import math

import pytest

from repro.net.faults import (
    BrokerCrash,
    FaultInjector,
    FaultPlan,
    LinkFault,
    PartitionFault,
)
from repro.net.sim import Simulator
from repro.net.simnet import RetryPolicy, SimulatedPubSub
from repro.obs import Observability
from repro.recovery import JournalStore, RepairPolicy
from repro.siena.events import Event
from repro.siena.filters import Filter

_RETRY = RetryPolicy(heartbeat_interval=0.1)


def _overlay(plan, num_brokers=15, repair_after=0.3, journals=True, seed=5):
    obs = Observability()
    sim = Simulator()
    injector = FaultInjector(sim, plan, seed=seed)
    net = SimulatedPubSub(
        sim,
        num_brokers,
        arity=2,
        reliability=RetryPolicy(**vars(_RETRY)),
        faults=injector,
        seed=seed + 1,
        obs=obs,
        journals=JournalStore(registry=obs.registry) if journals else None,
        repair=RepairPolicy(repair_after=repair_after),
        dedup_window=1024,
    )
    injector.install()
    return sim, net


def _subscribe_leaves(net, topic="t"):
    subscription = Filter.topic(topic)
    subscribers = []
    for index, leaf in enumerate(net.leaf_ids()):
        subscriber_id = f"sub{index}"
        net.attach_subscriber(subscriber_id, leaf)
        net.subscribe(subscriber_id, subscription)
        subscribers.append(subscriber_id)
    return subscribers


def _publish(net, count, rate=40.0, topic="t"):
    for k in range(count):
        net.publish(Event({"topic": topic, "k": k}), delay=k / rate)


def test_permanent_kill_reparents_orphans_to_live_ancestor():
    plan = FaultPlan(crashes=[BrokerCrash(1, at=0.8)])  # never restarts
    sim, net = _overlay(plan)
    subscribers = _subscribe_leaves(net)
    _publish(net, 120, rate=40.0)  # 3s of publishing
    sim.run(until=6.0)
    (record,) = net.repair.records
    assert record.dead == 1
    assert record.adopter == 0  # the root is broker 1's parent
    assert record.orphans == 2  # children 3 and 4 adopted
    assert record.converged
    # The orphans now hang off the adopter and routing reconverged:
    assert net.brokers[3].parent == 0 and net.brokers[4].parent == 0
    assert 3 in net.brokers[0].children and 4 in net.brokers[0].children
    # Every subscriber saw every event, exactly once.
    assert len(net.deliveries) == 120 * len(subscribers)
    keys = [(d.seq, d.subscriber_id) for d in net.deliveries]
    assert len(keys) == len(set(keys))


def test_repair_rehomes_clients_of_the_dead_broker():
    plan = FaultPlan(crashes=[BrokerCrash(1, at=0.8)])
    sim, net = _overlay(plan)
    net.attach_subscriber("edge", 1)  # directly on the doomed broker
    net.subscribe("edge", Filter.topic("t"))
    _publish(net, 120, rate=40.0)
    sim.run(until=6.0)
    (record,) = net.repair.records
    assert record.clients_rehomed == 1
    assert net.rstats.failures_detected >= 1
    # The re-homed client keeps receiving events published well after
    # the crash, through the adopter.
    late = [
        d for d in net.deliveries
        if d.subscriber_id == "edge" and d.published_at > 2.0
    ]
    assert late
    keys = [(d.seq, d.subscriber_id) for d in net.deliveries]
    assert len(keys) == len(set(keys))


def test_repair_without_live_ancestor_is_recorded_as_failed():
    # Root and broker 1 both die: broker 1's ancestor chain is dead, so
    # its repair cannot find an adopter.
    plan = FaultPlan(
        crashes=[BrokerCrash(0, at=0.5), BrokerCrash(1, at=0.5)]
    )
    sim, net = _overlay(plan)
    _subscribe_leaves(net)
    sim.run(until=4.0)
    failed = [r for r in net.repair.records if not r.converged]
    assert failed
    assert all(record.adopter is None for record in failed)
    assert not net.repair.converged()
    assert net.registry.total("recovery_failed_total") >= 1


def test_partitioned_live_broker_is_never_excised():
    # Subtree (1, 3, 4) is partitioned off for 1.5s -- long enough for
    # the repair timer -- but everyone stays alive.
    plan = FaultPlan(
        partitions=[PartitionFault(group=(1, 3, 4), start=0.5, duration=1.5)]
    )
    sim, net = _overlay(plan, num_brokers=7)
    subscribers = _subscribe_leaves(net)
    _publish(net, 120, rate=40.0)
    sim.run(until=7.0)
    assert net.repair.false_alarms >= 1
    assert net.repair.records == []  # probe refused the surgery
    assert net.brokers[1].parent == 0  # topology untouched
    assert net.brokers[1].alive
    # Parked traffic flushed once the partition healed: full delivery.
    assert len(net.deliveries) == 120 * len(subscribers)
    keys = [(d.seq, d.subscriber_id) for d in net.deliveries]
    assert len(keys) == len(set(keys))


def test_convergence_time_measured_from_the_crash_instant():
    plan = FaultPlan(crashes=[BrokerCrash(6, at=1.0)])
    sim, net = _overlay(plan)
    _subscribe_leaves(net)
    _publish(net, 80, rate=40.0)
    sim.run(until=6.0)
    (record,) = net.repair.records
    assert record.crash_at == pytest.approx(1.0)
    assert record.completed_at > record.detected_at > record.crash_at
    assert record.convergence_time == pytest.approx(
        record.completed_at - 1.0
    )
    # Detection (~0.3-0.4s) + repair_after (0.3s) bound the latency.
    assert 0.3 < record.convergence_time < 2.0
    assert net.repair.max_convergence_time() == record.convergence_time
    assert math.isfinite(net.repair.max_convergence_time())
    series = net.registry.series("recovery_convergence_seconds")
    assert series and series[0].count == 1


def test_salvage_replays_journaled_inflight_through_the_adopter():
    plan = FaultPlan(crashes=[BrokerCrash(1, at=1.0)])
    sim, net = _overlay(plan)
    subscribers = _subscribe_leaves(net)
    _publish(net, 120, rate=60.0)  # 2s of publishing across the crash
    sim.run(until=6.0)
    (record,) = net.repair.records
    assert record.converged
    # Whatever was caught inside broker 1 came back via its journal; the
    # dedup layers kept the replays invisible end to end.
    assert record.inflight_replayed == net.rstats.events_salvaged
    assert len(net.deliveries) == 120 * len(subscribers)
    keys = [(d.seq, d.subscriber_id) for d in net.deliveries]
    assert len(keys) == len(set(keys))


def _routing_state(broker):
    table = {
        entry.filter: set(entry.interfaces)
        for entry in broker.subscriptions.values()
    }
    return table, list(broker.forwarded_upstream)


@pytest.mark.parametrize("link_faults, salvages", [
    ([], False),
    # Broker 1's link to child 3 is cut just before the crash, so what it
    # had accepted for 3 is still unacked in its WAL when it goes down.
    ([LinkFault(1, 3, start=1.0, duration=0.1, partitioned=True)], True),
])
def test_restarted_broker_restores_routing_from_its_journal(
    link_faults, salvages
):
    # A transient crash, shorter than the repair timer: the broker comes
    # back on its own disk (crash -> restart -> JournalStore.replay() ->
    # Broker.restore() -> _replay_inflight) and nobody excises it.
    plan = FaultPlan(
        crashes=[BrokerCrash(1, at=1.05, duration=0.2)],
        link_faults=link_faults,
    )
    sim, net = _overlay(plan)
    subscribers = _subscribe_leaves(net)
    before = []
    sim.schedule(0.9, lambda: before.append(_routing_state(net.brokers[1])))
    _publish(net, 100, rate=40.0)  # 2.5s of publishing across the outage
    sim.run(until=6.0)
    assert net.rstats.journal_restores == 1
    assert net.brokers[1].incarnation == 1
    assert _routing_state(net.brokers[1]) == before[0]
    assert net.repair.records == []
    assert (net.rstats.events_salvaged > 0) == salvages
    # Every event reached every leaf exactly once.
    assert len(net.deliveries) == 100 * len(subscribers)
    keys = [(d.seq, d.subscriber_id) for d in net.deliveries]
    assert len(keys) == len(set(keys))


def test_repair_requires_the_reliable_stack():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimulatedPubSub(
            sim, 7, reliability=None, repair=RepairPolicy()
        )


def test_repair_policy_validates():
    with pytest.raises(ValueError):
        RepairPolicy(repair_after=0.0)
