"""The reliable at-least-once delivery stack of the timed overlay."""

import pytest

from repro.net.faults import BrokerCrash, FaultInjector, FaultPlan, LinkFault
from repro.net.sim import Simulator
from repro.net.simnet import RetryPolicy, SimulatedPubSub
from repro.siena.events import Event
from repro.siena.filters import Filter


def _overlay(reliability=None, plan=None, num_brokers=7, seed=0):
    sim = Simulator()
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, plan, seed=seed + 1)
    net = SimulatedPubSub(
        sim,
        num_brokers,
        arity=2,
        reliability=reliability,
        faults=injector,
        seed=seed,
    )
    if injector is not None:
        injector.install()
    for index, leaf in enumerate(net.leaf_ids()):
        subscriber = f"s{index}"
        net.attach_subscriber(subscriber, leaf)
        net.subscribe(subscriber, Filter.topic("t"))
    return sim, net


def _publish_window(net, events, rate=50.0):
    for k in range(events):
        net.publish(Event({"topic": "t", "k": k}), delay=k / rate)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(heartbeat_jitter=1.0)


def test_reliable_without_faults_matches_fire_and_forget():
    sim_a, plain = _overlay()
    _publish_window(plain, 20)
    sim_a.run()
    sim_b, reliable = _overlay(reliability=RetryPolicy())
    _publish_window(reliable, 20)
    sim_b.run(until=2.0)
    plain_trace = {(d.seq, d.subscriber_id) for d in plain.deliveries}
    reliable_trace = {(d.seq, d.subscriber_id) for d in reliable.deliveries}
    assert reliable_trace == plain_trace
    assert reliable.rstats.dead_letters == 0
    assert reliable.rstats.retries == 0
    assert reliable.rstats.duplicate_deliveries == 0


def test_link_loss_drops_fire_and_forget_but_not_reliable():
    plan = FaultPlan(link_faults=[LinkFault(loss=0.2)])
    sim_a, plain = _overlay(plan=plan, seed=5)
    _publish_window(plain, 40)
    sim_a.run()
    expected = 40 * len(plain.leaf_ids())
    assert len(plain.deliveries) < expected

    sim_b, reliable = _overlay(
        reliability=RetryPolicy(), plan=plan, seed=5
    )
    _publish_window(reliable, 40)
    sim_b.run(until=8.0)
    assert reliable.rstats.dead_letters == 0
    assert len(reliable.deliveries) == expected
    # Lost acks forced retransmissions; dedup swallowed every duplicate.
    assert reliable.rstats.retries > 0
    assert reliable.rstats.duplicates_suppressed > 0
    assert reliable.rstats.duplicate_deliveries == 0


def test_retry_budget_dead_letters_on_partition():
    # Broker 6 is a leaf; its uplink (2 -- 6) partitions forever, so every
    # attempt is lost and the budget runs out -- before a slow failure
    # detector would mark 6 down and park the traffic instead.
    plan = FaultPlan(link_faults=[LinkFault(2, 6, partitioned=True)])
    policy = RetryPolicy(heartbeat_interval=5.0)
    sim, net = _overlay(reliability=policy, plan=plan)
    _publish_window(net, 5)
    sim.run(until=8.0)
    assert net.rstats.dead_letters == 5
    assert sorted(seq for seq, _, _ in net.dead_letters) == list(range(5))
    assert all(
        (source, target) == (2, 6) for _, source, target in net.dead_letters
    )


def test_crash_detection_parking_and_recovery():
    # A long mid-run outage of broker 1 (an interior broker): the
    # detector must notice, park traffic, and flush after the restart.
    plan = FaultPlan(crashes=[BrokerCrash(1, at=0.5, duration=1.5)])
    policy = RetryPolicy(heartbeat_interval=0.1)
    sim, net = _overlay(reliability=policy, plan=plan)
    _publish_window(net, 60, rate=30.0)
    sim.run(until=6.0)
    stats = net.rstats
    assert stats.failures_detected > 0
    assert stats.recoveries_detected > 0
    assert stats.parked > 0
    assert stats.parked_flushes > 0
    assert stats.subscriptions_replayed > 0
    assert min(stats.detection_latencies) > 0
    assert min(stats.recovery_latencies) >= 0
    # At-least-once across the outage: everything is delivered exactly
    # once in the end, including events published while broker 1 was down.
    expected = 60 * len(net.leaf_ids())
    assert len(net.deliveries) == expected
    assert stats.duplicate_deliveries == 0


def test_fire_and_forget_loses_subscriptions_across_restart():
    plan = FaultPlan(crashes=[BrokerCrash(1, at=0.5, duration=0.3)])
    sim, net = _overlay(plan=plan)
    _publish_window(net, 60, rate=30.0)
    sim.run()
    expected = 60 * len(net.leaf_ids())
    # The restarted broker never recovers its routing state without the
    # reliability stack, so its subtree stays dark.
    assert len(net.deliveries) < 0.8 * expected


def test_restarted_broker_replays_client_subscriptions():
    # Broker 5 is a leaf with a locally attached subscriber; after its
    # restart the client re-subscribes and deliveries resume.
    plan = FaultPlan(crashes=[BrokerCrash(5, at=0.4, duration=0.4)])
    sim, net = _overlay(reliability=RetryPolicy(heartbeat_interval=0.1),
                        plan=plan)
    _publish_window(net, 40, rate=20.0)
    sim.run(until=6.0)
    home = {v: k for k, v in net._subscriber_home.items()}
    subscriber = home[5]
    delivered_to = [d for d in net.deliveries if d.subscriber_id == subscriber]
    assert len(delivered_to) == 40
