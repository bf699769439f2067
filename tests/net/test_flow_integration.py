"""Overload protection threaded through the timed overlay.

These drive :class:`SimulatedPubSub` with a flow policy under real
overload (offered rate above the root broker's service capacity) and
check the tentpole invariants end to end: bounded queues, protected
high-priority delivery, credit conservation, and backpressure against a
slowed-down interior broker.
"""

import pytest

from repro.flow import (
    BEST_EFFORT,
    HIGH,
    FlowControlPolicy,
    with_priority,
)
from repro.net.faults import (
    BrokerCrash,
    BrokerSlowdown,
    FaultInjector,
    FaultPlan,
    LinkFault,
)
from repro.net.sim import Simulator
from repro.net.simnet import RetryPolicy, SimulatedPubSub
from repro.siena.events import Event
from repro.siena.filters import Filter


def _overlay(sim, flow, reliable=False, faults=None, broker_cost=0.001,
             num_brokers=3):
    net = SimulatedPubSub(
        sim,
        num_brokers=num_brokers,
        arity=2,
        link_latency=0.002,
        client_latency=0.0005,
        broker_cost=lambda _b, _e: broker_cost,
        reliability=RetryPolicy(heartbeat_interval=0.5) if reliable else None,
        faults=faults,
        flow=flow,
        seed=3,
    )
    for index, leaf in enumerate(net.leaf_ids()):
        subscriber = f"s{index}"
        net.attach_subscriber(subscriber, leaf)
        net.subscribe(subscriber, Filter.topic("t"))
    return net


def _storm(net, events=120, interval=0.0002, high_every=10):
    """Publish a storm well above the 1/broker_cost capacity."""
    high_seqs, low_seqs = [], []
    for k in range(events):
        event = Event({"topic": "t", "k": k})
        if k % high_every == 0:
            seq = net.publish(with_priority(event, HIGH), delay=k * interval)
            high_seqs.append(seq)
        else:
            seq = net.publish(
                with_priority(event, BEST_EFFORT), delay=k * interval
            )
            low_seqs.append(seq)
    return high_seqs, low_seqs


def _delivered_seqs(net):
    return {record.seq for record in net.deliveries}


def test_queues_stay_bounded_and_high_priority_survives_storm():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=4)
    net = _overlay(sim, policy)
    high_seqs, low_seqs = _storm(net)
    sim.run(until=5.0)

    capacity = policy.queue_capacity
    assert net.flow_peak_depths(), "flow state should exist"
    assert all(
        depth <= capacity for depth in net.flow_peak_depths().values()
    )
    assert all(
        depth <= capacity
        for depth in net.flow_egress_peak_depths().values()
    )
    # The CPU backlog collapsed into the explicit bounded queue: the
    # pump keeps at most one data job (plus completion) outstanding.
    assert net.nodes[0].stats.peak_backlog <= 4

    delivered = _delivered_seqs(net)
    # Every high-priority event reached both subscribers.
    for seq in high_seqs:
        assert seq in delivered
    high_deliveries = [
        r for r in net.deliveries if r.seq in set(high_seqs)
    ]
    assert len(high_deliveries) == 2 * len(high_seqs)
    # The storm genuinely overloaded the overlay: best-effort was shed.
    assert net.shed_events > 0
    assert not all(seq in delivered for seq in low_seqs)


def test_no_credit_leak_after_storm():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=4)
    net = _overlay(sim, policy)
    _storm(net)
    sim.run(until=5.0)
    for (from_id, to_id), lf in net._link_flow.items():
        assert lf.gate.available == lf.gate.window, (
            f"link {from_id}->{to_id} leaked "
            f"{lf.gate.window - lf.gate.available} credits"
        )
    assert not net._credit_held


def test_post_storm_recovery_to_steady_state():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=4)
    net = _overlay(sim, policy)
    _storm(net, events=100)
    sim.run(until=3.0)
    # Queues drained after the storm.
    assert all(depth == 0 for depth in _live_depths(net))
    # Steady-state traffic (below capacity) now delivers fully: the
    # breaker probes half-open on the first admit and closes once the
    # queue stays at the low watermark.
    seqs = [
        net.publish(
            with_priority(Event({"topic": "t", "k": 1000 + k}), BEST_EFFORT),
            delay=k * 0.005,
        )
        for k in range(50)
    ]
    sim.run(until=6.0)
    delivered = _delivered_seqs(net)
    assert all(seq in delivered for seq in seqs)
    assert net.breaker_state(0) == "closed"


def _live_depths(net):
    return [len(bf.ingress) for bf in net._broker_flow.values()]


def test_slow_broker_backpressures_instead_of_queueing():
    sim = Simulator()
    plan = FaultPlan(
        slowdowns=[BrokerSlowdown(broker=1, start=0.0, factor=8.0)]
    )
    injector = FaultInjector(sim, plan, seed=1)
    policy = FlowControlPolicy(queue_capacity=8, credit_window=4)
    net = _overlay(sim, policy, faults=injector, broker_cost=0.0005)
    injector.install()
    high_seqs, _low = _storm(net, events=100, interval=0.001)
    sim.run(until=5.0)
    stalls, stall_seconds = net.flow_credit_stalls()
    # The root ran out of credits toward the slow child and stalled.
    assert stalls > 0
    assert stall_seconds > 0.0
    assert all(
        depth <= policy.queue_capacity
        for depth in net.flow_peak_depths().values()
    )
    # High-priority delivery still complete on the healthy subtree and
    # the slow one (strict priority service + per-link credits).
    delivered = _delivered_seqs(net)
    assert all(seq in delivered for seq in high_seqs)


def test_reliable_stack_composes_with_flow():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=16, credit_window=8)
    net = _overlay(sim, policy, reliable=True)
    high_seqs, low_seqs = _storm(net, events=60, interval=0.0005)
    sim.run(until=5.0)
    delivered = _delivered_seqs(net)
    assert all(seq in delivered for seq in high_seqs)
    assert all(
        depth <= policy.queue_capacity
        for depth in net.flow_peak_depths().values()
    )
    # Acks + dedup + credits settle: nothing left holding a credit.
    assert not net._credit_held
    # No duplicate deliveries sneak in via retries under flow control.
    keys = [(r.seq, r.subscriber_id) for r in net.deliveries]
    assert len(keys) == len(set(keys))


def test_reliable_stack_with_flow_survives_a_mid_storm_crash():
    """The hop bookkeeping both transports share, entered under
    reliability: a slowed leaf crashes with hop messages queued at its
    ingress, and after the restart the retries of what it lost (sent
    without a fresh credit) overflow that ingress on top of new sends."""
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=8)
    plan = FaultPlan(
        crashes=[BrokerCrash(1, at=0.02, duration=0.05)],
        slowdowns=[BrokerSlowdown(1, factor=8.0)],
    )
    injector = FaultInjector(sim, plan, seed=1)
    net = _overlay(sim, policy, reliable=True, faults=injector)
    injector.install()
    sheds, forgotten = [], []
    net.on_shed(lambda _priority, stage, broker: sheds.append((stage, broker)))
    forget = net._forget_queued_hop
    net._forget_queued_hop = lambda key: (forgotten.append(key), forget(key))
    high_seqs, _low_seqs = _storm(net, events=200, interval=0.0005)
    sim.run(until=8.0)
    # Both ways a queued hop message goes unserved happened at broker 1:
    # shed at ingress, and dropped with the crashed broker's queue.
    ingress_sheds = sheds.count(("ingress", 1))
    assert ingress_sheds > 0
    assert len(forgotten) > ingress_sheds
    assert all(key[1] == 1 for key in forgotten)
    # Nothing leaked: every credit returned, no hop still marked queued.
    assert not net._credit_held
    assert not net._hop_queued
    assert all(
        lf.gate.available == policy.credit_window
        for lf in net._link_flow.values()
    )
    assert max(net.flow_peak_depths().values()) <= policy.queue_capacity
    # The healthy leaf was never starved, and no retry surfaced twice.
    delivered_to_s1 = {
        r.seq for r in net.deliveries if r.subscriber_id == "s1"
    }
    assert all(seq in delivered_to_s1 for seq in high_seqs)
    keys = [(r.seq, r.subscriber_id) for r in net.deliveries]
    assert len(keys) == len(set(keys))


def test_crashed_sender_gives_back_the_credits_of_its_unacked_hops():
    """A crashed broker retransmits nothing, so a hop message the lossy
    link swallowed is never acked: the credit it held must come back with
    the sender's death, or the link's window shrinks for good."""
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=8)
    plan = FaultPlan(
        crashes=[BrokerCrash(1, at=0.02, duration=0.3)],
        link_faults=[LinkFault(loss=0.3)],
    )
    injector = FaultInjector(sim, plan, seed=1)
    net = _overlay(sim, policy, reliable=True, faults=injector, num_brokers=7)
    injector.install()
    _storm(net, events=100, interval=0.001)
    sim.run(until=10.0)
    assert net.registry.total("net_link_drops_total") > 0
    assert not net._credit_held
    assert all(
        lf.gate.available == policy.credit_window
        for lf in net._link_flow.values()
    )


def test_crashed_sender_puts_nothing_on_the_wire():
    """A broker that crashes with sends still waiting for credits at its
    egress must not make them when the credits come back."""
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=2)
    crash_at = 0.05
    plan = FaultPlan(
        crashes=[BrokerCrash(1, at=crash_at, duration=1.0)],
        # Slow leaves below broker 1 keep its egress backed up.
        slowdowns=[
            BrokerSlowdown(broker=leaf, start=0.0, duration=1.0, factor=8.0)
            for leaf in (3, 4)
        ],
    )
    injector = FaultInjector(sim, plan, seed=1)
    net = _overlay(sim, policy, faults=injector, num_brokers=7)
    injector.install()
    _storm(net, events=60, interval=0.0005)
    outgoing = [net.links[(1, leaf)] for leaf in (3, 4)]
    at_crash = []
    sim.schedule(
        crash_at,
        lambda: at_crash.extend(link.stats.messages for link in outgoing),
    )
    sim.run(until=0.9)  # the dead broker's children drain meanwhile
    assert sum(at_crash) > 0
    assert [link.stats.messages for link in outgoing] == at_crash
    assert all(len(lf.egress) == 0 for (sender, _), lf
               in net._link_flow.items() if sender == 1)


def test_shed_listener_sees_admission_overload():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=4, credit_window=2)
    net = _overlay(sim, policy)
    sheds = []
    net.on_shed(lambda priority, stage, broker: sheds.append(stage))
    _storm(net, events=80)
    sim.run(until=3.0)
    assert sheds, "storm should trigger shed notifications"
    assert net.shed_events == len(sheds)


def test_per_priority_delivery_histograms_emitted():
    sim = Simulator()
    policy = FlowControlPolicy(queue_capacity=8, credit_window=4)
    net = _overlay(sim, policy)
    _storm(net, events=40, interval=0.002)  # below capacity: no sheds
    sim.run(until=3.0)
    high = net.registry.get(
        "net_delivery_latency_seconds", priority="high"
    )
    best = net.registry.get(
        "net_delivery_latency_seconds", priority="best-effort"
    )
    assert high is not None and high.count > 0
    assert best is not None and best.count > 0


def test_parked_buffer_is_deque_with_oldest_first_eviction(monkeypatch):
    """Satellite: the bounded retransmit parking buffer must evict its
    oldest entry in O(1) (a deque, not a list with pop(0))."""
    from collections import deque

    from repro.net import simnet

    monkeypatch.setattr(simnet, "_PARK_LIMIT", 5)
    sim = Simulator()
    net = SimulatedPubSub(
        sim,
        num_brokers=3,
        reliability=RetryPolicy(),
        seed=0,
    )
    net._neighbor_down.add((0, 1))
    for k in range(9):
        event = Event({"topic": "t", "k": k}).with_attributes(_seq=k)
        net._park(0, 1, k, event)
    queue = net._parked[(0, 1)]
    assert isinstance(queue, deque)
    assert len(queue) == 5
    # Oldest entries (0..3) were evicted; 4..8 remain in order.
    assert [seq for seq, _ in queue] == [4, 5, 6, 7, 8]
    assert net.rstats.parked == 9
    assert net.rstats.retx_evicted == 4
