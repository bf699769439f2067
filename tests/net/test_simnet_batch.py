"""Batched publication over the timed overlay.

A batch rides each broker-broker hop as ONE wire message on the
fire-and-forget transport; with the reliable stack active it splits into
per-event acknowledged transmissions so at-least-once semantics are
untouched.
"""

import pytest

from repro.net.faults import FaultInjector, FaultPlan, LinkFault
from repro.net.sim import Simulator
from repro.net.simnet import RetryPolicy, SimulatedPubSub
from repro.siena.events import Event
from repro.siena.filters import Filter


def _network(num_brokers=3, **kwargs):
    sim = Simulator()
    net = SimulatedPubSub(sim, num_brokers, **kwargs)
    return sim, net


def _events(count, topic="t"):
    return [Event({"topic": topic, "n": n}) for n in range(count)]


def test_batch_delivers_same_events_as_per_event_publishing():
    outcomes = []
    for batched in (False, True):
        sim, net = _network(7)
        leaves = net.leaf_ids()
        net.attach_subscriber("yes", leaves[0])
        net.attach_subscriber("no", leaves[1])
        net.subscribe("yes", Filter.topic("t"))
        net.subscribe("no", Filter.topic("other"))
        events = _events(5)
        if batched:
            net.publish(events)
        else:
            for event in events:
                net.publish(event)
        sim.run(until=1.0)
        outcomes.append(
            sorted((d.subscriber_id, d.seq) for d in net.deliveries)
        )
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[1]) == 5  # all to "yes", none to "no"


def test_batch_hop_is_one_wire_message():
    sim, net = _network(3)
    net.attach_subscriber("s", net.leaf_ids()[0])
    net.subscribe("s", Filter.topic("t"))
    net.publish(_events(8))
    sim.run(until=1.0)
    assert len(net.deliveries) == 8
    # One batched send root->leaf instead of eight per-event sends.
    assert net.rstats.batch_sends == 1
    assert net.rstats.data_sends == 1


def test_batch_uses_fewer_sends_than_per_event():
    sends = {}
    for batched in (False, True):
        sim, net = _network(7)
        for index, leaf in enumerate(net.leaf_ids()):
            net.attach_subscriber(f"s{index}", leaf)
            net.subscribe(f"s{index}", Filter.topic("t"))
        if batched:
            net.publish(_events(10))
        else:
            for event in _events(10):
                net.publish(event)
        sim.run(until=1.0)
        assert len(net.deliveries) == 40
        sends[batched] = net.rstats.data_sends
    assert sends[True] < sends[False]


def test_batch_latency_matches_link_budget():
    sim, net = _network(3, link_latency=0.050, client_latency=0.005)
    net.attach_subscriber("s", net.leaf_ids()[0])
    net.subscribe("s", Filter.topic("t"))
    net.publish(_events(3), delay=0.25)
    sim.run(until=1.0)
    assert len(net.deliveries) == 3
    for record in net.deliveries:
        assert record.published_at == pytest.approx(0.25)
        # root -> leaf link + client link, same as the per-event path.
        assert record.latency == pytest.approx(0.055)


def test_reliable_overlay_splits_batches_per_event():
    sim, net = _network(3, reliability=RetryPolicy())
    net.attach_subscriber("s", net.leaf_ids()[0])
    net.subscribe("s", Filter.topic("t"))
    net.publish(_events(4))
    sim.run(until=2.0)
    assert len(net.deliveries) == 4
    # Acks are per sequence number, so no batched wire messages appear.
    assert net.rstats.batch_sends == 0
    assert net.rstats.data_sends >= 4
    assert net.rstats.acks_sent >= 4


def test_reliable_batch_survives_lossy_link():
    """At-least-once holds for batch-published events under loss."""
    sim = Simulator()
    plan = FaultPlan(link_faults=[LinkFault(0, 1, loss=0.4)])
    net = SimulatedPubSub(
        sim,
        3,
        reliability=RetryPolicy(ack_timeout=0.05, jitter=0.0),
        faults=FaultInjector(sim, plan, seed=5),
        seed=5,
    )
    net.attach_subscriber("s", 1)
    net.subscribe("s", Filter.topic("t"))
    net.publish(_events(6))
    sim.run(until=5.0)
    delivered = {d.seq for d in net.deliveries}
    assert len(delivered) == 6
    assert net.rstats.retries > 0


def test_batch_carriers_ride_along():
    sim, net = _network(1)
    net.attach_subscriber("s", 0)
    net.subscribe("s", Filter.topic("t"))
    carriers = [{"sealed": n} for n in range(3)]
    seqs = net.publish(_events(3), carrier=carriers)
    assert [net.carrier_of(seq) for seq in seqs] == carriers


def test_batch_rejects_mismatched_parallel_lists():
    _, net = _network(1)
    with pytest.raises(ValueError):
        net.publish(_events(2), carrier=[None])
    with pytest.raises(ValueError):
        net.publish(_events(2), size=[10])


def _subscribed_network():
    sim, net = _network(3)
    net.attach_subscriber("s", net.leaf_ids()[0])
    net.subscribe("s", Filter.topic("t"))
    return sim, net


def test_timed_broker_tree_is_the_simulated_pubsub():
    from repro.net import TimedBrokerTree

    assert TimedBrokerTree is SimulatedPubSub


def test_single_event_publish_returns_its_seq():
    sim, net = _subscribed_network()
    seq = net.publish(Event({"topic": "t"}))
    assert isinstance(seq, int)
    sim.run(until=1.0)
    assert len(net.deliveries) == 1


def test_batch_publish_returns_a_seq_per_event():
    sim, net = _subscribed_network()
    seqs = net.publish(_events(3))
    assert isinstance(seqs, list) and len(seqs) == 3
    sim.run(until=1.0)
    assert len(net.deliveries) == 3


def test_at_time_schedules_at_an_absolute_instant():
    sim, net = _subscribed_network()
    net.publish(Event({"topic": "t"}), at_time=1.5)
    sim.run(until=3.0)
    assert len(net.deliveries) == 1
    assert net.deliveries[0].published_at >= 1.5


def test_delay_and_at_time_conflict():
    _, net = _subscribed_network()
    with pytest.raises(ValueError):
        net.publish(Event({"topic": "t"}), delay=1.0, at_time=2.0)
