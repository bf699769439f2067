"""The timed overlay's publish surface: one event per call.

(The file keeps its name so the surviving cases keep their test ids;
the batch transport it was written for is gone.)
"""

import pytest

from repro.net.sim import Simulator
from repro.net.simnet import SimulatedPubSub
from repro.siena.events import Event
from repro.siena.filters import Filter


def _subscribed_network():
    sim = Simulator()
    net = SimulatedPubSub(sim, 3)
    net.attach_subscriber("s", net.leaf_ids()[0])
    net.subscribe("s", Filter.topic("t"))
    return sim, net


def test_single_event_publish_returns_its_seq():
    sim, net = _subscribed_network()
    seq = net.publish(Event({"topic": "t"}))
    assert isinstance(seq, int)
    sim.run(until=1.0)
    assert len(net.deliveries) == 1


def test_publish_refuses_a_list_of_events():
    """One event per call: a list is an error, not a silently tagged value."""
    _, net = _subscribed_network()
    with pytest.raises(TypeError):
        net.publish([Event({"topic": "t"}), Event({"topic": "t"})])
    assert net.deliveries == []
