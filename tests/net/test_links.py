"""Latency links."""

import pytest

from repro.net.links import Link
from repro.net.sim import Simulator


def test_delivery_after_latency():
    sim = Simulator()
    link = Link(sim, latency=0.075)
    arrivals = []
    link.send(100, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [0.075]


def test_transfer_time_without_bandwidth():
    sim = Simulator()
    link = Link(sim, latency=0.02)
    arrivals = []
    link.send(10_000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [0.02]


def test_stats_accumulate():
    sim = Simulator()
    link = Link(sim, latency=0.01)
    link.send(100, lambda: None)
    link.send(200, lambda: None)
    assert link.stats.messages == 2
    assert link.stats.bytes == 300


def test_messages_can_overlap_in_flight():
    """A latency link is a pipe, not a server: sends don't queue."""
    sim = Simulator()
    link = Link(sim, latency=1.0)
    arrivals = []
    link.send(1, lambda: arrivals.append(sim.now))
    sim.schedule(0.5, lambda: link.send(1, lambda: arrivals.append(sim.now)))
    sim.run()
    assert arrivals == [1.0, 1.5]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        Link(Simulator(), latency=-1.0)
