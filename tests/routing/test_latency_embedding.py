"""Embedding invariants for the multipath latency measurement."""

import pytest

from repro.routing.latency import EmbeddedMultipathNetwork
from repro.topology.multipath import MultipathNetwork


def test_every_overlay_node_gets_a_distinct_placement():
    network = MultipathNetwork(depth=2, arity=4, ind=4)
    embedded = EmbeddedMultipathNetwork(network)
    expected = len(list(network.brokers())) + len(network.subscribers())
    assert len(embedded.placement) == expected
    assert len(set(embedded.placement.values())) == expected


def test_latency_positive_and_symmetric_inputs():
    network = MultipathNetwork(depth=2, arity=2, ind=2)
    embedded = EmbeddedMultipathNetwork(network)
    subscriber = network.subscribers()[0]
    forward = embedded.path_latency(network.tree_path(subscriber))
    assert forward > 0
    reverse = embedded.path_latency(
        list(reversed(network.tree_path(subscriber)))
    )
    assert reverse == pytest.approx(forward)


def test_shifted_paths_have_comparable_latency():
    """Different but equal-hop paths should differ only by link draws."""
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    embedded = EmbeddedMultipathNetwork(network)
    subscriber = network.subscribers()[0]
    latencies = [
        embedded.path_latency(path)
        for path in network.independent_paths(subscriber)
    ]
    assert len(latencies) == 5
    # All latencies are in the same WAN ballpark: no path is free, none
    # is an order of magnitude dearer.
    assert max(latencies) < 10 * min(latencies)


def test_processing_cost_scales_with_hops():
    network = MultipathNetwork(depth=3, arity=2, ind=2)
    embedded = EmbeddedMultipathNetwork(network, seed=3)
    path = network.tree_path(network.subscribers()[0])
    # Links and per-hop processing both add up hop by hop.
    assert embedded.path_latency(path) == pytest.approx(sum(
        embedded.path_latency([source, target])
        for source, target in zip(path, path[1:])
    ))
