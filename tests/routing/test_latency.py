"""Multi-path routing latency accounting."""

import pytest

from repro.routing.latency import (
    EmbeddedMultipathNetwork,
    compare_latency_across_ind,
)
from repro.routing.multipath import ProbabilisticRouter
from repro.topology.multipath import MultipathNetwork
from repro.workloads.zipf import zipf_weights


def _frequencies(count=32):
    return dict(zip((f"t{i}" for i in range(count)), zipf_weights(count)))


def test_path_latency_sums_hops():
    network = MultipathNetwork(depth=2, arity=2, ind=2)
    embedded = EmbeddedMultipathNetwork(network)
    subscriber = network.subscribers()[0]
    path = network.tree_path(subscriber)
    latency = embedded.path_latency(path)
    hop_sum = sum(
        embedded.topology.one_way_delay(
            embedded.placement[a], embedded.placement[b]
        )
        for a, b in zip(path, path[1:])
    )
    assert latency == pytest.approx(hop_sum + 0.0002 * (len(path) - 1))


def test_measure_collects_samples():
    network = MultipathNetwork(depth=2, arity=3, ind=3)
    embedded = EmbeddedMultipathNetwork(network)
    router = ProbabilisticRouter(network, _frequencies(), ind_max=3)
    stats = embedded.measure(router, events=200)
    assert stats.samples == 200
    assert 0 < stats.minimum <= stats.mean <= stats.maximum


def test_multipath_adds_no_latency():
    """The Section 7 claim: shifted paths cost the same as tree paths."""
    results = compare_latency_across_ind(
        _frequencies(), ind_values=(1, 5), events=1500
    )
    baseline = results[1].mean
    smoothed = results[5].mean
    assert smoothed == pytest.approx(baseline, rel=0.15)


def test_all_paths_have_equal_hop_count():
    network = MultipathNetwork(depth=3, arity=4, ind=4)
    subscriber = network.subscribers()[0]
    lengths = {
        len(path) for path in network.independent_paths(subscriber)
    }
    assert lengths == {5}  # P, n1..n3, S for every shift
