"""Probabilistic multi-path routing."""

import pytest

from repro.routing.multipath import (
    ProbabilisticRouter,
    ideal_ind_max,
    paths_for_frequency,
    tau_for,
)
from repro.topology.multipath import MultipathNetwork
from repro.workloads.zipf import zipf_weights


def _frequencies(count=16, exponent=1.0):
    return dict(zip(
        (f"t{i}" for i in range(count)), zipf_weights(count, exponent)
    ))


def test_paths_for_frequency_clamps():
    assert paths_for_frequency(0.0, 100.0, 5) == 1
    assert paths_for_frequency(1.0, 100.0, 5) == 5
    assert paths_for_frequency(0.025, 100.0, 5) == 2  # round(2.5) banker's
    assert paths_for_frequency(0.026, 100.0, 5) == 3


def test_paths_for_frequency_validation():
    with pytest.raises(ValueError):
        paths_for_frequency(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        paths_for_frequency(1.0, 1.0, 0)


def test_tau_is_independent_of_cap():
    frequencies = _frequencies()
    assert tau_for(frequencies) == tau_for(frequencies)
    # tau targets the design point, not ind_max.
    assert tau_for(frequencies, design_paths=20) == pytest.approx(
        2 * tau_for(frequencies, design_paths=10)
    )


def test_tau_validation():
    with pytest.raises(ValueError):
        tau_for({}, 10)
    with pytest.raises(ValueError):
        tau_for({"t": 1.0}, 10, saturate_quantile=0.0)
    with pytest.raises(ValueError):
        tau_for({"t": 1.0}, design_paths=0)


def test_popular_tokens_get_more_paths():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(network, _frequencies(), ind_max=5)
    paths = router.paths_per_token
    assert paths["t0"] == 5
    assert paths["t15"] <= paths["t0"]
    assert min(paths.values()) >= 1


def test_route_returns_valid_independent_path():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(network, _frequencies(), ind_max=5)
    subscriber = network.subscribers()[0]
    for _ in range(20):
        path = router.route("t0", subscriber)
        assert path[0] == ()
        assert path[-1] == subscriber
        assert network.path_edges_exist(path)


def test_route_uses_all_available_paths():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(network, _frequencies(), ind_max=5, seed=3)
    subscriber = network.subscribers()[0]
    chosen = {tuple(router.route("t0", subscriber)) for _ in range(200)}
    assert len(chosen) == 5


def test_unpopular_token_uses_single_path():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(
        network, _frequencies(64), ind_max=5, seed=3
    )
    subscriber = network.subscribers()[0]
    chosen = {tuple(router.route("t63", subscriber)) for _ in range(50)}
    assert len(chosen) == 1


def test_apparent_frequency_flattened_for_head():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    frequencies = _frequencies(64)
    router = ProbabilisticRouter(network, frequencies, ind_max=5)
    head = router.expected_apparent_frequency("t0")
    tail = router.expected_apparent_frequency("t63")
    actual_ratio = frequencies["t0"] / frequencies["t63"]
    apparent_ratio = head / tail
    assert apparent_ratio < actual_ratio


def test_ind_max_cannot_exceed_network():
    network = MultipathNetwork(depth=2, arity=3, ind=3)
    with pytest.raises(ValueError):
        ProbabilisticRouter(network, _frequencies(), ind_max=4)


def test_construction_cost_and_histogram():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(network, _frequencies(64), ind_max=5)
    histogram = router.path_usage_histogram()
    assert sum(histogram.values()) == 64
    assert router.construction_cost() > 0


def test_ideal_ind_max():
    assert ideal_ind_max({"a": 128.0, "b": 1.0}) == 128
    with pytest.raises(ValueError):
        ideal_ind_max({"a": 0.0})
