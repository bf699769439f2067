"""Probabilistic multi-path routing."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.routing.multipath import (
    ProbabilisticRouter,
    ideal_ind_max,
    paths_for_frequency,
    tau_for,
)
from repro.siena.events import Event
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


def test_route_batch_draws_one_path_for_the_whole_batch():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    registry = MetricsRegistry()
    router = ProbabilisticRouter(
        network, _frequencies(), ind_max=5, seed=3, registry=registry
    )
    subscriber = network.subscribers()[0]
    path = router.route_batch("t0", subscriber, count=8)
    assert path[0] == ()
    assert path[-1] == subscriber
    assert network.path_edges_exist(path)
    counters = registry.snapshot()["counters"]
    # Eight events routed, but only one batch draw (one route setup).
    assert counters["multipath_routes_total"] == 8
    assert counters["multipath_batch_routes_total"] == 1


def test_route_batch_of_one_equals_route_statistics():
    """A batch of one is the per-event path: same RNG consumption, so
    identical path sequences for identical seeds."""
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    subscriber = network.subscribers()[0]
    single = ProbabilisticRouter(network, _frequencies(), ind_max=5, seed=9)
    batched = ProbabilisticRouter(network, _frequencies(), ind_max=5, seed=9)
    for _ in range(20):
        assert single.route("t0", subscriber) == batched.route_batch(
            "t0", subscriber, count=1
        )


def test_route_batch_rejects_empty_batch():
    network = MultipathNetwork(depth=2, arity=5, ind=5)
    router = ProbabilisticRouter(network, _frequencies(), ind_max=5)
    with pytest.raises(ValueError):
        router.route_batch("t0", network.subscribers()[0], count=0)


def _publishing_router():
    network = MultipathNetwork(depth=3, arity=2, ind=2)
    return network, ProbabilisticRouter(network, {"t": 2.0}, seed=3)


def test_publish_of_one_event_routes_one_path():
    network, router = _publishing_router()
    path = router.publish(
        Event({"topic": "t"}), "t", network.subscribers()[0], at_time=9.0
    )
    assert path
    assert router.registry.get("multipath_routes_total").value == 1


def test_publish_of_a_batch_routes_once_and_counts_every_event():
    network, router = _publishing_router()
    events = [Event({"topic": "t", "n": n}) for n in range(4)]
    path = router.publish(events, "t", network.subscribers()[0])
    assert path
    assert router.registry.get("multipath_routes_total").value == 4
    assert router.registry.get("multipath_batch_routes_total").value == 1


def test_ideal_ind_max():
    assert ideal_ind_max({"a": 128.0, "b": 1.0}) == 128
    with pytest.raises(ValueError):
        ideal_ind_max({"a": 0.0})
