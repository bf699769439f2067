"""The multi-path dissemination network G_ind and Theorem 4.2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.multipath import MultipathNetwork


def test_parameter_validation():
    with pytest.raises(ValueError):
        MultipathNetwork(depth=0)
    with pytest.raises(ValueError):
        MultipathNetwork(depth=2, arity=1)
    with pytest.raises(ValueError):
        MultipathNetwork(depth=2, arity=2, ind=3)  # ind <= arity
    with pytest.raises(ValueError):
        MultipathNetwork(depth=2, arity=2, ind=0)


def test_broker_enumeration():
    net = MultipathNetwork(depth=2, arity=2)
    brokers = list(net.brokers())
    assert brokers[0] == ()
    assert len(brokers) == 7
    assert net.broker_count() == 7
    assert len(net.leaves()) == 4
    assert len(net.subscribers()) == 4


def test_tree_edges_connect_parents_to_children():
    net = MultipathNetwork(depth=2, arity=2)
    edges = net.tree_edges()
    # 6 broker edges + 4 subscriber edges.
    assert len(edges) == 10
    assert all(edge.is_tree_edge for edge in edges)


def test_extra_edge_counts_binary_ind2():
    """G_2 over a binary tree adds one edge per depth>=2 node and leaf."""
    net = MultipathNetwork(depth=3, arity=2, ind=2)
    extra = net.extra_edges()
    depth2_plus = 4 + 8  # nodes at depth 2 and 3
    subscribers = 8
    assert len(extra) == depth2_plus + subscribers
    assert not any(edge.is_tree_edge for edge in extra)


def test_ind1_adds_no_edges():
    net = MultipathNetwork(depth=3, arity=2, ind=1)
    assert net.extra_edges() == []


def test_theorem_42_paths_exist_and_are_independent():
    """Explicit check of Theorem 4.2 for the binary G_2."""
    net = MultipathNetwork(depth=4, arity=2, ind=2)
    for subscriber in net.subscribers():
        paths = net.independent_paths(subscriber)
        assert len(paths) == 2
        assert net.paths_independent(paths)
        for path in paths:
            assert path[0] == ()
            assert path[-1] == subscriber
            assert net.path_edges_exist(path)


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 4),
    arity=st.integers(2, 5),
    data=st.data(),
)
def test_claim_43_generalized_property(depth, arity, data):
    """Claim 4.3: G_ind has ind independent paths for any ind <= a."""
    ind = data.draw(st.integers(1, arity))
    net = MultipathNetwork(depth=depth, arity=arity, ind=ind)
    subscribers = net.subscribers()
    subscriber = subscribers[data.draw(st.integers(0, len(subscribers) - 1))]
    paths = net.independent_paths(subscriber)
    assert len(paths) == ind
    assert net.paths_independent(paths)
    assert all(net.path_edges_exist(path) for path in paths)


def test_path_lengths_equal_tree_depth():
    net = MultipathNetwork(depth=3, arity=3, ind=3)
    subscriber = net.subscribers()[0]
    for path in net.independent_paths(subscriber):
        assert len(path) == 3 + 2  # P, n1..n3, S


def test_partial_path_count():
    net = MultipathNetwork(depth=2, arity=4, ind=4)
    subscriber = net.subscribers()[0]
    assert len(net.independent_paths(subscriber, 2)) == 2
    with pytest.raises(ValueError):
        net.independent_paths(subscriber, 5)


def test_first_path_is_the_tree_path():
    net = MultipathNetwork(depth=2, arity=2, ind=2)
    subscriber = net.subscribers()[0]
    assert net.independent_paths(subscriber)[0] == net.tree_path(subscriber)


def test_construction_cost_monotone_in_ind():
    costs = [
        MultipathNetwork(depth=3, arity=5, ind=ind).construction_cost()
        for ind in range(1, 6)
    ]
    assert costs == sorted(costs)


def test_construction_cost_with_token_map():
    net = MultipathNetwork(depth=2, arity=5, ind=5)
    uniform = net.construction_cost({f"t{i}": 1 for i in range(10)})
    skewed = net.construction_cost(
        {f"t{i}": (5 if i == 0 else 1) for i in range(10)}
    )
    assert skewed > uniform
    # Paths are clamped to the network's ind.
    assert net.construction_cost({"t": 99}) == net.construction_cost({"t": 5})


def test_edge_count_includes_both_kinds():
    net = MultipathNetwork(depth=2, arity=2, ind=2)
    assert net.edge_count() == len(net.tree_edges()) + len(net.extra_edges())


