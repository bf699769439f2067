"""Transit-stub topology generation."""

import pytest

from repro.topology.transit_stub import TransitStubTopology


@pytest.fixture(scope="module")
def topology() -> TransitStubTopology:
    return TransitStubTopology(seed=7)


def test_graph_is_connected(topology):
    import networkx as nx

    assert nx.is_connected(topology.graph)


def test_node_counts(topology):
    # 4 transit domains x 4 nodes, each with 4 stub domains x 4 nodes.
    assert len(topology.transit_nodes) == 16
    assert len(topology.stub_nodes) == 256
    assert len(topology.stub_domains) == 64


def test_all_edges_have_positive_delay(topology):
    for _, _, data in topology.graph.edges(data=True):
        assert data["delay"] > 0


def test_delay_symmetry(topology):
    nodes = topology.stub_nodes[:5]
    for first in nodes:
        for second in nodes:
            assert topology.one_way_delay(first, second) == pytest.approx(
                topology.one_way_delay(second, first)
            )


def test_rtt_is_twice_one_way(topology):
    a, b = topology.stub_nodes[0], topology.stub_nodes[-1]
    assert topology.rtt(a, b) == pytest.approx(
        2 * topology.one_way_delay(a, b)
    )


def test_overlay_sampling_spreads_across_domains(topology):
    overlay = topology.sample_overlay(63)
    assert len(overlay) == 63
    assert len(set(overlay)) == 63
    domain_of = {}
    for index, domain in enumerate(topology.stub_domains):
        for node in domain:
            domain_of[node] = index
    # 63 nodes over 64 domains: at most one per domain.
    domains = [domain_of[node] for node in overlay]
    assert len(set(domains)) == 63


def test_oversized_sample_rejected(topology):
    with pytest.raises(ValueError):
        topology.sample_overlay(10_000)


def test_overlay_stats_match_paper_envelope(topology):
    """Section 5.2: RTTs 24-184 ms, mean ~74 ms.

    Our generator is calibrated to land in that envelope (within the
    tolerance a different random topology instance allows).
    """
    stats = topology.overlay_stats(topology.sample_overlay(63))
    assert 0.015 <= stats.min_rtt <= 0.040
    assert 0.120 <= stats.max_rtt <= 0.250
    assert 0.055 <= stats.mean_rtt <= 0.110
    assert 0.020 <= stats.std_rtt <= 0.060


def test_stats_need_two_nodes(topology):
    with pytest.raises(ValueError):
        topology.overlay_stats([topology.stub_nodes[0]])


def test_deterministic_for_seed():
    first = TransitStubTopology(seed=11)
    second = TransitStubTopology(seed=11)
    assert first.sample_overlay(10) == second.sample_overlay(10)


def test_different_seeds_differ():
    assert TransitStubTopology(seed=1).sample_overlay(
        20
    ) != TransitStubTopology(seed=2).sample_overlay(20)

