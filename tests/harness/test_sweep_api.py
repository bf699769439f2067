"""The (mode, node-count) sweep behind Figures 9-10, at reduced scale."""

import pytest

from repro.harness.endtoend import max_throughput, sample_pipeline_costs


@pytest.fixture(scope="module")
def sweep():
    # What ``benchmarks/conftest.py::endtoend_sweep`` runs, smaller.
    results = []
    for mode in ("siena", "topic"):
        pipeline = sample_pipeline_costs(mode, seed=29)
        for nodes in (0, 6):
            results.append(
                max_throughput(mode, nodes, pipeline, seed=29, events=100)
            )
    return results


def test_one_result_per_cell(sweep):
    cells = {(r.mode, r.routing_nodes) for r in sweep}
    assert cells == {
        ("siena", 0), ("siena", 6), ("topic", 0), ("topic", 6),
    }


def test_results_are_physical(sweep):
    for result in sweep:
        assert result.throughput_events_per_s > 0
        assert result.latency_s > 0


def test_fig9_shape_holds_at_reduced_scale(sweep):
    by_cell = {(r.mode, r.routing_nodes): r for r in sweep}
    # Routing nodes raise throughput.
    assert (
        by_cell[("siena", 6)].throughput_events_per_s
        > by_cell[("siena", 0)].throughput_events_per_s
    )
    # PSGuard stays within a modest factor of Siena.
    drop = 1 - (
        by_cell[("topic", 6)].throughput_events_per_s
        / by_cell[("siena", 6)].throughput_events_per_s
    )
    assert -0.05 <= drop <= 0.15


def test_fig10_shape_holds_at_reduced_scale(sweep):
    by_cell = {(r.mode, r.routing_nodes): r for r in sweep}
    # Deeper trees pay more WAN hops.
    assert (
        by_cell[("siena", 6)].latency_s > by_cell[("siena", 0)].latency_s
    )
    # Crypto is invisible next to the WAN.
    ratio = (
        by_cell[("topic", 6)].latency_s / by_cell[("siena", 6)].latency_s
    )
    assert ratio == pytest.approx(1.0, abs=0.08)
