"""Acceptance criteria for the chaos harness.

Under the issue's headline scenario -- 20% per-broker crash probability
and 5% link loss -- at-least-once delivery with retries plus redundancy
``k=2`` must reach at least 99% delivery, while the fire-and-forget
baseline measurably degrades.  All numbers are seeded, so tolerances are
exact bounds, not statistical hopes.
"""

import dataclasses

import pytest

from repro.harness.chaos import (
    SCENARIO,
    ChaosConfig,
    format_chaos_report,
    run_chaos,
    run_multipath_chaos,
    run_tree_chaos,
)


# One shared run keeps the suite fast: every acceptance assertion reads
# from the same seeded report the CLI prints.
_CONFIG = ChaosConfig(seed=7, duration=5.0, crash_probability=0.2,
                      link_loss=0.05, redundancy=2)


@pytest.fixture(scope="module")
def report():
    return run_chaos(_CONFIG)


def test_reliable_redundant_hits_99_percent(report):
    assert report.multipath_reliable.redundancy == 2
    assert report.multipath_reliable.delivery_rate >= 0.99


def test_fire_and_forget_measurably_degrades(report):
    baseline = report.multipath_baseline.delivery_rate
    assert baseline < 0.95
    assert report.multipath_reliable.delivery_rate - baseline >= 0.05
    assert report.tree_baseline.delivery_rate \
        < report.tree_reliable.delivery_rate
    assert report.tree_reliable.delivery_rate >= 0.99


def test_reliability_costs_show_up_in_overheads(report):
    reliable = report.tree_reliable
    assert reliable.retries > 0
    assert reliable.acks_sent > 0
    assert reliable.heartbeats_sent > 0
    assert reliable.failures_detected > 0
    assert reliable.retry_overhead > 0
    baseline = report.tree_baseline
    assert baseline.retries == 0
    assert baseline.acks_sent == 0


def test_analytic_loss_model_tracks_measurement(report):
    # The paper's (1-(1-f)^d)^k model, fed the realized mean per-hop
    # failure rate, should land near the measured baseline rate.
    baseline = report.multipath_baseline
    assert baseline.analytic_rate == pytest.approx(
        baseline.delivery_rate, abs=0.08
    )
    # More redundancy can only help, in measurement as in the model.
    assert report.multipath_reliable.delivery_rate \
        >= baseline.delivery_rate


def test_chaos_run_is_deterministic():
    small = ChaosConfig(seed=11, duration=1.0, drain=1.5)
    first = run_tree_chaos(small, reliable=True)
    second = run_tree_chaos(small, reliable=True)
    assert first == second
    assert first.obs is not second.obs
    multi_a = run_multipath_chaos(small, reliable=True, redundancy=2)
    multi_b = run_multipath_chaos(small, reliable=True, redundancy=2)
    assert multi_a == multi_b


def test_different_seeds_inject_different_faults():
    a = run_tree_chaos(ChaosConfig(seed=1, duration=1.0, drain=1.5),
                       reliable=False)
    b = run_tree_chaos(ChaosConfig(seed=2, duration=1.0, drain=1.5),
                       reliable=False)
    assert a != b


def test_report_formatting_prints_both_rates(report):
    text = format_chaos_report(_CONFIG, report)
    assert "delivery" in text
    assert "fire-and-forget" in text
    assert "reliable" in text
    assert f"{report.multipath_reliable.delivery_rate:.2f}" in text
    assert f"{report.multipath_baseline.delivery_rate:.2f}" in text


def test_gates_pass_and_catch_violations(report):
    assert SCENARIO.violations(_CONFIG, report) == []
    # A "reliable" run no better than fire-and-forget trips both gates.
    unreliable = dataclasses.replace(
        report, tree_reliable=report.tree_baseline
    )
    problems = dict(SCENARIO.violations(_CONFIG, unreliable))
    assert set(problems) == {"reliable-delivery", "baseline-degrades"}
    assert "reliable tree delivery" in problems["reliable-delivery"]
    assert "multipath" not in problems["baseline-degrades"]
