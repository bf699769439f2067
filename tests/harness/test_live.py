"""Acceptance criteria for the live harness.

A loopback TCP broker tree must deliver to every subscriber exactly the
``(sequence, open | unreadable)`` stream the in-process ``BrokerTree``
delivers for the same seeded workload, nobody may open what the
reference says they could not, and every publication must be acked.
Each of the three gates is also shown to fail on a doctored result.
"""

import copy

import pytest

from repro.harness.live import (
    SCENARIO,
    LiveConfig,
    format_live_report,
    run_live,
)

_CONFIG = LiveConfig(
    seed=11, events=30, num_brokers=3, num_subscribers=3,
)


@pytest.fixture(scope="module")
def result():
    return run_live(_CONFIG)


def _some_delivery(result, verdict):
    """A ``(subscriber, (sequence, verdict))`` the reference delivered."""
    return next(
        (subscriber_id, entry)
        for subscriber_id, stream in sorted(result.reference.items())
        for entry in sorted(stream)
        if entry[1] == verdict
    )


def test_small_run_is_equivalent_with_zero_unauthorized_opens(result):
    assert set(result.reference) == {"S0", "S1", "S2"}
    assert result.live == result.reference
    assert result.diverged() == {}
    assert result.unauthorized_opens() == 0
    assert result.publisher_unacked == 0
    assert SCENARIO.violations(_CONFIG, result) == []
    # The run proves something: events were opened, and token routing
    # also delivered events the receiver's grant could not open.
    verdicts = {
        entry[1] for stream in result.reference.values() for entry in stream
    }
    assert verdicts == {"open", "unreadable"}


def test_gate_flags_a_delivery_missing_from_the_live_stream(result):
    subscriber_id, entry = _some_delivery(result, "open")
    lossy = copy.deepcopy(result)
    lossy.live[subscriber_id].remove(entry)
    assert SCENARIO.violations(_CONFIG, lossy) == [(
        "equivalence",
        f"{subscriber_id}: socket-path stream diverges from the "
        "in-process reference (1 deliveries missing, 0 extra)",
    )]


def test_gate_flags_an_open_the_reference_lacks(result):
    subscriber_id, (sequence, _verdict) = _some_delivery(
        result, "unreadable"
    )
    leaky = copy.deepcopy(result)
    leaky.live[subscriber_id].remove((sequence, "unreadable"))
    leaky.live[subscriber_id].add((sequence, "open"))
    assert leaky.unauthorized_opens() == 1
    problems = dict(SCENARIO.violations(_CONFIG, leaky))
    assert set(problems) == {"equivalence", "confidentiality"}
    assert "1 deliveries missing, 1 extra" in problems["equivalence"]
    assert problems["confidentiality"].startswith(
        "1 events opened by subscribers"
    )
    assert "DIVERGED at 1 subscribers" in format_live_report(_CONFIG, leaky)


def test_gate_flags_unacked_publications(result):
    stuck = copy.deepcopy(result)
    stuck.publisher_unacked = 2
    assert SCENARIO.violations(_CONFIG, stuck) == [
        ("acked", "2 of 30 publications never acked by the home broker")
    ]


def test_seeded_streams_are_identical_across_runs(result):
    assert run_live(_CONFIG) == result


def test_report_renders_the_gated_numbers(result):
    report = format_live_report(_CONFIG, result)
    assert "Live run: seed 11, 30 events" in report
    assert "3-broker loopback TCP tree" in report
    assert "equivalence        ok" in report
    assert "unauthorized opens 0" in report
    assert "unacked publishes  0" in report


def test_config_validation_rejects_empty_runs():
    for broken in (
        LiveConfig(events=0),
        LiveConfig(num_brokers=0),
        LiveConfig(num_subscribers=0),
    ):
        with pytest.raises(ValueError, match="need at least one"):
            run_live(broken)
