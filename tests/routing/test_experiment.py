"""Shape assertions for the Fig 6-8 routing experiments (small scale)."""

import pytest

from repro.routing.experiment import (
    RoutingExperimentConfig,
    construction_cost_curve,
    run_dissemination,
    sweep_collusion,
    sweep_ind_max,
)


@pytest.fixture(scope="module")
def small_config() -> RoutingExperimentConfig:
    return RoutingExperimentConfig(
        num_tokens=32, tokens_per_subscriber=8, events=1500
    )


@pytest.fixture(scope="module")
def ind_sweep(small_config):
    return sweep_ind_max(small_config, ind_values=[1, 3, 5])


def test_entropy_ordering(ind_sweep):
    """S_act <= S_app <= S_max for every ind (with sampling slack)."""
    for result in ind_sweep:
        assert result.s_app <= result.s_max + 1e-9
        assert result.s_app >= result.s_act - 0.15


def test_entropy_rises_with_ind(ind_sweep):
    entropies = [result.s_app for result in ind_sweep]
    assert entropies[0] < entropies[-1]


def test_smoothing_closes_most_of_the_gap(ind_sweep):
    """At ind=5 the apparent entropy recovers most of S_max - S_act."""
    last = ind_sweep[-1]
    recovered = (last.s_app - last.s_act) / (last.s_max - last.s_act)
    assert recovered > 0.4


def test_collusion_degrades_toward_actual(small_config):
    rows = sweep_collusion(
        small_config, fractions=[0.0, 0.3, 1.0], ind_max=5, samples=3
    )
    baseline = rows[0][1]
    full = rows[-1][1]
    actual = rows[-1][2].s_act
    assert full < baseline
    assert full == pytest.approx(actual, abs=0.2)


def test_construction_cost_normalized_and_saturating(small_config):
    curve = construction_cost_curve(
        small_config, ind_values=[1, 2, 4, 6, 8, 10]
    )
    values = [cost for _, cost in curve]
    assert values[0] == pytest.approx(1.0)
    assert values == sorted(values)
    # Saturation: later increments smaller than earlier ones.
    first_step = values[1] - values[0]
    last_step = values[-1] - values[-2]
    assert last_step < first_step


def test_invalid_ind_rejected(small_config):
    with pytest.raises(ValueError):
        run_dissemination(small_config, ind_max=6)  # the overlay has arity 5
