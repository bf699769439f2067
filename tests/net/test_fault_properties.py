"""Property-based determinism invariants of the fault layer.

The whole point of a seeded :class:`FaultPlan` is reproducibility: two
runs with the same seed and the same plan must produce byte-identical
delivery traces, retry counts, and fault transitions -- otherwise chaos
experiments cannot be compared across configurations.
"""

from hypothesis import given, settings, strategies as st

from repro.net.faults import FaultInjector, FaultPlan
from repro.net.sim import Simulator
from repro.net.simnet import RetryPolicy, SimulatedPubSub
from repro.siena.events import Event
from repro.siena.filters import Filter


def _run_once(seed, reliable, events=12, num_brokers=7, horizon=2.0):
    sim = Simulator()
    plan = FaultPlan.random(
        range(1, num_brokers),
        horizon,
        seed=seed,
        crash_probability=0.4,
        crash_duration=0.3,
        link_loss=0.1,
    )
    injector = FaultInjector(sim, plan, seed=seed + 1)
    policy = RetryPolicy(heartbeat_interval=0.1)
    net = SimulatedPubSub(
        sim,
        num_brokers,
        arity=2,
        reliability=policy if reliable else None,
        faults=injector,
        seed=seed,
    )
    injector.install()
    for index, leaf in enumerate(net.leaf_ids()):
        subscriber = f"s{index}"
        net.attach_subscriber(subscriber, leaf)
        net.subscribe(subscriber, Filter.topic("t"))
    for k in range(events):
        net.publish(Event({"topic": "t", "k": k}), delay=k * horizon / events)
    sim.run(until=horizon + 2.0)
    trace = [
        (d.seq, d.subscriber_id, round(d.delivered_at, 12))
        for d in net.deliveries
    ]
    return trace, injector.transitions, net.rstats


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), reliable=st.booleans())
def test_same_seed_same_plan_identical_traces(seed, reliable):
    trace_a, transitions_a, stats_a = _run_once(seed, reliable)
    trace_b, transitions_b, stats_b = _run_once(seed, reliable)
    assert trace_a == trace_b
    assert transitions_a == transitions_b
    assert stats_a == stats_b


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_plans_differ_across_seeds_but_not_within(seed):
    kwargs = dict(crash_probability=0.5, crash_duration=0.2, link_loss=0.05)
    plan_a = FaultPlan.random(range(8), 4.0, seed=seed, **kwargs)
    plan_b = FaultPlan.random(range(8), 4.0, seed=seed, **kwargs)
    assert plan_a.crashes == plan_b.crashes
    assert plan_a.link_faults == plan_b.link_faults


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_injector_transitions_replay_the_plan(seed):
    sim = Simulator()
    plan = FaultPlan.random(
        range(6), 3.0, seed=seed, crash_probability=0.6, crash_duration=0.4
    )
    injector = FaultInjector(sim, plan, seed=seed)
    injector.install()
    sim.run(until=10.0)
    crashed = [b for _, kind, b in injector.transitions if kind == "crash"]
    restarted = [
        b for _, kind, b in injector.transitions if kind == "restart"
    ]
    assert sorted(crashed) == sorted(c.broker for c in plan.crashes)
    # Every planned finite outage ends in a restart.
    assert sorted(restarted) == sorted(crashed)
    assert all(injector.broker_up(b) for b in range(6))
