"""The failover KDC client: retries, breakers, dedup-backed idempotence."""

import pytest

from repro.core.composite import CompositeKeySpace
from repro.errors import GrantDenied, KDCUnavailable
from repro.core.kdcclient import _MAX_ATTEMPTS, KDCClient, _timeout_for
from repro.core.kdcservice import KDCCluster
from repro.net.faults import (
    ANY,
    BrokerCrash,
    FaultInjector,
    FaultPlan,
    LinkFault,
)
from repro.net.service import ServiceNetwork
from repro.net.sim import Simulator
from repro.siena.filters import Filter

MASTER = bytes(range(16))


def _setup(plan=None, replicas=3, seed=2):
    sim = Simulator()
    faults = FaultInjector(sim, plan, seed=seed) if plan is not None else None
    net = ServiceNetwork(sim, faults, latency=0.005)
    replica_ids = [f"kdc{i}" for i in range(replicas)]
    cluster = KDCCluster(net, replica_ids, MASTER)
    cluster.register_topic("t", CompositeKeySpace({}), epoch_length=10.0)
    if faults is not None:
        faults.install()
    client = KDCClient(net, "client", replica_ids, seed=seed)
    return sim, net, cluster, client


def _authorize(sim, client, horizon=5.0, **kwargs):
    grants, errors = [], []
    client.authorize(
        "S", Filter.topic("t"),
        on_grant=grants.append, on_error=errors.append, **kwargs,
    )
    sim.run(until=sim.now + horizon)
    return grants, errors


def test_healthy_path_single_attempt():
    sim, net, cluster, client = _setup()
    grants, errors = _authorize(sim, client, at_time=0.0)
    assert len(grants) == 1 and not errors
    assert client.stats.attempts == 1
    assert client.stats.retries == 0
    assert grants[0].topic == "t"


def test_failover_to_surviving_replica():
    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=0.0, duration=5.0)])
    sim, net, cluster, client = _setup(plan=plan)
    grants, errors = _authorize(sim, client, at_time=0.0)
    assert len(grants) == 1 and not errors
    assert client.stats.failovers >= 1
    assert client.stats.timeouts >= 1
    # Stickiness: the next request goes straight to the responsive replica.
    attempts_before = client.stats.attempts
    grants2, _ = _authorize(sim, client, at_time=0.0)
    assert len(grants2) == 1
    assert client.stats.attempts == attempts_before + 1


def test_all_replicas_down_exhausts_and_fails():
    plan = FaultPlan(crashes=[
        BrokerCrash(f"kdc{i}", at=0.0, duration=60.0) for i in range(3)
    ])
    sim, net, cluster, client = _setup(plan=plan)
    grants, errors = _authorize(sim, client, horizon=30.0, at_time=0.0)
    assert not grants
    assert len(errors) == 1
    assert isinstance(errors[0], KDCUnavailable)
    assert client.stats.failures == 1
    assert client.stats.attempts == _MAX_ATTEMPTS


def test_breaker_opens_and_skips_dead_replica():
    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=0.0, duration=60.0)])
    sim, net, cluster, client = _setup(plan=plan)
    _authorize(sim, client, at_time=0.0)
    assert client.stats.breaker_opens == 0  # failed over before threshold
    # Hammer kdc0 alone by shrinking the view to just the dead replica.
    lone = KDCClient(net, "client2", ["kdc0"], seed=9)
    grants, errors = _authorize(sim, lone, horizon=30.0, at_time=0.0)
    assert not grants and errors
    assert lone.stats.breaker_opens >= 1


def test_denial_is_terminal_not_retried():
    sim, net, cluster, client = _setup()
    client.admin("revoke", ("S", "t"))
    sim.run(until=0.5)
    grants, errors = _authorize(sim, client, at_time=1.0)
    assert not grants
    assert isinstance(errors[0], GrantDenied)
    assert client.stats.denied == 1
    assert client.stats.retries == 0


def test_admin_redirects_to_primary():
    sim, net, cluster, client = _setup()
    client._preferred = "kdc2"  # force the first attempt at a backup
    oks, errors = [], []
    client.admin("revoke", ("S", "t"), on_ok=oks.append,
                 on_error=errors.append)
    sim.run(until=1.0)
    assert oks and not errors
    assert client.stats.redirects == 1
    assert ("S", "t") in cluster.replicas["kdc0"].kdc.revocations


def test_retransmit_hits_dedup_not_double_issue():
    """Losing replies (not requests) forces retransmits; the replica's
    dedup cache answers them without re-serving."""
    plan = FaultPlan(link_faults=[LinkFault(loss=0.25)])
    sim, net, cluster, client = _setup(plan=plan, seed=11)
    for k in range(10):
        sim.schedule(k * 0.5, lambda: client.authorize(
            "S", Filter.topic("t"), at_time=sim.now
        ))
    sim.run(until=20.0)
    served = sum(r.stats.authorizations for r in cluster.replicas.values())
    dedup = sum(r.stats.dedup_hits for r in cluster.replicas.values())
    assert client.stats.successes == 10
    # Each logical request was issued at most once per replica it reached;
    # every extra arrival was answered from the cache.
    assert served <= 10 * len(cluster.replica_ids)
    if client.stats.retries:
        assert dedup >= 1


def test_partition_from_preferred_replica_fails_over():
    # The partition opens after the registry has replicated, so the
    # backups can serve while kdc0 is cut off from everyone.
    plan = FaultPlan(link_faults=[
        LinkFault(ANY, "kdc0", start=0.1, duration=5.0, partitioned=True)
    ])
    sim, net, cluster, client = _setup(plan=plan)
    sim.run(until=0.2)
    grants, errors = _authorize(sim, client, at_time=0.2)
    assert len(grants) == 1 and not errors
    assert client.stats.failovers >= 1


def test_stale_backup_is_retried_not_terminal():
    """A backup whose registry lacks the topic answers ``stale``; the
    client fails over instead of giving up."""
    sim, net, cluster, client = _setup()
    # A backup that never applied the registration.
    del cluster.replicas["kdc2"].kdc.registry["t"]
    client._preferred = "kdc2"  # first attempt lands on the stale backup
    grants, errors = _authorize(sim, client, at_time=0.0)
    assert len(grants) == 1 and not errors
    assert client.stats.failovers >= 1
    assert cluster.replicas["kdc2"].stats.requests_served >= 1


def test_policy_validation():
    with pytest.raises(ValueError):
        KDCClient(ServiceNetwork(Simulator()), "c", [])


def test_timeouts_escalate_with_backoff():
    import random

    class Midpoint(random.Random):
        def random(self):
            return 0.5  # the jitter's zero point

    assert _timeout_for(0, Midpoint()) == pytest.approx(0.03)
    assert _timeout_for(3, Midpoint()) == pytest.approx(0.03 * 1.5 ** 3)


def test_deterministic_replay():
    def run():
        plan = FaultPlan(
            crashes=[BrokerCrash("kdc0", at=0.2, duration=1.0)],
            link_faults=[LinkFault(loss=0.2)],
        )
        sim, net, cluster, client = _setup(plan=plan, seed=13)
        for k in range(15):
            sim.schedule(k * 0.3, lambda: client.authorize(
                "S", Filter.topic("t"), at_time=sim.now
            ))
        sim.run(until=20.0)
        s = client.stats
        return (s.successes, s.failures, s.retries, s.failovers,
                s.timeouts, net.stats.lost)

    assert run() == run()
