"""The replicated KDC service: leadership, registry log, dedup, catch-up."""

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdcservice import (
    KDCCluster,
    KDCRequest,
    KDCResponse,
    RegistryCommand,
)
from repro.net.faults import BrokerCrash, FaultInjector, FaultPlan, LinkFault
from repro.net.service import ServiceNetwork
from repro.net.sim import Simulator
from repro.siena.filters import Filter

MASTER = bytes(range(16))


def _cluster(replicas=3, plan=None, seed=1):
    sim = Simulator()
    faults = None
    if plan is not None:
        faults = FaultInjector(sim, plan, seed=seed)
    net = ServiceNetwork(sim, faults, latency=0.005)
    cluster = KDCCluster(
        net,
        [f"kdc{i}" for i in range(replicas)],
        MASTER,
        faults=faults,
    )
    cluster.register_topic("t", CompositeKeySpace({}), epoch_length=10.0)
    if faults is not None:
        faults.install()
    return sim, net, cluster


def _authorize(net, sim, replica, request_id=("c", 0), at_time=None):
    """One authorize RPC against *replica*; returns the KDCResponse."""
    replies = []
    net.request(
        "client",
        replica,
        KDCRequest("authorize", request_id, {
            "subscriber": "S",
            "filters": Filter.topic("t"),
            "at_time": at_time if at_time is not None else sim.now,
        }),
        on_reply=replies.append,
    )
    sim.run(until=sim.now + 1.0)
    return replies[-1] if replies else None


def test_any_replica_serves_derivations():
    sim, net, cluster = _cluster()
    grants = []
    for index, replica in enumerate(cluster.replica_ids):
        response = _authorize(net, sim, replica, request_id=("c", index))
        assert response.ok
        grants.append(response.value)
    # Stateless derivation: every replica issues identical key material.
    assert len({g.epoch for g in grants}) == 1
    first = grants[0].clauses[0].components[0].key
    assert all(
        g.clauses[0].components[0].key == first for g in grants
    )


def test_request_dedup_returns_memoized_response():
    sim, net, cluster = _cluster()
    first = _authorize(net, sim, "kdc0", request_id=("c", 7))
    again = _authorize(net, sim, "kdc0", request_id=("c", 7), at_time=0.0)
    assert again.value is first.value  # served from the dedup cache
    assert cluster.replicas["kdc0"].stats.dedup_hits == 1
    assert cluster.replicas["kdc0"].stats.authorizations == 1


def test_admin_mutation_replicates_to_backups():
    sim, net, cluster = _cluster()
    replies = []
    net.request("client", "kdc0", KDCRequest(
        "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
    ), on_reply=replies.append)
    sim.run(until=1.0)
    assert replies and replies[0].ok
    for replica in cluster.replicas.values():
        assert ("S", "t") in replica.kdc.revocations
    assert cluster.converged()
    # The revocation bites on the next renewal, from any replica.
    denied = _authorize(net, sim, "kdc2", request_id=("c", 2))
    assert not denied.ok and denied.error == "denied"


def test_admin_rejected_at_backup_with_redirect():
    sim, net, cluster = _cluster()
    replies = []
    net.request("client", "kdc1", KDCRequest(
        "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
    ), on_reply=replies.append)
    sim.run(until=1.0)
    assert not replies[0].ok
    assert replies[0].error == "not_primary"
    assert replies[0].primary == "kdc0"
    assert replies[0].retryable


def test_primary_crash_elects_next_in_ring():
    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=1.0, duration=2.0)])
    sim, net, cluster = _cluster(plan=plan)
    sim.run(until=1.5)
    assert cluster.primary_id == "kdc1"
    assert cluster.view == 1
    assert cluster.stats.view_changes == 1
    # The crashed primary's restart does not steal leadership back.
    sim.run(until=4.0)
    assert cluster.primary_id == "kdc1"


def test_restarted_replica_recovers_and_catches_up():
    plan = FaultPlan(crashes=[BrokerCrash("kdc2", at=0.5, duration=1.0)])
    sim, net, cluster = _cluster(plan=plan)
    sim.run(until=0.6)
    # Mutate the registry while kdc2 is down.
    net.request("client", "kdc0", KDCRequest(
        "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
    ))
    sim.run(until=1.4)
    assert ("S", "t") not in cluster.replicas["kdc2"].kdc.revocations
    sim.run(until=3.0)
    replica = cluster.replicas["kdc2"]
    assert not replica.recovering
    assert replica.stats.catchups_completed == 1
    assert ("S", "t") in replica.kdc.revocations
    assert cluster.converged()


def test_recovering_replica_refuses_derivations():
    plan = FaultPlan(
        crashes=[BrokerCrash("kdc2", at=0.5, duration=1.0)],
        # Keep kdc2 partitioned after restart so catch-up cannot finish.
        link_faults=[LinkFault("kdc2", "kdc0", start=1.4, duration=5.0,
                               partitioned=True)],
    )
    sim, net, cluster = _cluster(plan=plan)
    sim.run(until=2.0)
    assert cluster.replicas["kdc2"].recovering
    response = _authorize(net, sim, "kdc2")
    assert not response.ok and response.error == "recovering"
    assert response.retryable


def test_lost_replicate_healed_by_anti_entropy():
    # Drop everything between the primary and kdc1 around the mutation.
    plan = FaultPlan(link_faults=[
        LinkFault("kdc0", "kdc1", start=0.0, duration=0.5, partitioned=True)
    ])
    sim, net, cluster = _cluster(plan=plan)
    net.request("client", "kdc0", KDCRequest(
        "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
    ))
    sim.run(until=0.3)
    assert ("S", "t") not in cluster.replicas["kdc1"].kdc.revocations
    sim.run(until=2.0)  # periodic sync pulls the missed suffix
    assert ("S", "t") in cluster.replicas["kdc1"].kdc.revocations
    assert cluster.converged()


def test_out_of_order_command_rejected_without_corruption():
    sim, net, cluster = _cluster()
    replica = cluster.replicas["kdc1"]
    applied = replica.applied_seq
    gap = RegistryCommand(applied + 5, "revoke", ("S", "t"))
    assert not replica.append(gap)
    assert replica.applied_seq == applied
    assert ("S", "t") not in replica.kdc.revocations


def test_invalid_command_leaves_log_untouched():
    sim, net, cluster = _cluster()
    replica = cluster.replicas["kdc0"]
    applied = replica.applied_seq
    bad = RegistryCommand(applied + 1, "set_epoch_length", ("t", -1.0))
    with pytest.raises(ValueError):
        replica.append(bad)
    assert replica.applied_seq == applied


def test_single_replica_cluster_survives_restart():
    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=1.0, duration=1.0)])
    sim, net, cluster = _cluster(replicas=1, plan=plan)
    sim.run(until=1.5)
    assert cluster.primary_id is None
    sim.run(until=2.5)
    assert cluster.primary_id == "kdc0"
    response = _authorize(net, sim, "kdc0")
    assert response.ok


def test_deterministic_replay():
    def run():
        plan = FaultPlan(
            crashes=[BrokerCrash("kdc0", at=0.5, duration=1.0)],
            link_faults=[LinkFault(loss=0.3)],
        )
        sim, net, cluster = _cluster(plan=plan, seed=5)
        for k in range(20):
            sim.schedule(k * 0.1, lambda k=k: net.request(
                "client", "kdc0", KDCRequest("authorize", ("c", k), {
                    "subscriber": "S",
                    "filters": Filter.topic("t"),
                    "at_time": k * 0.1,
                }),
            ))
        sim.run(until=5.0)
        return (
            net.stats.requests_delivered,
            net.stats.lost,
            cluster.replicas["kdc0"].stats.authorizations,
            cluster.view,
        )

    assert run() == run()
