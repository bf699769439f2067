"""The replicated KDC service: leadership, registry log, dedup, catch-up.

Every test runs the cluster on :class:`~repro.rtnet.service.
TcpServiceNetwork` over a :class:`~repro.net.virtual.VirtualLoop`:
requests cross real frames and sessions, on a virtual clock.
"""

import asyncio

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdcservice import (
    KDCCluster,
    KDCRequest,
    KDCResponse,
    RegistryCommand,
)
from repro.net.faults import BrokerCrash, FaultPlan, LinkFault
from repro.net.virtual import VirtualLoop, run
from repro.rtnet.service import TcpServiceNetwork
from repro.siena.filters import Filter

MASTER = bytes(range(16))
#: One-way delay of every service link.
DELAY = 0.005


def _hosted(scenario, replicas=3, plan=None, seed=1):
    """Run ``scenario(net, cluster)`` against a *replicas*-node cluster
    on a virtual loop playing *plan*; returns what it returns."""

    async def main():
        net = TcpServiceNetwork()
        asyncio.get_running_loop().play_crashes(net)
        cluster = KDCCluster(net, [f"kdc{i}" for i in range(replicas)], MASTER)
        cluster.register_topic("t", CompositeKeySpace({}), epoch_length=10.0)
        await net.start()
        try:
            return await scenario(net, cluster)
        finally:
            await net.stop()

    return run(VirtualLoop(DELAY, plan, seed), main())


async def _until(when):
    """Let the virtual clock run to *when*."""
    loop = asyncio.get_running_loop()
    await asyncio.sleep(when - loop.time())


def _now():
    return asyncio.get_running_loop().time()


async def _authorize(net, replica, request_id=("c", 0), at_time=None):
    """One authorize RPC against *replica*; returns the KDCResponse."""
    replies = []
    net.request(
        "client",
        replica,
        KDCRequest("authorize", request_id, {
            "subscriber": "S",
            "filters": Filter.topic("t"),
            "at_time": at_time if at_time is not None else _now(),
        }),
        on_reply=replies.append,
    )
    await asyncio.sleep(1.0)
    return replies[-1] if replies else None


def test_any_replica_serves_derivations():
    async def scenario(net, cluster):
        grants = []
        for index, replica in enumerate(cluster.replica_ids):
            response = await _authorize(net, replica, request_id=("c", index))
            assert response.ok
            grants.append(response.value)
        return grants

    grants = _hosted(scenario)
    # Stateless derivation: every replica issues identical key material.
    assert len({g.epoch for g in grants}) == 1
    first = grants[0].clauses[0].components[0].key
    assert all(
        g.clauses[0].components[0].key == first for g in grants
    )


def test_request_dedup_returns_memoized_response():
    async def scenario(net, cluster):
        first = await _authorize(net, "kdc0", request_id=("c", 7))
        again = await _authorize(net, "kdc0", request_id=("c", 7), at_time=0.0)
        # Served from the dedup cache: the same grant, decoded afresh.
        assert again.value == first.value
        assert cluster.replicas["kdc0"].stats.dedup_hits == 1
        assert cluster.replicas["kdc0"].stats.authorizations == 1

    _hosted(scenario)


def test_admin_mutation_replicates_to_backups():
    async def scenario(net, cluster):
        replies = []
        net.request("client", "kdc0", KDCRequest(
            "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
        ), on_reply=replies.append)
        await _until(1.0)
        assert replies and replies[0].ok
        for replica in cluster.replicas.values():
            assert ("S", "t") in replica.kdc.revocations
        assert cluster.converged()
        # The revocation bites on the next renewal, from any replica.
        denied = await _authorize(net, "kdc2", request_id=("c", 2))
        assert not denied.ok and denied.error == "denied"

    _hosted(scenario)


def test_admin_rejected_at_backup_with_redirect():
    async def scenario(net, cluster):
        replies = []
        net.request("client", "kdc1", KDCRequest(
            "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
        ), on_reply=replies.append)
        await _until(1.0)
        assert not replies[0].ok
        assert replies[0].error == "not_primary"
        assert replies[0].primary == "kdc0"
        assert replies[0].retryable

    _hosted(scenario)


def test_primary_crash_elects_next_in_ring():
    async def scenario(net, cluster):
        await _until(1.5)
        assert cluster.primary_id == "kdc1"
        assert cluster.view == 1
        assert cluster.stats.view_changes == 1
        # The crashed primary's restart does not steal leadership back.
        await _until(4.0)
        assert cluster.primary_id == "kdc1"

    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=1.0, duration=2.0)])
    _hosted(scenario, plan=plan)


def test_restarted_replica_recovers_and_catches_up():
    async def scenario(net, cluster):
        await _until(0.6)
        # Mutate the registry while kdc2 is down.
        net.request("client", "kdc0", KDCRequest(
            "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
        ))
        await _until(1.4)
        assert ("S", "t") not in cluster.replicas["kdc2"].kdc.revocations
        await _until(3.0)
        replica = cluster.replicas["kdc2"]
        assert not replica.recovering
        assert replica.stats.catchups_completed == 1
        assert ("S", "t") in replica.kdc.revocations
        assert cluster.converged()

    plan = FaultPlan(crashes=[BrokerCrash("kdc2", at=0.5, duration=1.0)])
    _hosted(scenario, plan=plan)


def test_recovering_replica_refuses_derivations():
    async def scenario(net, cluster):
        await _until(2.0)
        assert cluster.replicas["kdc2"].recovering
        response = await _authorize(net, "kdc2")
        assert not response.ok and response.error == "recovering"
        assert response.retryable

    plan = FaultPlan(
        crashes=[BrokerCrash("kdc2", at=0.5, duration=1.0)],
        # Keep kdc2 partitioned after restart so catch-up cannot finish.
        link_faults=[LinkFault("kdc2", "kdc0", start=1.4, duration=5.0,
                               partitioned=True)],
    )
    _hosted(scenario, plan=plan)


def test_lost_replicate_healed_by_anti_entropy():
    async def scenario(net, cluster):
        net.request("client", "kdc0", KDCRequest(
            "admin", ("c", 1), {"op": "revoke", "args": ("S", "t")}
        ))
        await _until(0.3)
        assert ("S", "t") not in cluster.replicas["kdc1"].kdc.revocations
        await _until(2.0)  # periodic sync pulls the missed suffix
        assert ("S", "t") in cluster.replicas["kdc1"].kdc.revocations
        assert cluster.converged()

    # Lose everything between the primary and kdc1 around the mutation
    # (a partition would only hold the replicate back).
    plan = FaultPlan(link_faults=[
        LinkFault("kdc0", "kdc1", start=0.0, duration=0.5, loss=1.0)
    ])
    _hosted(scenario, plan=plan)


def test_out_of_order_command_rejected_without_corruption():
    async def scenario(net, cluster):
        replica = cluster.replicas["kdc1"]
        applied = replica.applied_seq
        gap = RegistryCommand(applied + 5, "revoke", ("S", "t"))
        assert not replica.append(gap)
        assert replica.applied_seq == applied
        assert ("S", "t") not in replica.kdc.revocations

    _hosted(scenario)


def test_invalid_command_leaves_log_untouched():
    async def scenario(net, cluster):
        replica = cluster.replicas["kdc0"]
        applied = replica.applied_seq
        bad = RegistryCommand(
            applied + 1, "register_topic",
            ("u", CompositeKeySpace({}), -1.0, False),
        )
        with pytest.raises(ValueError):
            replica.append(bad)
        assert replica.applied_seq == applied

    _hosted(scenario)


def test_single_replica_cluster_survives_restart():
    async def scenario(net, cluster):
        await _until(1.5)
        assert cluster.primary_id is None
        await _until(2.5)
        assert cluster.primary_id == "kdc0"
        response = await _authorize(net, "kdc0")
        assert response.ok

    plan = FaultPlan(crashes=[BrokerCrash("kdc0", at=1.0, duration=1.0)])
    _hosted(scenario, replicas=1, plan=plan)


def test_deterministic_replay():
    async def scenario(net, cluster):
        loop = asyncio.get_running_loop()
        replies = []
        for k in range(20):
            loop.call_at(k * 0.1, lambda k=k: net.request(
                "client", "kdc0", KDCRequest("authorize", ("c", k), {
                    "subscriber": "S",
                    "filters": Filter.topic("t"),
                    "at_time": k * 0.1,
                }),
                on_reply=replies.append,
            ))
        await _until(5.0)
        return (
            len(replies),
            loop.discarded,
            cluster.replicas["kdc0"].stats.authorizations,
            cluster.view,
        )

    def one_run():
        plan = FaultPlan(
            crashes=[BrokerCrash("kdc0", at=0.5, duration=1.0)],
            link_faults=[LinkFault(loss=0.3)],
        )
        return _hosted(scenario, plan=plan, seed=5)

    assert one_run() == one_run()
