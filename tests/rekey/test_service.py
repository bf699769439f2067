"""The replicated KDC on the TCP host: grant, deny, revoke, rekey,
malformed calls, failover, and the same op script on both hosts."""

import asyncio
import struct

from repro.core import KDC, CompositeKeySpace, NumericKeySpace
from repro.core.kdcclient import KDCClient
from repro.core.kdcservice import (
    KDCCluster,
    KDCRequest,
    KDCResponse,
    RegistryCommand,
)
from repro.errors import GrantDenied
from repro.net.service import ServiceNetwork
from repro.net.sim import Simulator
from repro.rtnet.cluster import KDC_REPLICAS, ClusterLauncher
from repro.rtnet.frames import (
    FrameReader,
    FrameType,
    Hello,
    KdcCall,
    KdcReply,
    encode_frame,
)
from repro.rtnet.service import TcpServiceNetwork
from repro.siena.filters import Filter

TOPIC = "t"
FULL = Filter.numeric_range(TOPIC, "v", 0, 15)


def _kdc(epoch_length=10.0):
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        TOPIC,
        CompositeKeySpace({"v": NumericKeySpace("v", 16)}),
        epoch_length=epoch_length,
    )
    return kdc


async def _idle(client, timeout=10.0):
    """Return once *client* has no open call."""
    idle = asyncio.get_running_loop().create_future()
    client.when_idle(lambda: idle.set_result(None))
    await asyncio.wait_for(idle, timeout)


async def _until(condition, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _hosted(scenario):
    """Run ``scenario(cluster, client)`` against a launcher hosting the
    3-replica KDC, with one attached client ``alice``."""

    async def run():
        async with ClusterLauncher(num_brokers=1, kdc=_kdc()) as cluster:
            await scenario(cluster, await cluster.kdc_client("alice"))

    asyncio.run(run())


def test_grant_round_trip_installs_via_callback():
    async def scenario(cluster, client):
        grants, errors = [], []
        client.authorize(
            "alice", FULL, at_time=5.0,
            on_grant=grants.append, on_error=errors.append,
        )
        await _idle(client)
        assert errors == []
        assert len(grants) == 1
        assert grants[0].topic == TOPIC
        assert grants[0].epoch == cluster.kdc.epoch_of(TOPIC, 5.0)
        assert client.stats.successes == 1
        assert client.stats.failovers == 0
        latency = client.registry.get(
            "kdc_client_request_latency_seconds", client="alice"
        )
        assert latency.count == 1

    _hosted(scenario)


def test_denied_grant_surfaces_grant_denied():
    async def scenario(cluster, client):
        await cluster.revoke("mallory", TOPIC)
        grants, errors = [], []
        client.authorize(
            "mallory", FULL, on_grant=grants.append, on_error=errors.append
        )
        await _idle(client)
        assert grants == []
        assert len(errors) == 1
        assert isinstance(errors[0], GrantDenied)
        assert isinstance(errors[0], PermissionError)
        assert client.stats.denied == 1

    _hosted(scenario)


def test_revoke_round_trip_then_denial():
    async def scenario(cluster, client):
        replicas = cluster.kdc_cluster.replicas
        await cluster.revoke("bob", TOPIC)
        assert ("bob", TOPIC) in replicas["kdc0"].kdc.revocations
        # The primary replicates it: every backup denies too.
        await _until(cluster.kdc_cluster.converged)
        for replica in replicas.values():
            assert ("bob", TOPIC) in replica.kdc.revocations
        errors = []
        client.authorize("bob", FULL, on_error=errors.append)
        await _idle(client)
        assert [type(error) for error in errors] == [GrantDenied]

    _hosted(scenario)


def test_rekey_broadcast_advances_the_logical_clock():
    async def scenario(cluster, client):
        seen, arrivals = [], []
        bob = KDCClient(cluster.kdc_network, "bob", KDC_REPLICAS)
        bob.on_rekey.append(seen.append)

        def on_push(frame):
            arrivals.append(frame)
            bob.rekey(frame)

        await cluster.kdc_network.attach("bob", on_push)
        kdc = cluster.kdc
        boundary = kdc.epoch_start(TOPIC, kdc.epoch_of(TOPIC, 0.0) + 1)
        epoch = await cluster.roll_epoch(TOPIC, boundary)
        # Every live replica pushes; the client acts once.
        await _until(lambda: len(arrivals) == len(KDC_REPLICAS))
        assert len(seen) == 1
        assert seen[0].topic == TOPIC
        assert seen[0].epoch == epoch
        assert bob.now() == boundary
        assert bob.stats.rekeys == 1

    _hosted(scenario)


def test_unknown_topic_answers_bad_request_without_killing_session():
    async def scenario(cluster, client):
        grants, errors = [], []
        # Unknown topic: the primary answers bad_request instead of
        # dropping the connection.
        client.authorize(
            "alice",
            Filter.numeric_range("no-such-topic", "v", 0, 15),
            on_grant=grants.append,
            on_error=errors.append,
        )
        await _idle(client)
        assert grants == []
        assert [type(error) for error in errors] == [ValueError]
        # The session survives: a good request still completes.
        client.authorize("alice", FULL, on_grant=grants.append)
        await _idle(client)
        assert len(grants) == 1

    _hosted(scenario)


def test_malformed_call_answers_bad_request_without_killing_session():
    async def scenario(cluster, client):
        port = cluster.kdc_network.ports["kdc0"]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        frames = FrameReader(reader)
        writer.write(encode_frame(Hello("raw", "kdc")))
        await frames.read()  # HELLO_ACK
        writer.write(_malformed_call(41))
        reply = await frames.read()
        assert reply == KdcReply(41, KDCResponse(ok=False, error="bad_request"))
        # The session lives on: a well-formed call is answered.
        writer.write(encode_frame(KdcCall(42, _authorize("raw", 0))))
        reply = await frames.read()
        assert reply.tag == 42 and reply.response.ok
        writer.close()

    _hosted(scenario)


def _malformed_call(tag: int) -> bytes:
    """A KDC_CALL frame whose tag decodes and whose request does not."""
    garbage = bytes([FrameType.KDC_CALL]) + struct.pack(">q", tag) + b"\xff"
    return struct.pack(">I", len(garbage)) + garbage


def _authorize(client: str, counter: int) -> KDCRequest:
    return KDCRequest("authorize", (client, counter), {
        "subscriber": "alice", "filters": FULL, "at_time": 5.0,
        "publisher": None, "min_epoch": None,
    })


def test_malformed_call_between_good_calls_in_one_write_is_answered_in_place():
    async def scenario(cluster, client):
        port = cluster.kdc_network.ports["kdc0"]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        frames = FrameReader(reader)
        # HELLO and three calls in one write: the replica's reader holds
        # them all after its handshake, the bad one in the middle.
        writer.write(
            encode_frame(Hello("raw", "kdc"))
            + encode_frame(KdcCall(1, _authorize("raw", 1)))
            + _malformed_call(2)
            + encode_frame(KdcCall(3, _authorize("raw", 3)))
        )
        await frames.read()  # HELLO_ACK
        replies = [await frames.read() for _ in range(3)]
        assert [reply.tag for reply in replies] == [1, 2, 3]
        assert replies[0].response.ok and replies[2].response.ok
        assert replies[1].response == KDCResponse(ok=False, error="bad_request")
        # The session is still up.
        writer.write(encode_frame(KdcCall(4, _authorize("raw", 4))))
        reply = await frames.read()
        assert reply.tag == 4 and reply.response.ok
        writer.close()

    _hosted(scenario)


def test_tcp_primary_failover_then_catch_up():
    async def scenario(cluster, client):
        network, kdc_cluster = cluster.kdc_network, cluster.kdc_cluster
        network.crash("kdc0")
        assert kdc_cluster.primary_id == "kdc1"
        assert kdc_cluster.view == 1
        grants = []
        client.authorize("alice", FULL, at_time=5.0, on_grant=grants.append)
        await _idle(client)
        assert len(grants) == 1
        assert client.stats.failovers >= 1
        # A mutation the dead replica misses, then its restart.
        await cluster.revoke("mallory", TOPIC)
        replica = kdc_cluster.replicas["kdc0"]
        assert ("mallory", TOPIC) not in replica.kdc.revocations
        await network.restart("kdc0")
        assert replica.recovering
        await _until(lambda: not replica.recovering)
        assert replica.stats.catchups_completed == 1
        assert ("mallory", TOPIC) in replica.kdc.revocations
        await _until(kdc_cluster.converged)
        assert kdc_cluster.primary_id == "kdc1"  # no leadership steal-back

    _hosted(scenario)


def test_crashed_node_sends_nothing_it_queued():
    async def scenario(cluster, client):
        network, replicas = cluster.kdc_network, cluster.kdc_cluster.replicas
        command = RegistryCommand(2, "revoke", ("eve", TOPIC))
        # Queued on a session still dialing when its sender dies.
        network.request(
            "kdc0", "kdc1", KDCRequest("replicate", None, {"command": command})
        )
        network.crash("kdc0")
        await asyncio.sleep(0.2)
        assert ("eve", TOPIC) not in replicas["kdc1"].kdc.revocations

    _hosted(scenario)


# -- one op script, two hosts ----------------------------------------------------

#: Each op starts one client call, resolving through ``(ok, error)``.
_MIN_EPOCH = 7
_SCRIPT = [
    lambda c, ok, err: c.authorize(
        "alice", FULL, at_time=5.0, on_grant=ok, on_error=err
    ),
    lambda c, ok, err: c.admin(
        "revoke", ("mallory", TOPIC), on_ok=ok, on_error=err
    ),
    lambda c, ok, err: c.authorize(
        "mallory", FULL, at_time=5.0, on_grant=ok, on_error=err
    ),
    lambda c, ok, err: c.authorize(
        "alice", Filter.numeric_range("no-such-topic", "v", 0, 15),
        on_grant=ok, on_error=err,
    ),
    lambda c, ok, err: c.authorize(
        "alice", FULL, at_time=5.0, min_epoch=_MIN_EPOCH,
        on_grant=ok, on_error=err,
    ),
]


def _cluster_on(network):
    kdc = _kdc()
    cluster = KDCCluster(network, KDC_REPLICAS, kdc.master_key)
    config = kdc.config_for(TOPIC)
    cluster.register_topic(TOPIC, config.schema, config.epoch_length)
    return KDCClient(network, "alice", KDC_REPLICAS)


def _script_on_simulated_host():
    sim = Simulator()
    client = _cluster_on(ServiceNetwork(sim))
    outcomes = []
    for op in _SCRIPT:
        op(client, outcomes.append, lambda e: outcomes.append(type(e)))
        sim.run(until=sim.now + 1.0)
    return outcomes


def _script_on_tcp_host():
    async def run():
        network = TcpServiceNetwork()
        client = _cluster_on(network)
        client.advance(0.0)  # the REKEY clock, not the loop's, stamps grants
        await network.start()
        outcomes = []
        try:
            for op in _SCRIPT:
                op(client, outcomes.append, lambda e: outcomes.append(type(e)))
                await _idle(client)
        finally:
            await network.stop()
        return outcomes

    return asyncio.run(run())


def test_one_client_script_agrees_on_both_hosts():
    simulated = _script_on_simulated_host()
    tcp = _script_on_tcp_host()
    # Equal grants by value, the same log position, the same errors.
    assert tcp == simulated
    grant, seq, denied, unknown, pinned = tcp
    assert grant.topic == TOPIC and grant.subscriber == "alice"
    assert seq == 2  # after the provisioned topic
    assert denied is GrantDenied
    assert unknown is ValueError
    assert pinned.epoch == _MIN_EPOCH
