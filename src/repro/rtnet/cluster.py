"""Materialize a broker tree as a localhost TCP cluster.

The launcher stands up ``num_brokers`` :class:`~repro.rtnet.server.
BrokerServer` instances as asyncio tasks in this process, shaped exactly
like the in-process :class:`~repro.siena.network.BrokerTree`: broker
``b{i}``'s parent is ``b{(i-1)//arity}``, ``b0`` is the root.  Each
child *dials* its parent (parents listen first), so start-up is a
breadth-first wave of real TCP handshakes.

Publishers attach at the root (events fan down, matching Siena's
publish-at-root convention of the synchronous facade); subscribers
attach round-robin across the leaves.

Handed a provisioning :class:`~repro.core.kdc.KDC`, the launcher also
runs a 3-replica :class:`~repro.core.kdcservice.KDCCluster` beside the
tree on a :class:`~repro.rtnet.service.TcpServiceNetwork`, seeded with
the KDC's master key and topics.
"""

from __future__ import annotations

import asyncio

from repro.core.kdcclient import KDCClient
from repro.core.kdcservice import KDCCluster
from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import tokenized_match
from repro.rtnet.frames import Rekey
from repro.rtnet.server import BrokerServer
from repro.rtnet.service import TcpServiceNetwork
from repro.siena.broker import MatchPredicate

#: The hosted KDC's replicas; ``kdc0`` is the first primary.
KDC_REPLICAS = ("kdc0", "kdc1", "kdc2")


class ClusterLauncher:
    """Launch and tear down a loopback broker-tree cluster."""

    def __init__(
        self,
        num_brokers: int = 7,
        arity: int = 2,
        host: str = "127.0.0.1",
        match: MatchPredicate = tokenized_match,
        registry: MetricsRegistry | None = None,
        kdc=None,
    ):
        if num_brokers < 1:
            raise ValueError("a cluster needs at least one broker")
        if arity < 1:
            raise ValueError("arity must be positive")
        self.num_brokers = num_brokers
        self.arity = arity
        self.host = host
        self.registry = registry
        self.servers: list[BrokerServer] = [
            BrokerServer(
                f"b{index}",
                host=host,
                match=match,
                registry=registry,
            )
            for index in range(num_brokers)
        ]
        #: The provisioning KDC: its master key and public topic registry
        #: seed the replicated cluster :meth:`start` launches.
        self.kdc = kdc
        #: The hosted KDC's network and cluster, once started.
        self.kdc_network: TcpServiceNetwork | None = None
        self.kdc_cluster: KDCCluster | None = None
        self._admin: KDCClient | None = None
        #: The latest instant :meth:`roll_epoch` announced.
        self._announced_at = 0.0
        self._subscriber_cursor = 0
        #: KDC clients made so far per client id (see :meth:`kdc_client`).
        self._incarnations: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind every listener, then wire children to parents."""
        if self.kdc is not None:
            # Built on the running loop: the cluster's timers live there.
            self.kdc_network = TcpServiceNetwork(
                self.host, registry=self.registry
            )
            self.kdc_cluster = KDCCluster(
                self.kdc_network, KDC_REPLICAS, self.kdc.master_key
            )
            for config in self.kdc.registry.values():
                self.kdc_cluster.register_topic(
                    config.name, config.schema,
                    config.epoch_length, config.per_publisher,
                )
            await self.kdc_network.start()
            self._admin = KDCClient(self.kdc_network, "admin", KDC_REPLICAS)
        for server in self.servers:
            await server.start()
        for index in range(1, self.num_brokers):
            parent = self.servers[(index - 1) // self.arity]
            await self.servers[index].connect_parent(
                parent.host, parent.port
            )

    async def stop(self) -> None:
        # Children first, so parents never see mid-shutdown redials.
        for server in reversed(self.servers):
            await server.stop()
        if self.kdc_network is not None:
            await self.kdc_network.stop()

    async def __aenter__(self) -> "ClusterLauncher":
        await self.start()
        return self

    async def __aexit__(self, *_exc_info) -> None:
        await self.stop()

    # -- attach points -------------------------------------------------------

    @property
    def root(self) -> BrokerServer:
        return self.servers[0]

    def leaf_indices(self) -> list[int]:
        """Brokers with no children (where subscribers attach)."""
        leaves = [
            index
            for index in range(self.num_brokers)
            if self.arity * index + 1 >= self.num_brokers
        ]
        return leaves or [0]

    def publisher_address(self) -> tuple[str, int]:
        """Where publishers dial in: the root broker."""
        return self.root.address

    def subscriber_address(self) -> tuple[str, int]:
        """Next subscriber attach point, round-robin across leaves."""
        leaves = self.leaf_indices()
        index = leaves[self._subscriber_cursor % len(leaves)]
        self._subscriber_cursor += 1
        return self.servers[index].address

    # -- the hosted KDC -------------------------------------------------------

    async def kdc_client(self, client_id: str) -> KDCClient:
        """A :class:`KDCClient` on the hosted cluster, attached to every
        replica's REKEY push, on a logical clock that starts at the
        latest instant :meth:`roll_epoch` announced (0 before the
        first), so a late joiner's first grant is for the current
        epoch.  A second client for one id (a departed subscriber
        back) is named ``id#1`` and so on: the replicas answer a
        request id they have seen from their dedup cache, so a new
        client must not reuse its predecessor's ids."""
        if self.kdc_network is None:
            raise ValueError("cluster launched without a kdc")
        incarnation = self._incarnations.get(client_id, 0)
        self._incarnations[client_id] = incarnation + 1
        if incarnation:
            client_id = f"{client_id}#{incarnation}"
        client = KDCClient(self.kdc_network, client_id, KDC_REPLICAS)
        client.advance(self._announced_at)
        await self.kdc_network.attach(client_id, client.rekey)
        return client

    async def roll_epoch(self, topic: str, at_time: float) -> int:
        """Push REKEY for *topic*'s epoch at *at_time* from every live
        replica (clients advance and tick); returns the epoch."""
        epoch = self.kdc.epoch_of(topic, at_time)
        self._announced_at = max(self._announced_at, at_time)
        self.kdc_network.push(Rekey(topic, epoch, at_time))
        return epoch

    async def revoke(self, subscriber: str, topic: str) -> None:
        """Revoke *(subscriber, topic)* lazily at the primary, which
        replicates it; returns once the primary applied it."""
        applied = asyncio.get_running_loop().create_future()
        self._admin.admin(
            "revoke", (subscriber, topic),
            on_ok=applied.set_result, on_error=applied.set_exception,
        )
        await applied

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Per-broker counter snapshot (delivery/forwarding totals)."""
        return {
            server.broker_id: {
                "events_received": server.broker.stats.events_received,
                "events_forwarded": server.broker.stats.events_forwarded,
                "deliveries": server.broker.stats.deliveries,
                "subscriptions_received": (
                    server.broker.stats.subscriptions_received
                ),
            }
            for server in self.servers
        }

