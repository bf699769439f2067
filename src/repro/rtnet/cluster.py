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
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.routing.tokens import tokenized_match
from repro.rtnet.server import BrokerServer
from repro.siena.broker import MatchPredicate


class ClusterLauncher:
    """Launch and tear down a loopback broker-tree cluster."""

    def __init__(
        self,
        num_brokers: int = 7,
        arity: int = 2,
        host: str = "127.0.0.1",
        match: MatchPredicate = tokenized_match,
        registry: MetricsRegistry | None = None,
        egress_capacity: int = 512,
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
                egress_capacity=egress_capacity,
            )
            for index in range(num_brokers)
        ]
        #: The KDC endpoint hosted beside the tree, when a
        #: :class:`~repro.core.kdc.KDC` is handed in.
        self.kdc_server = None
        if kdc is not None:
            # Local import: repro.rekey sits on top of rtnet.client.
            from repro.rekey.service import KdcServer

            self.kdc_server = KdcServer(kdc, host=host, registry=registry)
        self._subscriber_cursor = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind every listener, then wire children to parents."""
        if self.kdc_server is not None:
            await self.kdc_server.start()
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
        if self.kdc_server is not None:
            await self.kdc_server.stop()

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

    def kdc_address(self) -> tuple[str, int]:
        """Where :class:`~repro.rekey.KdcChannel` clients dial in."""
        if self.kdc_server is None:
            raise ValueError("cluster launched without a kdc")
        return self.kdc_server.address

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

