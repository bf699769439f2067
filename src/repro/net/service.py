"""Request/response service endpoints on the simulated network.

The broker overlay (:mod:`repro.net.simnet`) models the *dissemination*
plane; this module models the *control* plane: named service nodes (KDC
replicas, clients) exchanging request/response messages over links that
are subject to the same :class:`~repro.net.faults.FaultInjector` state --
link loss, partitions, latency spikes, and node crash windows.

Semantics are deliberately minimal and failure-realistic:

- a request dispatched to a crashed node, or lost on the link, simply
  vanishes (no error signal: the caller's *timeout* is the only
  failure detector, exactly as over UDP/TCP-with-dead-peer);
- the reply rides the reverse link and is subject to the same fates, so
  a handler may execute while its reply is lost -- which is why service
  handlers must be idempotent (see the request-dedup cache in
  :mod:`repro.core.kdcservice`);
- every loss decision comes from the injector's seeded RNG, so runs are
  exactly reproducible.

:class:`repro.rtnet.service.TcpServiceNetwork` offers the same interface
with the same semantics over asyncio TCP, so one
:class:`~repro.core.kdcservice.KDCCluster` runs on either.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.net.faults import FaultInjector
from repro.net.sim import Simulator
from repro.obs.metrics import MetricsRegistry, RegistryBackedStats

#: A service handler: ``handler(sender, payload) -> reply payload``.
#: Returning ``None`` suppresses the reply (the caller will time out).
ServiceHandler = Callable[[Hashable, object], object]


class ServiceStats(RegistryBackedStats):
    """Control-plane traffic counters for the chaos reports.

    Registry-backed (``svc_<field>_total``); the attribute API is a thin
    view over shared counters.
    """

    _int_fields = (
        "requests_sent",
        "requests_delivered",
        "replies_sent",
        "replies_delivered",
        # Messages that vanished: link loss, partition, or a dead endpoint.
        "lost",
    )
    _metric_prefix = "svc_"


class ServiceNetwork:
    """Point-to-point request/response messaging on a :class:`Simulator`.

    *latency* is the one-way delay between any two service nodes (the
    control plane is star-shaped in the experiments; a callable
    ``latency(src, dst)`` models heterogeneous links).  *faults* -- when
    given -- governs deliverability and node liveness: a node is
    reachable only while ``faults.broker_up(node)`` holds at *delivery*
    time, and each transmission survives per ``faults.deliverable``.
    """

    def __init__(
        self,
        sim: Simulator,
        faults: FaultInjector | None = None,
        latency: Callable[[Hashable, Hashable], float] | float = 0.005,
        registry: MetricsRegistry | None = None,
    ):
        #: The virtual clock (``now``/``schedule``) replicas and clients
        #: time out on.
        self.clock = sim
        self.faults = faults
        self.registry = registry if registry is not None else MetricsRegistry()
        self._latency_of = (
            latency
            if callable(latency)
            else (lambda _src, _dst: float(latency))
        )
        self._handlers: dict[Hashable, ServiceHandler] = {}
        self.stats = ServiceStats(self.registry)

    # -- wiring --------------------------------------------------------------

    def register(self, node_id: Hashable, handler: ServiceHandler) -> None:
        """Bind *handler* as the request processor of *node_id*."""
        if node_id in self._handlers:
            raise ValueError(f"service node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def node_up(self, node_id: Hashable) -> bool:
        """Whether *node_id* is currently alive per the fault injector."""
        return self.faults is None or self.faults.broker_up(node_id)

    def on_transition(self, listener: Callable[[str, Hashable], None]) -> None:
        """Call ``listener(kind, node)`` on every crash/restart the fault
        injector plays; without one, nodes never fail."""
        if self.faults is not None:
            self.faults.on_transition(listener)

    # -- messaging -----------------------------------------------------------

    def _transmit(
        self,
        src: Hashable,
        dst: Hashable,
        on_arrival: Callable[[], None],
    ) -> None:
        """One one-way transmission; lost messages vanish silently."""
        if self.faults is not None and not self.faults.deliverable(src, dst):
            self.stats.lost += 1
            return
        delay = self._latency_of(src, dst) + (
            self.faults.extra_latency(src, dst)
            if self.faults is not None
            else 0.0
        )

        def arrive() -> None:
            if not self.node_up(dst):
                self.stats.lost += 1
                return
            on_arrival()

        self.clock.schedule(delay, arrive)

    def request(
        self,
        src: Hashable,
        dst: Hashable,
        payload: object,
        on_reply: Callable[[object], None] | None = None,
    ) -> None:
        """Send *payload* from *src* to *dst*; route any reply back.

        There is no failure signal: if the request or the reply is lost,
        or *dst* is down (or unregistered -- still booting), *on_reply*
        is simply never called.  Callers own their timeouts.
        """
        self.stats.requests_sent += 1

        def deliver() -> None:
            handler = self._handlers.get(dst)
            if handler is None:
                self.stats.lost += 1
                return
            self.stats.requests_delivered += 1
            reply = handler(src, payload)
            if reply is None or on_reply is None:
                return
            self.stats.replies_sent += 1

            def deliver_reply() -> None:
                self.stats.replies_delivered += 1
                on_reply(reply)

            self._transmit(dst, src, deliver_reply)

        self._transmit(src, dst, deliver)
