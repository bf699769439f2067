"""A timed pub-sub overlay: Siena brokers on simulated CPUs and links.

``SimulatedPubSub`` reproduces the experimental setup of Section 5.2: a
complete ``arity``-ary tree of broker nodes whose links carry the WAN
latencies of the generated topology, the publisher at the root, and
subscribers attached to leaf brokers.  Per-message processing costs (event
matching, tokenized matching, key derivation, encryption/decryption) are
injected by the harness as cost functions, so the same overlay measures
plain Siena and every PSGuard variant.

The overlay optionally runs a **reliable at-least-once delivery stack**
on top of a :class:`~repro.net.faults.FaultInjector`:

- per-hop acknowledgements with retransmission on timeout (exponential
  backoff plus jitter, bounded by a retry budget with dead-letter
  accounting);
- hop-level duplicate suppression, so retransmissions never re-enter the
  routing fabric twice;
- a heartbeat failure detector: each broker pings its tree neighbours
  and marks them down after consecutive misses, parking outbound events
  instead of burning the retry budget against a dead peer;
- restart recovery: heartbeats carry an incarnation number, so
  neighbours notice a broker that lost its volatile routing state and
  replay subscription state (children re-announce their forwarded
  filter tables; locally attached clients re-subscribe).

With ``reliability=None`` (the default) the overlay is the original
fire-and-forget transport -- under a fault plan that is the chaos
baseline.  When the heartbeat loop is running the event queue never
drains, so drive the simulator with ``sim.run(until=...)``.

Passing a :class:`~repro.flow.FlowControlPolicy` activates the
**overload-protection stack** on top of either transport:

- every broker gets a bounded, priority-classed ingress queue
  (:class:`~repro.flow.BoundedPriorityQueue`); a service pump feeds the
  broker CPU one event at a time, so the unbounded ``ProcessingNode``
  backlog of the unprotected overlay collapses to the explicit queue;
- every directed broker link gets a :class:`~repro.flow.CreditGate`
  plus a bounded egress buffer: data sends consume a credit, the
  receiver returns it when it *dequeues* the message for service
  (credit grants ride the instantaneous control plane, like
  subscriptions), and senders without credits queue -- or shed -- at
  egress instead of overrunning a slow peer;
- an overflow sheds the oldest event of the worst priority class
  present -- the one shedding rule, the same the rtnet broker's egress
  applies;
- sheds are surfaced to publishers via :meth:`SimulatedPubSub.on_shed`
  (the AIMD overload signal) and to operators via the ``flow_*``
  metric families.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.flow.credit import CreditGate
from repro.flow.policy import FlowControlPolicy, priority_name, priority_of
from repro.flow.queues import BoundedPriorityQueue
from repro.net.faults import FaultInjector
from repro.net.links import Link
from repro.net.node import ProcessingNode
from repro.net.sim import Simulator
from repro.obs import Observability
from repro.obs.metrics import Counter, MetricsRegistry, RegistryBackedStats
from repro.recovery.dedup import DedupWindow
from repro.recovery.journal import JournalStore
from repro.recovery.repair import RepairCoordinator, RepairPolicy
from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Filter

#: Cost (seconds) to process one publication at a broker / subscriber.
BrokerCostFn = Callable[[Hashable, Event], float]
SubscriberCostFn = Callable[[Hashable, Event], float]

_SEQ_ATTRIBUTE = "_seq"
_ACK_SIZE = 16
_HEARTBEAT_SIZE = 24
#: Events parked per down peer before the oldest is evicted.
_PARK_LIMIT = 4096


@dataclass
class DeliveryRecord:
    """One event delivered to one subscriber, with timing."""

    seq: int
    subscriber_id: Hashable
    published_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.published_at


@dataclass
class _Publication:
    routable: Event
    carrier: object
    size: int
    published_at: float
    deliveries: int = 0


#: Total transmission attempts per hop (first try included) before a
#: reliable hop message is dead-lettered.
RETRY_ATTEMPTS = 6
#: Ack timeout for the first attempt (must exceed one round trip); it
#: grows by ``_RETRY_BACKOFF`` per failed attempt and is perturbed by a
#: uniform +-``_RETRY_JITTER`` fraction (desynchronizes storms).
_ACK_TIMEOUT = 0.05
_RETRY_BACKOFF = 2.0
_RETRY_JITTER = 0.1
#: Consecutive missed heartbeats before a neighbour is marked down.
_MISS_THRESHOLD = 3


def retry_timeout(attempt: int, rng: random.Random) -> float:
    """The ack timeout for (0-based) *attempt*, with jitter applied."""
    timeout = _ACK_TIMEOUT * (_RETRY_BACKOFF ** attempt)
    return timeout * (1.0 + _RETRY_JITTER * (2.0 * rng.random() - 1.0))


@dataclass
class RetryPolicy:
    """The failure detector's cadence for the reliable overlay (retries
    themselves follow :data:`RETRY_ATTEMPTS` and :func:`retry_timeout`)."""

    #: Heartbeat cadence of the failure detector.
    heartbeat_interval: float = 0.2
    #: Uniform +-fraction perturbing every heartbeat period, so beat
    #: loops (and the parked-traffic flushes they trigger) desynchronize
    #: after a partition heals instead of stampeding in lock-step.  Drawn
    #: from a dedicated RNG stream: enabling it never perturbs the
    #: retry-jitter sequence of an otherwise identical run.
    heartbeat_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if not 0.0 <= self.heartbeat_jitter < 1.0:
            raise ValueError("heartbeat jitter fraction must be within [0, 1)")


class ReliabilityStats(RegistryBackedStats):
    """Counters the reliable overlay keeps for the chaos reports.

    Registry-backed (``net_<field>_total``): the attribute API is a thin
    view over shared counters, so the chaos reports keep reading
    ``rstats.retries`` while exporters see the same series.
    """

    _int_fields = (
        "data_sends",
        "retries",
        "acks_sent",
        "dead_letters",
        # Hop-level duplicate arrivals suppressed by the dedup filter.
        "duplicates_suppressed",
        # Subscriber-level duplicate deliveries suppressed.
        "duplicate_deliveries",
        "heartbeats_sent",
        "failures_detected",
        "recoveries_detected",
        # Events parked while the next hop was marked down, then re-sent.
        "parked",
        "parked_flushes",
        "warmup_deferred",
        "subscriptions_replayed",
        # Oldest parked events dropped by the bounded retransmit buffer.
        "retx_evicted",
        # Restarted brokers whose routing state came back from a journal.
        "journal_restores",
        # Journaled in-flight events re-published (restart or repair).
        "events_salvaged",
    )
    _metric_prefix = "net_"

    def __init__(self, registry: MetricsRegistry | None = None, **labels):
        super().__init__(registry, **labels)
        self.detection_latencies: list[float] = []
        self.recovery_latencies: list[float] = []


def _zero_cost(_node: Hashable, _event: Event) -> float:
    return 0.0


class _BrokerFlow:
    """Per-broker overload-protection state: the bounded ingress queue.

    ``busy`` is the service pump's one-job-in-flight latch: the pump
    dequeues one ingress item, runs it on the broker CPU, and only takes
    the next on completion -- so queueing is explicit (and bounded) in
    the ingress queue rather than implicit in the CPU backlog.
    """

    __slots__ = ("ingress", "busy")

    def __init__(self, ingress: BoundedPriorityQueue):
        self.ingress = ingress
        self.busy = False


class _LinkFlow:
    """Per-directed-link flow state: credit gate + bounded egress buffer."""

    __slots__ = ("gate", "egress")

    def __init__(self, gate: CreditGate, egress: BoundedPriorityQueue):
        self.gate = gate
        self.egress = egress


class SimulatedPubSub:
    """The timed broker overlay used by the Fig 9-11 experiments.

    *faults* binds a :class:`~repro.net.faults.FaultInjector` (on the
    same simulator) whose crash/restart transitions are applied to the
    brokers and whose link state governs every transmission.  With
    *reliability* set, the at-least-once stack described in the module
    docstring is active; *seed* feeds the retry-jitter RNG.
    """

    def __init__(
        self,
        sim: Simulator,
        num_brokers: int,
        arity: int = 2,
        link_latency: Callable[[Hashable, Hashable], float] | float = 0.010,
        client_latency: float = 0.002,
        broker_cost: BrokerCostFn = _zero_cost,
        subscriber_cost: SubscriberCostFn = _zero_cost,
        per_send_s: float = 0.0,
        reliability: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
        seed: int = 0,
        obs: Observability | None = None,
        journals: JournalStore | None = None,
        repair: RepairPolicy | None = None,
        dedup_window: int | None = None,
        flow: FlowControlPolicy | None = None,
    ):
        if num_brokers < 1:
            raise ValueError("need at least the root broker")
        if repair is not None and reliability is None:
            raise ValueError(
                "tree repair rides the failure detector; it requires the "
                "reliable stack (pass a RetryPolicy)"
            )
        self.sim = sim
        # Observability: metrics always accumulate (into the supplied
        # registry or a private one); per-event tracing only when an
        # Observability bundle is threaded in.  Neither path touches the
        # RNG or schedules simulator events, so seeded runs are bitwise
        # identical with and without instrumentation.
        self.obs = obs
        self.registry = obs.registry if obs is not None else MetricsRegistry()
        self._tracer = obs.tracer if obs is not None else None
        self.arity = arity
        self.broker_cost = broker_cost
        self.subscriber_cost = subscriber_cost
        self.per_send_s = per_send_s
        self._latency_of = (
            link_latency
            if callable(link_latency)
            else (lambda _a, _b: float(link_latency))
        )
        self.client_latency = client_latency
        self.reliability = reliability
        self.faults = faults
        self.journals = journals
        self._rng = random.Random(seed)
        # Heartbeat jitter draws from its own stream so that enabling it
        # leaves the retry-jitter sequence (and every seeded test pinned
        # to it) untouched.
        self._hb_rng = random.Random(f"heartbeat-jitter-{seed}")

        self.brokers: dict[Hashable, Broker] = {}
        self.nodes: dict[Hashable, ProcessingNode] = {}
        self.links: dict[tuple[Hashable, Hashable], Link] = {}
        self.subscriber_nodes: dict[Hashable, ProcessingNode] = {}
        self._subscriber_home: dict[Hashable, Hashable] = {}
        self._client_filters: dict[Hashable, list[Filter]] = {}
        self._inflight: dict[int, _Publication] = {}
        self._next_seq = 0
        self.deliveries: list[DeliveryRecord] = []
        self._delivered_keys: set[tuple[int, Hashable]] = set()
        # Optional bounded replacement for the exact _delivered_keys set:
        # with dedup_window set, subscriber-level duplicate suppression
        # runs through a sliding DedupWindow instead (bounded memory, the
        # production configuration of the recovery scenario).
        self._dedup = (
            DedupWindow(window=dedup_window, registry=self.registry)
            if dedup_window is not None
            else None
        )
        self._client_links: dict[Hashable, Link] = {}
        self._monitor_interval: float | None = None

        # Reliable-delivery state.
        self.rstats = ReliabilityStats(self.registry)
        self._h_delivery = self.registry.histogram(
            "net_delivery_latency_seconds"
        )
        self._h_detection = self.registry.histogram(
            "net_detection_latency_seconds"
        )
        self._h_recovery = self.registry.histogram(
            "net_recovery_latency_seconds"
        )
        self._c_ack_timeouts = self.registry.counter("net_ack_timeouts_total")
        self._link_counters: dict[tuple, Counter] = {}
        self.dead_letters: list[tuple[int, Hashable, Hashable]] = []
        self._neighbors: dict[Hashable, list[Hashable]] = {}
        self._hop_seen: set[tuple[Hashable, Hashable, int]] = set()
        self._hop_queued: set[tuple[Hashable, Hashable, int]] = set()
        self._pending: dict[tuple[Hashable, Hashable, int], object] = {}
        self._parked: dict[
            tuple[Hashable, Hashable], deque[tuple[int, Event]]
        ] = {}
        self._neighbor_down: set[tuple[Hashable, Hashable]] = set()
        self._last_heard: dict[tuple[Hashable, Hashable], float] = {}
        self._known_incarnation: dict[tuple[Hashable, Hashable], int] = {}
        self._last_crash_at: dict[Hashable, float] = {}
        self._last_restart_at: dict[Hashable, float] = {}
        # Self-healing state: excised brokers map to their adopters, and
        # (sender, seq) -> outstanding receivers drives journal retention.
        self._reroute: dict[Hashable, Hashable] = {}
        self._obligations: dict[tuple[Hashable, int], set[Hashable]] = {}
        self._c_journal_replayed = self.registry.counter(
            "journal_replayed_events_total"
        )

        # Overload-protection state (active only with a flow policy):
        # per-broker bounded ingress, per-directed-link credit
        # gate + bounded egress, and the credits currently held by
        # in-flight hop sends (keyed like the ack machinery).
        self.flow = flow
        self._broker_flow: dict[Hashable, _BrokerFlow] = {}
        self._link_flow: dict[tuple[Hashable, Hashable], _LinkFlow] = {}
        self._credit_held: set[tuple] = set()
        self._shed_listeners: list[Callable[[int, str, Hashable], None]] = []
        self.shed_events = 0
        self._h_delivery_prio: dict[int, object] = {}

        for index in range(num_brokers):
            self.brokers[index] = Broker(index, registry=self.registry)
            if self.journals is not None:
                self.brokers[index].bind_journal(
                    self.journals.journal_for(index)
                )
            self.nodes[index] = ProcessingNode(sim, index)
            self._neighbors[index] = []
            if flow is not None:
                self._broker_flow[index] = self._make_broker_flow(index)
        for index in range(1, num_brokers):
            parent = (index - 1) // arity
            self._connect(parent, index)

        self.repair = (
            RepairCoordinator(self, repair, tracer=self._tracer)
            if repair is not None
            else None
        )
        if self.faults is not None:
            self.faults.on_transition(self._on_fault_transition)
        if self.reliability is not None:
            self._start_heartbeats()

    # -- wiring --------------------------------------------------------------

    def _connect(self, parent: Hashable, child: Hashable) -> None:
        latency = self._latency_of(parent, child)
        self.links[(parent, child)] = Link(self.sim, latency)
        self.links[(child, parent)] = Link(self.sim, latency)
        self._neighbors[parent].append(child)
        self._neighbors[child].append(parent)
        # Every broker starts at incarnation 0; seeding the known value
        # lets neighbours spot a restart even before the first heartbeat.
        self._known_incarnation[(parent, child)] = 0
        self._known_incarnation[(child, parent)] = 0
        self.brokers[parent].attach_child(child, self._sender(parent, child))
        self.brokers[child].attach_parent(parent, self._sender(child, parent))

    def _sender(self, from_id: Hashable, to_id: Hashable):
        def send(kind: str, payload: object) -> None:
            if kind in ("subscribe", "unsubscribe"):
                # Control plane: instantaneous (setup time is not measured);
                # a crashed target drops it (Broker guards on ``alive``).
                assert isinstance(payload, Filter)
                if kind == "subscribe":
                    self.brokers[to_id].subscribe(from_id, payload)
                else:
                    self.brokers[to_id].unsubscribe(from_id, payload)
                return
            assert isinstance(payload, Event)
            self._forward(
                from_id, to_id, payload.get(_SEQ_ATTRIBUTE), payload
            )

        return send

    def _forward(
        self, from_id: Hashable, to_id: Hashable, seq: int, payload: Event
    ) -> None:
        """Put one hop message on the overlay's transport, first attempt."""
        if self.reliability is None:
            self._transmit_once(from_id, to_id, seq, payload)
        else:
            self._transmit_reliable(from_id, to_id, seq, payload, 0)

    # -- flow control --------------------------------------------------------

    def _make_broker_flow(self, broker_id: Hashable) -> _BrokerFlow:
        ingress = BoundedPriorityQueue(
            self.flow.queue_capacity,
            registry=self.registry,
            broker=str(broker_id),
            queue="ingress",
        )
        return _BrokerFlow(ingress)

    def _link_flow_for(
        self, from_id: Hashable, to_id: Hashable
    ) -> _LinkFlow:
        """The credit gate + egress buffer of one directed link (lazy,
        so links grafted by tree repair are covered too)."""
        lf = self._link_flow.get((from_id, to_id))
        if lf is None:
            policy = self.flow
            link = f"{from_id}->{to_id}"
            gate = CreditGate(
                policy.credit_window,
                registry=self.registry,
                clock=lambda: self.sim.now,
                link=link,
            )
            egress = BoundedPriorityQueue(
                policy.queue_capacity,
                registry=self.registry,
                link=link,
                queue="egress",
            )
            lf = _LinkFlow(gate, egress)
            self._link_flow[(from_id, to_id)] = lf
        return lf

    def on_shed(
        self, listener: Callable[[int, str, Hashable], None]
    ) -> None:
        """Call ``listener(priority, stage, broker_id)`` on every shed.

        This is the explicit overload signal publishers feed their AIMD
        limiters with; ``stage`` names the bounded queue that overflowed,
        ``"ingress"`` or ``"egress"``.
        """
        self._shed_listeners.append(listener)

    def _notify_shed(
        self, priority: int, stage: str, broker_id: Hashable
    ) -> None:
        self.shed_events += 1
        for listener in self._shed_listeners:
            listener(priority, stage, broker_id)

    def _acquire_or_queue(self, key: tuple, payload: Event) -> bool:
        """Hold a hop credit for *key*, or buffer the send at egress.

        True means the caller owns a credit (retries already do) and may
        put the message on the wire; False means the send was deferred
        until a credit returns -- or shed, if the egress buffer was full.
        """
        if self.flow is None:
            return True
        if key in self._credit_held:
            return True
        from_id, to_id, _seq = key
        lf = self._link_flow_for(from_id, to_id)
        if lf.gate.try_acquire():
            self._credit_held.add(key)
            return True
        result = lf.egress.offer((key, payload), priority_of(payload))
        if result.shed is not None:
            (shed_key, _payload), shed_priority = result.shed
            self._notify_shed(shed_priority, "egress", from_id)
            if self.reliability is not None:
                # The hop send never happened and never will: that is
                # this hop's delivery giving up, so it books as a dead
                # letter exactly like an exhausted retry budget.
                self.rstats.dead_letters += 1
                self.dead_letters.append((shed_key[2], from_id, to_id))
        return False

    def _credit_release(self, key: tuple) -> None:
        """Return the credit held for *key* (idempotent) and pump the
        sender's egress buffer with the freed slot."""
        if key not in self._credit_held:
            return
        self._credit_held.discard(key)
        lf = self._link_flow.get((key[0], key[1]))
        if lf is None:
            return
        lf.gate.release()
        self._pump_egress(key[0], key[1])

    def _pump_egress(self, from_id: Hashable, to_id: Hashable) -> None:
        lf = self._link_flow[(from_id, to_id)]
        while len(lf.egress) and lf.gate.available > 0:
            (key, payload), _priority = lf.egress.take()
            self._forward(*key, payload)

    def _flow_enqueue(
        self, broker_id: Hashable, item: tuple, priority: int
    ) -> None:
        """Offer *item* to a broker's bounded ingress; pump on accept."""
        bf = self._broker_flow[broker_id]
        result = bf.ingress.offer(item, priority)
        if result.shed is not None:
            shed_item, shed_priority = result.shed
            self._notify_shed(shed_priority, "ingress", broker_id)
            if shed_item[0] == "hop":
                self._forget_queued_hop(shed_item[1])
        if result.accepted:
            self._pump_broker(broker_id)

    def _pump_broker(self, broker_id: Hashable) -> None:
        """Feed the broker CPU one ingress item at a time."""
        bf = self._broker_flow[broker_id]
        if bf.busy:
            return
        entry = bf.ingress.take()
        if entry is None:
            return
        item, _priority = entry
        bf.busy = True
        cost, work = self._flow_service(broker_id, item)

        def done() -> None:
            bf.busy = False
            work()
            self._pump_broker(broker_id)

        self.nodes[broker_id].submit(cost, done)

    def _flow_service(
        self, broker_id: Hashable, item: tuple
    ) -> tuple[float, Callable[[], None]]:
        """(cost, completion work) for one dequeued ingress item.

        Hop credits are returned here -- at dequeue-for-service time --
        so the upstream sender can pipeline its next event while this
        one occupies the CPU, without ever overrunning the ingress bound.
        """
        if item[0] == "pub":
            event = item[1]
            broker = self.brokers[broker_id]

            def work() -> None:
                if broker.alive:
                    broker.publish(event, arrived_from=None)

            return self._service_cost(broker_id, event), work
        _kind, key, payload = item
        self._credit_release(key)
        return (
            self._service_cost(broker_id, payload),
            lambda: self._process_hop(broker_id, key, payload),
        )

    def _forget_queued_hop(self, key: tuple) -> None:
        """A hop message left the ingress queue unserved (shed, or lost
        with a crashed broker's volatile state)."""
        # It occupied a credit-reserved slot; free it so the upstream
        # sender is not stalled by a dead event.
        self._credit_release(key)
        # No ack will come; un-mark it so a reliable sender's retry is
        # not suppressed as an already-queued duplicate.
        self._hop_queued.discard(key)

    def _drop_broker_flow_state(self, broker_id: Hashable) -> None:
        """A crashed broker loses its volatile ingress queue and egress
        buffers.  Free the credits its queued arrivals were holding, and
        forget the sends it was still waiting to make: a credit returned
        later must not put a dead broker's hops on the wire.  (A buffered
        send holds no credit -- it is waiting for one -- so dropping it
        frees none.)"""
        bf = self._broker_flow.get(broker_id)
        if bf is None:
            return
        for item, _priority in bf.ingress.drain():
            if item[0] == "hop":
                self._forget_queued_hop(item[1])
        bf.busy = False
        for (from_id, _to_id), lf in self._link_flow.items():
            if from_id == broker_id:
                lf.egress.drain()

    def _service_cost(self, broker_id: Hashable, event: Event) -> float:
        """Broker matching cost, scaled by any active slowdown fault."""
        cost = self.broker_cost(broker_id, event)
        if self.faults is not None:
            factor = self.faults.cost_factor(broker_id)
            if factor != 1.0:
                cost *= factor
        return cost

    # -- transport -----------------------------------------------------------

    def _link_counter(
        self, name: str, from_id: Hashable, to_id: Hashable
    ) -> Counter:
        """Per-link counter, cached so hot paths skip the registry lookup."""
        key = (name, from_id, to_id)
        counter = self._link_counters.get(key)
        if counter is None:
            counter = self.registry.counter(
                name, link=f"{from_id}->{to_id}"
            )
            self._link_counters[key] = counter
        return counter

    def _hop_send(
        self,
        from_id: Hashable,
        to_id: Hashable,
        size: int,
        on_arrival: Callable[[], None],
    ) -> bool:
        """One transmission over a (possibly faulty) broker-broker link.

        Returns whether the message survived the medium; lost messages
        still count against the link's traffic statistics.
        """
        link = self.links[(from_id, to_id)]
        if self.faults is not None and not self.faults.deliverable(
            from_id, to_id
        ):
            link.stats.messages += 1
            link.stats.bytes += size
            self._link_counter(
                "net_link_drops_total", from_id, to_id
            ).inc()
            return False
        extra = (
            self.faults.extra_latency(from_id, to_id)
            if self.faults is not None
            else 0.0
        )
        link.send(size, on_arrival, extra_delay=extra)
        return True

    def _serve_hop(self, to_id: Hashable, key: tuple, payload: Event) -> None:
        """Queue an arrived hop message for *to_id*'s CPU.

        Under a flow policy that is the bounded ingress queue (a shed
        there frees the credit and ``_hop_queued``, so the sender's retry
        or dead-letter accounting takes over); without one, the raw CPU
        queue.
        """
        if self.flow is not None:
            self._flow_enqueue(
                to_id, ("hop", key, payload), priority_of(payload)
            )
            return
        self.nodes[to_id].submit(
            self._service_cost(to_id, payload),
            lambda: self._process_hop(to_id, key, payload),
        )

    def _process_hop(
        self, to_id: Hashable, key: tuple, payload: Event
    ) -> None:
        """The CPU reached a hop message: match and forward it, then --
        on the reliable transport only -- mark it seen and ack."""
        self._hop_queued.discard(key)
        broker = self.brokers[to_id]
        if not broker.alive:
            return  # crashed while queued: a reliable sender retries
        broker.publish(payload, arrived_from=key[0])
        if self.reliability is not None:
            self._hop_seen.add(key)
            self._send_ack(to_id, key[0], key)

    def _transmit_once(
        self, from_id: Hashable, to_id: Hashable, seq: int, payload: Event
    ) -> None:
        """Fire-and-forget forwarding (the pre-fault-tolerance transport)."""
        key = (from_id, to_id, seq)
        if not self._acquire_or_queue(key, payload):
            return
        self.rstats.data_sends += 1
        publication = self._inflight[seq]
        # Serialization work for this send occupies the sender's CPU;
        # it is what makes a 32-way fan-out at a lone publisher more
        # expensive than a 2-way forward inside the tree.
        if self.per_send_s > 0:
            self.nodes[from_id].submit(self.per_send_s, lambda: None)
        sent_at = self.sim.now

        def on_arrival() -> None:
            if self._tracer is not None:
                self._tracer.span(
                    seq, "hop", to_id, sent_at, self.sim.now,
                    link=f"{from_id}->{to_id}", attempt=0,
                )
            if not self.brokers[to_id].alive:
                self._credit_release(key)
                return
            self._serve_hop(to_id, key, payload)

        survived = self._hop_send(from_id, to_id, publication.size, on_arrival)
        if not survived:
            self._credit_release(key)
            if self._tracer is not None:
                self._tracer.span(
                    seq, "drop", to_id, sent_at,
                    link=f"{from_id}->{to_id}", attempt=0,
                )

    def _transmit_reliable(
        self,
        from_id: Hashable,
        to_id: Hashable,
        seq: int,
        payload: Event,
        attempt: int,
    ) -> None:
        """One acknowledged transmission attempt, with retry on timeout."""
        if to_id in self._reroute:
            # The target was declared permanently dead and excised; its
            # traffic flows through the adopter instead.
            self._redirect(from_id, to_id, seq, payload)
            return
        if (from_id, to_id) in self._neighbor_down:
            # The failure detector says the peer is dead: park instead of
            # burning the retry budget; flushed on detected recovery.
            self._park(from_id, to_id, seq, payload)
            return
        key = (from_id, to_id, seq)
        if attempt == 0 and not self._acquire_or_queue(key, payload):
            return
        if self.journals is not None and attempt == 0:
            # Durable accept: the event hits the sender's WAL before the
            # wire, and stays there until every receiver has acked.
            self.journals.journal_for(from_id).log_event(seq, payload)
            self._obligations.setdefault((from_id, seq), set()).add(to_id)
        self.rstats.data_sends += 1
        if attempt > 0:
            self.rstats.retries += 1
            self._link_counter(
                "net_hop_retries_total", from_id, to_id
            ).inc()
        if self.per_send_s > 0:
            self.nodes[from_id].submit(self.per_send_s, lambda: None)
        publication = self._inflight[seq]
        sent_at = self.sim.now

        def on_arrival() -> None:
            if self._tracer is not None:
                self._tracer.span(
                    seq, "hop", to_id, sent_at, self.sim.now,
                    link=f"{from_id}->{to_id}", attempt=attempt,
                )
            if not self.brokers[to_id].alive:
                return  # no ack from a dead broker
            restarted_at = self._last_restart_at.get(to_id)
            if (
                restarted_at is not None
                and self.sim.now
                < restarted_at + self.reliability.heartbeat_interval
            ):
                # Warm-up after a restart: neighbour replays may still be
                # in flight (the recovery handshake rides lossy links), so
                # the filter table can be incomplete.  Acking now would
                # cancel the sender's retry and silently unsubscribe a
                # whole subtree; staying silent makes the sender try again
                # after the table has settled.
                self.rstats.warmup_deferred += 1
                return
            if key in self._hop_seen:
                # Processed before; the earlier ack was lost. Ack again.
                self.rstats.duplicates_suppressed += 1
                self._send_ack(to_id, from_id, key)
                return
            if key in self._hop_queued:
                # A copy is already awaiting the CPU; its completion ack
                # will cancel the sender's timer.
                self.rstats.duplicates_suppressed += 1
                return
            # The ack is deferred until the broker has actually matched
            # and forwarded the event (_process_hop): a crash between
            # arrival and processing must NOT look like a successful
            # handoff, or the event dies in the wiped CPU queue with the
            # retry already cancelled.
            self._hop_queued.add(key)
            self._serve_hop(to_id, key, payload)

        survived = self._hop_send(from_id, to_id, publication.size, on_arrival)
        if not survived and self._tracer is not None:
            self._tracer.span(
                seq, "drop", to_id, sent_at,
                link=f"{from_id}->{to_id}", attempt=attempt,
            )
        timeout = retry_timeout(attempt, self._rng)
        handle = self.sim.schedule(
            timeout,
            lambda: self._on_ack_timeout(from_id, to_id, seq, payload, attempt),
        )
        self._pending[key] = handle

    def _send_ack(
        self,
        from_id: Hashable,
        to_id: Hashable,
        key: tuple[Hashable, Hashable, int],
    ) -> None:
        self.rstats.acks_sent += 1

        def on_ack() -> None:
            handle = self._pending.pop(key, None)
            if handle is not None:
                handle.cancel()
            self._note_hop_settled(key)
            self._credit_release(key)

        self._hop_send(from_id, to_id, _ACK_SIZE, on_ack)

    def _on_ack_timeout(
        self,
        from_id: Hashable,
        to_id: Hashable,
        seq: int,
        payload: Event,
        attempt: int,
    ) -> None:
        key = (from_id, to_id, seq)
        if key not in self._pending:
            return  # acked in the meantime
        del self._pending[key]
        self._c_ack_timeouts.inc()
        if not self.brokers[from_id].alive:
            # A crashed sender retransmits nothing.  With journals its
            # WAL replays this event on restart (or the repair salvage
            # does); without, the event is lost with the broker.  Either
            # way the dead process no longer holds the hop's credit.
            self._credit_release(key)
            return
        if to_id in self._reroute:
            self._redirect(from_id, to_id, seq, payload)
            return
        if (from_id, to_id) in self._neighbor_down:
            self._park(from_id, to_id, seq, payload)
            return
        if attempt + 1 >= RETRY_ATTEMPTS:
            self.rstats.dead_letters += 1
            self.dead_letters.append((seq, from_id, to_id))
            self._note_hop_settled(key)
            self._credit_release(key)
            return
        self._transmit_reliable(from_id, to_id, seq, payload, attempt + 1)

    def _park(
        self, from_id: Hashable, to_id: Hashable, seq: int, payload: Event
    ) -> None:
        """Queue an event for a down peer, bounded oldest-first."""
        self._credit_release((from_id, to_id, seq))
        queue = self._parked.setdefault((from_id, to_id), deque())
        queue.append((seq, payload))
        self.rstats.parked += 1
        if len(queue) > _PARK_LIMIT:
            # A long-parked peer cannot grow memory without limit: shed
            # the oldest event.  With journals it survives on the WAL.
            queue.popleft()
            self.rstats.retx_evicted += 1

    def _note_hop_settled(
        self, key: tuple[Hashable, Hashable, int]
    ) -> None:
        """One receiver acked (or dead-lettered); release the journal
        entry once no receiver remains outstanding."""
        if self.journals is None:
            return
        sender, receiver, seq = key
        outstanding = self._obligations.get((sender, seq))
        if outstanding is None:
            return
        outstanding.discard(receiver)
        if not outstanding:
            del self._obligations[(sender, seq)]
            self.journals.journal_for(sender).mark_done(seq)

    def _redirect(
        self, from_id: Hashable, dead: Hashable, seq: int, payload: Event
    ) -> None:
        """Route traffic aimed at an excised broker through its adopter."""
        self._credit_release((from_id, dead, seq))
        target = self._reroute.get(dead)
        hops = 0
        while target in self._reroute and hops <= len(self._reroute):
            target = self._reroute[target]
            hops += 1
        if target is None or not self.brokers[target].alive:
            self.rstats.dead_letters += 1
            self.dead_letters.append((seq, from_id, dead))
            return
        if target == from_id:
            # The sender itself adopted the dead broker's subtree; the
            # event re-enters its (repaired) routing table and flows down
            # the grafted interfaces.  Hop dedup absorbs the re-sends on
            # branches that already saw it.
            self._republish_locally(from_id, payload)
            return
        self._transmit_reliable(from_id, target, seq, payload, 0)

    def _republish_locally(self, broker_id: Hashable, event: Event) -> None:
        """Re-enter *event* at *broker_id*, routing downward only."""

        def route() -> None:
            broker = self.brokers[broker_id]
            if broker.alive:
                broker.publish(event, arrived_from=broker.parent)

        self.nodes[broker_id].submit(
            self._service_cost(broker_id, event), route
        )

    def _replay_inflight(
        self,
        broker_id: Hashable,
        inflight: list[tuple[int, Event]],
    ) -> int:
        """Re-publish journaled in-flight events at *broker_id*."""
        for seq, event in inflight:
            self.rstats.events_salvaged += 1
            self._c_journal_replayed.inc()
            self._republish_locally(broker_id, event)
        return len(inflight)

    # -- failure detection & recovery ---------------------------------------

    def _start_heartbeats(self) -> None:
        def beat() -> None:
            now = self.sim.now
            for broker_id, neighbors in list(self._neighbors.items()):
                broker = self.brokers[broker_id]
                if not broker.alive:
                    continue
                for neighbor in list(neighbors):
                    self._check_neighbor(broker_id, neighbor, now)
                    self.rstats.heartbeats_sent += 1
                    self._hop_send(
                        broker_id,
                        neighbor,
                        _HEARTBEAT_SIZE,
                        lambda s=broker_id, n=neighbor, i=broker.incarnation:
                            self._on_heartbeat(n, s, i),
                    )
            self.sim.schedule(self._heartbeat_delay(), beat)

        self.sim.schedule(self._heartbeat_delay(), beat)

    def _heartbeat_delay(self) -> float:
        """The next beat period, jittered when the policy asks for it."""
        policy = self.reliability
        interval = policy.heartbeat_interval
        if policy.heartbeat_jitter:
            interval *= 1.0 + policy.heartbeat_jitter * (
                2.0 * self._hb_rng.random() - 1.0
            )
        return interval

    def _check_neighbor(
        self, observer: Hashable, neighbor: Hashable, now: float
    ) -> None:
        if (observer, neighbor) in self._neighbor_down:
            return
        policy = self.reliability
        last = self._last_heard.get((observer, neighbor), 0.0)
        if now - last <= _MISS_THRESHOLD * policy.heartbeat_interval:
            return
        self._neighbor_down.add((observer, neighbor))
        self.rstats.failures_detected += 1
        crash_at = self._last_crash_at.get(neighbor)
        if crash_at is not None and crash_at <= now:
            self.rstats.detection_latencies.append(now - crash_at)
            self._h_detection.observe(now - crash_at)
        if self.repair is not None:
            self.repair.neighbor_down(observer, neighbor, now)

    def _on_heartbeat(
        self, observer: Hashable, sender: Hashable, sender_incarnation: int
    ) -> None:
        if not self.brokers[observer].alive:
            return
        self._last_heard[(observer, sender)] = self.sim.now
        known = self._known_incarnation.get((observer, sender))
        restarted = known is not None and sender_incarnation != known
        self._known_incarnation[(observer, sender)] = sender_incarnation
        if (observer, sender) in self._neighbor_down:
            self._neighbor_down.discard((observer, sender))
            self.rstats.recoveries_detected += 1
            if self.repair is not None:
                self.repair.neighbor_up(observer, sender, self.sim.now)
            restart_at = self._last_restart_at.get(sender)
            if restart_at is not None:
                self.rstats.recovery_latencies.append(
                    self.sim.now - restart_at
                )
                self._h_recovery.observe(self.sim.now - restart_at)
            restarted = True
        if restarted:
            # The peer lost (or may have lost) its volatile routing state:
            # replay what this broker needs it to know before parked
            # events flow again.  The replay is an instantaneous control
            # message, so it lands before any re-sent data message.
            if sender == self.brokers[observer].parent:
                self.rstats.subscriptions_replayed += self.brokers[
                    observer
                ].replay_upstream()
            self._flush_parked(observer, sender)

    def _flush_parked(self, from_id: Hashable, to_id: Hashable) -> None:
        parked = self._parked.pop((from_id, to_id), None)
        if not parked:
            return
        self.rstats.parked_flushes += len(parked)
        for seq, payload in parked:
            self._transmit_reliable(from_id, to_id, seq, payload, 0)

    def _on_fault_transition(self, kind: str, broker_id: Hashable) -> None:
        broker = self.brokers.get(broker_id)
        if broker is None:
            return
        if kind == "crash":
            broker.crash()
            self._last_crash_at[broker_id] = self.sim.now
            if self.flow is not None:
                self._drop_broker_flow_state(broker_id)
            return
        broker.restart()
        self._last_restart_at[broker_id] = self.sim.now
        if self.journals is not None and broker_id in self.journals:
            # Durable disks make recovery local: replay the WAL+snapshot
            # into the fresh incarnation instead of waiting for every
            # neighbour to notice and re-send its filters, then re-publish
            # whatever was journaled in flight (dedup keeps it invisible
            # to anyone who already got it).
            state = self.journals.journal_for(broker_id).replay()
            broker.restore(state.subscriptions, state.forwarded_upstream)
            self.rstats.journal_restores += 1
            if self._tracer is not None:
                trace_id = ("journal", broker_id, broker.incarnation)
                self._tracer.start_trace(
                    trace_id, at=self.sim.now, broker=str(broker_id)
                )
                self._tracer.span(
                    trace_id, "journal.replay", broker_id,
                    self.sim.now, self.sim.now,
                    registrations=len(state.subscriptions),
                    inflight=len(state.inflight),
                )
            self._replay_inflight(broker_id, state.inflight)
        # A restarted broker trusts no stale detector state of its own.
        for neighbor in self._neighbors.get(broker_id, []):
            self._last_heard[(broker_id, neighbor)] = self.sim.now
        if self.reliability is None:
            return
        # Recovery handshake: announce the new incarnation immediately
        # instead of waiting for the next heartbeat tick, so neighbours
        # replay subscription state before data flows through the empty
        # tables.  (The announcement rides the lossy link; a lost one is
        # recovered by the regular heartbeat cadence.)
        for neighbor in self._neighbors.get(broker_id, []):
            self.rstats.heartbeats_sent += 1
            self._hop_send(
                broker_id,
                neighbor,
                _HEARTBEAT_SIZE,
                lambda n=neighbor, s=broker_id, i=broker.incarnation:
                    self._on_heartbeat(n, s, i),
            )
        # Locally attached clients notice the restart via their keepalive
        # and re-subscribe after one client round trip.
        for subscriber_id, home in self._subscriber_home.items():
            if home != broker_id:
                continue
            for subscription in self._client_filters.get(subscriber_id, []):
                self.rstats.subscriptions_replayed += 1
                self.sim.schedule(
                    self.client_latency,
                    lambda b=broker, s=subscriber_id, f=subscription:
                        b.subscribe(s, f),
                )

    # -- tree surgery (driven by the repair coordinator) ----------------------

    def is_marked_down(self, observer: Hashable, neighbor: Hashable) -> bool:
        """Whether *observer*'s failure detector holds *neighbor* down."""
        return (observer, neighbor) in self._neighbor_down

    def crash_time_of(self, broker_id: Hashable) -> float | None:
        """When *broker_id* last crashed, if it ever did."""
        return self._last_crash_at.get(broker_id)

    def prune_dead(self, dead: Hashable, adopter: Hashable) -> None:
        """Excise *dead* from the overlay wiring and register its adopter.

        The dead broker's interface (and every filter registered through
        it) leaves its parent's table, both sides stop heartbeating the
        corpse, and from here on any traffic aimed at *dead* re-routes
        through *adopter* (:meth:`_redirect`).
        """
        self._reroute[dead] = adopter
        parent = self.brokers[dead].parent
        if parent is not None:
            self.brokers[parent].detach_child(dead)
            if dead in self._neighbors.get(parent, []):
                self._neighbors[parent].remove(dead)
        self._neighbors[dead] = []

    def adopt(self, orphan: Hashable, adopter: Hashable) -> None:
        """Re-parent *orphan* (child of a pruned broker) to *adopter*.

        Wires a fresh link pair when none exists, primes the failure
        detector for the new pair (so the grafted edge does not start
        life marked down), and replays the orphan's covering-reduced
        filter set to the adopter so routing converges immediately.
        """
        old_parent = self.brokers[orphan].parent
        if old_parent is not None:
            self.brokers[old_parent].children.pop(orphan, None)
            if old_parent in self._neighbors.get(orphan, []):
                self._neighbors[orphan].remove(old_parent)
        if (adopter, orphan) not in self.links:
            latency = self._latency_of(adopter, orphan)
            self.links[(adopter, orphan)] = Link(self.sim, latency)
            self.links[(orphan, adopter)] = Link(self.sim, latency)
        if orphan not in self._neighbors[adopter]:
            self._neighbors[adopter].append(orphan)
        if adopter not in self._neighbors[orphan]:
            self._neighbors[orphan].append(adopter)
        now = self.sim.now
        self._last_heard[(adopter, orphan)] = now
        self._last_heard[(orphan, adopter)] = now
        self._neighbor_down.discard((adopter, orphan))
        self._neighbor_down.discard((orphan, adopter))
        self._known_incarnation[(adopter, orphan)] = self.brokers[
            orphan
        ].incarnation
        self._known_incarnation[(orphan, adopter)] = self.brokers[
            adopter
        ].incarnation
        self.brokers[adopter].attach_child(
            orphan, self._sender(adopter, orphan)
        )
        self.rstats.subscriptions_replayed += self.brokers[
            orphan
        ].reattach_parent(adopter, self._sender(orphan, adopter))

    def rehome_clients(self, dead: Hashable, adopter: Hashable) -> int:
        """Re-attach *dead*'s subscriber endpoints at *adopter*.

        Each client re-subscribes after one client round trip, exactly
        like the restart path; returns the number of endpoints moved.
        """
        moved = 0
        for subscriber_id, home in list(self._subscriber_home.items()):
            if home != dead:
                continue
            self._subscriber_home[subscriber_id] = adopter
            self.brokers[adopter].attach_client(
                subscriber_id, self._client_deliver(subscriber_id)
            )
            for subscription in self._client_filters.get(subscriber_id, []):
                self.rstats.subscriptions_replayed += 1
                self.sim.schedule(
                    self.client_latency,
                    lambda b=self.brokers[adopter], s=subscriber_id,
                    f=subscription: b.subscribe(s, f),
                )
            moved += 1
        return moved

    def salvage_inflight(self, dead: Hashable, adopter: Hashable) -> int:
        """Replay *dead*'s journaled in-flight events through *adopter*.

        Models the repair coordinator mounting the dead broker's durable
        volume (or reading its replicated log).  Returns the number of
        events re-published; 0 without journals.
        """
        if self.journals is None or dead not in self.journals:
            return 0
        state = self.journals.journal_for(dead).replay()
        return self._replay_inflight(adopter, state.inflight)

    def flush_rerouted(self, dead: Hashable) -> int:
        """Push every event parked for *dead* through its adopter.

        Called by the coordinator after adoption wired the replacement
        links, so redirected transmissions find live paths.
        """
        redirected = 0
        for pair in [key for key in self._parked if key[1] == dead]:
            for seq, payload in self._parked.pop(pair):
                self._redirect(pair[0], dead, seq, payload)
                redirected += 1
        return redirected

    # -- clients ---------------------------------------------------------------

    def leaf_ids(self) -> list[Hashable]:
        """Brokers with no children."""
        return sorted(
            broker_id
            for broker_id, broker in self.brokers.items()
            if not broker.children
        )

    def attach_subscriber(
        self, subscriber_id: Hashable, broker_id: Hashable
    ) -> None:
        """Attach a subscriber endpoint (own CPU, short client link)."""
        if subscriber_id in self._subscriber_home:
            raise ValueError(f"subscriber {subscriber_id!r} already attached")
        self._subscriber_home[subscriber_id] = broker_id
        self.subscriber_nodes[subscriber_id] = ProcessingNode(
            self.sim, subscriber_id
        )
        self._client_links[subscriber_id] = Link(self.sim, self.client_latency)
        self.brokers[broker_id].attach_client(
            subscriber_id, self._client_deliver(subscriber_id)
        )

    def _client_deliver(self, subscriber_id: Hashable):
        """The broker-side delivery closure for one subscriber endpoint.

        Reads the subscriber's home broker dynamically so tree repair can
        re-home an endpoint by updating ``_subscriber_home`` and attaching
        the same closure at the adopter.
        """

        def deliver(event: Event) -> None:
            seq = event.get(_SEQ_ATTRIBUTE)
            publication = self._inflight[seq]
            home = self._subscriber_home[subscriber_id]
            if self.per_send_s > 0:
                self.nodes[home].submit(self.per_send_s, lambda: None)
            sent_at = self.sim.now

            def on_arrival() -> None:
                cost = self.subscriber_cost(subscriber_id, event)
                self.subscriber_nodes[subscriber_id].submit(
                    cost,
                    lambda: self._record_delivery(
                        seq, subscriber_id, sent_at
                    ),
                )

            self._client_links[subscriber_id].send(
                publication.size, on_arrival
            )

        return deliver

    def _record_delivery(
        self,
        seq: int,
        subscriber_id: Hashable,
        handed_off_at: float | None = None,
    ) -> None:
        if self._dedup is not None:
            if self._dedup.seen(subscriber_id, seq):
                self.rstats.duplicate_deliveries += 1
                return
        else:
            key = (seq, subscriber_id)
            if key in self._delivered_keys:
                self.rstats.duplicate_deliveries += 1
                return
            self._delivered_keys.add(key)
        publication = self._inflight[seq]
        publication.deliveries += 1
        self.deliveries.append(
            DeliveryRecord(
                seq, subscriber_id, publication.published_at, self.sim.now
            )
        )
        self._h_delivery.observe(self.sim.now - publication.published_at)
        if self.flow is not None:
            # Per-priority delivery quantiles: the graceful-degradation
            # gates compare the high-priority tail to best-effort's.
            priority = priority_of(publication.routable)
            histogram = self._h_delivery_prio.get(priority)
            if histogram is None:
                histogram = self.registry.histogram(
                    "net_delivery_latency_seconds",
                    priority=priority_name(priority),
                )
                self._h_delivery_prio[priority] = histogram
            histogram.observe(self.sim.now - publication.published_at)
        if self._tracer is not None:
            self._tracer.span(
                seq,
                "deliver",
                subscriber_id,
                handed_off_at if handed_off_at is not None else self.sim.now,
                self.sim.now,
            )

    def subscribe(self, subscriber_id: Hashable, subscription: Filter) -> None:
        """Issue a subscription from an attached subscriber."""
        broker_id = self._subscriber_home[subscriber_id]
        self._client_filters.setdefault(subscriber_id, []).append(
            subscription
        )
        self.brokers[broker_id].subscribe(subscriber_id, subscription)

    # -- publication -------------------------------------------------------------

    def publish(
        self,
        event: Event,
        carrier: object = None,
        size: int | None = None,
        delay: float = 0.0,
    ) -> int:
        """Inject one event at the root after *delay*; returns its
        sequence number.

        *carrier* rides along for subscriber-side cost accounting;
        *size* overrides the wire size.
        """
        if not isinstance(event, Event):
            raise TypeError(
                f"publish takes one Event, not {type(event).__name__}"
            )
        seq = self._next_seq
        self._next_seq += 1
        tagged = event.with_attributes(**{_SEQ_ATTRIBUTE: seq})
        publication = _Publication(
            tagged,
            carrier,
            size if size is not None else tagged.wire_size(),
            self.sim.now + delay,
        )
        self._inflight[seq] = publication
        if self._tracer is not None:
            self._tracer.start_trace(
                seq, at=publication.published_at, size=publication.size
            )
            self._tracer.span(
                seq, "publish", 0, publication.published_at,
                publication.published_at,
            )

        def inject() -> None:
            if self.flow is not None:
                self._flow_enqueue(0, ("pub", tagged), priority_of(tagged))
                return
            cost = self._service_cost(0, tagged)
            self.nodes[0].submit(
                cost, lambda: self.brokers[0].publish(tagged, arrived_from=None)
            )

        self.sim.schedule(delay, inject)
        return seq

    def carrier_of(self, seq: int) -> object:
        """The carrier object attached to publication *seq*."""
        return self._inflight[seq].carrier

    # -- measurement ----------------------------------------------------------------

    def start_backlog_monitor(self, interval: float = 0.05) -> None:
        """Sample every node's backlog periodically (saturation detection)."""
        self._monitor_interval = interval

        def sample() -> None:
            for node in self.nodes.values():
                node.sample_backlog()
            for node in self.subscriber_nodes.values():
                node.sample_backlog()
            self.sim.schedule(interval, sample)

        self.sim.schedule(interval, sample)

    def flow_depths(self) -> dict[Hashable, int]:
        """Current bounded-ingress depth per broker (empty without flow)."""
        return {
            broker_id: len(bf.ingress)
            for broker_id, bf in self._broker_flow.items()
        }

    def flow_peak_depths(self) -> dict[Hashable, int]:
        """Peak bounded-ingress depth per broker (empty without flow)."""
        return {
            broker_id: bf.ingress.peak_depth
            for broker_id, bf in self._broker_flow.items()
        }

    def flow_egress_peak_depths(self) -> dict[tuple, int]:
        """Peak bounded-egress depth per directed link (empty without flow)."""
        return {
            pair: lf.egress.peak_depth
            for pair, lf in self._link_flow.items()
        }

    def flow_credit_stalls(self) -> tuple[int, float]:
        """(stall count, total stalled seconds) across all credit gates."""
        stalls = 0
        seconds = 0.0
        for lf in self._link_flow.values():
            stalls += lf.gate.stalls
            seconds += lf.gate.stall_seconds
        return stalls, seconds

    def any_saturated(self, window: int = 5) -> bool:
        """Whether any node met the paper's saturation criterion.

        Checks the full backlog history (so overloads that drained after
        the publishing window still count) on brokers and subscriber
        endpoints alike -- the paper monitored every node.
        """
        nodes = list(self.nodes.values()) + list(self.subscriber_nodes.values())
        return any(node.was_saturating(window) for node in nodes)

    def mean_latency(self) -> float:
        """Mean delivery latency over all recorded deliveries."""
        if not self.deliveries:
            return float("nan")
        return sum(d.latency for d in self.deliveries) / len(self.deliveries)

