"""A highly-available KDC: replicas as nodes on a service network.

Section 3.2.1 makes the KDC *stateless*: every key is re-derivable from
``rk(KDC)``, so it "can be replicated on demand with no consistency
protocol".  What that sentence glosses over is the small **mutable
registry** every replica still needs -- topic configurations and
revocations.  This module supplies the missing piece:

- :class:`KDCReplica` -- one service node wrapping a stateless
  :class:`~repro.core.kdc.KDC` that shares the cluster master key but
  owns a *private* copy of the registry, reconstructed purely from a
  replicated command log (replicas never share Python state);
- :class:`KDCCluster` -- N replicas with **epoch-numbered leadership**
  (a view counter bumped on every primary change) and a deterministic
  primary-backup registry log: mutations go to the primary, are
  replicated to backups, and anti-entropy sync plus **catch-up on
  restart** bound every replica's staleness;
- request **deduplication**: every client request carries a request id
  and replicas memoize their responses, so a retransmitted authorize /
  renew (the reply was lost, not the request) is answered from the
  cache instead of being re-issued -- making the client's at-least-once
  retry loop observably idempotent.

Key derivations (``authorize``) are served by *any* alive, caught-up
replica -- that is the paper's availability argument.  Only registry
mutations need the primary.  A replica that is down, or recovering
until its catch-up completes, simply refuses -- the
:class:`~repro.core.kdcclient.KDCClient` fails over to the next one.

Cluster and clients run on a *service network* -- the asyncio TCP
:class:`repro.rtnet.service.TcpServiceNetwork`, on the socket loop or a
virtual one (:mod:`repro.net.virtual`) -- through ``register``,
``request``, ``node_up``, ``on_transition``, a ``clock`` (``now``,
``schedule``) and a metrics ``registry``.  Topic provisioning crosses
no wire: schemas are public configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.errors import GrantDenied
from repro.obs.metrics import MetricsRegistry, RegistryBackedStats

#: How many memoized responses a replica keeps for request dedup.
DEDUP_CAPACITY = 4096
#: Seconds between a backup's anti-entropy pulls of the primary's log.
_SYNC_INTERVAL = 0.25
#: Seconds between a recovering replica's catch-up pulls.
_CATCHUP_RETRY = 0.1


@dataclass(frozen=True)
class RegistryCommand:
    """One replicated registry mutation (1-based *seq* in the log)."""

    seq: int
    op: str  # "register_topic" | "revoke"
    args: tuple


@dataclass(frozen=True)
class KDCRequest:
    """One control-plane message to a replica."""

    kind: str  # "authorize" | "admin" | "sync" | "replicate"
    request_id: tuple | None
    payload: dict


@dataclass
class KDCResponse:
    """A replica's answer, with its view of the leadership for redirects."""

    ok: bool
    value: object = None
    #: "denied" and "bad_request" are terminal; "recovering",
    #: "not_primary", and "stale" invite a failover to another replica.
    error: str | None = None
    view: int = 0
    primary: Hashable | None = None

    @property
    def retryable(self) -> bool:
        return self.error in ("recovering", "not_primary", "stale")


class ReplicaStats(RegistryBackedStats):
    """Per-replica accounting for the chaos reports.

    Registry-backed (``kdc_replica_<field>_total``, labelled
    ``replica=<id>``); the attribute API is a thin view over counters.
    """

    _int_fields = (
        "requests_served",
        "authorizations",
        "dedup_hits",
        "commands_applied",
        "syncs_served",
        "catchups_completed",
        "rejected_recovering",
        "rejected_not_primary",
        "denials",
    )
    _metric_prefix = "kdc_replica_"


class ClusterStats(RegistryBackedStats):
    """Cluster-wide leadership accounting (``kdc_view_changes_total``)."""

    _int_fields = ("view_changes",)
    _metric_prefix = "kdc_"

    def __init__(self, registry: MetricsRegistry | None = None, **labels):
        super().__init__(registry, **labels)
        #: ``(time, view, primary)`` leadership history.
        self.leadership_log: list[tuple[float, int, Hashable]] = []


class KDCReplica:
    """One KDC service node: stateless derivation + replicated registry."""

    def __init__(
        self,
        replica_id: Hashable,
        master_key: bytes,
        registry: MetricsRegistry | None = None,
    ):
        self.replica_id = replica_id
        self.kdc = KDC(master_key=master_key)
        #: The replicated registry log this replica has applied, in order.
        self.log: list[RegistryCommand] = []
        #: A restarted replica refuses service until caught up.
        self.recovering = False
        self.stats = ReplicaStats(registry, replica=str(replica_id))
        self._dedup: dict[tuple, KDCResponse] = {}
        self._dedup_order: deque[tuple] = deque()

    @property
    def applied_seq(self) -> int:
        return len(self.log)

    # -- log ------------------------------------------------------------------

    def append(self, command: RegistryCommand) -> bool:
        """Apply *command* if it is exactly the next log entry.

        Applies before appending, so a command that fails validation
        leaves the log untouched.
        """
        if command.seq != self.applied_seq + 1:
            return False
        self._apply(command)
        self.log.append(command)
        self.stats.commands_applied += 1
        return True

    def _apply(self, command: RegistryCommand) -> None:
        if command.op == "register_topic":
            topic, schema, epoch_length, per_publisher = command.args
            self.kdc.register_topic(
                topic, schema, epoch_length, per_publisher
            )
        elif command.op == "revoke":
            self.kdc.revoke(*command.args)
        else:  # pragma: no cover - commands are constructed internally
            raise ValueError(f"unknown registry op {command.op!r}")

    # -- request dedup --------------------------------------------------------

    def _remember(self, request_id: tuple | None, response: KDCResponse) -> None:
        if request_id is None:
            return
        if len(self._dedup) >= DEDUP_CAPACITY:
            evicted = self._dedup_order.popleft()
            self._dedup.pop(evicted, None)
        self._dedup[request_id] = response
        self._dedup_order.append(request_id)

    # -- serving --------------------------------------------------------------

    def cached(self, request: KDCRequest) -> KDCResponse | None:
        """Count *request*; its memoized response, if it was served."""
        self.stats.requests_served += 1
        cached = self._dedup.get(request.request_id)
        if cached is not None:
            self.stats.dedup_hits += 1
        return cached

    def serve(self, request: KDCRequest, view: int, primary: Hashable) -> KDCResponse:
        """Answer one derive request (``authorize``)."""
        cached = self.cached(request)
        if cached is not None:
            return cached
        if self.recovering:
            self.stats.rejected_recovering += 1
            return KDCResponse(False, None, "recovering", view, primary)
        response = self._serve_fresh(request, view, primary)
        # Retryable outcomes are transient by definition -- memoizing one
        # would keep answering "stale" after the replica caught up.
        if not response.retryable:
            self._remember(request.request_id, response)
        return response

    def _serve_fresh(
        self, request: KDCRequest, view: int, primary: Hashable
    ) -> KDCResponse:
        payload = request.payload
        try:
            grant = self.kdc.authorize(
                payload["subscriber"],
                payload["filters"],
                at_time=payload.get("at_time", 0.0),
                publisher=payload.get("publisher"),
                min_epoch=payload.get("min_epoch"),
            )
        except GrantDenied:
            self.stats.denials += 1
            return KDCResponse(False, None, "denied", view, primary)
        except KeyError:
            # An unknown topic on a backup is indistinguishable from a
            # not-yet-replicated registration; only the primary -- the
            # log authority -- may declare it terminally unregistered.
            error = "bad_request" if self.replica_id == primary else "stale"
            return KDCResponse(False, None, error, view, primary)
        except (ValueError, TypeError):
            return KDCResponse(False, None, "bad_request", view, primary)
        self.stats.authorizations += 1
        return KDCResponse(True, grant, None, view, primary)


class KDCCluster:
    """N KDC replicas with view-numbered leadership on a service network.

    Replica crash/restart windows come from the *network*'s transition
    hook -- the fault injector's in simulation, ``crash``/``restart``
    on TCP -- so the host that breaks links also kills replicas.
    Leadership is deterministic: the primary changes only when the
    current primary crashes (or the first replica rejoins an empty
    cluster), moving to the next alive replica in ring order and
    bumping the view number.
    """

    def __init__(
        self,
        network,
        replica_ids: Iterable[Hashable],
        master_key: bytes,
        registry: MetricsRegistry | None = None,
    ):
        self.network = network
        self.clock = network.clock
        # Share the control-plane network's registry unless told otherwise.
        self.registry = (
            registry if registry is not None else network.registry
        )
        self.replica_ids = list(replica_ids)
        if not self.replica_ids:
            raise ValueError("need at least one replica")
        self.replicas = {
            replica_id: KDCReplica(replica_id, master_key, self.registry)
            for replica_id in self.replica_ids
        }
        self.view = 0
        self.primary_id: Hashable | None = self.replica_ids[0]
        self.stats = ClusterStats(self.registry)
        self._g_view = self.registry.gauge("kdc_view")
        for replica_id in self.replica_ids:
            network.register(
                replica_id,
                lambda src, req, rid=replica_id: self._handle(rid, src, req),
            )
        network.on_transition(self._on_transition)
        self._start_anti_entropy()

    # -- bootstrap -------------------------------------------------------------

    def register_topic(
        self,
        topic: str,
        schema: CompositeKeySpace,
        epoch_length: float = 3600.0,
        per_publisher: bool = False,
    ) -> None:
        """Provision a topic on every replica (pre-run bootstrap path).

        Crosses no wire: the schema is public configuration, so each
        replica's log takes the command directly, alive or not.  (A
        replica behind the others refuses the gap: provisioning belongs
        before the first revocation.)
        """
        args = (topic, schema, epoch_length, per_publisher)
        seq = max(replica.applied_seq for replica in self.replicas.values())
        command = RegistryCommand(seq + 1, "register_topic", args)
        for replica in self.replicas.values():
            replica.append(command)

    # -- leadership ------------------------------------------------------------

    def _alive(self, replica_id: Hashable) -> bool:
        return self.network.node_up(replica_id)

    def _elect(self, after: Hashable | None) -> None:
        """Move leadership to the next alive replica in ring order."""
        order = self.replica_ids
        start = (order.index(after) + 1) if after in order else 0
        for shift in range(len(order)):
            candidate = order[(start + shift) % len(order)]
            if self._alive(candidate):
                self.primary_id = candidate
                break
        else:
            self.primary_id = None
        self.view += 1
        self.stats.view_changes += 1
        self._g_view.set(self.view)
        self.stats.leadership_log.append(
            (self.clock.now, self.view, self.primary_id)
        )

    def _on_transition(self, kind: str, node: Hashable) -> None:
        replica = self.replicas.get(node)
        if replica is None:
            return
        if kind == "crash":
            if node == self.primary_id:
                self._elect(after=node)
            return
        # Restart: rejoin as a recovering backup and catch up from the
        # current primary; a lone rejoiner becomes primary outright (its
        # log is the freshest one that still exists).
        if self.primary_id is None:
            self._elect(after=None)
            return
        if node == self.primary_id:
            return
        replica.recovering = True
        self._catch_up(replica)

    # -- replication -----------------------------------------------------------

    def _replicate(self, command: RegistryCommand) -> None:
        primary_id = self.primary_id
        for replica_id in self.replica_ids:
            if replica_id == primary_id:
                continue
            self.network.request(
                primary_id,
                replica_id,
                KDCRequest("replicate", None, {"command": command}),
            )

    def _start_anti_entropy(self) -> None:
        """Backups periodically pull the log suffix they are missing.

        This bounds staleness when a ``replicate`` message is lost on a
        faulty link -- the deterministic stand-in for a retransmitting
        replication stream.
        """

        def pull() -> None:
            for replica_id, replica in self.replicas.items():
                if (
                    replica_id != self.primary_id
                    and self._alive(replica_id)
                    and not replica.recovering
                ):
                    self._sync_once(replica)
            self.clock.schedule(_SYNC_INTERVAL, pull)

        self.clock.schedule(_SYNC_INTERVAL, pull)

    def _sync_once(self, replica: KDCReplica, on_synced=None) -> None:
        """Pull the log suffix *replica* misses from the primary; call
        *on_synced* once a reply applied it."""
        primary_id = self.primary_id
        if primary_id is None or primary_id == replica.replica_id:
            return

        def absorb(reply: object) -> None:
            if isinstance(reply, KDCResponse) and reply.ok:
                for command in reply.value:
                    replica.append(command)
                if on_synced is not None:
                    on_synced()

        self.network.request(
            replica.replica_id,
            primary_id,
            KDCRequest("sync", None, {"from_seq": replica.applied_seq}),
            on_reply=absorb,
        )

    # -- restart catch-up ------------------------------------------------------

    def _catch_up(self, replica: KDCReplica) -> None:
        """Pull the missed log suffix; retry until it lands."""
        if not replica.recovering or not self._alive(replica.replica_id):
            return
        if self.primary_id in (None, replica.replica_id):
            replica.recovering = False
            return

        def caught_up() -> None:
            if replica.recovering:
                replica.recovering = False
                replica.stats.catchups_completed += 1

        self._sync_once(replica, caught_up)
        # The reply may be lost on a faulty link: keep pulling until the
        # catch-up completes (each attempt is idempotent).
        self.clock.schedule(_CATCHUP_RETRY, lambda: self._catch_up(replica))

    # -- request dispatch ------------------------------------------------------

    def _handle(
        self, replica_id: Hashable, src: Hashable, request: object
    ) -> KDCResponse | None:
        if not isinstance(request, KDCRequest):
            return None
        replica = self.replicas[replica_id]
        if request.kind == "authorize":
            return replica.serve(request, self.view, self.primary_id)
        if request.kind == "admin":
            return self._handle_admin(replica, request)
        if request.kind == "sync":
            replica.stats.syncs_served += 1
            from_seq = request.payload.get("from_seq", 0)
            return self._answer(value=list(replica.log[from_seq:]))
        if request.kind == "replicate":
            command = request.payload["command"]
            if not replica.append(command) and command.seq > replica.applied_seq:
                # A gap: an earlier replicate was lost; pull the suffix.
                self._sync_once(replica)
            return None
        return self._answer("bad_request")

    def _answer(self, error: str | None = None, value=None) -> KDCResponse:
        """A response carrying this cluster's view of the leadership."""
        view, primary = self.view, self.primary_id
        return KDCResponse(error is None, value, error, view, primary)

    def _handle_admin(
        self, replica: KDCReplica, request: KDCRequest
    ) -> KDCResponse:
        cached = replica.cached(request)
        if cached is not None:
            return cached
        if replica.replica_id != self.primary_id:
            replica.stats.rejected_not_primary += 1
            return self._answer("not_primary")
        if replica.recovering:
            replica.stats.rejected_recovering += 1
            return self._answer("recovering")
        payload = request.payload
        try:
            command = RegistryCommand(
                replica.applied_seq + 1, payload["op"], tuple(payload["args"])
            )
            replica.append(command)
        except (KeyError, ValueError, TypeError):
            response = self._answer("bad_request")
        else:
            self._replicate(command)
            response = self._answer(value=command.seq)
        replica._remember(request.request_id, response)
        return response

    # -- introspection ---------------------------------------------------------

    def converged(self) -> bool:
        """Whether every alive replica has applied the same log."""
        logs = [
            tuple(replica.log)
            for replica_id, replica in self.replicas.items()
            if self._alive(replica_id)
        ]
        return len(set(logs)) <= 1
