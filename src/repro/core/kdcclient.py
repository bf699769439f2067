"""Failover client for the replicated KDC service.

``KDCClient`` is what a subscriber's :class:`~repro.core.renewal.RenewalManager`
(or a publisher) binds instead of an in-process :class:`~repro.core.kdc.KDC`
when the key service runs as :class:`~repro.core.kdcservice.KDCCluster`
replicas on the asyncio TCP service network.  It
supplies the client half of the availability story:

- **replica failover** -- attempts rotate through the replica list,
  sticking to the last replica that answered (and following a primary
  redirect for mutations);
- **retry with exponential backoff + jitter** -- each attempt's timeout
  grows by ``_BACKOFF`` and is jittered to desynchronize renewal storms
  at epoch boundaries;
- **request deduplication** -- every logical request carries one request
  id across all its attempts, so a replica that already served it (the
  *reply* was lost, not the request) answers from its dedup cache and a
  grant is never double-issued or double-billed;
- **circuit breaker** -- a replica that times out ``_BREAKER_THRESHOLD``
  times in a row is skipped for ``_BREAKER_COOLDOWN`` seconds instead of
  eating a full timeout on every renewal (half-open probing resumes
  after the cooldown).

The API is callback-based because the client lives on its host's clock
(the event loop's, real or virtual): ``authorize`` *initiates* a
request and returns; ``on_grant`` / ``on_error`` fire when it resolves,
possibly several failovers later, with
:class:`~repro.errors.KDCUnavailable` once retries are exhausted
(retryable), :class:`~repro.errors.GrantDenied` on revocation (terminal)
or :class:`~repro.errors.GrantExpired` for a grant that lapsed in flight.
:meth:`KDCClient.now`, the time renewals stamp grants with, follows the
host clock until a REKEY push or :meth:`KDCClient.advance` starts a
logical one.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Hashable, Iterable

from repro.core.kdc import AuthorizationGrant
from repro.core.kdcservice import KDCRequest, KDCResponse
from repro.errors import GrantDenied, GrantExpired, KDCUnavailable
from repro.obs.metrics import MetricsRegistry, RegistryBackedStats
from repro.siena.filters import Filter


#: Reply timeout for the first attempt; must exceed one RPC round trip.
_TIMEOUT = 0.03
#: Total attempts per logical request, across all replicas.
_MAX_ATTEMPTS = 8
#: Multiplier applied to the timeout after every failed attempt.
_BACKOFF = 1.5
#: Uniform +-fraction perturbing each timeout.
_JITTER = 0.2
#: Consecutive timeouts before a replica's breaker opens.
_BREAKER_THRESHOLD = 3
#: Seconds an open breaker skips its replica before half-open probing.
_BREAKER_COOLDOWN = 0.5


def _timeout_for(attempt: int, rng: random.Random) -> float:
    """The reply timeout for (0-based) *attempt*, with jitter."""
    timeout = _TIMEOUT * (_BACKOFF ** attempt)
    return timeout * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))


class KDCClientStats(RegistryBackedStats):
    """What the client's availability machinery did.

    Registry-backed (``kdc_client_<field>_total``, labelled
    ``client=<id>``); the attribute API is a thin view over counters.
    """

    _int_fields = (
        "requests",
        "successes",
        # Requests that exhausted every attempt (KDC unavailable).
        "failures",
        # Terminal denials (revocation) -- not retried.
        "denied",
        "attempts",
        "retries",
        "timeouts",
        # Attempts that switched to a different replica than the previous.
        "failovers",
        "breaker_opens",
        # Candidate replicas skipped because their breaker was open.
        "breaker_skips",
        # Mutation attempts redirected to the view's primary.
        "redirects",
        # Replies that arrived after their attempt had already timed out
        # (accepted anyway -- request ids make them safe).
        "late_replies",
        # Grants arriving past expiry + grace (installed nothing).
        "grants_expired",
        # REKEY announcements acted on (repeats from other replicas not).
        "rekeys",
    )
    _metric_prefix = "kdc_client_"


class _Breaker:
    """Per-replica consecutive-failure circuit breaker."""

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.open_until = -math.inf

    def available(self, now: float) -> bool:
        return now >= self.open_until

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.open_until = -math.inf

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this opens the breaker."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= _BREAKER_THRESHOLD:
            self.open_until = now + _BREAKER_COOLDOWN
            self.consecutive_failures = 0
            return True
        return False


class _Call:
    """One logical request's lifecycle across attempts."""

    def __init__(self, request: KDCRequest, on_ok, on_error):
        self.request = request
        self.on_ok = on_ok
        self.on_error = on_error
        self.done = False
        self.attempt = 0
        self.last_replica: Hashable | None = None
        self.primary_hint: Hashable | None = None
        self.timer = None
        self.started_at = 0.0


class KDCClient:
    """Replica-failover access to a :class:`~repro.core.kdcservice.KDCCluster`."""

    #: Marks the callback-based API for :class:`RenewalManager` binding.
    is_async_client = True

    def __init__(
        self,
        network,
        client_id: Hashable,
        replica_ids: Iterable[Hashable],
        seed: int = 0,
        registry: MetricsRegistry | None = None,
    ):
        self.network = network
        self.clock = network.clock
        self.client_id = client_id
        self.replica_ids = list(replica_ids)
        if not self.replica_ids:
            raise ValueError("need at least one replica address")
        # Share the control-plane network's registry unless told otherwise.
        self.registry = (
            registry if registry is not None else network.registry
        )
        self.stats = KDCClientStats(self.registry, client=str(client_id))
        self._h_latency = self.registry.histogram(
            "kdc_client_request_latency_seconds", client=str(client_id)
        )
        self._g_breaker = {
            rid: self.registry.gauge(
                "kdc_client_breaker_open",
                client=str(client_id),
                replica=str(rid),
            )
            for rid in self.replica_ids
        }
        self._rng = random.Random(seed)
        self._counter = itertools.count()
        self._breakers = {rid: _Breaker() for rid in self.replica_ids}
        #: Sticky preference: the last replica that answered successfully.
        self._preferred = self.replica_ids[0]
        #: Post-expiry slack a late grant is still worth installing for
        #: (the subscriber's grace window).
        self.grace_period = 0.0
        #: Called with each fresh REKEY announcement, clock advanced.
        self.on_rekey: list[Callable[[object], None]] = []
        #: Called with each installed grant, after its ``on_grant``.
        self.on_install: list[Callable[[AuthorizationGrant], None]] = []
        self._logical: float | None = None
        self._announced: set[tuple[str, int]] = set()
        self._open = 0
        self._idle: list[Callable[[], None]] = []

    # -- the grant-stamping clock ------------------------------------------

    def now(self) -> float:
        """Grant-stamping time: the host clock until a logical one starts."""
        return self.clock.now if self._logical is None else self._logical

    def advance(self, at_time: float) -> None:
        """Start or move the logical clock; it never moves backwards."""
        if self._logical is None or at_time > self._logical:
            self._logical = at_time

    def rekey(self, announcement) -> None:
        """A REKEY push: advance the logical clock and run :attr:`on_rekey`,
        once per (topic, epoch) however many replicas announce it."""
        key = (announcement.topic, announcement.epoch)
        if key in self._announced:
            return
        self._announced.add(key)
        self.stats.rekeys += 1
        self.advance(announcement.at_time)
        for hook in list(self.on_rekey):
            hook(announcement)

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Call *callback* once no request is open (now, if none is)."""
        if self._open:
            self._idle.append(callback)
        else:
            callback()

    # -- public operations -----------------------------------------------------

    def authorize(
        self,
        subscriber: str,
        filters: Filter | list[Filter],
        at_time: float = 0.0,
        publisher: str | None = None,
        min_epoch: int | None = None,
        on_grant: Callable[[AuthorizationGrant], None] = lambda grant: None,
        on_error: Callable[[Exception], None] = lambda error: None,
    ) -> None:
        """Request an authorization grant (idempotent across retries)."""

        def install(grant: AuthorizationGrant) -> None:
            if self.now() >= grant.expires_at + self.grace_period:
                # Too late to be worth anything: its epoch (+ grace) lapsed.
                self.stats.grants_expired += 1
                on_error(GrantExpired(
                    f"grant for {grant.topic!r} epoch {grant.epoch} "
                    f"expired at {grant.expires_at}, now {self.now()}"
                ))
                return
            on_grant(grant)
            for hook in list(self.on_install):
                hook(grant)

        self._call(
            KDCRequest(
                "authorize",
                self._next_request_id(),
                {
                    "subscriber": subscriber,
                    "filters": filters,
                    "at_time": at_time,
                    "publisher": publisher,
                    "min_epoch": min_epoch,
                },
            ),
            install,
            on_error,
        )

    def admin(
        self,
        op: str,
        args: tuple,
        on_ok: Callable[[object], None] = lambda value: None,
        on_error: Callable[[Exception], None] = lambda error: None,
    ) -> None:
        """Submit a registry mutation (routed/redirected to the primary)."""
        self._call(
            KDCRequest(
                "admin",
                self._next_request_id(),
                {"op": op, "args": tuple(args)},
            ),
            on_ok,
            on_error,
        )

    # -- the retry/failover engine --------------------------------------------

    def _next_request_id(self) -> tuple:
        return (self.client_id, next(self._counter))

    def _pick_replica(self, call: _Call) -> Hashable:
        """Next candidate: redirect hint, then ring order, skipping open
        breakers (unless every breaker is open)."""
        now = self.clock.now
        hint = call.primary_hint
        call.primary_hint = None
        if hint in self._breakers and self._breakers[hint].available(now):
            return hint
        order = self.replica_ids
        if call.last_replica in order:
            start = order.index(call.last_replica) + 1
        else:
            start = order.index(self._preferred)
        for shift in range(len(order)):
            candidate = order[(start + shift) % len(order)]
            if self._breakers[candidate].available(now):
                return candidate
            self.stats.breaker_skips += 1
        # All breakers open: probe the one that reopens soonest.
        return min(order, key=lambda rid: self._breakers[rid].open_until)

    def _call(self, request: KDCRequest, on_ok, on_error) -> None:
        self.stats.requests += 1
        self._open += 1
        call = _Call(request, on_ok, on_error)
        call.started_at = self.clock.now
        self._attempt(call)

    def _close(self, call: _Call, callback, value: object) -> None:
        """Resolve *call* with ``callback(value)``; wake idle waiters."""
        call.done = True
        callback(value)
        self._open -= 1
        if not self._open:
            waiters, self._idle = self._idle, []
            for waiter in waiters:
                waiter()

    def _attempt(self, call: _Call) -> None:
        if call.done:
            return
        if call.attempt >= _MAX_ATTEMPTS:
            self.stats.failures += 1
            self._close(call, call.on_error, KDCUnavailable(
                f"request {call.request.request_id} exhausted "
                f"{_MAX_ATTEMPTS} attempts"
            ))
            return
        replica = self._pick_replica(call)
        if call.attempt > 0:
            self.stats.retries += 1
            if replica != call.last_replica:
                self.stats.failovers += 1
        call.last_replica = replica
        attempt = call.attempt
        call.attempt += 1
        self.stats.attempts += 1

        def on_reply(reply: object) -> None:
            self._resolve(call, replica, attempt, reply)

        self.network.request(
            self.client_id, replica, call.request, on_reply=on_reply
        )
        timeout = _timeout_for(attempt, self._rng)
        call.timer = self.clock.schedule(
            timeout, lambda: self._on_timeout(call, replica, attempt)
        )

    def _resolve(
        self, call: _Call, replica: Hashable, attempt: int, reply: object
    ) -> None:
        if call.done or not isinstance(reply, KDCResponse):
            return
        if attempt != call.attempt - 1:
            # A reply from a superseded (timed-out) attempt; the request
            # id made the work idempotent, so accept it as the answer.
            self.stats.late_replies += 1
        if call.timer is not None:
            call.timer.cancel()
        if reply.ok:
            self._breakers[replica].record_success()
            self._g_breaker[replica].set(0)
            self._preferred = replica
            self.stats.successes += 1
            self._h_latency.observe(self.clock.now - call.started_at)
            self._close(call, call.on_ok, reply.value)
            return
        if reply.retryable:
            # The replica is alive but cannot serve (recovering, or not
            # the primary for a mutation): fail over immediately, using
            # its view of the leadership as a routing hint.
            if reply.error == "not_primary" and reply.primary is not None:
                call.primary_hint = reply.primary
                self.stats.redirects += 1
            self.clock.schedule(0.0, lambda: self._attempt(call))
            return
        if reply.error == "denied":
            self.stats.denied += 1
            self._close(call, call.on_error, GrantDenied(
                f"request {call.request.request_id} denied"
            ))
            return
        self.stats.failures += 1
        self._close(call, call.on_error, ValueError(
            f"request {call.request.request_id}: {reply.error}"
        ))

    def _on_timeout(
        self, call: _Call, replica: Hashable, attempt: int
    ) -> None:
        if call.done or attempt != call.attempt - 1:
            return
        self.stats.timeouts += 1
        if self._breakers[replica].record_failure(self.clock.now):
            self.stats.breaker_opens += 1
            self._g_breaker[replica].set(1)
        self._attempt(call)
