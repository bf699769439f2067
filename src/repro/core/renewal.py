"""Client-side subscription renewal across epochs.

The epoch model (Section 2.1) makes every authorization a lease: "at the
end of an epoch, the subscriber will have to obtain a new authorization
permit (authorization key) to read events that match the subscription
filter in the next epoch."  ``RenewalManager`` automates that client
obligation:

- it tracks the filters a subscriber wants standing access to,
- renews each grant shortly before its epoch expires (a configurable
  lead time, so in-flight events spanning the boundary stay readable),
- and drops expired grants from the subscriber's key ring (grants inside
  the subscriber's post-expiry grace window are retained).

Renewals are also where a payment-based service would charge the
subscriber (Section 6); the manager counts them for exactly that reason.

The manager can be bound to either key source:

- a :class:`~repro.core.kdc.KDC` (or any object with its synchronous
  ``authorize`` signature): renewals complete inside :meth:`tick`.  A
  source that raises :class:`~repro.errors.KDCUnavailable`
  models an unreachable KDC -- the renewal is counted as a failure and
  retried on the next tick (degraded mode);
- an async client such as :class:`~repro.core.kdcclient.KDCClient`
  (``is_async_client = True``): :meth:`tick` *initiates* the renewal and
  the grant is installed from the client's completion callback, possibly
  several simulated RTTs (and replica failovers) later.  At most one
  renewal per standing subscription is in flight at a time.

Boundary renewals always target the *upcoming* epoch: the request pins
``min_epoch = current.epoch + 1``, so a tick landing exactly on
``expires_at`` (where float division could place the time a hair inside
the ending epoch) can never re-fetch the expiring grant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kdc import AuthorizationGrant
from repro.core.subscriber import Subscriber
from repro.errors import KDCUnavailable
from repro.siena.filters import Filter


@dataclass(frozen=True)
class RenewalPolicy:
    """How a subscriber keeps its grants fresh across epoch boundaries.

    One shared knob for every surface that owns a
    :class:`RenewalManager` -- the in-process :class:`repro.api.System`,
    the live :class:`repro.rtnet.LiveSystem`, and the raw
    :class:`repro.rtnet.RtSubscriber`:

    - ``lead``: renew this many seconds *before* a grant's epoch
      expires, so in-flight events spanning the boundary stay readable
      (maps to ``RenewalManager.renew_lead_time``);
    - ``grace``: keep an expired grant usable for this many seconds
      *after* its epoch ends, covering events sealed just before the
      boundary that arrive just after (maps to
      ``Subscriber.grace_period``).

    Both default to zero: renew exactly at the boundary, drop exactly at
    the boundary -- the strict reading of the paper's epoch model.
    """

    lead: float = 0.0
    grace: float = 0.0

    def __post_init__(self) -> None:
        if self.lead < 0:
            raise ValueError("renewal lead must be non-negative")
        if self.grace < 0:
            raise ValueError("renewal grace must be non-negative")


@dataclass
class _StandingSubscription:
    filters: Filter | list[Filter]
    publisher: str | None
    current_grant: AuthorizationGrant | None = None
    #: An async renewal request is outstanding for this subscription.
    pending: bool = False


@dataclass
class RenewalStats:
    """Counters a billing service (or a chaos test) would read."""

    renewals: int = 0
    keys_fetched: int = 0
    grants_dropped: int = 0
    #: Renewal attempts that failed (KDC unreachable / request exhausted).
    renewal_failures: int = 0
    #: Renewals that completed only after the old grant had expired --
    #: the subscriber crossed the boundary in degraded mode and relied on
    #: its grace window for old-epoch traffic.
    late_renewals: int = 0
    #: Renewals refused outright (revocation); the subscription is
    #: cancelled rather than retried.
    renewals_denied: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any renewal ever failed or landed late."""
        return self.renewal_failures > 0 or self.late_renewals > 0


class RenewalManager:
    """Keeps a subscriber's grants fresh across epoch boundaries."""

    def __init__(
        self,
        subscriber: Subscriber,
        kdc,
        renew_lead_time: float = 0.0,
    ):
        if renew_lead_time < 0:
            raise ValueError("lead time must be non-negative")
        self.subscriber = subscriber
        self.kdc = kdc
        self.renew_lead_time = renew_lead_time
        self._async = bool(getattr(kdc, "is_async_client", False))
        self._standing: list[_StandingSubscription] = []
        self.stats = RenewalStats()

    def add_subscription(
        self,
        filters: Filter | list[Filter],
        at_time: float = 0.0,
        publisher: str | None = None,
    ) -> AuthorizationGrant | None:
        """Register a standing subscription and fetch its first grant.

        Returns the grant for a synchronous KDC; ``None`` when bound to
        an async client (the grant installs on request completion) or
        when the synchronous fetch failed (it will be retried by ticks).
        """
        standing = _StandingSubscription(filters, publisher)
        self._standing.append(standing)
        self._renew(standing, at_time, min_epoch=None)
        return standing.current_grant

    # -- renewal paths -------------------------------------------------------

    def _renew(
        self,
        standing: _StandingSubscription,
        at_time: float,
        min_epoch: int | None,
    ) -> bool:
        """Start (async) or perform (sync) one renewal; True if installed."""
        if self._async:
            self._renew_async(standing, at_time, min_epoch)
            return False
        try:
            grant = self.kdc.authorize(
                self.subscriber.subscriber_id,
                standing.filters,
                at_time=at_time,
                publisher=standing.publisher,
                min_epoch=min_epoch,
            )
        except KDCUnavailable:
            self.stats.renewal_failures += 1
            return False
        except PermissionError:
            self._deny(standing)
            return False
        self._install(standing, grant, at_time)
        return True

    def _renew_async(
        self,
        standing: _StandingSubscription,
        at_time: float,
        min_epoch: int | None,
    ) -> None:
        standing.pending = True

        def on_grant(grant: AuthorizationGrant) -> None:
            standing.pending = False
            if standing not in self._standing:
                return  # cancelled while the request was in flight
            self._install(standing, grant, self.kdc.now())

        def on_error(error: Exception) -> None:
            standing.pending = False
            if standing not in self._standing:
                return
            if isinstance(error, PermissionError):
                self._deny(standing)
            else:
                self.stats.renewal_failures += 1  # next tick retries

        self.kdc.authorize(
            self.subscriber.subscriber_id,
            standing.filters,
            at_time=at_time,
            publisher=standing.publisher,
            min_epoch=min_epoch,
            on_grant=on_grant,
            on_error=on_error,
        )

    def _install(
        self,
        standing: _StandingSubscription,
        grant: AuthorizationGrant,
        completed_at: float,
    ) -> None:
        previous = standing.current_grant
        if previous is not None and completed_at >= previous.expires_at:
            self.stats.late_renewals += 1
        self.subscriber.add_grant(grant)
        standing.current_grant = grant
        self.stats.renewals += 1
        self.stats.keys_fetched += grant.key_count()

    def _deny(self, standing: _StandingSubscription) -> None:
        """Revoked: stop renewing this subscription (grants lapse)."""
        self.stats.renewals_denied += 1
        if standing in self._standing:
            self._standing.remove(standing)

    # -- scheduling ----------------------------------------------------------

    def next_renewal_at(self) -> float | None:
        """Earliest instant some standing grant wants renewing."""
        deadlines = [
            standing.current_grant.expires_at - self.renew_lead_time
            for standing in self._standing
            if standing.current_grant is not None
        ]
        return min(deadlines) if deadlines else None

    def tick(self, at_time: float) -> int:
        """Advance the clock: renew due grants, drop expired ones.

        Returns how many renewals completed during this tick (async
        initiations count on completion, not here).  Designed to be
        driven by a timer, an event loop, or a simulation's virtual
        clock.
        """
        renewed = 0
        for standing in list(self._standing):
            grant = standing.current_grant
            due = (
                grant is None
                or at_time >= grant.expires_at - self.renew_lead_time
            )
            if due and not standing.pending:
                # Boundary renewals always target the upcoming epoch.
                min_epoch = None if grant is None else grant.epoch + 1
                if self._renew(standing, at_time, min_epoch):
                    renewed += 1
        self.stats.grants_dropped += self.subscriber.drop_expired(at_time)
        return renewed

    def cancel_all(self, at_time: float) -> None:
        """Stop renewing; existing grants lapse at their epoch's end."""
        self._standing.clear()
        self.stats.grants_dropped += self.subscriber.drop_expired(at_time)
