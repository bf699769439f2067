"""Client-side grant renewal across epochs."""

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager
from repro.core.subscriber import Subscriber
from repro.siena.events import Event
from repro.siena.filters import Filter

EPOCH = 100.0


@pytest.fixture
def kdc(master_key):
    kdc = KDC(master_key=master_key)
    kdc.register_topic(
        "t",
        CompositeKeySpace({"v": NumericKeySpace("v", 64)}),
        epoch_length=EPOCH,
    )
    return kdc


def _lookup(kdc):
    return lambda name: kdc.config_for(name).schema


def test_first_grant_fetched_on_registration(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    assert subscriber.key_count(0.0) == grant.key_count()
    assert manager.stats.renewals == 1


def test_tick_before_expiry_is_noop(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    assert manager.tick(grant.expires_at - 10.0) == 0
    assert manager.stats.renewals == 1


def test_tick_renews_into_next_epoch(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    publisher = Publisher("P", kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    next_epoch_time = grant.expires_at + 1.0
    assert manager.tick(next_epoch_time) == 1

    sealed = publisher.publish(
        Event({"topic": "t", "v": 5, "message": "fresh"}),
        at_time=next_epoch_time,
    )
    result = subscriber.receive(
        sealed, _lookup(kdc), at_time=next_epoch_time
    )
    assert result is not None
    assert result.event["message"] == "fresh"


def test_expired_grants_dropped(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    manager.tick(grant.expires_at + 1.0)
    # Only the new epoch's grant remains on the key ring.
    assert len(subscriber.grants) == 1
    assert manager.stats.grants_dropped == 1


def test_lead_time_renews_early_for_next_epoch(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc, renew_lead_time=10.0)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    margin_time = grant.expires_at - 5.0
    assert manager.tick(margin_time) == 1
    epochs = {g.epoch for g in subscriber.grants}
    assert len(epochs) == 2  # old epoch still valid + next epoch staged


def test_continuous_operation_across_three_epochs(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    publisher = Publisher("P", kdc)
    manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    lookup = _lookup(kdc)
    opened = 0
    for step in range(1, 40):
        now = step * 25.0
        manager.tick(now)
        sealed = publisher.publish(
            Event({"topic": "t", "v": 7, "message": f"m{step}"}),
            at_time=now,
        )
        if subscriber.receive(sealed, lookup, at_time=now) is not None:
            opened += 1
    assert opened == 39  # never a coverage gap
    assert manager.stats.renewals >= 10


def test_multiple_standing_subscriptions(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    first = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 20), at_time=0.0
    )
    manager.add_subscription(
        Filter.numeric_range("t", "v", 40, 63), at_time=0.0
    )
    renewed = manager.tick(first.expires_at + 1.0)
    assert renewed == 2


def test_next_renewal_at(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc, renew_lead_time=7.0)
    assert manager.next_renewal_at() is None
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    assert manager.next_renewal_at() == pytest.approx(
        grant.expires_at - 7.0
    )


def test_cancel_all_stops_renewal(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    manager.cancel_all(at_time=1.0)
    assert manager.tick(grant.expires_at + 1.0) == 0
    assert subscriber.key_count(grant.expires_at + 1.0) == 0


def test_negative_lead_time_rejected(kdc):
    with pytest.raises(ValueError):
        RenewalManager(Subscriber("S"), kdc, renew_lead_time=-1.0)


def test_tick_exactly_at_expiry_targets_upcoming_epoch(kdc):
    """A zero-lead tick at precisely ``expires_at`` must not re-fetch the
    ending epoch's grant (float division can land the boundary instant a
    hair inside the old epoch)."""
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc, renew_lead_time=0.0)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    assert manager.tick(grant.expires_at) == 1
    epochs = {g.epoch for g in subscriber.grants}
    assert epochs == {grant.epoch + 1}


def test_boundary_renewals_never_duplicate_an_epoch(kdc):
    """Ticking exactly on every boundary walks one epoch per boundary."""
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc, renew_lead_time=0.0)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    seen = [grant.epoch]
    boundary = grant.expires_at
    for _ in range(5):
        assert manager.tick(boundary) == 1
        newest = max(g.epoch for g in subscriber.grants)
        seen.append(newest)
        boundary = kdc.epoch_start("t", newest + 1)
    assert seen == list(range(grant.epoch, grant.epoch + 6))


def test_lead_renewal_at_boundary_keeps_events_decryptable(kdc):
    """The early-renewed grant opens next-epoch events published exactly
    at the boundary instant."""
    subscriber = Subscriber("S")
    publisher = Publisher("P", kdc)
    manager = RenewalManager(subscriber, kdc, renew_lead_time=10.0)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    assert manager.tick(grant.expires_at - 10.0) == 1
    sealed = publisher.publish(
        Event({"topic": "t", "v": 3, "message": "boundary"}),
        at_time=grant.expires_at,
    )
    result = subscriber.receive(sealed, _lookup(kdc), at_time=grant.expires_at)
    assert result is not None and result.event["message"] == "boundary"


class _FlakyKDC:
    """Delegates to a real KDC but fails while ``down`` is set."""

    def __init__(self, kdc):
        self.kdc = kdc
        self.down = False

    def authorize(self, *args, **kwargs):
        from repro.errors import KDCUnavailable

        if self.down:
            raise KDCUnavailable("kdc offline")
        return self.kdc.authorize(*args, **kwargs)


def test_unavailable_kdc_counts_failures_and_retries(kdc):
    subscriber = Subscriber("S")
    flaky = _FlakyKDC(kdc)
    manager = RenewalManager(subscriber, flaky)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    flaky.down = True
    assert manager.tick(grant.expires_at) == 0
    assert manager.stats.renewal_failures == 1
    assert manager.stats.degraded
    flaky.down = False
    # The next tick retries and the renewal lands (late).
    assert manager.tick(grant.expires_at + 1.0) == 1
    assert manager.stats.late_renewals == 1


def test_revoked_subscription_is_cancelled_on_renewal(kdc):
    subscriber = Subscriber("S")
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    kdc.revoke("S", "t")
    assert manager.tick(grant.expires_at) == 0
    assert manager.stats.renewals_denied == 1
    # Lazy revocation: no further renewal attempts for this filter.
    assert manager.tick(grant.expires_at + EPOCH) == 0
    assert manager.stats.renewals_denied == 1


def test_grace_window_keeps_old_epoch_events_readable(kdc):
    """An in-flight old-epoch event delivered after the boundary opens
    within the grace window (and counts as a grace open)."""
    subscriber = Subscriber("S", grace_period=5.0)
    publisher = Publisher("P", kdc)
    manager = RenewalManager(subscriber, kdc)
    grant = manager.add_subscription(
        Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    )
    sealed = publisher.publish(
        Event({"topic": "t", "v": 9, "message": "in-flight"}),
        at_time=grant.expires_at - 0.5,
    )
    late = grant.expires_at + 1.0
    manager.tick(late)
    result = subscriber.receive(sealed, _lookup(kdc), at_time=late)
    assert result is not None
    assert subscriber.stats.grace_opens == 1
    # Without grace the same arrival is unreadable.
    bare = Subscriber("S", grace_period=0.0)
    bare.add_grant(kdc.authorize(
        "S", Filter.numeric_range("t", "v", 0, 63), at_time=0.0
    ))
    bare.drop_expired(late)
    assert bare.receive(sealed, _lookup(kdc), at_time=late) is None
