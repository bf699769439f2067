"""A Siena-style content-based broker.

Each broker maintains a subscription table mapping *interfaces* (its parent
link, child links, and locally attached clients) to the filters subscribed
through them.  Subscriptions propagate toward the root, suppressed when a
previously forwarded filter already covers them; events propagate toward
the root unconditionally and down every interface with a matching filter
(in-network matching, Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Hashable, Optional

from repro.obs.metrics import MetricsRegistry, RegistryBackedStats
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.operators import Op

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.lru import LRUCache
    from repro.recovery.journal import BrokerJournal

#: An interface identifier: a neighbouring broker id or a local client id.
Interface = Hashable

#: Attribute carrying an event's tokenized topic (the same name
#: :data:`repro.routing.tokens.TOPIC_TOKEN_ATTRIBUTE` uses; duplicated
#: here because the routing layer imports from siena, not vice versa).
#: A filter's EQ constraint on this attribute is its *topic pin*: the
#: routing table is bucketed by pin, and an event is only walked against
#: the one bucket whose pin it verifies under.
_TOPIC_TOKEN_ATTRIBUTE = "_ttok"

#: The contract every broker match predicate honours (both shipped ones
#: do: plaintext :meth:`Filter.matches` and the tokenized match of
#: :mod:`repro.routing.tokens`):
#:
#: - **pure** -- a verdict depends only on the filter and the event's
#:   values for the attributes the filter constrains, so a verified pin
#:   can be shared between brokers;
#: - **conjunctive over constraints** -- ``match(f, e)`` equals
#:   ``all(match(Filter.of(c), e) for c in f)``, so a broker may hand the
#:   predicate single-constraint *unit filters* and test each distinct
#:   constraint of its table once per event;
#: - **one pin per event** -- an event verifies under at most one topic
#:   pin (``<r, F_T(r)>`` is a proof for exactly one token ``T``; a
#:   plaintext ``_ttok`` value equals exactly one string).
MatchPredicate = Callable[[Filter, Event], bool]


def split_units(
    subscription_filter: Filter,
) -> tuple[Filter | None, list[Filter]]:
    """*subscription_filter* as single-constraint unit filters.

    Returns ``(pin, rest)``: the unit of the filter's topic pin -- its
    only EQ constraint on the topic-token attribute -- or None when it
    has no such pin, and one unit per remaining constraint.
    """
    pins = [
        constraint
        for constraint in subscription_filter
        if constraint.name == _TOPIC_TOKEN_ATTRIBUTE
        and constraint.op is Op.EQ
        and isinstance(constraint.value, str)
    ]
    pin = pins[0] if len(pins) == 1 else None
    rest = [
        Filter.of(constraint)
        for constraint in subscription_filter
        if constraint is not pin
    ]
    return (None if pin is None else Filter.of(pin)), rest


def _plain_match(subscription_filter: Filter, event: Event) -> bool:
    return subscription_filter.matches(event)


class BrokerStats(RegistryBackedStats):
    """Counters a broker keeps for the performance evaluation.

    Backed by :class:`~repro.obs.metrics.MetricsRegistry` counters
    (``broker_<field>_total``, labelled ``broker=<id>``); the attribute
    read/``+=`` API is a thin view over them, so existing consumers keep
    working unchanged while exporters see every broker uniformly.
    """

    _int_fields = (
        "events_received",
        "events_forwarded",
        "subscriptions_received",
        "subscriptions_forwarded",
        # Unit filters evaluated (one per distinct constraint tested per
        # event), not table entries visited.
        "match_tests",
        "deliveries",
        "dropped_while_down",
    )
    _metric_prefix = "broker_"


_TABLE_ORDER = attrgetter("order")


class _Unit:
    """One single-constraint filter of the table, interned per broker.

    ``holders`` counts the table entries built on the unit, so it is
    released with the last of them.
    """

    __slots__ = ("filter", "holders")

    def __init__(self, unit_filter: Filter):
        self.filter = unit_filter
        self.holders = 0


@dataclass(eq=False, slots=True)
class _Subscription:
    filter: Filter
    interfaces: set[Interface]
    #: Position in the table (insertion order, never reused).
    order: int
    #: The topic-pin unit (see :func:`split_units`), or None.
    pin: _Unit | None
    #: Units of the remaining constraints.
    rest: tuple[_Unit, ...]

    @property
    def pin_value(self) -> str | None:
        return None if self.pin is None else self.pin.filter.constraints[0].value


class Broker:
    """One node of the hierarchical pub-sub overlay.

    The broker is transport-agnostic: ``send`` callables injected by the
    overlay (:class:`repro.siena.network.BrokerTree` or the discrete-event
    simulator) move messages between brokers, while ``deliver`` callables
    hand events to locally attached clients.

    A custom *match predicate* may be supplied; PSGuard substitutes the
    tokenized match of Section 4.1 so brokers route without learning
    attribute values.
    """

    def __init__(
        self,
        broker_id: Hashable,
        match: MatchPredicate = _plain_match,
        registry: MetricsRegistry | None = None,
        match_cache: "LRUCache | None" = None,
    ):
        self.broker_id = broker_id
        self.match = match
        #: Optional memo of the topic pin each event verified under
        #: (event ``_ttok`` value -> pin value), shared by every broker
        #: of an overlay so a pin one hop verified is not probed again at
        #: the next.  Sound because whether a routable verifies under a
        #: token is a fact about the two alone, and an event verifies
        #: under at most one pin (see :data:`MatchPredicate`): a pairing
        #: recorded at one broker holds at every other.  Only positives
        #: are stored (:meth:`_verified_bucket`): "no pin matched here"
        #: depends on which pins the testing broker carried.  Every key
        #: holds an event's fresh nonce, so an entry can only hit while
        #: its event is being walked: size the memo to the events in
        #: flight, since a larger one only keeps entries that can never
        #: hit again.
        self.match_cache = match_cache
        self.alive = True
        #: Bumped on every restart; neighbours use it to detect that a
        #: broker lost its volatile routing state and needs replays.
        self.incarnation = 0
        self.parent: Optional[Hashable] = None
        self.send_parent: Optional[Callable[[str, object], None]] = None
        self.children: dict[Hashable, Callable[[str, object], None]] = {}
        self.clients: dict[Hashable, Callable[[Event], None]] = {}
        #: The routing table, in insertion order.
        self.subscriptions: dict[Filter, _Subscription] = {}
        self._next_order = 0
        #: Interned unit filters of the table's constraints.
        self._units: dict[Filter, _Unit] = {}
        #: pin value -> entries carrying that topic pin, in table order
        #: (the pin unit is every member's ``pin``).
        self._buckets: dict[str, list[_Subscription]] = {}
        #: Entries without a topic pin, in table order.
        self._unpinned: list[_Subscription] = []
        #: The filters announced to the parent, as an ordered set: in
        #: table order, except between a :meth:`restore` and the first
        #: removal after it (see :attr:`forwarded_upstream`).
        self._forwarded: dict[Filter, None] = {}
        #: Set while the forwarded set is not known to be this table's
        #: covering set (a journal handed it over, or the parent link
        #: arrived after the entries did): the next removal re-derives it
        #: from every entry.
        self._forwarded_unverified = False
        #: Optional durable write-ahead log of the routing state; bound by
        #: the overlay via :meth:`bind_journal`.
        self.journal: "BrokerJournal | None" = None
        self.stats = BrokerStats(registry, broker=str(broker_id))

    # -- wiring ------------------------------------------------------------

    def attach_parent(
        self, parent_id: Hashable, send: Callable[[str, object], None]
    ) -> None:
        """Connect this broker to its parent via the *send* callable."""
        self.parent = parent_id
        self.send_parent = send
        if self.subscriptions:
            self._forwarded_unverified = True

    def attach_child(
        self, child_id: Hashable, send: Callable[[str, object], None]
    ) -> None:
        """Connect a child broker reachable via the *send* callable."""
        self.children[child_id] = send

    def attach_client(
        self, client_id: Hashable, deliver: Callable[[Event], None]
    ) -> None:
        """Attach a local client (subscriber endpoint)."""
        self.clients[client_id] = deliver

    def detach_client(self, client_id: Hashable) -> None:
        """Forget a local client: withdraw every filter it still holds
        (:meth:`drop_interface`), then drop its delivery callable.
        Raises ``KeyError`` for a client that is not attached."""
        if client_id not in self.clients:
            raise KeyError(f"client {client_id!r} is not attached")
        self.drop_interface(client_id)
        del self.clients[client_id]

    def bind_journal(self, journal: "BrokerJournal") -> None:
        """Journal every routing-table mutation to a durable log."""
        self.journal = journal

    def detach_child(self, child_id: Hashable) -> None:
        """Remove a (dead) child link and every filter registered on it."""
        self.children.pop(child_id, None)
        self.drop_interface(child_id)

    def reattach_parent(
        self, parent_id: Hashable, send: Callable[[str, object], None]
    ) -> int:
        """Re-parent this broker and replay its covering set to the new
        parent; returns the number of filters replayed (tree repair)."""
        self.attach_parent(parent_id, send)
        return self.replay_upstream()

    def drop_interface(self, interface: Interface) -> None:
        """Withdraw every filter registered for *interface* at once.

        Like per-filter :meth:`unsubscribe`, the forwarded set is repaired
        (once, for all of them) when entries left the table.
        """
        departed = [
            existing
            for existing in list(self.subscriptions.values())
            if interface in existing.interfaces
            and self._withdraw(interface, existing)
        ]
        if departed and self.send_parent is not None:
            self._uncover(departed)

    # -- failure lifecycle ---------------------------------------------------

    def crash(self) -> None:
        """Take the broker down: every message it receives is dropped."""
        self.alive = False

    def restart(self) -> None:
        """Bring the broker back up with *empty* volatile routing state.

        Subscription tables are in-memory state, so a restarted broker
        remembers nothing; neighbours must replay their filters
        (:meth:`replay_upstream`) before routing through it works again.
        """
        self.alive = True
        self.incarnation += 1
        self.subscriptions = {}
        self._units = {}
        self._buckets = {}
        self._unpinned = []
        self._forwarded = {}
        self._forwarded_unverified = False

    def restore(
        self,
        subscriptions: list[tuple[Interface, Filter]],
        forwarded_upstream: list[Filter],
    ) -> int:
        """Repopulate routing state replayed from a durable journal.

        Called right after :meth:`restart` when the overlay journals
        broker state: registrations are rebuilt locally WITHOUT upstream
        propagation (the parent's table survived this broker's crash) and
        without re-journaling (the journal already holds them).  Returns
        the number of registrations restored.

        *forwarded_upstream* is taken as given, in the journal's order;
        the rebuilt table may order its entries differently than the one
        that crashed, so the first removal afterwards re-derives the
        forwarded set from the whole table and withdraws upstream
        whatever of this list the table no longer calls for.
        """
        for interface, subscription_filter in subscriptions:
            self._register(interface, subscription_filter)
        self._forwarded = dict.fromkeys(forwarded_upstream)
        self._forwarded_unverified = True
        return len(subscriptions)

    def replay_upstream(self) -> int:
        """Re-announce every forwarded filter to the parent.

        Called when this broker observes its parent restarting; returns
        the number of filters replayed.  Replays bypass the covering
        suppression because the parent's table is known to be empty.
        """
        if self.send_parent is None:
            return 0
        for forwarded in list(self._forwarded):
            self.stats.subscriptions_forwarded += 1
            self.send_parent("subscribe", forwarded)
        return len(self._forwarded)

    # -- subscription plane --------------------------------------------------

    def subscribe(self, interface: Interface, subscription_filter: Filter) -> None:
        """Register *subscription_filter* for *interface*; forward if needed.

        The filter is forwarded to the parent only when no previously
        forwarded filter covers it (Section 2.1).
        """
        if not self.alive:
            self.stats.dropped_while_down += 1
            return
        self.stats.subscriptions_received += 1
        if self.journal is not None:
            self.journal.log_subscribe(interface, subscription_filter)
        entry = self._register(interface, subscription_filter)

        if self.send_parent is None:
            return
        displaced = self._admit(entry)
        if displaced is None:
            return
        # Siena replaces the forwarded filters the new one covers without
        # telling the parent: its table keeps them, the journal does not.
        if self.journal is not None:
            for forwarded in displaced:
                self.journal.log_unforwarded(forwarded)
        self._announce("subscribe", subscription_filter)

    def unsubscribe(self, interface: Interface, subscription_filter: Filter) -> None:
        """Remove *interface*'s registration of *subscription_filter*.

        When the entry leaves the table and had been forwarded, it is
        withdrawn upstream and the filters it was covering are announced
        in its place (Siena's unsubscription semantics); the removal of
        an entry that was not forwarded changes nothing upstream.
        """
        if not self.alive:
            self.stats.dropped_while_down += 1
            return
        existing = self.subscriptions.get(subscription_filter)
        if (
            existing is not None
            and self._withdraw(interface, existing)
            and self.send_parent is not None
        ):
            self._uncover([existing])

    def _register(
        self, interface: Interface, subscription_filter: Filter
    ) -> _Subscription:
        """Add *interface* to the table entry of *subscription_filter*,
        creating (and bucketing) the entry on first registration."""
        existing = self.subscriptions.get(subscription_filter)
        if existing is not None:
            existing.interfaces.add(interface)
            return existing
        pin, rest = split_units(subscription_filter)
        entry = _Subscription(
            subscription_filter,
            {interface},
            self._next_order,
            None if pin is None else self._hold(pin),
            tuple(self._hold(unit) for unit in rest),
        )
        self._next_order += 1
        self.subscriptions[subscription_filter] = entry
        self._bucket_of(entry).append(entry)
        return entry

    def _withdraw(self, interface: Interface, existing: _Subscription) -> bool:
        """Remove *interface* from *existing*; drops the entry with its
        last interface and returns whether the table shrank."""
        if self.journal is not None and interface in existing.interfaces:
            self.journal.log_unsubscribe(interface, existing.filter)
        existing.interfaces.discard(interface)
        if existing.interfaces:
            return False
        del self.subscriptions[existing.filter]
        bucket = self._bucket_of(existing)
        bucket.remove(existing)
        if existing.pin is not None and not bucket:
            del self._buckets[existing.pin_value]
        for unit in (existing.pin, *existing.rest):
            if unit is not None:
                self._release(unit)
        return True

    def _bucket_of(self, entry: _Subscription) -> list[_Subscription]:
        if entry.pin is None:
            return self._unpinned
        return self._buckets.setdefault(entry.pin_value, [])

    def _hold(self, unit_filter: Filter) -> _Unit:
        unit = self._units.get(unit_filter)
        if unit is None:
            unit = self._units[unit_filter] = _Unit(unit_filter)
        unit.holders += 1
        return unit

    def _release(self, unit: _Unit) -> None:
        unit.holders -= 1
        if not unit.holders:
            del self._units[unit.filter]

    # -- the forwarded set -----------------------------------------------------
    #
    # Invariant (given that ``covers`` is a preorder): the forwarded set
    # is what a scan of the table in order would choose -- an entry is in
    # it unless another entry covers it, the earliest-arrived standing
    # for entries that cover each other -- and is kept in table order.

    @property
    def forwarded_upstream(self) -> list[Filter]:
        """The filters announced to the parent, in table order.

        Right after :meth:`restore` it is the restored list as given (the
        journal's order); the first removal afterwards puts it back in
        table order.
        """
        return list(self._forwarded)

    def _comparable(self, entry: _Subscription):
        """The entries whose filters can cover, or be covered by,
        *entry*'s, in no particular order.

        A topic pin is implied by an equal pin only, so a pinned filter
        is comparable with its own bucket and with the unpinned entries
        (which may name several pins) and with nothing else; an unpinned
        one is comparable with the whole table.  *entry* may already
        have left the table.
        """
        if entry.pin is None:
            return self.subscriptions.values()
        bucket = self._buckets.get(entry.pin_value, ())
        return [*bucket, *self._unpinned] if self._unpinned else bucket

    def _forwarded_comparable(self, entry: _Subscription) -> list[Filter]:
        """The forwarded filters comparable with *entry*'s, in the
        forwarded set's order; all of them while the set is unverified
        (it may then hold filters the table does not)."""
        forwarded = self._forwarded
        if self._forwarded_unverified or entry.pin is None:
            return list(forwarded)
        comparable = [
            other
            for other in self._comparable(entry)
            if other.filter in forwarded
        ]
        if self._unpinned:
            comparable.sort(key=_TABLE_ORDER)
        return [other.filter for other in comparable]

    def _admit(self, entry: _Subscription) -> list[Filter] | None:
        """Put *entry*'s filter in the forwarded set unless a forwarded
        filter covers it (Section 2.1); returns the forwarded filters it
        covers itself, which it displaces to keep the upstream table
        minimal -- or None when it was covered and nothing changed."""
        comparable = self._forwarded_comparable(entry)
        if any(forwarded.covers(entry.filter) for forwarded in comparable):
            return None
        displaced = [
            forwarded
            for forwarded in comparable
            if entry.filter.covers(forwarded)
        ]
        for forwarded in displaced:
            del self._forwarded[forwarded]
        self._forwarded[entry.filter] = None
        return displaced

    def _announce(self, kind: str, subscription_filter: Filter) -> None:
        """Journal and send upstream that *subscription_filter* joined
        (``"subscribe"``) or left (``"unsubscribe"``) the forwarded set."""
        if self.journal is not None:
            if kind == "subscribe":
                self.journal.log_forwarded(subscription_filter)
            else:
                self.journal.log_unforwarded(subscription_filter)
        self.stats.subscriptions_forwarded += 1
        self.send_parent(kind, subscription_filter)

    def _uncover(self, departed: list[_Subscription]) -> None:
        """Repair the forwarded set after *departed* left the table.

        A departure that was not forwarded changes nothing: what covered
        it still stands.  A forwarded one is withdrawn, and only entries
        it covered can need announcing in its place: each of them, in
        table order, is admitted (:meth:`_admit`) as :meth:`subscribe`
        admits an arrival.  When the set is
        unverified every forwarded filter counts as withdrawn and every
        entry as uncovered, which derives the set afresh.
        """
        forwarded = self._forwarded
        if self._forwarded_unverified:
            self._forwarded_unverified = False
            withdrawn = list(forwarded)
            forwarded.clear()
            uncovered = list(self.subscriptions.values())
        else:
            gone = [entry for entry in departed if entry.filter in forwarded]
            if not gone:
                return
            withdrawn = [entry.filter for entry in gone]
            for obsolete in withdrawn:
                del forwarded[obsolete]
            uncovered = sorted(
                {
                    other
                    for entry in gone
                    for other in self._comparable(entry)
                    if other.filter not in forwarded
                    and entry.filter.covers(other.filter)
                },
                key=_TABLE_ORDER,
            )

        promoted = [
            candidate.filter
            for candidate in uncovered
            if self._admit(candidate) is not None
        ]
        if promoted:
            table = self.subscriptions
            self._forwarded = forwarded = dict.fromkeys(
                sorted(forwarded, key=lambda chosen: table[chosen].order)
            )

        for obsolete in withdrawn:
            if obsolete not in forwarded:
                self._announce("unsubscribe", obsolete)
        announced = set(withdrawn)
        for needed in promoted:
            if needed in forwarded and needed not in announced:
                self._announce("subscribe", needed)

    # -- event plane ---------------------------------------------------------

    def _verdict(
        self, unit: _Unit, event: Event, verdicts: dict[_Unit, bool]
    ) -> bool:
        """*unit*'s verdict on *event*, decided at most once per event
        (*verdicts*)."""
        verdict = verdicts.get(unit)
        if verdict is None:
            verdict = verdicts[unit] = self.match(unit.filter, event)
        return verdict

    def _verified_bucket(
        self, event: Event, verdicts: dict[_Unit, bool]
    ) -> list[_Subscription]:
        """The entries whose topic pin *event* verifies under.

        Pins are probed in table order until one verifies -- an event
        verifies under at most one (see :data:`MatchPredicate`).  With a
        match cache the pairing, a fact about the event and the token
        alone, is remembered for the brokers downstream.
        """
        cache = self.match_cache
        event_token = None
        if cache is not None:
            event_token = event.get(_TOPIC_TOKEN_ATTRIBUTE)
            if isinstance(event_token, str):
                known = cache.get(event_token)
                if known is not None:
                    return self._buckets.get(known, ())
        for pin_value, bucket in self._buckets.items():
            if self._verdict(bucket[0].pin, event, verdicts):
                if isinstance(event_token, str):
                    cache.put(event_token, pin_value)
                return bucket
        return ()

    def _matching_entries(self, event: Event) -> list[_Subscription]:
        """The table entries *event* matches, in table order.

        The predicate only ever sees unit filters, each distinct one at
        most once per event: the pins probed, then the remaining
        constraints of the verified bucket and of the unpinned entries.
        """
        verdicts: dict[_Unit, bool] = {}
        candidates = self._verified_bucket(event, verdicts)
        if not candidates:
            candidates = self._unpinned
        elif self._unpinned:
            candidates = sorted(
                [*candidates, *self._unpinned], key=_TABLE_ORDER
            )
        matching = []
        for subscription in candidates:
            for unit in subscription.rest:
                if not self._verdict(unit, event, verdicts):
                    break
            else:
                matching.append(subscription)
        self.stats.inc("match_tests", len(verdicts))
        return matching

    def _matched_interfaces(
        self, event: Event, arrived_from: Interface | None
    ) -> list[Interface]:
        """Interfaces *event* must go out on, in stable delivery order:
        table order, as a scan ``[s for s in table if match(s.filter,
        event)]`` would give, each interface once."""
        matched: list[Interface] = []
        seen: set[Interface] = set()
        for subscription in self._matching_entries(event):
            for interface in subscription.interfaces:
                if interface == arrived_from or interface in seen:
                    continue
                seen.add(interface)
                matched.append(interface)
        return matched

    def publish(
        self, event: Event, arrived_from: Interface | None = None
    ) -> int:
        """Route *event* up to the parent and down every matching
        interface; returns the broker's fan-out."""
        if not self.alive:
            self.stats.dropped_while_down += 1
            return 0
        self.stats.inc("events_received")
        forwarded_to: set[Interface] = set()
        for interface in self._matched_interfaces(event, arrived_from):
            forwarded_to.add(interface)
            if interface in self.clients:
                self.stats.inc("deliveries")
                self.clients[interface](event)
            elif interface in self.children:
                self.stats.inc("events_forwarded")
                self.children[interface]("publish", event)

        if (
            self.send_parent is not None
            and arrived_from != self.parent
        ):
            self.stats.inc("events_forwarded")
            self.send_parent("publish", event)
            forwarded_to.add(self.parent)
        return len(forwarded_to)

    # -- introspection ---------------------------------------------------------

    def subscription_count(self) -> int:
        """Number of distinct filters in the routing table."""
        return len(self.subscriptions)

    def filters_for(self, interface: Interface) -> list[Filter]:
        """All filters registered for *interface*."""
        return [
            subscription.filter
            for subscription in self.subscriptions.values()
            if interface in subscription.interfaces
        ]
