"""The incremental forwarded set against the full scan it replaced.

``FullScanBroker`` is the covering logic of :class:`Broker` as it stood
before the forwarded set was maintained incrementally, copied verbatim:
``subscribe`` tested the whole forwarded list, and every removal that
shrank the table re-derived the covering set with a pairwise ``covers()``
scan of every entry (``_recompute_upstream``).  The incremental broker
may do less work but must never do anything else: after every step of a
random sequence both brokers hold the same ``forwarded_upstream`` list,
have sent the same upstream messages in the same order, have written the
same journal records and count the same ``subscriptions_forwarded`` --
journaled or not, across crash, ``restart``, ``restore`` and
``replay_upstream``.

CI runs this file once more with ``--hypothesis-seed=0
--hypothesis-profile=covering-deep`` (registered in ``tests/conftest.py``:
the plugin loads a profile before it imports any test module).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import CompositeKeySpace
from repro.core.nakt import NumericKeySpace
from repro.recovery.journal import BrokerJournal
from repro.routing.tokens import (
    ELEMENT_TOKEN_ATTRIBUTE,
    TOPIC_TOKEN_ATTRIBUTE,
    TokenAuthority,
    grant_routing_filters,
)
from repro.siena.broker import Broker
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op
from repro.workloads import PaperWorkload, WorkloadConfig


class FullScanBroker(Broker):
    """``Broker`` with the replaced covering logic restored, verbatim."""

    # The list the old code kept (shadows the property of the same name).
    forwarded_upstream = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forwarded_upstream = []

    def reattach_parent(self, parent_id, send):
        self.parent = parent_id
        self.send_parent = send
        return self.replay_upstream()

    def drop_interface(self, interface):
        changed = False
        for existing in list(self.subscriptions.values()):
            if interface in existing.interfaces:
                changed |= self._withdraw(interface, existing)
        if changed and self.send_parent is not None:
            self._recompute_upstream()

    def restart(self):
        self.alive = True
        self.incarnation += 1
        self.subscriptions = {}
        self._units = {}
        self._buckets = {}
        self._unpinned = []
        self.forwarded_upstream = []

    def restore(self, subscriptions, forwarded_upstream):
        for interface, subscription_filter in subscriptions:
            self._register(interface, subscription_filter)
        self.forwarded_upstream = list(forwarded_upstream)
        return len(subscriptions)

    def replay_upstream(self):
        if self.send_parent is None:
            return 0
        for forwarded in list(self.forwarded_upstream):
            self.stats.subscriptions_forwarded += 1
            self.send_parent("subscribe", forwarded)
        return len(self.forwarded_upstream)

    def subscribe(self, interface, subscription_filter):
        if not self.alive:
            self.stats.dropped_while_down += 1
            return
        self.stats.subscriptions_received += 1
        if self.journal is not None:
            self.journal.log_subscribe(interface, subscription_filter)
        self._register(interface, subscription_filter)

        if self.send_parent is None:
            return
        if any(
            forwarded.covers(subscription_filter)
            for forwarded in self.forwarded_upstream
        ):
            return
        # Drop previously forwarded filters that the new one covers; Siena
        # replaces them to keep the upstream table minimal.
        kept = []
        for forwarded in self.forwarded_upstream:
            if subscription_filter.covers(forwarded):
                if self.journal is not None:
                    self.journal.log_unforwarded(forwarded)
            else:
                kept.append(forwarded)
        self.forwarded_upstream = kept
        self.forwarded_upstream.append(subscription_filter)
        if self.journal is not None:
            self.journal.log_forwarded(subscription_filter)
        self.stats.subscriptions_forwarded += 1
        self.send_parent("subscribe", subscription_filter)

    def unsubscribe(self, interface, subscription_filter):
        if not self.alive:
            self.stats.dropped_while_down += 1
            return
        existing = self.subscriptions.get(subscription_filter)
        if (
            existing is not None
            and self._withdraw(interface, existing)
            and self.send_parent is not None
        ):
            self._recompute_upstream()

    def _recompute_upstream(self):
        """Re-derive the minimal covering set to forward upstream."""
        required = []
        for candidate in self.subscriptions:
            if any(chosen.covers(candidate) for chosen in required):
                continue
            required = [
                chosen for chosen in required
                if not candidate.covers(chosen)
            ]
            required.append(candidate)

        for obsolete in self.forwarded_upstream:
            if obsolete not in required:
                if self.journal is not None:
                    self.journal.log_unforwarded(obsolete)
                self.stats.subscriptions_forwarded += 1
                self.send_parent("unsubscribe", obsolete)
        for needed in required:
            if needed not in self.forwarded_upstream:
                if self.journal is not None:
                    self.journal.log_forwarded(needed)
                self.stats.subscriptions_forwarded += 1
                self.send_parent("subscribe", needed)
        self.forwarded_upstream = required


# -- filter families -------------------------------------------------------

_AUTHORITY = TokenAuthority(bytes(range(16)))


def _granted_routing_filters() -> list[Filter]:
    """Tokenized filters exactly as ``grant_routing_filters`` emits them:
    NAKT covers (pin + one element token per cover element), category,
    prefix and plain grants (pin only), and composite AND / OR grants."""
    workload = PaperWorkload(
        WorkloadConfig(
            num_topics=4, topics_per_subscriber=4, numeric_range=32,
            numeric_least_count=1, subscription_mean=16.0,
            subscription_std=6.0,
        )
    )
    kdc = workload.build_kdc(master_key=bytes(range(16)))
    kdc.register_topic(
        "jobs",
        CompositeKeySpace(
            {"pay": NumericKeySpace("pay", 16), "years": NumericKeySpace("years", 8)}
        ),
    )
    requests = [
        workload.subscription_for("s", topic).filter
        for topic in workload.topics
        for _ in range(3)
    ]

    def jobs(pay, years):
        return Filter.of(
            Constraint("topic", Op.EQ, "jobs"),
            Constraint("pay", Op.GE, pay[0]), Constraint("pay", Op.LE, pay[1]),
            Constraint("years", Op.GE, years[0]),
            Constraint("years", Op.LE, years[1]),
        )

    requests += [
        jobs((4, 11), (2, 5)),                          # AND
        [jobs((0, 3), (0, 7)), jobs((12, 15), (4, 7))],  # OR of ANDs
    ]
    pool: dict[Filter, None] = {}
    for request in requests:
        grant = kdc.authorize("s", request)
        pool.update(dict.fromkeys(grant_routing_filters(_AUTHORITY, grant)))
    return list(pool)


def _pin(topic: str) -> Constraint:
    return Constraint(
        TOPIC_TOKEN_ATTRIBUTE, Op.EQ, _AUTHORITY.topic_token(topic).hex()
    )


def _element(topic: str, depth: int, element: str) -> Constraint:
    return Constraint(
        f"{ELEMENT_TOKEN_ATTRIBUTE}:v:{depth}",
        Op.EQ,
        _AUTHORITY.element_token(topic, "v", element).hex(),
    )


_STRINGS = ["a", "ab", "abc", "b", "ba"]

#: name -> filters; a sequence draws from one family or from several.
FAMILIES: dict[str, list[Filter]] = {
    "granted": _granted_routing_filters(),
    # No single topic pin: no pin at all, two pins, a pin that is not EQ.
    "unpinned-token": [
        Filter.of(_element("t", 1, "0")),
        Filter.of(_element("t", 2, "01")),
        Filter.of(_pin("t"), _pin("u")),
        Filter.of(_pin("t"), _pin("u"), _element("t", 1, "0")),
        Filter.of(Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.ANY)),
        Filter.of(Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.ANY), _element("t", 1, "0")),
        Filter.of(_pin("t")),
        Filter.of(_pin("t"), _element("t", 1, "0")),
        Filter.of(_pin("u"), _element("t", 1, "0")),
    ],
    # Plaintext: the topic constraint is ``topic``, not the pin attribute.
    "numeric-range": [
        Filter.numeric_range(topic, "v", low, high)
        for topic in ("t", "u")
        for low, high in [(0, 9), (2, 5), (2, 9), (4, 4), (6, 9), (0, 3)]
    ],
    "pinned-range": [
        Filter.of(
            _pin(topic), Constraint("v", Op.GE, low), Constraint("v", Op.LE, high)
        )
        for topic in ("t", "u")
        for low, high in [(0, 9), (2, 5), (2, 9), (4, 4), (6, 9)]
    ]
    + [Filter.of(_pin("t")), Filter.of(Constraint("v", Op.GE, 2))],
    "string-ops": [
        Filter.of(Constraint("s", op, value))
        for op in (Op.PREFIX, Op.SUFFIX, Op.SUBSTRING, Op.EQ)
        for value in _STRINGS
    ],
    # PREFIX => GE => {GT, NE}: the chains ``implies`` must close over.
    "string-order": [
        Filter.of(Constraint("s", op, value))
        for op in (Op.PREFIX, Op.GE, Op.GT, Op.NE, Op.EQ)
        for value in ("a", "ab", "b")
    ],
    # Filters that cover each other without being equal.
    "redundant": [
        Filter.of(Constraint("v", Op.GE, 1)),
        Filter.of(Constraint("v", Op.GE, 1), Constraint("v", Op.GE, 0)),
        Filter.of(Constraint("v", Op.GE, 1), Constraint("v", Op.GT, 0)),
        Filter.of(Constraint("v", Op.GE, 1), Constraint("v", Op.NE, 0)),
        Filter.of(Constraint("v", Op.GE, 0)),
        Filter.of(Constraint("v", Op.GE, 0), Constraint("v", Op.ANY)),
        Filter.of(_pin("t"), Constraint("v", Op.GE, 1)),
        Filter.of(
            _pin("t"), Constraint("v", Op.GE, 1), Constraint("v", Op.GE, 0)
        ),
        Filter.of(Constraint("v", Op.EQ, 3)),
        Filter.of(Constraint("v", Op.EQ, 3), Constraint("v", Op.GE, 1)),
    ],
}

_INTERFACES = ("a", "b", "c", "d")


def filter_pools(*families):
    """Up to ten filters of *families*; few, so that sequences revisit
    filters and covering relations among them are dense."""
    union = [candidate for name in families for candidate in FAMILIES[name]]
    return st.lists(
        st.sampled_from(union), min_size=1, max_size=10, unique=True
    )


#: A mix of two to four families.
_mixed_pools = st.lists(
    st.sampled_from(sorted(FAMILIES)), min_size=2, max_size=4, unique=True
).flatmap(lambda names: filter_pools(*names))

_interfaces = st.sampled_from(_INTERFACES)
_picks = st.integers(0, 9)



def _scripts_of(steps: dict, weights: dict, longest: int):
    """Lists of steps, kinds drawn by weight, lengths uniform up to
    *longest* (hypothesis left alone writes lists of about five, in
    which little is ever covered, uncovered and covered again)."""
    kinds = st.sampled_from(
        [kind for kind, weight in weights.items() for _ in range(weight)]
    )
    step = kinds.flatmap(
        lambda kind: st.tuples(st.just(kind), *steps[kind])
    )
    return st.integers(1, longest).flatmap(
        lambda length: st.lists(step, min_size=length, max_size=length)
    )


#: kind -> strategies of its arguments.  Filters are named by position
#: in the example's pool.
_STEPS = {
    "subscribe": (_interfaces, _picks),
    # Withdraw the n-th registration the table holds (a blind
    # ``unsubscribe`` mostly names a pair that is not registered).
    "leave": (st.integers(0, 40),),
    "unsubscribe": (_interfaces, _picks),
    "drop_interface": (_interfaces,),
    # Crash, lose one subscription while down, recover: journal replay +
    # restart + restore when a journal is bound, a bare restart
    # otherwise; then maybe replay_upstream.
    "recover": (_interfaces, _picks, st.booleans()),
    "reattach_parent": (),
    # What only the public restore() can produce: any registrations,
    # any forwarded list -- out of table order, not minimal, or naming
    # filters the table does not hold.
    "restore": (
        st.lists(st.tuples(_interfaces, _picks), max_size=6),
        st.lists(_picks, max_size=5, unique=True),
    ),
}
_WEIGHTS = {
    "subscribe": 10, "leave": 7, "unsubscribe": 1, "drop_interface": 2,
    "recover": 2, "reattach_parent": 1, "restore": 1,
}


class _Rig:
    """One broker, its upstream message log and (maybe) its journal."""

    def __init__(self, broker_class, snapshot_every, parent_from_start):
        self.broker = broker_class("b")
        self.upstream: list[tuple[str, Filter]] = []
        self.journal = None
        if snapshot_every is not None:
            self.journal = BrokerJournal("b", snapshot_every=snapshot_every)
            self.broker.bind_journal(self.journal)
        if parent_from_start:
            self.attach_parent()

    def _send(self, kind, payload):
        self.upstream.append((kind, payload))

    def attach_parent(self):
        self.broker.attach_parent("p", self._send)

    def apply(self, step, pool):
        broker = self.broker
        kind = step[0]
        if kind in ("subscribe", "unsubscribe"):
            _, interface, pick = step
            getattr(broker, kind)(interface, pool[pick % len(pool)])
        elif kind == "leave":
            registered = [
                (interface, entry.filter)
                for entry in broker.subscriptions.values()
                for interface in sorted(entry.interfaces)
            ]
            if registered:
                broker.unsubscribe(*registered[step[1] % len(registered)])
        elif kind == "drop_interface":
            broker.drop_interface(step[1])
        elif kind == "recover":
            _, interface, pick, replay = step
            broker.crash()
            broker.subscribe(interface, pool[pick % len(pool)])   # dropped
            state = None if self.journal is None else self.journal.replay()
            broker.restart()
            if state is not None:
                broker.restore(state.subscriptions, state.forwarded_upstream)
            if replay:
                broker.replay_upstream()
        elif kind == "reattach_parent":
            broker.reattach_parent("p2", self._send)
        else:
            _, registrations, forwarded = step
            broker.crash()
            broker.restart()
            broker.restore(
                [(i, pool[pick % len(pool)]) for i, pick in registrations],
                # Each filter once, as a forwarded *set* lists them.
                list(dict.fromkeys(pool[pick % len(pool)] for pick in forwarded)),
            )

    def observable(self):
        journal = self.journal
        return {
            "forwarded_upstream": self.broker.forwarded_upstream,
            "upstream": self.upstream,
            "subscriptions_forwarded": self.broker.stats.subscriptions_forwarded,
            "dropped_while_down": self.broker.stats.dropped_while_down,
            "table": {
                entry.filter: set(entry.interfaces)
                for entry in self.broker.subscriptions.values()
            },
            "wal": None if journal is None else list(journal._wal),
            "records_appended": journal and journal.records_appended,
            "snapshots_taken": journal and journal.snapshots_taken,
        }


_scripts = {
    "steps": _scripts_of(_STEPS, _WEIGHTS, longest=60),
    "snapshot_every": st.sampled_from([None, 4, 16, 256]),
    # Step before which the parent link arrives (0: there from the start).
    "parent_at": st.sampled_from([0, 0, 0, 3, 8]),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(deadline=None)
@given(data=st.data(), **_scripts)
def test_incremental_broker_equals_the_full_scan_on_each_family(
    family, data, steps, snapshot_every, parent_at
):
    pool = data.draw(filter_pools(family))
    _assert_same_as_full_scan(pool, steps, snapshot_every, parent_at)


@settings(deadline=None)
@given(pool=_mixed_pools, **_scripts)
def test_incremental_broker_equals_the_full_scan_on_mixed_families(
    pool, steps, snapshot_every, parent_at
):
    _assert_same_as_full_scan(pool, steps, snapshot_every, parent_at)


def _assert_same_as_full_scan(pool, steps, snapshot_every, parent_at):
    rigs = [
        _Rig(broker_class, snapshot_every, parent_at == 0)
        for broker_class in (FullScanBroker, Broker)
    ]
    for position, step in enumerate(steps, start=1):
        for rig in rigs:
            if position == parent_at:
                rig.attach_parent()
            rig.apply(step, pool)
        oracle, incremental = (rig.observable() for rig in rigs)
        assert incremental == oracle, (position, step)


# -- the same, through a tree ------------------------------------------------


class _Overlay:
    """A complete binary tree of *broker_class* with synchronous links,
    every broker journaled, every control message logged."""

    def __init__(self, broker_class, num_brokers, snapshot_every):
        self.messages: list[tuple] = []
        self.brokers = {}
        self.journals = {}
        for index in range(num_brokers):
            broker = self.brokers[index] = broker_class(index)
            if snapshot_every is not None:
                journal = BrokerJournal(index, snapshot_every=snapshot_every)
                self.journals[index] = journal
                broker.bind_journal(journal)
        for index in range(1, num_brokers):
            parent = (index - 1) // 2
            self.brokers[parent].attach_child(index, self._link(index, parent))
            self.brokers[index].attach_parent(parent, self._link(index, parent))

    def _link(self, source, target):
        def send(kind, payload):
            self.messages.append((source, target, kind, payload))
            getattr(self.brokers[target], kind)(source, payload)

        return send

    def recover(self, index, replay):
        broker = self.brokers[index]
        journal = self.journals.get(index)
        broker.crash()
        state = None if journal is None else journal.replay()
        broker.restart()
        if state is not None:
            broker.restore(state.subscriptions, state.forwarded_upstream)
        if replay:
            # What neighbours do when they see the new incarnation.
            for child in broker.children:
                self.brokers[child].replay_upstream()
            broker.replay_upstream()

    def observable(self):
        return {
            "messages": self.messages,
            "forwarded": {
                index: broker.forwarded_upstream
                for index, broker in self.brokers.items()
            },
            "counted": {
                index: broker.stats.subscriptions_forwarded
                for index, broker in self.brokers.items()
            },
            "tables": {
                index: {
                    entry.filter: set(entry.interfaces)
                    for entry in broker.subscriptions.values()
                }
                for index, broker in self.brokers.items()
            },
            "wals": {
                index: (list(journal._wal), journal.records_appended)
                for index, journal in self.journals.items()
            },
        }


_NUM_BROKERS = 7
_clients = st.integers(0, 5)
_brokers = st.integers(0, _NUM_BROKERS - 1)
_TREE_STEPS = {
    "subscribe": (_clients, _picks),
    "leave": (_clients, _picks),
    "unsubscribe": (_clients, _picks),
    "drop_interface": (_clients,),
    "crash": (_brokers,),
    "recover": (_brokers, st.booleans()),
}
_TREE_WEIGHTS = {
    "subscribe": 10, "leave": 7, "unsubscribe": 1, "drop_interface": 2,
    "crash": 1, "recover": 2,
}


@settings(deadline=None)
@given(
    pool=st.one_of(
        st.sampled_from(sorted(FAMILIES)).flatmap(filter_pools), _mixed_pools
    ),
    steps=_scripts_of(_TREE_STEPS, _TREE_WEIGHTS, longest=40),
    snapshot_every=st.sampled_from([None, 4, 16, 256]),
)
def test_incremental_tree_equals_the_full_scan_tree(pool, steps, snapshot_every):
    """Interior brokers see what leaves really send: re-announcements of
    filters a wider one had displaced, withdrawals of filters a crashed
    neighbour never heard of, whole interfaces dropping at once."""
    overlays = [
        _Overlay(broker_class, _NUM_BROKERS, snapshot_every)
        for broker_class in (FullScanBroker, Broker)
    ]
    for position, step in enumerate(steps, start=1):
        for overlay in overlays:
            kind = step[0]
            if kind in ("crash", "recover"):
                if kind == "crash":
                    overlay.brokers[step[1]].crash()
                else:
                    overlay.recover(step[1], step[2])
                continue
            # Clients 0..5 sit on the four leaves (3..6), two of which
            # hold two clients.
            client = f"c{step[1]}"
            home = overlay.brokers[3 + step[1] % 4]
            if kind == "drop_interface":
                home.drop_interface(client)
            elif kind == "leave":
                held = home.filters_for(client)
                if held:
                    home.unsubscribe(client, held[step[2] % len(held)])
            else:
                getattr(home, kind)(client, pool[step[2] % len(pool)])
        oracle, incremental = (overlay.observable() for overlay in overlays)
        assert incremental == oracle, (position, step)


# -- the cases decided by hand ------------------------------------------------


def _rig_pair(snapshot_every=None):
    return [
        _Rig(broker_class, snapshot_every, True)
        for broker_class in (FullScanBroker, Broker)
    ]


def test_restored_forwarded_filter_without_a_table_entry_is_withdrawn():
    """``restore()`` is public and takes any list: a forwarded filter the
    table does not hold keeps suppressing what it covers until the first
    removal, which withdraws it upstream -- as the full scan did."""
    wide = Filter.numeric_range("t", "v", 0, 9)
    narrow = Filter.numeric_range("t", "v", 2, 5)
    other = Filter.topic("u")
    for rig in _rig_pair():
        broker = rig.broker
        broker.restore([("a", narrow), ("b", other)], [wide, other])
        assert broker.forwarded_upstream == [wide, other]
        broker.subscribe("c", Filter.numeric_range("t", "v", 3, 4))
        assert rig.upstream == []            # the orphan covers it
        broker.unsubscribe("b", other)
        assert rig.upstream == [
            ("unsubscribe", wide),
            ("unsubscribe", other),
            ("subscribe", narrow),
        ]
        assert broker.forwarded_upstream == [narrow]


def test_restored_list_keeps_journal_order_until_the_first_removal():
    """The journal lists forwarded filters in the order they were
    announced, the table in the order they arrived; the restored list is
    visible as given and is back in table order after the next removal,
    even one that changes nothing upstream."""
    wide = Filter.numeric_range("t", "v", 0, 9)
    low, high = (
        Filter.numeric_range("t", "v", 0, 3), Filter.numeric_range("t", "v", 6, 9)
    )
    aside = Filter.topic("u")
    for rig in _rig_pair(snapshot_every=256):
        broker = rig.broker
        broker.subscribe("a", wide)
        broker.subscribe("b", high)       # covered
        broker.subscribe("c", aside)
        broker.subscribe("d", low)        # covered
        broker.subscribe("d", aside)
        broker.unsubscribe("a", wide)     # announces high, low
        assert broker.forwarded_upstream == [high, aside, low]
        state = rig.journal.replay()
        assert state.forwarded_upstream == [aside, high, low]
        broker.crash()
        broker.restart()
        broker.restore(state.subscriptions, state.forwarded_upstream)
        assert broker.forwarded_upstream == [aside, high, low]
        sent = len(rig.upstream)
        broker.unsubscribe("d", aside)    # "c" still holds it
        assert broker.forwarded_upstream == [aside, high, low]
        broker.unsubscribe("c", aside)
        assert rig.upstream[sent:] == [("unsubscribe", aside)]
        assert broker.forwarded_upstream == [high, low]


def test_restore_may_reorder_the_table_and_the_first_removal_follows_it():
    """Two filters that cover each other: the earlier-arrived one stands
    for both.  A journal replay orders the table by each filter's oldest
    *surviving* registration, which can swap them; the full scan then
    swapped the announcement too, and so does the first removal here."""
    plain = Filter.of(Constraint("v", Op.GE, 1))
    padded = Filter.of(Constraint("v", Op.GE, 1), Constraint("v", Op.GE, 0))
    aside = Filter.topic("u")
    for rig in _rig_pair(snapshot_every=256):
        broker = rig.broker
        broker.subscribe("a", plain)
        broker.subscribe("b", padded)
        broker.subscribe("c", plain)
        broker.subscribe("d", aside)
        broker.unsubscribe("a", plain)    # "c" keeps the entry
        state = rig.journal.replay()
        broker.crash()
        broker.restart()
        broker.restore(state.subscriptions, state.forwarded_upstream)
        assert broker.forwarded_upstream == [plain, aside]
        sent = len(rig.upstream)
        broker.unsubscribe("d", aside)
        assert rig.upstream[sent:] == [
            ("unsubscribe", plain), ("unsubscribe", aside), ("subscribe", padded),
        ]
        assert broker.forwarded_upstream == [padded]


def test_entries_older_than_the_parent_link_are_announced_at_the_first_removal():
    """A broker that took subscriptions before it had a parent has
    announced none of them; the first removal after the link arrives
    announces what the table calls for (the full scan's behaviour)."""
    news, sport = Filter.topic("news"), Filter.topic("sport")
    for broker_class in (FullScanBroker, Broker):
        rig = _Rig(broker_class, None, parent_from_start=False)
        rig.broker.subscribe("a", news)
        rig.broker.subscribe("b", sport)
        rig.attach_parent()
        assert rig.upstream == [] and rig.broker.forwarded_upstream == []
        rig.broker.unsubscribe("b", sport)
        assert rig.upstream == [("subscribe", news)]
        assert rig.broker.forwarded_upstream == [news]


def test_unforwarded_departure_tests_no_filter_and_sends_nothing(monkeypatch):
    """The common leave: what departs was covered, so nothing it covered
    can surface.  One membership test, no ``covers()`` call."""
    broker = Broker("b")
    upstream = []
    broker.attach_parent("p", lambda kind, payload: upstream.append(kind))
    broker.subscribe("a", Filter.numeric_range("t", "v", 0, 9))
    for low in range(8):
        broker.subscribe("b", Filter.numeric_range("t", "v", low, low + 1))
    calls = []
    covers = Filter.covers
    monkeypatch.setattr(
        Filter, "covers",
        lambda self, other: calls.append(1) or covers(self, other),
    )
    broker.unsubscribe("b", Filter.numeric_range("t", "v", 3, 4))
    assert calls == [] and upstream == ["subscribe"]
