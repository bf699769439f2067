"""``Subscriber.receive`` through compiled grant plans, against the
per-call logic it replaced.

``ReferenceSubscriber`` below is the subscriber as it stood before grants
were compiled: ``receive``, ``_try_clause``, ``_derive_component`` and
``_covers`` verbatim, rebuilding the active-grant list, the schema's
attribute names, the cover test and every namespace and path on each
call.  One line differs, marked: the cache namespace carries the granted
key's fingerprint, the fix that lets grants from two per-publisher key
trees coexist (without it the reference opens only one publisher's
stream, see ``test_grants_from_two_publishers_open_both_streams``).
Verdicts, ``OpenResult``\\ s, every ``SubscriberStats`` field and the key
cache, entry by entry in LRU order, must agree.
"""

import gc

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import subscriber as subscriber_module
from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace, CategoryTree
from repro.core.composite import AuthorizationComponent, CompositeKeySpace
from repro.core.derive import (
    cache_namespace,
    cached_walk,
    element_path,
    value_path,
)
from repro.core.envelope import OpenResult, SealedEvent, open_event
from repro.core.kdc import (
    KDC,
    TOPIC_COMPONENT,
    AuthorizationGrant,
    ClauseGrant,
)
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.strings import StringKeySpace
from repro.core.subscriber import Subscriber, SubscriberStats
from repro.recovery.dedup import DedupWindow
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op

EPOCH = 10.0
GRACE = 4.0


class ReferenceSubscriber:
    """The per-call subscriber, kept verbatim as the oracle."""

    def __init__(self, subscriber_id, cache_bytes, grace_period, dedup_window):
        self.subscriber_id = subscriber_id
        self.grace_period = grace_period
        self.grants = []
        self.cache = KeyCache(cache_bytes)
        self.dedup = DedupWindow(window=dedup_window) if dedup_window else None
        self.stats = SubscriberStats()

    def add_grant(self, grant):
        self.grants.append(grant)

    def active_grants(self, at_time=0.0):
        return [
            g
            for g in self.grants
            if at_time < g.expires_at + self.grace_period
        ]

    def drop_expired(self, at_time):
        before = len(self.grants)
        self.grants = self.active_grants(at_time)
        return before - len(self.grants)

    def receive(self, sealed, schema_lookup, at_time=0.0):
        self.stats.events_received += 1
        if (
            self.dedup is not None
            and sealed.origin is not None
            and sealed.sequence is not None
            and self.dedup.seen(sealed.origin, sealed.sequence)
        ):
            self.stats.duplicates_suppressed += 1
            return None
        topic = sealed.routable.get("topic")
        for grant in self.active_grants(at_time):
            if grant.topic != topic:
                continue
            schema = schema_lookup(grant.topic)
            for clause_grant in grant.clauses:
                result = self._try_clause(sealed, schema, grant, clause_grant)
                if result is not None:
                    self.stats.events_opened += 1
                    self.stats.hash_operations += result.hash_operations
                    self.stats.decrypt_operations += result.decrypt_operations
                    if at_time >= grant.expires_at:
                        self.stats.grace_opens += 1
                    return result
        self.stats.events_unreadable += 1
        return None

    def _try_clause(
        self,
        sealed: SealedEvent,
        schema,
        grant: AuthorizationGrant,
        clause_grant: ClauseGrant,
    ):
        securable = schema.attribute_names()
        for constraint in clause_grant.clause:
            if constraint.name == "topic" or constraint.name in securable:
                continue
            if not constraint.matches(sealed.routable):
                return None
        for lock in sealed.locks:
            component_keys = {}
            hash_ops = 0
            for attribute in lock.attributes:
                derived = self._derive_component(
                    sealed, schema, grant, clause_grant, attribute
                )
                if derived is None:
                    break
                component_keys[attribute], ops = derived
                hash_ops += ops
            else:
                try:
                    return open_event(
                        sealed, schema, component_keys, hash_operations=hash_ops
                    )
                except ValueError:
                    continue
        return None

    def _derive_component(
        self, sealed, schema, grant, clause_grant, attribute
    ):
        event_element = sealed.elements.get(attribute)
        if event_element is None:
            return None
        if attribute == TOPIC_COMPONENT:
            for component in clause_grant.keys_for(TOPIC_COMPONENT):
                if component.element == event_element:
                    return component.key, 0
            return None

        space = schema.space_for(attribute)
        for component in clause_grant.keys_for(attribute):
            if not self._covers(space, component, event_element):
                continue
            # The one changed line: scoped by the granted key tree.
            namespace = cache_namespace(
                grant.topic, attribute, (grant.epoch, component.key[:8])
            )
            key, ops = cached_walk(
                self.cache,
                namespace,
                element_path(space, component.element),
                component.key,
                value_path(space, event_element),
            )
            return key, ops
        return None

    @staticmethod
    def _covers(space, component: AuthorizationComponent, event_element):
        if isinstance(space, NumericKeySpace):
            return isinstance(component.element, KTID) and isinstance(
                event_element, KTID
            ) and component.element.is_prefix_of(event_element)
        if isinstance(space, CategoryKeySpace):
            return space.tree.subsumes(
                str(component.element), str(event_element)
            )
        if isinstance(space, StringKeySpace):
            return space.matches(str(component.element), str(event_element))
        return False


# -- the system under test ----------------------------------------------------

_TREE = CategoryTree.from_spec(
    "conditions",
    {"oncology": {"lung": {}, "skin": {}}, "cardio": {"valve": {}}},
)
_LABELS = ["conditions", "oncology", "lung", "skin", "cardio", "valve"]
_LEAVES = ["lung", "skin", "valve", "oncology", "cardio"]


def _kdc():
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "num", CompositeKeySpace({"age": NumericKeySpace("age", 64)}), EPOCH
    )
    kdc.register_topic(
        "cat",
        CompositeKeySpace({"category": CategoryKeySpace("category", _TREE)}),
        EPOCH,
    )
    kdc.register_topic(
        "str",
        CompositeKeySpace({
            "name": StringKeySpace("name"),
            "tail": StringKeySpace("tail", suffix_mode=True),
        }),
        EPOCH,
    )
    kdc.register_topic(
        "mix",
        CompositeKeySpace({
            "age": NumericKeySpace("age", 64),
            "category": CategoryKeySpace("category", _TREE),
        }),
        EPOCH,
    )
    kdc.register_topic(
        "pp",
        CompositeKeySpace({"age": NumericKeySpace("age", 64)}),
        EPOCH,
        per_publisher=True,
    )
    kdc.register_topic("plain", CompositeKeySpace({}), EPOCH)
    return kdc


KDC_ = _kdc()
LOOKUP = lambda topic: KDC_.config_for(topic).schema  # noqa: E731
PUBLISHERS = {name: Publisher(name, KDC_) for name in ("P", "Q")}

_RANGE = st.tuples(st.integers(0, 63), st.integers(0, 63)).map(sorted)


def _pin(topic, *constraints):
    return Filter.of(Constraint("topic", Op.EQ, topic), *constraints)


def _range(bounds):
    low, high = bounds
    return [Constraint("age", Op.GE, low), Constraint("age", Op.LE, high)]


_WARD = st.sampled_from(["w1", "w2"]).map(
    lambda ward: Constraint("ward", Op.EQ, ward)
)
_CLAUSES = {
    "num": st.one_of(
        st.just([]),
        _RANGE.map(_range),
        st.tuples(_RANGE, _WARD).map(lambda t: _range(t[0]) + [t[1]]),
    ),
    "cat": st.one_of(
        st.just([]),
        st.sampled_from(_LABELS).map(
            lambda label: [Constraint("category", Op.EQ, label)]
        ),
    ),
    "str": st.one_of(
        st.just([]),
        st.text("ab", max_size=2).map(
            lambda p: [Constraint("name", Op.PREFIX, p)]
        ),
        st.text("ab", max_size=2).map(
            lambda s: [Constraint("tail", Op.SUFFIX, s)]
        ),
    ),
    "mix": st.one_of(
        st.just([]),
        _RANGE.map(_range),
        st.tuples(_RANGE, st.sampled_from(_LABELS)).map(
            lambda t: _range(t[0])
            + [Constraint("category", Op.EQ, t[1])]
        ),
    ),
    "pp": st.one_of(st.just([]), _RANGE.map(_range)),
    "plain": st.one_of(st.just([]), _WARD.map(lambda c: [c])),
}
_TOPICS = sorted(_CLAUSES)


@st.composite
def grants(draw):
    topic = draw(st.sampled_from(_TOPICS))
    clauses = draw(st.lists(_CLAUSES[topic], min_size=1, max_size=2))
    filters = [_pin(topic, *clause) for clause in clauses]
    at_time = draw(st.sampled_from([0.0, 5.0, 12.0]))
    publisher = draw(st.sampled_from(["P", "Q"]))
    return KDC_.authorize(
        "s",
        filters if len(filters) > 1 else filters[0],
        at_time=at_time,
        publisher=publisher,
    )


@st.composite
def events(draw, topics):
    topic = draw(topics)
    attributes = {"topic": topic, "message": "m", "ward": draw(_WARD).value}
    if topic in ("num", "mix", "pp"):
        attributes["age"] = draw(st.integers(0, 63))
    if topic in ("cat", "mix"):
        attributes["category"] = draw(st.sampled_from(_LEAVES))
    if topic == "str":
        attributes["name"] = draw(st.text("ab", max_size=3))
        attributes["tail"] = draw(st.text("ab", max_size=3))
    extra = None
    if topic == "mix" and draw(st.booleans()):
        extra = [(draw(st.sampled_from(["age", "category"])),)]
    publisher = draw(st.sampled_from(["P", "Q"]))
    at_time = draw(st.sampled_from([0.0, 5.0, 12.0, 21.0]))
    sealed = PUBLISHERS[publisher].publish(
        Event(attributes, publisher=publisher),
        secret_attributes={"message"},
        at_time=at_time,
        extra_lock_subsets=extra,
    )
    repeats = draw(st.integers(1, 2))  # a redelivered duplicate
    return sealed, draw(st.sampled_from([0.0, 5.0, 12.0, 15.0, 21.0])), repeats


def _stats(subscriber):
    return vars(subscriber.stats)


def _cache_state(cache):
    return (
        [(path, key) for path, (key, _) in cache._entries.items()],
        cache.size_bytes,
        cache.hits,
        cache.misses,
        cache.evictions,
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    held=st.lists(grants(), min_size=1, max_size=4),
    cache_bytes=st.sampled_from([0, 300, 64 * 1024]),
    drop_at=st.one_of(st.none(), st.sampled_from([5.0, 15.0])),
)
def test_compiled_receive_matches_per_call_reference(
    data, held, cache_bytes, drop_at
):
    # Mostly the granted topics, so most events meet a grant to try.
    granted = st.sampled_from(sorted({grant.topic for grant in held}))
    stream = data.draw(
        st.lists(
            events(st.one_of(granted, granted, st.sampled_from(_TOPICS))),
            min_size=1,
            max_size=8,
        )
    )
    compiled = Subscriber("s", cache_bytes=cache_bytes, grace_period=GRACE)
    reference = ReferenceSubscriber("s", cache_bytes, GRACE, 1024)
    for grant in held:
        compiled.add_grant(grant)
        reference.add_grant(grant)
    for position, (sealed, at_time, repeats) in enumerate(stream):
        if drop_at is not None and position == len(stream) // 2:
            assert compiled.drop_expired(drop_at) == reference.drop_expired(
                drop_at
            )
            assert compiled.grants == reference.grants
        for _ in range(repeats):
            before = dict(_stats(compiled))
            got = compiled.receive(sealed, LOOKUP, at_time)
            want = reference.receive(sealed, LOOKUP, at_time)
            assert got == want
            assert got is None or isinstance(got, OpenResult)
            assert _stats(compiled) == _stats(reference)
            assert _cache_state(compiled.cache) == _cache_state(
                reference.cache
            )
            moved = {
                name for name, value in _stats(compiled).items()
                if value != before[name]
            }
            for name in ("duplicates_suppressed", "grace_opens",
                         "events_opened", "events_unreadable"):
                if name in moved:
                    event(name)
            if got is not None and len(sealed.locks) > 1:
                event("opened a multi-lock event")


def test_the_differential_reaches_opens_graces_and_rejections():
    """The strategies above reach every verdict the oracle can give."""
    subscriber = Subscriber("s", grace_period=GRACE)
    subscriber.add_grant(KDC_.authorize("s", _pin("num", *_range((0, 63)))))
    sealed = PUBLISHERS["P"].publish(
        Event({"topic": "num", "age": 3, "message": "m"}, publisher="P"),
        secret_attributes={"message"},
    )
    assert subscriber.receive(sealed, LOOKUP, 0.0) is not None
    assert subscriber.receive(sealed, LOOKUP, 0.0) is None  # duplicate
    late = Subscriber("late", grace_period=GRACE)
    late.add_grant(KDC_.authorize("late", _pin("num")))
    assert late.receive(sealed, LOOKUP, EPOCH + 1.0) is not None
    assert late.stats.grace_opens == 1


# -- the per-publisher fix ----------------------------------------------------


def _vitals():
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        "vitals",
        CompositeKeySpace({"hr": NumericKeySpace("hr", 256)}),
        per_publisher=True,
    )
    return kdc


def test_grants_from_two_publishers_open_both_streams():
    """Two per-publisher grants on one topic share topic, attribute and
    epoch; a walk under one grant must never seed the other's."""
    kdc = _vitals()
    lookup = lambda topic: kdc.config_for(topic).schema  # noqa: E731
    wanted = Filter.numeric_range("vitals", "hr", 40, 120)
    for cache_bytes in (64 * 1024, 0):
        for order in ("AB", "BA"):  # B first: a cold cache fails too
            subscriber = Subscriber("s", cache_bytes=cache_bytes)
            subscriber.add_grant(kdc.authorize("s", wanted, publisher="A"))
            subscriber.add_grant(kdc.authorize("s", wanted, publisher="B"))
            for name in order:
                sealed = Publisher(name, kdc).publish(
                    Event(
                        {"topic": "vitals", "hr": 70, "message": name},
                        publisher=name,
                    )
                )
                result = subscriber.receive(sealed, lookup)
                assert result is not None, (cache_bytes, order, name)
                assert result.event["message"] == name


# -- plan lifetime ------------------------------------------------------------


def _live_plans():
    gc.collect()
    return sum(
        isinstance(thing, subscriber_module._GrantPlan)
        for thing in gc.get_objects()
    )


def test_no_plan_outlives_its_grant():
    kdc = _vitals()
    lookup = lambda topic: kdc.config_for(topic).schema  # noqa: E731
    before = _live_plans()
    subscriber = Subscriber("s")
    wanted = Filter.numeric_range("vitals", "hr", 0, 255)
    subscriber.add_grant(kdc.authorize("s", wanted, publisher="A"))
    assert _live_plans() == before  # add_grant compiles nothing
    sealed = Publisher("A", kdc).publish(
        Event({"topic": "vitals", "hr": 9, "message": "m"}, publisher="A")
    )
    assert subscriber.receive(sealed, lookup) is not None
    assert _live_plans() == before + 1  # compiled at the first receive
    expires_at = subscriber.grants[0].expires_at
    assert subscriber.drop_expired(expires_at + 1.0) == 1
    assert subscriber.grants == []
    assert _live_plans() == before  # dropped with its grant


def test_a_new_schema_object_recompiles_the_plan():
    kdc = _vitals()
    schemas = {"vitals": kdc.config_for("vitals").schema}
    subscriber = Subscriber("s", dedup_window=0)
    subscriber.add_grant(
        kdc.authorize(
            "s", Filter.numeric_range("vitals", "hr", 0, 255), publisher="A"
        )
    )
    sealed = Publisher("A", kdc).publish(
        Event({"topic": "vitals", "hr": 9, "message": "m"}, publisher="A")
    )
    assert subscriber.receive(sealed, schemas.get) is not None
    first = subscriber._held[0].plan
    assert subscriber.receive(sealed, schemas.get) is not None
    assert subscriber._held[0].plan is first  # same schema: reused
    schemas["vitals"] = CompositeKeySpace(
        {"hr": NumericKeySpace("hr", 256)}
    )
    assert subscriber.receive(sealed, schemas.get) is not None
    assert subscriber._held[0].plan is not first


def test_equal_grants_share_one_plan_until_the_last_is_dropped():
    """Subscribers holding equal grants (same filter, epoch and keys)
    share one plan; it goes with the last grant that refers to it."""
    kdc = _vitals()
    lookup = lambda topic: kdc.config_for(topic).schema  # noqa: E731
    wanted = Filter.numeric_range("vitals", "hr", 0, 255)
    sealed = Publisher("A", kdc).publish(
        Event({"topic": "vitals", "hr": 9, "message": "m"}, publisher="A")
    )
    before = _live_plans()
    first, second = Subscriber("s1"), Subscriber("s2")
    first.add_grant(kdc.authorize("s1", wanted, publisher="A"))
    second.add_grant(kdc.authorize("s2", wanted, publisher="A"))
    assert first.receive(sealed, lookup) is not None
    assert second.receive(sealed, lookup) is not None
    assert first._held[0].plan is second._held[0].plan
    assert _live_plans() == before + 1
    late = first.grants[0].expires_at + 1.0
    first.drop_expired(late)
    assert _live_plans() == before + 1  # still held through the second
    second.drop_expired(late)
    assert _live_plans() == before
