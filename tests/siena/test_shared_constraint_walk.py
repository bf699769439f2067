"""The broker's shared-constraint walk vs. a per-filter reference scan.

The walk hands the match predicate single-constraint unit filters, each
distinct one at most once per event.  That is only sound for predicates
that are conjunctive over constraints -- the ``MatchPredicate`` contract,
checked here for every shipped predicate -- and it must route exactly as
the scan it replaced: same interfaces, same order.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.lru import LRUCache
from repro.routing.tokens import (
    ELEMENT_TOKEN_ATTRIBUTE,
    TOPIC_TOKEN_ATTRIBUTE,
    TokenAuthority,
    make_routable,
    tokenized_match,
)
from repro.siena.broker import Broker, _plain_match
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op

AUTHORITY = TokenAuthority(bytes(range(16)))
TOPICS = ("alpha", "beta", "gamma", "delta")
ELEMENTS = ("x", "y", "z")
ELEMENT_ATTRIBUTE = f"{ELEMENT_TOKEN_ATTRIBUTE}:kind"
TOPIC_TOKENS = [AUTHORITY.topic_token(topic) for topic in TOPICS]
ELEMENT_TOKENS = [
    AUTHORITY.element_token(TOPICS[0], "kind", element)
    for element in ELEMENTS
]
#: Not hex, hex but too short to hold a nonce, and a well-formed pair
#: whose proof belongs to no token.
MALFORMED = ("not-hex", "abcd", make_routable(bytes(16)).encode())

PREDICATES = {
    "plain": _plain_match,
    "tokenized": tokenized_match,
}


def _token_constraints(name, tokens):
    return st.sampled_from(tokens).map(
        lambda token: Constraint(name, Op.EQ, token.hex())
    )


plaintext_constraints = st.one_of(
    st.sampled_from(TOPICS).map(lambda t: Constraint("topic", Op.EQ, t)),
    st.builds(
        Constraint,
        st.just("n"),
        st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE, Op.NE]),
        st.integers(0, 4),
    ),
    st.just(Constraint("n", Op.ANY)),
)
constraints = st.one_of(
    _token_constraints(TOPIC_TOKEN_ATTRIBUTE, TOPIC_TOKENS),
    _token_constraints(ELEMENT_ATTRIBUTE, ELEMENT_TOKENS),
    # A malformed token value in the filter itself.
    st.just(Constraint(ELEMENT_ATTRIBUTE, Op.EQ, "zz")),
    plaintext_constraints,
)
filters = st.lists(constraints, min_size=1, max_size=4).map(Filter)


def _routable_values(tokens):
    return st.one_of(
        st.sampled_from(tokens).map(lambda t: make_routable(t).encode()),
        st.sampled_from(MALFORMED),
    )


events = st.fixed_dictionaries(
    {},
    optional={
        TOPIC_TOKEN_ATTRIBUTE: _routable_values(TOPIC_TOKENS),
        ELEMENT_ATTRIBUTE: _routable_values(ELEMENT_TOKENS),
        "topic": st.sampled_from(TOPICS),
        "n": st.integers(0, 4),
    },
).map(Event)


@settings(max_examples=150, deadline=None)
@given(subscription_filter=filters, event=events)
def test_shipped_predicates_are_conjunctive_over_constraints(
    subscription_filter, event
):
    for name, match in PREDICATES.items():
        assert match(subscription_filter, event) == all(
            match(Filter.of(constraint), event)
            for constraint in subscription_filter
        ), name


def _reference_scan(table, match, event, arrived_from):
    """What the per-filter scan this walk replaced would return."""
    matched = []
    for subscription_filter, interfaces in table.items():
        if match(subscription_filter, event):
            for interface in interfaces:
                if interface != arrived_from and interface not in matched:
                    matched.append(interface)
    return matched


#: One table operation: (subscribe?, interface, filter).
operations = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), filters),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.tuples(operations, events), min_size=1, max_size=3),
    predicate=st.sampled_from(sorted(PREDICATES)),
    with_cache=st.booleans(),
    arrived_from=st.one_of(st.none(), st.integers(0, 3)),
)
def test_walk_routes_like_the_reference_scan(
    steps, predicate, with_cache, arrived_from
):
    match = PREDICATES[predicate]
    broker = Broker(
        "b", match=match,
        match_cache=LRUCache(4096) if with_cache else None,
    )
    # filter -> the broker's own interface set, in table order: the walk
    # must reproduce the scan's order down to set iteration.
    table = {}
    for batch, event in steps:
        for subscribing, interface, subscription_filter in batch:
            if subscribing:
                broker.subscribe(interface, subscription_filter)
            else:
                broker.unsubscribe(interface, subscription_filter)
        table = {
            entry.filter: entry.interfaces
            for entry in broker.subscriptions.values()
        }
        assert broker._matched_interfaces(event, arrived_from) == (
            _reference_scan(table, match, event, arrived_from)
        )


def test_table_tracks_subscriptions_and_unsubscriptions():
    """The reference table above is read from the broker; pin it down."""
    broker = Broker("b")
    first, second = Filter.topic("a"), Filter.topic("b")
    broker.subscribe("i", first)
    broker.subscribe("j", second)
    broker.subscribe("j", first)
    broker.unsubscribe("i", first)
    broker.unsubscribe("j", second)
    assert [
        (entry.filter, entry.interfaces)
        for entry in broker.subscriptions.values()
    ] == [(first, {"j"})]


def test_each_distinct_constraint_is_tested_once_per_event():
    calls = []

    def counting(subscription_filter, event):
        calls.append(subscription_filter)
        return tokenized_match(subscription_filter, event)

    broker = Broker("b", match=counting)
    pins = [
        Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.EQ, token.hex())
        for token in TOPIC_TOKENS
    ]
    shared = Constraint(ELEMENT_ATTRIBUTE, Op.EQ, ELEMENT_TOKENS[0].hex())
    for interface in range(10):
        broker.subscribe(interface, Filter.of(pins[interface % 4], shared))
        broker.subscribe(interface, Filter.of(pins[interface % 4]))
    event = Event({
        TOPIC_TOKEN_ATTRIBUTE: make_routable(TOPIC_TOKENS[1]).encode(),
        ELEMENT_ATTRIBUTE: make_routable(ELEMENT_TOKENS[0]).encode(),
    })
    assert sorted(broker._matched_interfaces(event, None)) == [1, 5, 9]
    # Two pins probed (the second verifies), then the bucket's one
    # remaining constraint -- for 8 stored filters.
    assert calls == [Filter.of(pins[0]), Filter.of(pins[1]), Filter.of(shared)]
    assert broker.stats.match_tests == 3


def test_unsubscription_releases_units_and_buckets():
    broker = Broker("b", match=tokenized_match)
    pin = Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.EQ, TOPIC_TOKENS[0].hex())
    extra = Constraint(ELEMENT_ATTRIBUTE, Op.EQ, ELEMENT_TOKENS[0].hex())
    broker.subscribe("i", Filter.of(pin, extra))
    broker.subscribe("j", Filter.of(pin))
    broker.unsubscribe("i", Filter.of(pin, extra))
    assert set(broker._units) == {Filter.of(pin)}
    broker.unsubscribe("j", Filter.of(pin))
    assert not broker._units and not broker._buckets

