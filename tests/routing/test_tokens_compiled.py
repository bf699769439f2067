"""The compiled match predicates against the per-call one they replaced.

``reference_match`` is ``_tokenized_match`` as it stood: every call
re-checked the constraint name, re-decoded the filter's hex token and the
event's hex routable, and keyed HMAC afresh.  The compiled predicates
keep a filter's parsed steps on the filter and an event's parsed
routables for as long as calls keep naming that event; none of it may
change a verdict, whatever the inputs and whatever order the same
``Filter`` and ``Event`` objects come back in.
"""

import hmac

from hypothesis import example, given, settings, strategies as st

from repro.core.ktid import KTID
from repro.routing.tokens import (
    ELEMENT_TOKEN_ATTRIBUTE,
    TOPIC_TOKEN_ATTRIBUTE,
    TokenAuthority,
    TokenProbe,
    _token_matcher,
    make_routable,
    tokenize_event,
    tokenized_match,
    tokenized_subscription,
)
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op

AUTHORITY = TokenAuthority(bytes(range(16)))
TOKENS = [AUTHORITY.topic_token(topic) for topic in ("alpha", "beta", "gamma")]
TOKEN_NAMES = (
    TOPIC_TOKEN_ATTRIBUTE,
    f"{ELEMENT_TOKEN_ATTRIBUTE}:age:3",
    # startswith, not equality, decides what is a token constraint.
    TOPIC_TOKEN_ATTRIBUTE + "x",
)
NONCE = bytes(range(16, 32))


def reference_match(subscription, event):
    for constraint in subscription:
        if not constraint.name.startswith(
            (TOPIC_TOKEN_ATTRIBUTE, ELEMENT_TOKEN_ATTRIBUTE)
        ):
            if not constraint.matches(event):
                return False
            continue
        value = event.get(constraint.name)
        if not isinstance(value, str):
            return False
        try:
            raw = bytes.fromhex(value)
            if len(raw) < 17:
                raise ValueError("routable token too short")
            token = bytes.fromhex(str(constraint.value))
        except ValueError:
            return False
        expected = hmac.new(
            token, b"psguard:f:" + raw[:16], "sha1"
        ).digest()[:16]
        if not hmac.compare_digest(expected, raw[16:]):
            return False
    return True


#: Constraint values a token constraint may carry: well-formed tokens,
#: then what ``bytes.fromhex(str(value))`` accepts or refuses -- spaced
#: hex, the empty token, odd length, non-hex, a number, nothing.
token_values = st.one_of(
    st.sampled_from(TOKENS).map(bytes.hex),
    st.sampled_from(TOKENS).map(lambda token: token.hex(" ")),
    st.sampled_from(["", "abc", "not-hex", "zz"]),
    st.integers(0, 99),
)
token_constraints = st.one_of(
    st.builds(
        Constraint, st.sampled_from(TOKEN_NAMES), st.just(Op.EQ), token_values
    ),
    st.builds(
        Constraint,
        st.sampled_from(TOKEN_NAMES),
        st.sampled_from([Op.NE, Op.GT]),
        st.sampled_from(TOKENS).map(bytes.hex),
    ),
    st.sampled_from(TOKEN_NAMES).map(lambda name: Constraint(name, Op.ANY)),
)
plaintext_constraints = st.one_of(
    st.sampled_from(["alpha", "beta"]).map(
        lambda topic: Constraint("topic", Op.EQ, topic)
    ),
    st.builds(
        Constraint,
        st.just("n"),
        st.sampled_from([Op.LT, Op.GE, Op.NE]),
        st.integers(0, 4),
    ),
)
filters = st.lists(
    st.one_of(token_constraints, plaintext_constraints), min_size=1, max_size=4
).map(Filter)

#: Routable attribute values: proofs under a known token (with the
#: nonce fixed, so equal values recur across events), then every way a
#: value fails to be one -- odd length, non-hex, too short to hold a
#: nonce, exactly a nonce and no proof, a truncated or overlong proof,
#: and values that are not strings at all.
routable_values = st.one_of(
    st.sampled_from(TOKENS).map(lambda t: make_routable(t).encode()),
    st.sampled_from(TOKENS).map(lambda t: make_routable(t, NONCE).encode()),
    st.sampled_from(TOKENS).map(
        lambda t: make_routable(t, NONCE).encode()[:-2]
    ),
    st.sampled_from(TOKENS).map(
        lambda t: make_routable(t, NONCE).encode() + "00"
    ),
    st.sampled_from(["", "abc", "not-hex", "abcd", NONCE.hex()]),
    st.sampled_from([7, 2.5, b"\x01\x02"]),
)
events = st.fixed_dictionaries(
    {},
    optional={
        **{name: routable_values for name in TOKEN_NAMES},
        "topic": st.sampled_from(["alpha", "beta"]),
        "n": st.integers(0, 4),
    },
).map(Event)

#: What a grant and a publisher really produce: a KTID cover element
#: beside the topic pin, and events tokenizing every prefix of a leaf.
GRANTED_FILTERS = [
    tokenized_subscription(AUTHORITY, "alpha", {"v": KTID((0,))}),
    tokenized_subscription(AUTHORITY, "beta"),
]
TOKENIZED_EVENTS = [
    tokenize_event(AUTHORITY, Event({"x": 1}), {"v": leaf}, "alpha")
    for leaf in (KTID((0, 0)), KTID((1,)), KTID())
]


@settings(max_examples=300, deadline=None)
@given(
    pool_filters=st.lists(filters, min_size=1, max_size=5),
    pool_events=st.lists(events, min_size=1, max_size=4),
    calls=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
)
@example(
    pool_filters=GRANTED_FILTERS,
    pool_events=TOKENIZED_EVENTS,
    calls=[(f, e) for e in range(3) for f in (0, 1, 0, 1)],
)
def test_compiled_predicates_equal_the_per_call_reference(
    pool_filters, pool_events, calls
):
    """Any interleaving of a few ``Filter`` and ``Event`` objects: the
    memo must never hand one event's routable, or one filter's verdict,
    to another."""
    other = _token_matcher()
    for filter_index, event_index in calls:
        subscription = pool_filters[filter_index % len(pool_filters)]
        event = pool_events[event_index % len(pool_events)]
        expected = reference_match(subscription, event)
        assert tokenized_match(subscription, event) is expected
        assert other(subscription, event) is expected


def test_one_filter_object_serves_both_predicates_and_fresh_copies_agree():
    token = TOKENS[0]
    subscription = Filter.of(Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.EQ, token.hex()))
    # A second predicate: its own per-event memo, the filter's steps shared.
    other = _token_matcher()
    hit = Event({TOPIC_TOKEN_ATTRIBUTE: make_routable(token).encode()})
    miss = Event({TOPIC_TOKEN_ATTRIBUTE: make_routable(TOKENS[1]).encode()})
    for match in (tokenized_match, other, tokenized_match, other):
        assert match(subscription, hit)
        assert not match(subscription, miss)
    # The compiled steps are derived from the constraints alone.
    assert Filter(subscription.constraints)._token_steps is None
    assert Filter(subscription.constraints) == subscription
    assert tokenized_match(Filter(subscription.constraints), hit)


def test_equal_events_at_distinct_addresses_do_not_share_a_parse():
    """The per-event memo goes by identity, and holds the event it
    belongs to, so a recycled ``id()`` can never alias it."""
    token = TOKENS[0]
    subscription = Filter.of(Constraint(TOPIC_TOKEN_ATTRIBUTE, Op.EQ, token.hex()))
    for _ in range(200):
        good = Event({TOPIC_TOKEN_ATTRIBUTE: make_routable(token).encode()})
        assert tokenized_match(subscription, good)
        del good
        bad = Event({TOPIC_TOKEN_ATTRIBUTE: "not-hex"})
        assert not tokenized_match(subscription, bad)
        del bad


def test_token_probe_is_the_broker_side_check():
    token = TOKENS[2]
    routable = make_routable(token)
    assert TokenProbe(token).matches(routable.nonce, routable.proof)
    assert not TokenProbe(TOKENS[1]).matches(routable.nonce, routable.proof)
    assert not TokenProbe(token).matches(routable.nonce, routable.proof[:-1])

