"""Tokenization: correctness of encrypted matching, secrecy of labels."""

import pytest
from hypothesis import given, strategies as st

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.flow import HIGH, priority_of, with_priority
from repro.routing import tokens as tokens_module
from repro.routing.tokens import (
    RoutableToken,
    TokenAuthority,
    TokenOpener,
    make_routable,
    routable_matches,
    tokenize_event,
    tokenize_sealed,
    tokenized_match,
    tokenized_subscription,
)
from repro.siena.events import Event
from repro.siena.filters import Filter

MASTER = bytes(range(16))


@pytest.fixture
def authority() -> TokenAuthority:
    return TokenAuthority(MASTER)


class TestPrimitives:
    def test_match_correctness(self, authority):
        token = authority.topic_token("cancerTrail")
        routable = make_routable(token)
        assert routable_matches(token, routable)

    def test_wrong_token_rejects(self, authority):
        routable = make_routable(authority.topic_token("cancerTrail"))
        assert not routable_matches(
            authority.topic_token("other"), routable
        )

    def test_fresh_nonce_each_time(self, authority):
        token = authority.topic_token("w")
        assert make_routable(token) != make_routable(token)

    def test_fixed_nonce_is_deterministic(self, authority):
        token = authority.topic_token("w")
        nonce = bytes(16)
        assert make_routable(token, nonce) == make_routable(token, nonce)

    def test_encode_decode_roundtrip(self, authority):
        routable = make_routable(authority.topic_token("w"))
        assert RoutableToken.decode(routable.encode()) == routable

    def test_decode_rejects_short(self):
        with pytest.raises(ValueError):
            RoutableToken.decode("0011")

    def test_element_tokens_scoped(self, authority):
        ktid = KTID.parse("101")
        assert authority.element_token(
            "t", "age", ktid
        ) != authority.element_token("t2", "age", ktid)
        assert authority.element_token(
            "t", "age", ktid
        ) != authority.element_token("t", "salary", ktid)

    def test_ktid_prefix_tokens_one_per_level(self, authority):
        leaf = KTID.parse("1010")
        tokens = authority.ktid_prefix_tokens("t", "age", leaf)
        assert len(tokens) == 5  # root + 4 levels
        assert len(set(tokens)) == 5


class TestEventTokenization:
    def test_plaintext_attributes_removed(self, authority):
        space = NumericKeySpace("age", 128)
        event = Event({"topic": "trial", "age": 25, "region": "EU"})
        tokenized = tokenize_event(
            authority, event, {"age": space.ktid(25)}, "trial"
        )
        for name in ("topic", "age", "region"):
            assert name not in tokenized

    def test_matching_at_every_cover_level(self, authority):
        space = NumericKeySpace("age", 128)
        event = Event({"topic": "trial", "age": 25})
        tokenized = tokenize_event(
            authority, event, {"age": space.ktid(25)}, "trial"
        )
        for low, high, expected in [(0, 127, True), (16, 31, True),
                                    (24, 25, True), (60, 90, False)]:
            filters = [
                tokenized_subscription(authority, "trial", {"age": element})
                for element in space.cover(low, high)
            ]
            assert any(
                tokenized_match(f, tokenized) for f in filters
            ) is expected

    def test_string_element_tokenization(self, authority):
        event = Event({"topic": "t", "name": "GOOG"})
        tokenized = tokenize_event(authority, event, {"name": "GOOG"}, "t")
        matching = tokenized_subscription(authority, "t", {"name": "GOOG"})
        non_matching = tokenized_subscription(authority, "t", {"name": "MSFT"})
        assert tokenized_match(matching, tokenized)
        assert not tokenized_match(non_matching, tokenized)

    def test_topic_only_subscription(self, authority):
        event = Event({"topic": "w"})
        tokenized = tokenize_event(authority, event, {}, "w")
        assert tokenized_match(
            tokenized_subscription(authority, "w"), tokenized
        )
        assert not tokenized_match(
            tokenized_subscription(authority, "other"), tokenized
        )

    def test_same_topic_events_unlinkable_without_token(self, authority):
        """Two events under one topic share no common attribute values."""
        first = tokenize_event(
            authority, Event({"topic": "w"}), {}, "w"
        )
        second = tokenize_event(
            authority, Event({"topic": "w"}), {}, "w"
        )
        shared = {
            name
            for name in first.attributes
            if first.get(name) == second.get(name) and name != "_seq"
        }
        assert not shared

    def test_malformed_event_value_rejected_by_match(self, authority):
        subscription = tokenized_subscription(authority, "w")
        garbage = Event({"_ttok": "zz-not-hex"})
        assert not tokenized_match(subscription, garbage)

    def test_missing_token_attribute_rejects(self, authority):
        subscription = tokenized_subscription(authority, "w")
        assert not tokenized_match(subscription, Event({"other": 1}))

    def test_mixed_plain_constraints_still_checked(self, authority):
        from repro.siena.filters import Constraint, Filter
        from repro.siena.operators import Op

        event = tokenize_event(
            authority, Event({"topic": "w"}), {}, "w"
        ).with_attributes(region="EU")
        base = tokenized_subscription(authority, "w")
        with_region = Filter(
            list(base.constraints) + [Constraint("region", Op.EQ, "EU")]
        )
        wrong_region = Filter(
            list(base.constraints) + [Constraint("region", Op.EQ, "US")]
        )
        assert tokenized_match(with_region, event)
        assert not tokenized_match(wrong_region, event)

    def test_seq_attribute_preserved_for_simulator(self, authority):
        event = Event({"topic": "w", "_seq": 42})
        tokenized = tokenize_event(authority, event, {}, "w")
        assert tokenized["_seq"] == 42

    def test_priority_class_survives_tokenization(self, authority):
        """Every flow decision after the publisher reads the class off
        the tokenized routable, so tokenizing must not reset it."""
        event = with_priority(Event({"topic": "t", "age": 3}), HIGH)
        tokenized = tokenize_event(authority, event, {}, "t")
        assert priority_of(tokenized) == HIGH
        assert "age" not in tokenized


class TestTokenOpener:
    """The subscriber edge both transports open through."""

    @pytest.fixture
    def kdc(self):
        kdc = KDC(master_key=MASTER)
        kdc.register_topic(
            "trial", CompositeKeySpace({"age": NumericKeySpace("age", 128)})
        )
        kdc.register_topic("other", CompositeKeySpace({}))
        return kdc

    def _opener(self, kdc, authority, *filters):
        opener = TokenOpener(
            Subscriber("s"),
            lambda topic: kdc.config_for(topic).schema,
            authority,
        )
        registered = []
        for subscription_filter in filters:
            grant = kdc.authorize("s", subscription_filter)
            opener.engine.add_grant(grant)
            registered += opener.routing_filters(grant)
        return opener, registered

    def test_opens_on_the_sealed_routable_with_topic_back(
        self, kdc, authority
    ):
        opener, registered = self._opener(
            kdc, authority, Filter.numeric_range("trial", "age", 16, 31)
        )
        sealed = tokenize_sealed(authority, Publisher("p", kdc).publish(
            Event({"topic": "trial", "age": 25, "body": "b", "_seq": 1},
                  publisher="p")
        ))
        assert any(tokenized_match(f, sealed.routable) for f in registered)
        result = opener.receive(sealed)
        assert dict(result.event.attributes) == {
            "topic": "trial", "body": "b", "_seq": 1,
        }
        assert opener.opened == [result]
        assert opener.log == [("p", 0, "open")]
        # The same publication again is a duplicate, not unreadable.
        assert opener.receive(sealed) is None
        assert opener.log[-1] == ("p", 0, "duplicate")
        assert (opener.duplicates, opener.unreadable) == (1, 0)

    def test_an_ungranted_topic_resolves_to_nothing(self, kdc, authority):
        opener, _ = self._opener(kdc, authority, Filter.topic("trial"))
        sealed = tokenize_sealed(authority, Publisher("p", kdc).publish(
            Event({"topic": "other", "body": "b"}, publisher="p")
        ))
        assert opener.receive(sealed) is None
        assert opener.log == [("p", 0, "unreadable")]
        assert opener.engine.stats.events_received == 0
        assert opener.unreadable == 1

    def test_a_plaintext_routable_is_not_opened(self, kdc, authority):
        opener, _ = self._opener(kdc, authority, Filter.topic("trial"))
        sealed = Publisher("p", kdc).publish(
            Event({"topic": "trial", "body": "b"}, publisher="p")
        )
        assert opener.receive(sealed) is None
        assert opener.unreadable == 1


@given(topic=st.text(min_size=1, max_size=12))
def test_authority_topic_token_deterministic(topic):
    first = TokenAuthority(MASTER).topic_token(topic)
    second = TokenAuthority(MASTER).topic_token(topic)
    assert first == second


@given(
    first=st.text(min_size=1, max_size=8),
    second=st.text(min_size=1, max_size=8),
)
def test_distinct_topics_distinct_tokens(first, second):
    authority = TokenAuthority(MASTER)
    if first != second:
        assert authority.topic_token(first) != authority.topic_token(second)


# -- the memoizing authority's fast path --------------------------------------


def _counting_urandom(monkeypatch):
    """Patch ``os.urandom`` with a deterministic counter; returns the
    sizes it was asked for."""
    calls = []

    def urandom(size):
        calls.append(size)
        start = sum(calls[:-1])
        return bytes((start + offset) % 251 for offset in range(size))

    monkeypatch.setattr(tokens_module.os, "urandom", urandom)
    return calls


@given(
    digits=st.lists(st.integers(0, 3), max_size=12),
    label=st.one_of(st.none(), st.text(max_size=6)),
)
def test_tokenize_event_equals_make_routable_per_token(digits, label):
    """Every pair is ``make_routable(token, nonce).encode()`` for its
    label's token and its slice of the event's one ``os.urandom`` draw,
    in attribute order: the topic, then each prefix of each KTID."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_urandom(monkeypatch)
        authority = TokenAuthority(MASTER, capacity=8)
        leaf = KTID(tuple(digits), 4)
        elements = {"v": leaf, "w": KTID((1,), 2)}
        if label is not None:
            elements["s"] = label
        tokenized = tokenize_event(
            authority, Event({"_seq": 3}), elements, "alpha"
        )
    assert len(calls) == 1  # one draw for the whole event
    pool = bytes(b % 251 for b in range(calls[0]))
    nonces = [pool[i:i + 16] for i in range(0, len(pool), 16)]
    plain = TokenAuthority(MASTER)
    expected = {
        "_ttok": make_routable(plain.topic_token("alpha"), nonces[0]).encode()
    }
    position = 1
    for attribute in ("v", "w"):
        prefixes = plain.ktid_prefix_tokens(
            "alpha", attribute, elements[attribute]
        )
        for level, token in enumerate(prefixes):
            expected[f"_etok:{attribute}:{level}"] = make_routable(
                token, nonces[position]
            ).encode()
            position += 1
    if label is not None:
        expected["_etok:s"] = make_routable(
            plain.element_token("alpha", "s", label), nonces[position]
        ).encode()
        position += 1
    assert position == len(nonces)
    assert dict(tokenized.attributes) == {**expected, "_seq": 3}
    assert len(authority.cache) <= 8  # the memo stays within its bound


def test_prefix_material_is_the_ktid_bytes(authority):
    """The label of a prefix is ``KTID.to_bytes()`` of that prefix, built
    from the leaf's digits without constructing the prefix KTID."""
    leaf = KTID((2, 0, 1), 3)
    for level, prefix in enumerate(list(leaf.ancestors()) + [leaf]):
        assert bytes((3, level, *leaf.digits[:level])) == prefix.to_bytes()


def test_authority_memo_holds_one_probe_per_label(authority):
    leaf = KTID((1, 0, 1, 1), 2)
    for _ in range(3):
        tokenize_event(authority, Event({}), {"v": leaf}, "alpha")
    stats = authority.cache.stats()
    assert stats["entries"] == 1 + 5  # the topic and five prefixes
    assert stats["misses"] == 6 and stats["hits"] == 12
    # Subscription-side lookups share the same entries.
    authority.topic_token("alpha")
    authority.element_token("alpha", "v", KTID((1, 0), 2))
    assert authority.cache.stats()["entries"] == 6
    # The entry is the probe: it checks what the publisher built.
    probe = authority._probe(b"topic:alpha")
    routable = make_routable(probe.token)
    assert probe.matches(routable.nonce, routable.proof)


def test_authority_memo_evicts_at_capacity():
    authority = TokenAuthority(MASTER, capacity=4)
    leaf = KTID(tuple([0, 1] * 8), 2)
    tokenize_event(authority, Event({}), {"v": leaf}, "alpha")
    assert len(authority.cache) == 4
    assert authority.cache.stats()["evictions"] == 1 + 17 - 4
