"""The engine's caches never change observable behaviour.

Every memoization layer must be bit-identical to uncached computation --
including across epoch rollover (envelope keys change; cached key
material must not resurrect expired access) and across unsubscription
(a warm pin memo must not route events for departed filters).
"""

from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.crypto.prf import F
from repro.engine import EngineCaches, EngineConfig
from repro.routing.tokens import (
    RoutableToken,
    TokenAuthority,
    routable_matches,
    tokenize_event,
    tokenized_subscription,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree

MASTER = bytes(range(16))


# -- token caches are exact memoizations --------------------------------------


def _plain_topic_token(topic):
    """``T(w) = F_{rk}(w)`` computed directly, with no memo."""
    return F(MASTER, b"topic:" + topic.encode("utf-8"))


def _plain_element_token(topic, attribute, element):
    material = (
        element.to_bytes() if isinstance(element, KTID)
        else element.encode("utf-8")
    )
    label = b"element:" + topic.encode("utf-8") + b"\x00"
    return F(MASTER, label + attribute.encode("utf-8") + b"\x00" + material)


def test_caching_authority_matches_plain_authority():
    caching = TokenAuthority(MASTER)
    for topic in ("alpha", "beta"):
        assert caching.topic_token(topic) == _plain_topic_token(topic)
        for element in (KTID(), KTID((0,)), KTID((1, 0)), "prefix-x"):
            assert caching.element_token(
                topic, "v", element
            ) == _plain_element_token(topic, "v", element)
    # Second pass hits the cache; values must not change.
    assert caching.topic_token("alpha") == _plain_topic_token("alpha")
    assert caching.cache.stats()["hits"] == 1


def test_caching_authority_correct_under_eviction():
    tiny = TokenAuthority(MASTER, capacity=2)
    topics = [f"t{i}" for i in range(8)]
    for _ in range(2):  # second pass mostly misses after eviction
        for topic in topics:
            assert tiny.topic_token(topic) == _plain_topic_token(topic)
    assert tiny.cache.stats()["evictions"] > 0
    assert len(tiny.cache) == 2


def _uncached_match(subscription, event):
    """Each constraint checked from scratch: no compiled steps, no parse."""
    for constraint in subscription:
        value = event.get(constraint.name)
        if not isinstance(value, str):
            return False
        token = bytes.fromhex(str(constraint.value))
        if not routable_matches(token, RoutableToken.decode(value)):
            return False
    return True


def test_prf_cache_and_cached_match_equal_uncached():
    """The engine's predicate compiles each filter once and parses each
    event once; neither may change a verdict, on first call or repeat."""
    authority = TokenAuthority(MASTER)
    match = EngineCaches(EngineConfig()).tokenized_match()
    subscription = tokenized_subscription(authority, "alpha", {"v": KTID((0,))})
    other = tokenized_subscription(authority, "beta")
    verdicts = []
    for value_element in (KTID((0, 0)), KTID((1,)), KTID()):
        event = tokenize_event(
            authority,
            Event({"x": 1}),
            {"v": value_element},
            "alpha",
        )
        for filter_ in (subscription, other):
            expected = _uncached_match(filter_, event)
            assert match(filter_, event) is expected
            # repeat: compiled steps and parsed routables warm, same verdict
            assert match(filter_, event) is expected
        verdicts.append(match(subscription, event))
    assert verdicts == [True, False, False]  # only (0, 0) lies under (0,)


# -- pin memo across unsubscription -------------------------------------------


def _tokenized_tree(caches: EngineCaches, num_brokers=7):
    return BrokerTree(
        num_brokers=num_brokers,
        match=caches.tokenized_match(),
        match_cache=caches.match_results,
    )


def _tokenized_event(authority, topic, seq):
    return tokenize_event(
        authority, Event({"_seq": seq}), {}, topic
    )


def test_unsubscribed_filter_stops_matching_despite_warm_cache():
    caches = EngineCaches(EngineConfig())
    authority = caches.token_authority(MASTER)
    tree = _tokenized_tree(caches)
    received = []
    leaf = tree.leaf_ids()[0]
    tree.attach_subscriber("s", leaf, received.append)
    news = tokenized_subscription(authority, "news")
    tree.subscribe("s", news)

    tree.publish(_tokenized_event(authority, "news", 0))
    assert len(received) == 1  # the memo now holds the event's pin

    tree.unsubscribe("s", news)
    tree.publish(_tokenized_event(authority, "news", 1))
    assert len(received) == 1  # a departed filter must not route


def test_partial_unsubscribe_keeps_other_interface_served():
    caches = EngineCaches(EngineConfig())
    authority = caches.token_authority(MASTER)
    tree = _tokenized_tree(caches)
    leaves = tree.leaf_ids()
    got_a, got_b = [], []
    tree.attach_subscriber("a", leaves[0], got_a.append)
    tree.attach_subscriber("b", leaves[1], got_b.append)
    news = tokenized_subscription(authority, "news")
    tree.subscribe("a", news)
    tree.subscribe("b", news)

    tree.publish(_tokenized_event(authority, "news", 0))
    tree.unsubscribe("a", news)
    tree.publish(_tokenized_event(authority, "news", 1))
    assert len(got_a) == 1
    assert len(got_b) == 2  # the shared filter stays live for b


# -- key caches across epoch rollover -----------------------------------------


def _epoch_fixture(epoch_length=10.0):
    kdc = KDC(master_key=MASTER)
    kdc.register_topic(
        "ward",
        CompositeKeySpace({"v": NumericKeySpace("v", 8)}),
        epoch_length,
    )
    return kdc


def test_epoch_rollover_with_warm_caches_matches_cold():
    kdc = _epoch_fixture()
    publisher = Publisher("P", kdc)  # persistent KeyCache across epochs
    schema = lambda topic: kdc.config_for(topic).schema  # noqa: E731

    warm = Subscriber("warm")
    for at_time in (0.0, 15.0):  # grants for epoch 0 and epoch 1
        warm.add_grant(kdc.authorize("warm", Filter.topic("ward"),
                                     at_time=at_time))

    outcomes_warm, outcomes_cold = [], []
    for seq, at_time in enumerate((0.0, 15.0)):
        sealed = publisher.publish(
            Event({"topic": "ward", "v": 3, "payload": f"m{seq}"},
                  publisher="P"),
            at_time=at_time,
        )
        opened = warm.receive(sealed, schema, at_time=at_time)
        outcomes_warm.append(opened.event if opened else None)

        cold = Subscriber(f"cold{seq}")  # fresh cache per event
        cold.add_grant(kdc.authorize(f"cold{seq}", Filter.topic("ward"),
                                     at_time=at_time))
        opened_cold = cold.receive(sealed, schema, at_time=at_time)
        outcomes_cold.append(opened_cold.event if opened_cold else None)

    assert outcomes_warm == outcomes_cold
    assert all(outcome is not None for outcome in outcomes_warm)


def test_expired_grant_stays_expired_with_warm_cache():
    """A warm key cache must not extend access past the grant's epoch."""
    kdc = _epoch_fixture()
    publisher = Publisher("P", kdc)
    schema = lambda topic: kdc.config_for(topic).schema  # noqa: E731

    subscriber = Subscriber("s")
    subscriber.add_grant(
        kdc.authorize("s", Filter.topic("ward"), at_time=0.0)
    )

    early = publisher.publish(
        Event({"topic": "ward", "v": 1, "payload": "early"}, publisher="P"),
        at_time=0.0,
    )
    assert subscriber.receive(early, schema, at_time=0.0) is not None

    late = publisher.publish(
        Event({"topic": "ward", "v": 1, "payload": "late"}, publisher="P"),
        at_time=15.0,
    )
    assert subscriber.receive(late, schema, at_time=15.0) is None
