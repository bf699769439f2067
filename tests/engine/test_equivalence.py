"""Property: the batched engine is observationally identical to the
per-event path.

The same pre-built events (for the secure pipeline: the same *sealed*
ciphertexts, tokenized once) are disseminated through two identical
broker trees -- one via ``publish`` per event, one via the
``DisseminationEngine`` with its caches enabled -- and every subscriber
must receive exactly the same events in exactly the same order,
including under mid-stream flushes and partial final batches.
"""

from hypothesis import given, settings, strategies as st

from repro.core.kdc import KDC
from repro.core.composite import CompositeKeySpace
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.engine import DisseminationEngine, EngineCaches, EngineConfig
from repro.routing.tokens import (
    TokenAuthority,
    tokenize_event,
    tokenized_match,
    tokenized_subscription,
)
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.siena.network import BrokerTree

MASTER = bytes(range(16))
TOPICS = ("alpha", "beta", "gamma")


def _attach_all(tree, subscriptions, streams):
    """Attach recording subscribers; dedup (subscriber, filter) pairs."""
    leaves = tree.leaf_ids()
    attached = {}
    for subscriber, leaf_index, subscription_filter in subscriptions:
        if subscriber not in attached:
            streams[subscriber] = []
            stream = streams[subscriber]
            tree.attach_subscriber(
                subscriber, leaves[leaf_index % len(leaves)], stream.append
            )
            attached[subscriber] = set()
        if subscription_filter not in attached[subscriber]:
            attached[subscriber].add(subscription_filter)
            tree.subscribe(subscriber, subscription_filter)


def _run_both_paths(
    num_brokers, arity, subscriptions, events, batch_size,
    match=None, flush_points=(),
):
    """Per-subscriber streams from the per-event and batched paths."""
    results = []
    for batched in (False, True):
        caches = EngineCaches(EngineConfig(batch_size=batch_size))
        if match is None:
            tree_match, match_cache = None, caches.match_results
            tree = BrokerTree(
                num_brokers=num_brokers, arity=arity,
                match_cache=match_cache if batched else None,
            )
        else:
            tree = BrokerTree(
                num_brokers=num_brokers, arity=arity,
                match=caches.tokenized_match() if batched else match,
                match_cache=caches.match_results if batched else None,
            )
        streams = {}
        _attach_all(tree, subscriptions, streams)
        if not batched:
            for event in events:
                tree.publish(event)
        else:
            engine = DisseminationEngine(
                tree, EngineConfig(batch_size=batch_size)
            )
            for index, event in enumerate(events):
                engine.publish(event)
                if index in flush_points:
                    # A mid-stream flush sends the partial batch early.
                    engine.flush()
            engine.flush()
        results.append(streams)
    return results


@st.composite
def plain_scenario(draw):
    num_brokers = draw(st.integers(min_value=1, max_value=15))
    arity = draw(st.integers(min_value=1, max_value=3))
    subscriptions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2", "s3"]),
                st.integers(min_value=0, max_value=7),
                st.one_of(
                    st.sampled_from(TOPICS).map(Filter.topic),
                    st.tuples(
                        st.sampled_from(TOPICS),
                        st.integers(min_value=0, max_value=40),
                        st.integers(min_value=0, max_value=40),
                    ).map(
                        lambda t: Filter.numeric_range(
                            t[0], "v", min(t[1], t[2]), max(t[1], t[2])
                        )
                    ),
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TOPICS),
                st.integers(min_value=0, max_value=40),
            ).map(lambda t: Event({"topic": t[0], "v": t[1]})),
            min_size=1,
            max_size=24,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=10))
    flush_points = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(events) - 1), max_size=3
        )
    )
    return num_brokers, arity, subscriptions, events, batch_size, flush_points


@settings(max_examples=40, deadline=None)
@given(plain_scenario())
def test_plain_equivalence(scenario):
    num_brokers, arity, subscriptions, events, batch_size, flush = scenario
    per_event, batched = _run_both_paths(
        num_brokers, arity, subscriptions, events, batch_size,
        flush_points=flush,
    )
    assert per_event == batched


@st.composite
def tokenized_scenario(draw):
    num_brokers = draw(st.integers(min_value=1, max_value=15))
    arity = draw(st.integers(min_value=2, max_value=3))
    subscriptions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["s0", "s1", "s2"]),
                st.integers(min_value=0, max_value=7),
                st.sampled_from(TOPICS),
                st.one_of(
                    st.none(),
                    st.integers(min_value=0, max_value=6),  # KTID index
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TOPICS),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=16,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=7))
    flush_points = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(events) - 1), max_size=2
        )
    )
    return num_brokers, arity, subscriptions, events, batch_size, flush_points


def _ktid_elements(space: NumericKeySpace):
    """A deterministic list of elements at mixed depths to subscribe on."""
    elements = [KTID()]
    frontier = [KTID()]
    while frontier and len(elements) < 7:
        node = frontier.pop(0)
        for digit in range(node.arity):
            child = KTID(node.digits + (digit,), node.arity)
            if child.depth <= space.depth:
                elements.append(child)
                frontier.append(child)
    return elements[:7]


@settings(max_examples=25, deadline=None)
@given(tokenized_scenario())
def test_tokenized_equivalence_same_ciphertexts(scenario):
    """Same sealed events through both paths: identical routables AND
    identical decryptions at every subscriber."""
    num_brokers, arity, raw_subs, raw_events, batch_size, flush = scenario
    authority = TokenAuthority(MASTER)
    kdc = KDC(master_key=MASTER)
    space = NumericKeySpace("v", 8)
    for topic in TOPICS:
        kdc.register_topic(topic, CompositeKeySpace({"v": space}))
    elements = _ktid_elements(space)

    subscriptions = []
    for subscriber, leaf_index, topic, element_index in raw_subs:
        if element_index is None:
            token_filter = tokenized_subscription(authority, topic)
        else:
            token_filter = tokenized_subscription(
                authority, topic, {"v": elements[element_index]}
            )
        subscriptions.append((subscriber, leaf_index, token_filter))

    # Seal and tokenize ONCE: both paths move the same ciphertext bits.
    publisher = Publisher("P", kdc)
    sealed_by_seq = {}
    events = []
    for seq, (topic, value) in enumerate(raw_events):
        sealed = publisher.publish(
            Event({"topic": topic, "v": value, "payload": f"m{seq}"},
                  publisher="P")
        )
        sealed_by_seq[seq] = sealed
        ktid_elements = {
            attr: el for attr, el in sealed.elements.items()
            if isinstance(el, KTID)
        }
        routable = sealed.routable.with_attributes(_seq=seq)
        events.append(tokenize_event(authority, routable, ktid_elements, topic))

    per_event, batched = _run_both_paths(
        num_brokers, arity, subscriptions, events, batch_size,
        match=tokenized_match, flush_points=flush,
    )
    assert per_event == batched  # bit-identical delivered events, in order

    # Decrypt what each subscriber saw on the batched path: same sealed
    # event objects, so ciphertexts and plaintexts equal the per-event
    # path's by construction -- verify decryption outcomes match too.
    # Odd-numbered subscribers get grants; even ones stay unauthorized,
    # exercising both the "opens" and the "unreadable" outcome.
    grants = {}
    for subscriber, _leaf, topic, _element in raw_subs:
        if subscriber in ("s1",) or subscriber == "s3":
            grants.setdefault(subscriber, {})[topic] = kdc.authorize(
                subscriber, Filter.topic(topic)
            )
    schema = lambda topic: kdc.config_for(topic).schema  # noqa: E731
    for subscriber_id, stream in batched.items():
        endpoint_batched = Subscriber(subscriber_id)
        endpoint_plain = Subscriber(subscriber_id)
        for grant in grants.get(subscriber_id, {}).values():
            endpoint_batched.add_grant(grant)
            endpoint_plain.add_grant(grant)
        for delivered, original in zip(stream, per_event[subscriber_id]):
            seq = delivered.get("_seq")
            assert seq == original.get("_seq")
            opened_batched = endpoint_batched.receive(
                sealed_by_seq[seq], schema
            )
            opened_plain = endpoint_plain.receive(sealed_by_seq[seq], schema)
            assert (opened_batched is None) == (opened_plain is None)
            if opened_batched is not None:
                assert opened_batched.event == opened_plain.event
