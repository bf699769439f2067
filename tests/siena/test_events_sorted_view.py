"""``Event`` against the eagerly sorted implementation it replaced.

``ReferenceEvent`` is ``Event.__post_init__`` as it stood -- sort the
items, rebuild the dict, keep the tuple -- and everything observable
went through those two fields.  ``Event`` now holds ``attributes`` in
name order -- sorting only input that is not -- and keeps no second
copy; order, bytes, equality and hash must not move, for inputs in any
order and after every way an event is derived from another.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.siena.events import Event, _encode_value


class ReferenceEvent:
    def __init__(self, attributes, publisher=None):
        self.items = tuple(sorted(dict(attributes).items()))
        self.attributes = dict(self.items)
        self.publisher = publisher

    def __hash__(self):
        return hash((self.items, self.publisher))

    def to_bytes(self):
        publisher = (self.publisher or "").encode("utf-8")
        parts = [
            struct.pack(">H", len(self.items)),
            struct.pack(">H", len(publisher)),
            publisher,
        ]
        for name, value in self.items:
            encoded = name.encode("utf-8")
            parts += [struct.pack(">H", len(encoded)), encoded]
            parts.append(_encode_value(value))
        return b"".join(parts)


names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)
values = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.binary(max_size=12),
)
#: (name, value) pairs in the order they will be inserted: hypothesis
#: shrinks towards sorted, and draws shuffled ones just as readily.
attribute_lists = st.lists(
    st.tuples(names, values), max_size=8, unique_by=lambda pair: pair[0]
)
publishers = st.one_of(st.none(), st.text(max_size=5))


def _same(event, reference):
    assert list(event.attributes.items()) == list(reference.attributes.items())
    assert tuple(event) == reference.items
    assert len(event) == len(reference.items)
    assert hash(event) == hash(reference)
    assert event.to_bytes() == reference.to_bytes()
    assert event.wire_size() == len(reference.to_bytes())
    assert event.publisher == reference.publisher


@settings(max_examples=200, deadline=None)
@given(pairs=attribute_lists, publisher=publishers, presorted=st.booleans())
def test_order_bytes_and_hash_equal_the_eager_reference(
    pairs, publisher, presorted
):
    if presorted:
        pairs = sorted(pairs)
    given_attributes = dict(pairs)
    event = Event(given_attributes, publisher=publisher)
    reference = ReferenceEvent(dict(pairs), publisher)
    _same(event, reference)
    # The event owns its mapping: the caller's dict is not aliased.
    given_attributes["zzz-added-later"] = 1
    assert "zzz-added-later" not in event
    decoded = Event.from_bytes(event.to_bytes())
    _same(decoded, ReferenceEvent(dict(pairs), publisher or None))
    assert decoded == Event(dict(pairs), publisher=publisher or None)
    assert decoded.to_bytes() == event.to_bytes()


@settings(max_examples=200, deadline=None)
@given(
    pairs=attribute_lists,
    extra=st.dictionaries(st.sampled_from(["a", "m", "zz", "_x"]), values),
    removed=st.lists(names, max_size=3),
    publisher=publishers,
)
def test_derived_events_equal_the_eager_reference(
    pairs, extra, removed, publisher
):
    event = Event(dict(pairs), publisher=publisher)
    merged = dict(pairs)
    merged.update(extra)
    _same(event.with_attributes(**extra), ReferenceEvent(merged, publisher))
    drop = [name for name, _ in pairs[:2]] + removed
    remaining = {n: v for n, v in pairs if n not in drop}
    _same(
        event.without_attributes(*drop), ReferenceEvent(remaining, publisher)
    )
    # Deriving leaves the original as it was.
    _same(event, ReferenceEvent(dict(pairs), publisher))


@settings(max_examples=100, deadline=None)
@given(first=attribute_lists, second=attribute_lists, publisher=publishers)
def test_equality_and_hash_ignore_insertion_order(first, second, publisher):
    left = Event(dict(first), publisher=publisher)
    assert left == Event(dict(reversed(first)), publisher=publisher)
    assert hash(left) == hash(Event(dict(reversed(first)), publisher=publisher))
    right = Event(dict(second), publisher=publisher)
    assert (left == right) == (
        ReferenceEvent(dict(first)).items == ReferenceEvent(dict(second)).items
    )
    assert left != Event(dict(first), publisher=(publisher or "") + "x")


def test_from_bytes_sorts_what_a_foreign_encoder_wrote_out_of_order():
    def encoded(pairs):
        parts = [struct.pack(">HH", len(pairs), 0)]
        for name, value in pairs:
            raw = name.encode("utf-8")
            parts += [struct.pack(">H", len(raw)), raw, _encode_value(value)]
        return b"".join(parts)

    shuffled = Event.from_bytes(encoded([("b", 2), ("a", 1), ("c", 3)]))
    assert list(shuffled.attributes) == ["a", "b", "c"]
    assert tuple(shuffled) == (("a", 1), ("b", 2), ("c", 3))
    assert shuffled == Event({"a": 1, "b": 2, "c": 3})
    # A repeated name: the later value wins, as a dict build always did.
    repeated = Event.from_bytes(encoded([("a", 1), ("b", 2), ("a", 9)]))
    assert repeated == Event({"a": 9, "b": 2})
    assert list(repeated.attributes) == ["a", "b"]
