"""KeyCache and cached_walk against an independent per-level oracle.

The oracle below states the walk's insertion rule level by level: one
``derivation_step`` per tree level, and one ``put`` per level -- each
pricing the whole path with ``entry_cost`` (again on eviction) -- until a
``put`` evicts, then none.  Its ancestor search probes every length.
Everything observable must agree with it -- entry order, byte size,
counters (local and ``instrument()``-ed), derived keys, hash counts --
and every walk must return the uncached key with no more hashes.

CI runs this file a second time under ``--hypothesis-profile=cache-deep``
(registered in ``tests/conftest.py``), which scales every example budget
below tenfold.
"""

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace, CategoryTree
from repro.core.derive import (
    cache_namespace,
    cached_walk,
    derivation_step,
    value_path,
)
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.obs.metrics import MetricsRegistry

TOPIC_KEY = bytes(range(16))


class ReferenceCache:
    """A byte-bounded LRU, per level and re-pricing every path."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = capacity_bytes
        self.entries = OrderedDict()
        self.size_bytes = 0
        self.hits = self.misses = self.evictions = 0

    def put(self, path, key):
        cost = KeyCache.entry_cost(path)
        if cost > self.capacity_bytes:
            return
        if path in self.entries:
            self.entries.move_to_end(path)
            self.entries[path] = key
            return
        self.entries[path] = key
        self.size_bytes += cost
        while self.size_bytes > self.capacity_bytes and self.entries:
            evicted_path, _ = self.entries.popitem(last=False)
            self.size_bytes -= KeyCache.entry_cost(evicted_path)
            self.evictions += 1

    def get(self, path):
        key = self.entries.get(path)
        if key is None:
            self.misses += 1
            return None
        self.entries.move_to_end(path)
        self.hits += 1
        return key

    def deepest_ancestor(self, path, floor=0):
        for length in range(len(path), floor - 1, -1):
            candidate = path[:length]
            key = self.entries.get(candidate)
            if key is not None:
                self.entries.move_to_end(candidate)
                self.hits += 1
                return candidate, key
        self.misses += 1
        return None


def reference_walk(cache, namespace, start, start_key, target):
    """The insertion rule: one ``put`` per level until a ``put`` evicts."""
    full_target = namespace + target
    position = len(namespace) + len(start)
    key = start_key
    hit = cache.deepest_ancestor(full_target, floor=position)
    if hit is not None:
        position = len(hit[0])
        key = hit[1]
    operations = 0
    inserting = True
    while position < len(full_target):
        key = derivation_step(key, full_target[position])
        position += 1
        operations += 1
        if inserting:
            evictions = cache.evictions
            cache.put(full_target[:position], key)
            inserting = cache.evictions == evictions
    return key, operations


def instrumented(capacity):
    """A cache whose registry counters account from its first call."""
    registry = MetricsRegistry()
    return KeyCache(capacity).instrument(registry), registry


def assert_same_state(cache, reference, registry=None):
    assert [(p, k) for p, (k, _) in cache._entries.items()] == list(
        reference.entries.items()
    )
    assert cache.size_bytes == reference.size_bytes
    assert cache.size_bytes == sum(
        KeyCache.entry_cost(path) for path in cache._entries
    )
    expected = (reference.hits, reference.misses, reference.evictions)
    assert (cache.hits, cache.misses, cache.evictions) == expected
    if registry is not None:
        assert tuple(
            registry.get(f"key_cache_{name}_total").value
            for name in ("hits", "misses", "evictions")
        ) == expected
        assert registry.get("key_cache_size_bytes").value == cache.size_bytes


# Few distinct parts so paths collide; long strings and bytes so part costs
# differ and some paths outgrow a small cache mid-descent.  Bytes parts
# only ever sit in a namespace: a walk derives through digits and labels.
_STEP_PARTS = st.sampled_from([0, 1, 2, 255, "a", "bc", "x" * 40, "é"])
_PARTS = st.one_of(_STEP_PARTS, st.just(b"\x01\x02\x03\x04"))
_PATHS = st.lists(_PARTS, min_size=0, max_size=6).map(tuple)
_KEYS = st.binary(min_size=16, max_size=16)
_OPS = st.one_of(
    st.tuples(st.just("put"), _PATHS, _KEYS),
    st.tuples(
        st.just("descend"),
        _PATHS,
        st.lists(_STEP_PARTS, min_size=0, max_size=6).map(tuple),
        _KEYS,
    ),
    st.tuples(st.just("get"), _PATHS),
    st.tuples(st.just("deepest_ancestor"), _PATHS, st.integers(0, 3)),
)


def _examples(tier_one):
    """*tier_one* examples, scaled by the loaded profile's budget."""
    return tier_one * settings.default.max_examples // 100


@settings(max_examples=_examples(300), deadline=None)
@given(capacity=st.integers(0, 400), ops=st.lists(_OPS, max_size=40))
def test_cache_matches_per_level_reference(capacity, ops):
    cache, registry = instrumented(capacity)
    reference = ReferenceCache(capacity)
    for name, *arguments in ops:
        if name == "descend":
            base, tail, key = arguments
            got = cache.descend(base + tail, len(base), key)
            want = reference_walk(reference, base, (), key, tail)
        else:
            got = getattr(cache, name)(*arguments)
            want = getattr(reference, name)(*arguments)
        assert got == want
        assert_same_state(cache, reference, registry)


_TREE = CategoryTree.from_spec(
    "all", {"a": {"a1": {"a1x": {}, "a1y": {}}, "a2": {}}, "b": {"b1": {}}}
)
_SPACES = {
    "numeric": (
        NumericKeySpace("n", 1 << 12),
        st.integers(0, (1 << 12) - 1),
    ),
    "category": (
        CategoryKeySpace("c", _TREE),
        st.sampled_from(["a", "a1", "a1x", "a1y", "a2", "b", "b1"]),
    ),
    "prefix": (StringKeySpace("s"), st.text("abc", max_size=6)),
    "suffix": (
        StringKeySpace("s", suffix_mode=True),
        st.text("abc", max_size=6),
    ),
}
_WALKS = st.sampled_from(sorted(_SPACES)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), _SPACES[kind][1], st.integers(0, 12)
    )
)


@settings(max_examples=_examples(200), deadline=None)
@given(capacity=st.integers(0, 1500), walks=st.lists(_WALKS, max_size=30))
def test_cached_walk_matches_uncached_and_reference_walk(capacity, walks):
    cache, registry = instrumented(capacity)
    reference = ReferenceCache(capacity)
    for kind, value, start_depth in walks:
        space = _SPACES[kind][0]
        namespace = cache_namespace("topic", kind, 0)
        target = value_path(space, value)
        # A subscriber starts at its granted element, a publisher at the root.
        start = target[: min(start_depth, len(target))]
        start_key, _ = cached_walk(
            None, namespace, (), space.root_key(TOPIC_KEY), start
        )
        expected = cached_walk(None, namespace, start, start_key, target)
        walked = cached_walk(cache, namespace, start, start_key, target)
        assert walked[0] == expected[0]
        assert walked[1] <= expected[1]
        assert walked == reference_walk(
            reference, namespace, start, start_key, target
        )
        assert_same_state(cache, reference, registry)


_SPREAD = [(value * 2654435761) % (1 << 20) for value in range(448)]


def _depth_20_walks(capacity, values=_SPREAD):
    """The same depth-20 walks on the fused cache and the oracle."""
    space = NumericKeySpace("n", 1 << 20)
    namespace = cache_namespace("topic", "n", bytes(range(4)))
    root = space.root_key(TOPIC_KEY)
    cache, registry = instrumented(capacity)
    reference = ReferenceCache(capacity)
    for value in values:
        target = value_path(space, value)
        walked = cached_walk(cache, namespace, (), root, target)
        assert walked == reference_walk(reference, namespace, (), root, target)
        assert walked[0] == cached_walk(None, namespace, (), root, target)[0]
    assert_same_state(cache, reference, registry)
    return cache


def test_fused_walk_with_zero_capacity_caches_nothing():
    cache = _depth_20_walks(0)
    assert len(cache) == 0 and cache.size_bytes == 0
    assert cache.evictions == 0
    assert cache.misses == len(_SPREAD)  # one miss per walk, as ever


def test_fused_walk_stops_inserting_where_a_level_outgrows_capacity():
    # The namespace prices 2 + 5 + 1 + 4 bytes and a key 16 + 8, so an
    # entry at depth d costs 36 + d: levels 1-14 fit in 50 bytes, deeper
    # ones never do -- yet every walk still derives all 20 levels.  One
    # entry fits at a time, so each walk of one value starts at the level
    # the last one kept and inserts one level deeper, evicting it, until
    # level 14.
    cache = _depth_20_walks(50, _SPREAD + [12345] * 20)
    assert cache.size_bytes <= 50
    assert max(len(path) - 4 for path in cache._entries) == 14
    assert cache.evictions > 0


def test_fused_walk_matches_reference_at_the_default_capacity():
    cache = _depth_20_walks(64 * 1024)
    assert cache.hits > 0 and cache.evictions > 0


def test_full_cache_stops_thrashing_on_uniform_depth_20_values():
    # At 64 KiB a uniform depth-20 stream overflows the cache by the top
    # dozen levels.  Inserting every level below the deepest cached
    # ancestor made each walk insert ≈ 13 keys and evict as many, none of
    # them read again before its eviction: 13.5 H per walk on this stream.
    # Once the cache is full a walk makes one insert that evicts.  Entry
    # costs grow with depth, so that insert may need two shallower entries
    # out, and the next walk may make one insert into the room it left
    # before its evicting one -- never more, since any two entries here
    # cost more than any one.
    space = NumericKeySpace("n", 1 << 20)
    namespace = cache_namespace("topic", "n", bytes(range(4)))
    root = space.root_key(TOPIC_KEY)
    rng = random.Random(20)
    targets = [value_path(space, rng.randrange(1 << 20)) for _ in range(2500)]
    cache = KeyCache(64 * 1024)
    for target in targets[:2000]:
        cached_walk(cache, namespace, (), root, target)
    hashes = 0
    for target in targets[2000:]:
        entries, evictions = len(cache), cache.evictions
        hashes += cached_walk(cache, namespace, (), root, target)[1]
        evicted = cache.evictions - evictions
        assert evicted <= 2
        assert len(cache) - entries + evicted <= 2
    assert hashes / 500 < 13.1


def test_depth_20_walk_prices_a_path_at_most_once(monkeypatch):
    calls = []
    entry_cost = KeyCache.entry_cost

    def spy(path):
        calls.append(path)
        return entry_cost(path)

    monkeypatch.setattr(KeyCache, "entry_cost", staticmethod(spy))
    space = NumericKeySpace("n", 1 << 20)
    namespace = cache_namespace("topic", "n", 0)
    root = space.root_key(TOPIC_KEY)
    cache = KeyCache(2048)  # small enough that every walk also evicts
    for value in (0, (1 << 20) - 1, 1 << 19, 12345):
        del calls[:]
        _, operations = cached_walk(
            cache, namespace, (), root, value_path(space, value)
        )
        assert operations > 0
        assert len(calls) <= 1
    assert cache.evictions > 0
