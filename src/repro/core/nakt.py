"""The Numeric Attribute Key Tree (NAKT) of Section 3.1.

Supports range subscriptions ``<num, in, (l, u)>`` over a numeric attribute
with range ``(0, |R(num)| - 1)`` and least count ``lc(num)``:

- a value ``v`` maps to the leaf ``ktid(v)``, a depth-``m`` digit string of
  ``floor(v / lc)`` where ``m = ceil(log_a(|R|/lc))``;
- the encryption key of an event ``<num, v>`` is the leaf key
  ``K_{ktid(v)}``;
- the authorization keys of a subscription ``(l, u)`` are the keys of the
  *minimal aligned cover* of the range -- at most ``2(a-1)log_a(|R|/lc)-2``
  elements, minimized at ``a = 2`` (the paper's binary-optimality claim,
  reproduced by ``benchmarks/bench_ablation_arity.py``).

A subscriber derives ``K_{ktid(v)}`` from a cover key ``K_{ktid}`` iff
``ktid`` is a prefix of ``ktid(v)`` iff ``l <= v <= u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.keyspace import (
    derive_between,
    derive_node_key,
    derive_root_key,
)
from repro.core.ktid import KTID


@dataclass(frozen=True)
class NumericKeySpace:
    """The key space of one numeric attribute.

    ``range_size`` is ``|R(num)|`` (values span ``0 .. range_size - 1``),
    ``least_count`` is ``lc(num)`` -- the smallest subscribable interval --
    and ``arity`` the tree fan-out ``a``.
    """

    name: str
    range_size: int
    least_count: int = 1
    arity: int = 2

    def __post_init__(self) -> None:
        if self.range_size < 1:
            raise ValueError(f"range size must be positive, got {self.range_size}")
        if self.least_count < 1:
            raise ValueError(
                f"least count must be positive, got {self.least_count}"
            )
        if self.least_count > self.range_size:
            raise ValueError("least count cannot exceed the range size")
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")

    # -- geometry ------------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        """Number of leaves: aligned blocks of ``least_count`` values."""
        return math.ceil(self.range_size / self.least_count)

    @property
    def depth(self) -> int:
        """Tree depth ``m = ceil(log_a(leaf_count))``."""
        if self.leaf_count == 1:
            return 0
        return math.ceil(math.log(self.leaf_count, self.arity))

    def _check_value(self, value: float) -> int:
        if not 0 <= value < self.range_size:
            raise ValueError(
                f"value {value} outside range [0, {self.range_size - 1}] "
                f"of attribute {self.name!r}"
            )
        return int(value // self.least_count)

    def ktid(self, value: float) -> KTID:
        """The leaf identifier ``ktid(v)`` of an attribute value.

        >>> NumericKeySpace("age", 32, least_count=4).ktid(22)
        KTID(101, arity=2)
        """
        return KTID.from_index(self._check_value(value), self.depth, self.arity)

    def node_range(self, ktid: KTID) -> tuple[int, int]:
        """Inclusive value range ``(low, high)`` covered by a tree node."""
        if ktid.arity != self.arity or ktid.depth > self.depth:
            raise ValueError(f"{ktid!r} does not belong to this key space")
        span = self.arity ** (self.depth - ktid.depth)
        low_block = ktid.index * span
        high_block = low_block + span - 1
        low = low_block * self.least_count
        high = min((high_block + 1) * self.least_count, self.range_size) - 1
        if low >= self.range_size:
            raise ValueError(f"{ktid!r} lies entirely outside the value range")
        return low, high

    # -- minimal range cover -----------------------------------------------

    def cover(self, low: float, high: float) -> list[KTID]:
        """Minimal set of aligned tree elements spanning ``[low, high]``.

        The subscription is snapped outward to least-count boundaries (a
        subscription can only be expressed at ``lc`` granularity).  Greedy
        maximal-aligned-block selection yields the provably minimal cover.

        >>> space = NumericKeySpace("num", 32)
        >>> [str(k) for k in space.cover(8, 19)]  # paper: {(8,15), (16,19)}
        ['01', '100']
        """
        if low > high:
            raise ValueError(f"empty subscription range ({low}, {high})")
        first_block = self._check_value(low)
        last_block = self._check_value(min(high, self.range_size - 1))

        elements: list[KTID] = []
        block = first_block
        while block <= last_block:
            # Largest arity-power block aligned at `block` and inside range.
            span = 1
            while (
                block % (span * self.arity) == 0
                and block + span * self.arity - 1 <= last_block
            ):
                span *= self.arity
            level = self.depth - round(math.log(span, self.arity))
            elements.append(KTID.from_index(block // span, level, self.arity))
            block += span
        return sorted(elements, key=lambda k: self.node_range(k)[0])

    # -- keys ------------------------------------------------------------------

    def root_key(self, topic_key: bytes) -> bytes:
        """Root key ``K_root(num) = KH_{K(w)}(num)``."""
        return derive_root_key(topic_key, self.name)

    def node_key(self, topic_key: bytes, ktid: KTID) -> bytes:
        """Key of a tree element, derived from the topic key (KDC side)."""
        return derive_node_key(self.root_key(topic_key), ktid)

    def encryption_key(self, topic_key: bytes, value: float) -> tuple[KTID, bytes]:
        """Encryption key ``K(e) = K_{ktid(v)}`` for an event value.

        Returns ``(ktid(v), key)``; the ktid travels with the event as its
        routing label.
        """
        leaf = self.ktid(value)
        return leaf, self.node_key(topic_key, leaf)

    def authorization_keys(
        self, topic_key: bytes, low: float, high: float
    ) -> list[tuple[KTID, bytes]]:
        """Authorization keys for a range subscription (KDC side).

        One ``(ktid, key)`` pair per element of the minimal cover -- the
        paper's ``K(f) = K_{ktid(l,u)}`` generalized to multi-element
        covers.
        """
        root = self.root_key(topic_key)
        return [
            (element, derive_node_key(root, element))
            for element in self.cover(low, high)
        ]

    @staticmethod
    def derive_encryption_key(
        authorization: tuple[KTID, bytes], event_ktid: KTID
    ) -> tuple[bytes, int]:
        """Subscriber-side derivation of ``K(e)`` from one authorization key.

        Returns ``(key, hash_ops)``.  Raises :class:`ValueError` when the
        authorization element is not an ancestor of the event leaf -- i.e.
        the event does not match the subscription.
        """
        ktid, key = authorization
        return derive_between(key, ktid, event_ktid)

    # -- cost bounds (Section 3.1) ---------------------------------------------

    def max_cover_size(self) -> int:
        """Paper bound: ``2(a-1) log_a(|R|/lc) - 2`` (>= 1)."""
        if self.depth == 0:
            return 1
        return max(1, 2 * (self.arity - 1) * self.depth - 2)
