"""Seeded inputs and the plaintext oracle shared by all five workloads.

Everything the program under test receives is generated here by
:class:`repro.workloads.PaperWorkload` (Section 5.2 of the paper: Zipf
topic popularity; numeric, category, string and plain topic kinds), in
two parts:

- the **population** -- topics and their key spaces, and which
  subscriber asks for which topics with which filter -- is part of a
  workload's definition, like its broker count: it is drawn once, from
  PaperWorkload's own default seed.  How much work an event causes
  depends on it (fan-out, filter selectivity, routing-table sizes), and
  a benchmark whose work per event moved with ``--seed`` could not tell
  a regression from a different draw;
- the **traffic** -- the event pool (topics by Zipf, values, payloads),
  the KDC master key (so every key, token and ciphertext) and the churn
  order -- is drawn from ``--seed``.

The oracle never touches a key: subscriber ``s`` must open publication
``n`` iff one of ``s``'s *plaintext* filters matches the *plaintext*
event and ``s`` was joined when ``n`` was disseminated (the paper's
derive-iff-match invariant, checked from outside).
"""

from __future__ import annotations

import base64
from collections import Counter
from dataclasses import dataclass, field

from repro.core.ktid import KTID
from repro.siena.events import Event
from repro.siena.filters import Filter
from repro.workloads import PaperWorkload, Subscription, WorkloadConfig

#: Routable attribute carrying an event's index in the pool; the
#: tokenizer keeps it, so delivery callbacks can name what arrived.
SEQ = "_seq"
PUBLISHER = "P"
POPULATION_SEED = WorkloadConfig().seed


def event_index(_subscription, event) -> int | None:
    """Publication id of a ``match(subscription, event)`` call's event."""
    return event.attributes.get(SEQ)


def ktid_elements(sealed) -> dict:
    """The key-tree identifiers a sealed event is tokenized on."""
    return {
        attribute: element
        for attribute, element in sealed.elements.items()
        if isinstance(element, KTID)
    }


@dataclass(frozen=True)
class Shape:
    """Population and traffic shape of one workload (sizes, not seeds)."""

    num_topics: int
    num_subscribers: int
    topics_per_subscriber: int
    num_brokers: int
    message_bytes: int
    pool_events: int
    numeric_range: int = 256
    #: Publish on the most popular (numeric) topic only, every
    #: subscriber holding the full-range grant on it (``inproc-keys``).
    deep_numeric_only: bool = False
    #: Logical seconds per epoch; one publication advances the logical
    #: clock by one second, so this is also "events per epoch".
    epoch_length: float = 3600.0


@dataclass(frozen=True)
class Member:
    """One subscribing principal: an identity plus its plaintext filters.

    ``slot`` names the interest set; a churn joiner inherits the slot of
    the subscriber it replaces, so the population's selectivity -- and
    with it the work per event -- is stationary under churn.
    """

    subscriber_id: str
    slot: int
    subscriptions: tuple[Subscription, ...]

    @property
    def filters(self) -> list[Filter]:
        return [subscription.filter for subscription in self.subscriptions]


class Fixture:
    """Topics, KDC, event pool and residents for one (shape, seed)."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        self.workload = PaperWorkload(
            WorkloadConfig(
                num_topics=shape.num_topics,
                topics_per_subscriber=shape.topics_per_subscriber,
                numeric_range=shape.numeric_range,
                # Least count 1 makes a range grant exactly its filter,
                # so the plaintext oracle is exact at range edges.
                numeric_least_count=1,
                message_bytes=shape.message_bytes,
                seed=POPULATION_SEED,
            )
        )
        self.residents = self._build_residents()
        # Population drawn; everything from here on is traffic.
        self.workload.rng.seed(seed)
        self.master_key = self.workload.rng.randbytes(16)
        self.kdc = self.workload.build_kdc(
            master_key=self.master_key, epoch_length=shape.epoch_length
        )
        self.pool = self._build_pool()
        by_topic: dict[str, list[int]] = {}
        for index, event in enumerate(self.pool):
            by_topic.setdefault(event["topic"], []).append(index)
        self._pool_by_topic = by_topic
        self._joined = 0
        self._matches: dict[int, frozenset[int]] = {}

    def schema_lookup(self, topic: str):
        return self.kdc.config_for(topic).schema

    # -- generation --------------------------------------------------------

    def _build_pool(self) -> list[Event]:
        workload, shape = self.workload, self.shape
        # A payload of seeded random text: "x" * n would compress to
        # nothing in any layer that ever learns to compress.
        size = shape.message_bytes
        pool = []
        for index in range(shape.pool_events):
            topic = (
                workload.topics[0]
                if shape.deep_numeric_only
                else workload.topic_sampler.sample()
            )
            event = workload.random_event(topic, publisher=PUBLISHER)
            message = base64.b64encode(
                workload.rng.randbytes(size * 3 // 4 + 3)
            )[:size].decode("ascii")
            pool.append(event.with_attributes(message=message, **{SEQ: index}))
        return pool

    def _build_residents(self) -> list[Member]:
        workload, shape = self.workload, self.shape
        if shape.deep_numeric_only:
            topic = workload.topics[0]
            full = Subscription(
                "", topic,
                Filter.numeric_range(
                    topic.name, "value", 0, shape.numeric_range - 1
                ),
            )
            return [
                Member(f"S{slot}", slot, (full,))
                for slot in range(shape.num_subscribers)
            ]
        return [
            Member(
                f"S{slot}", slot,
                tuple(workload.subscriptions_for(f"S{slot}")),
            )
            for slot in range(shape.num_subscribers)
        ]

    def joiner_for(self, leaver: Member) -> Member:
        """A fresh principal taking over *leaver*'s interest set."""
        self._joined += 1
        return Member(
            f"J{self._joined}", leaver.slot, leaver.subscriptions
        )

    # -- oracle ------------------------------------------------------------

    def matching_indices(self, slot: int) -> frozenset[int]:
        """Pool indices some plaintext filter of *slot* matches."""
        cached = self._matches.get(slot)
        if cached is None:
            member = self.residents[slot]
            cached = frozenset(
                index
                for subscription in member.subscriptions
                for index in self._pool_by_topic.get(
                    subscription.topic.name, ()
                )
                if subscription.filter.matches(self.pool[index])
            )
            self._matches[slot] = cached
        return cached

    def expected_openers(self) -> list[int]:
        """Per pool index, how many residents' filters match it."""
        counts = [0] * len(self.pool)
        for member in self.residents:
            for index in self.matching_indices(member.slot):
                counts[index] += 1
        return counts


@dataclass
class Verdict:
    """What the oracle found wrong with one repeat (all zero when right)."""

    expected: int = 0
    missing: int = 0
    duplicate: int = 0
    unauthorized: int = 0

    @property
    def failed(self) -> int:
        return self.missing + self.duplicate + self.unauthorized

    def __iadd__(self, other: "Verdict") -> "Verdict":
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


@dataclass
class Ledger:
    """What was disseminated while whom was joined, and what each opened.

    ``published`` is in dissemination order (for the batching engine an
    event is appended when its batch flushes), and a subscriber's span
    is the slice of it between its join and its leave -- so "while it
    was joined" means "while its routing state was in place".

    With ``logical_clock`` (``churn``) publication ``n`` is sealed at
    logical time ``n`` and epochs roll: an event still in the engine's
    pending batch when a subscriber joins reaches it, but it can open it
    only if the event was sealed in the epoch its first grant is for --
    public epoch arithmetic, no key involved.
    """

    fixture: Fixture
    logical_clock: bool = False
    #: pool index per disseminated publication
    published: list[int] = field(default_factory=list)
    #: subscriber id -> [member, joined position, left position, joined at]
    spans: dict[str, list] = field(default_factory=dict)
    #: subscriber id -> pool indices opened since the last check
    opened: dict[str, list[int]] = field(default_factory=dict)
    _checked: int = 0

    def join(self, member: Member, at_time: float = 0.0) -> list[int]:
        """Open *member*'s span; returns the list its opens go into."""
        self.spans[member.subscriber_id] = [
            member, len(self.published), None, at_time
        ]
        return self.opened.setdefault(member.subscriber_id, [])

    def leave(self, member: Member) -> None:
        self.spans[member.subscriber_id][2] = len(self.published)

    def _sealed_in_joining_epoch(
        self, index: int, position: int, joined_at: float
    ) -> bool:
        if not self.logical_clock or position >= joined_at:
            return True
        kdc, topic = self.fixture.kdc, self.fixture.pool[index]["topic"]
        return kdc.epoch_of(topic, float(position)) == kdc.epoch_of(
            topic, joined_at
        )

    def check(self) -> Verdict:
        """Judge everything disseminated since the previous check."""
        verdict = Verdict()
        for subscriber_id in list(self.spans):
            member, joined, left, joined_at = self.spans[subscriber_id]
            matching = self.fixture.matching_indices(member.slot)
            start = max(joined, self._checked)
            expected = Counter(
                index
                for position, index in enumerate(
                    self.published[start:left], start
                )
                if index in matching
                and self._sealed_in_joining_epoch(index, position, joined_at)
            )
            got = Counter(self.opened[subscriber_id])
            self.opened[subscriber_id].clear()
            verdict.expected += sum(expected.values())
            for index in expected.keys() | got.keys():
                want, have = expected[index], got[index]
                if want == 0:
                    verdict.unauthorized += have
                elif have < want:
                    verdict.missing += want - have
                else:
                    verdict.duplicate += have - want
            if left is not None:
                del self.spans[subscriber_id], self.opened[subscriber_id]
        self._checked = len(self.published)
        return verdict
