"""The Section 5.2 synthetic workload.

128 topics with Zipf popularity; each subscriber subscribes to 32 of them
(Zipf-chosen, distinct).  Topics split evenly into four matching types:

- **numeric**: range 256, least count 4 (NAKT height 6, 127 elements);
  subscription ranges from a Gaussian with mean 128 and sd 32 (we draw the
  two endpoints from that Gaussian and sort, an interpretation that lands
  the average cover size in the paper's few-keys regime);
- **category**: trees of height 4 with per-node fanout uniform in [2, 4]
  (~82 elements on average); events carry leaf categories, subscriptions a
  uniformly random element;
- **string**: values over a small alphabet with Zipf lengths in [1, 8];
  subscriptions are prefixes;
- **plain**: topic-only matching.

Publications are 256 bytes.
"""

from __future__ import annotations

import random
import string as string_module
from dataclasses import dataclass

from repro.core.category import CategoryKeySpace, CategoryTree
from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op
from repro.workloads.zipf import ZipfSampler

_ATTRIBUTE_KINDS = ("numeric", "category", "string", "plain")
_STRING_ALPHABET = string_module.ascii_lowercase[:6]
_ZIPF_EXPONENT = 1.0
#: Category trees: this many levels, each node with 2-4 children.
_CATEGORY_HEIGHT = 4
_CATEGORY_FANOUT = (2, 4)
_STRING_MAX_LENGTH = 8


@dataclass
class WorkloadConfig:
    """Tunable parameters; defaults reproduce Section 5.2 exactly."""

    num_topics: int = 128
    topics_per_subscriber: int = 32
    numeric_range: int = 256
    numeric_least_count: int = 4
    subscription_mean: float = 128.0
    subscription_std: float = 32.0
    message_bytes: int = 256
    seed: int = 17


@dataclass(frozen=True)
class TopicSpec:
    """One topic: its matching kind and (for secured kinds) key space."""

    name: str
    kind: str
    rank: int
    schema: CompositeKeySpace
    category_tree: CategoryTree | None = None

    @property
    def attribute(self) -> str:
        """Name of the topic's securable attribute (plain topics have none)."""
        return {"numeric": "value", "category": "category",
                "string": "text", "plain": ""}[self.kind]


@dataclass(frozen=True)
class Subscription:
    """One subscriber's interest in one topic."""

    subscriber: str
    topic: TopicSpec
    filter: Filter
    #: numeric subscriptions keep their range for baseline accounting
    numeric_range: tuple[int, int] | None = None


class PaperWorkload:
    """Generator for topics, subscriptions and publications."""

    def __init__(self, config: WorkloadConfig | None = None):
        self.config = config or WorkloadConfig()
        if self.config.num_topics % len(_ATTRIBUTE_KINDS):
            raise ValueError(
                "num_topics must divide evenly across the four attribute kinds"
            )
        self.rng = random.Random(self.config.seed)
        self.topics: list[TopicSpec] = self._build_topics()
        self.topic_sampler = ZipfSampler(
            self.topics, _ZIPF_EXPONENT, self.rng
        )

    # -- topics ----------------------------------------------------------------

    def _build_topics(self) -> list[TopicSpec]:
        topics = []
        per_kind = self.config.num_topics // len(_ATTRIBUTE_KINDS)
        # Interleave kinds across popularity ranks so every kind spans the
        # popularity spectrum (rank k is the k-th most popular topic).
        for rank in range(self.config.num_topics):
            kind = _ATTRIBUTE_KINDS[rank % len(_ATTRIBUTE_KINDS)]
            name = f"{kind}-topic-{rank // len(_ATTRIBUTE_KINDS)}"
            topics.append(self._build_topic(name, kind, rank))
        assert sum(t.kind == "numeric" for t in topics) == per_kind
        return topics

    def _build_topic(self, name: str, kind: str, rank: int) -> TopicSpec:
        if kind == "numeric":
            space = NumericKeySpace(
                "value",
                self.config.numeric_range,
                least_count=self.config.numeric_least_count,
            )
            return TopicSpec(name, kind, rank, CompositeKeySpace({"value": space}))
        if kind == "category":
            tree = self._random_category_tree(name)
            space = CategoryKeySpace("category", tree)
            return TopicSpec(
                name, kind, rank, CompositeKeySpace({"category": space}),
                category_tree=tree,
            )
        if kind == "string":
            space = StringKeySpace(
                "text", max_length=_STRING_MAX_LENGTH
            )
            return TopicSpec(name, kind, rank, CompositeKeySpace({"text": space}))
        return TopicSpec(name, kind, rank, CompositeKeySpace({}))

    def _random_category_tree(self, topic_name: str) -> CategoryTree:
        tree = CategoryTree.from_spec(f"{topic_name}.root", {})
        counter = 0
        frontier = [f"{topic_name}.root"]
        for _ in range(_CATEGORY_HEIGHT):
            next_frontier = []
            for parent in frontier:
                fanout = self.rng.randint(*_CATEGORY_FANOUT)
                for _ in range(fanout):
                    label = f"{topic_name}.c{counter}"
                    counter += 1
                    tree.add_category(label, parent)
                    next_frontier.append(label)
            frontier = next_frontier
        return tree

    # -- subscriptions ------------------------------------------------------------

    def subscriber_topics(self, subscriber: str) -> list[TopicSpec]:
        """The topics one subscriber is interested in (Zipf, distinct)."""
        return self.topic_sampler.sample_distinct(
            self.config.topics_per_subscriber
        )

    def subscription_for(
        self, subscriber: str, topic: TopicSpec
    ) -> Subscription:
        """Draw one subscription filter for *topic*."""
        if topic.kind == "numeric":
            low, high = self._numeric_range()
            return Subscription(
                subscriber,
                topic,
                Filter.numeric_range(topic.name, "value", low, high),
                numeric_range=(low, high),
            )
        if topic.kind == "category":
            labels = list(topic.category_tree.labels())
            label = self.rng.choice(labels)
            # Category values travel as ontology path strings, so plain
            # Siena brokers evaluate subsumption as PREFIX matching; the
            # key space enforces the same semantics cryptographically.
            path = topic.category_tree.path_string(label)
            return Subscription(
                subscriber,
                topic,
                Filter.of(
                    Constraint("topic", Op.EQ, topic.name),
                    Constraint("category", Op.PREFIX, path),
                ),
            )
        if topic.kind == "string":
            value = self._random_string()
            prefix_length = self.rng.randint(1, len(value))
            return Subscription(
                subscriber,
                topic,
                Filter.of(
                    Constraint("topic", Op.EQ, topic.name),
                    Constraint("text", Op.PREFIX, value[:prefix_length]),
                ),
            )
        return Subscription(subscriber, topic, Filter.topic(topic.name))

    def subscriptions_for(self, subscriber: str) -> list[Subscription]:
        """A subscriber's full interest set (32 subscriptions)."""
        return [
            self.subscription_for(subscriber, topic)
            for topic in self.subscriber_topics(subscriber)
        ]

    def _numeric_range(self) -> tuple[int, int]:
        limit = self.config.numeric_range - 1

        def draw() -> int:
            value = self.rng.gauss(
                self.config.subscription_mean, self.config.subscription_std
            )
            return max(0, min(limit, int(value)))

        first, second = draw(), draw()
        return (first, second) if first <= second else (second, first)

    # -- publications -----------------------------------------------------------------

    def _random_string(self) -> str:
        weights = [1.0 / length for length in
                   range(1, _STRING_MAX_LENGTH + 1)]
        length = self.rng.choices(
            range(1, _STRING_MAX_LENGTH + 1), weights
        )[0]
        return "".join(
            self.rng.choice(_STRING_ALPHABET) for _ in range(length)
        )

    def random_event(self, topic: TopicSpec | None = None,
                     publisher: str = "P") -> Event:
        """One publication: Zipf topic, kind-appropriate value, payload."""
        if topic is None:
            topic = self.topic_sampler.sample()
        attributes: dict[str, object] = {
            "topic": topic.name,
            "message": "x" * self.config.message_bytes,
        }
        if topic.kind == "numeric":
            attributes["value"] = self.rng.randint(
                0, self.config.numeric_range - 1
            )
        elif topic.kind == "category":
            leaf = self.rng.choice(topic.category_tree.leaves())
            attributes["category"] = topic.category_tree.path_string(leaf)
        elif topic.kind == "string":
            attributes["text"] = self._random_string()
        return Event(attributes, publisher=publisher)

    # -- services ---------------------------------------------------------------------

    def build_kdc(self, master_key: bytes | None = None,
                  epoch_length: float = 3600.0) -> KDC:
        """A KDC with every workload topic registered."""
        kdc = KDC(master_key=master_key)
        for topic in self.topics:
            kdc.register_topic(topic.name, topic.schema, epoch_length)
        return kdc

    def topic_by_name(self, name: str) -> TopicSpec:
        """Lookup a topic spec by name."""
        for topic in self.topics:
            if topic.name == name:
                return topic
        raise KeyError(f"unknown topic {name!r}")

    def frequencies(self) -> dict[str, float]:
        """A-priori publication frequency per topic (the Zipf weights)."""
        return {
            topic.name: self.topic_sampler.weights[index]
            for index, topic in enumerate(self.topics)
        }
