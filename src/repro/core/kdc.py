"""The key distribution center (KDC).

The KDC owns the master key ``rk(KDC)`` and issues (Sections 2.1, 3.1):

- epoch-scoped **topic keys** ``K(w)`` (or per-publisher ``K_P(w)``) to
  publishers;
- **authorization grants** -- the key material for one subscription filter,
  valid for one epoch -- to subscribers;
- **routing tokens** ``T(w) = F_{rk}(w)`` for the secure routing layer.

The KDC is *stateless*: every key is re-derivable from ``rk(KDC)`` alone,
so it keeps no record of active subscriptions or subscribers and can be
replicated on demand with no consistency protocol (Section 3.2.1).  Epoch
starts are staggered per topic to avoid flash crowds of renewals, and the
epoch length may adapt to subscription history (Section 3.1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import GrantDenied
from repro.crypto.hashes import KEY_BYTES
from repro.crypto.prf import F, KH
from repro.core.composite import (
    AuthorizationComponent,
    CompositeKeySpace,
    filter_as_clauses,
)
from repro.core.category import CategoryKeySpace
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.siena.filters import Filter
from repro.siena.operators import Op

#: Securable-attribute pseudo-component used for plain-topic events.
TOPIC_COMPONENT = "topic"


@dataclass
class TopicConfig:
    """Registration record for one topic namespace.

    ``epoch_policy`` (optional) observes subscription arrivals and
    proposes epoch lengths (see :mod:`repro.core.epochs`); the KDC applies
    a proposal only at an explicit :meth:`KDC.retune_epoch` call, which is
    meant to run at an epoch boundary so existing grants keep their
    schedule.
    """

    name: str
    schema: CompositeKeySpace
    epoch_length: float = 3600.0
    per_publisher: bool = False
    epoch_policy: object | None = None


@dataclass(frozen=True)
class ClauseGrant:
    """Key material authorizing one conjunctive clause of a filter."""

    clause: Filter
    topic: str
    components: tuple[AuthorizationComponent, ...]

    def keys_for(self, attribute: str) -> list[AuthorizationComponent]:
        """Granted components for one attribute."""
        return [c for c in self.components if c.attribute == attribute]


@dataclass(frozen=True)
class AuthorizationGrant:
    """Everything a subscriber receives for one subscription request.

    Valid for the single epoch ``epoch``; ``expires_at`` is the wall-clock
    end of that epoch.  ``hash_operations`` and :meth:`key_count` /
    :meth:`wire_bytes` feed the KDC-cost experiments (Tables 1-2, Fig 5).
    """

    subscriber: str
    topic: str
    epoch: int
    expires_at: float
    clauses: tuple[ClauseGrant, ...]
    hash_operations: int = 0

    def key_count(self) -> int:
        """Total number of keys in the grant."""
        return sum(len(clause.components) for clause in self.clauses)

    def wire_bytes(self) -> int:
        """Approximate size of the grant on the wire."""
        total = 0
        for clause in self.clauses:
            for component in clause.components:
                element = component.element
                if isinstance(element, KTID):
                    element_size = len(element.digits) + 2
                elif isinstance(element, str):
                    element_size = len(element)
                else:
                    element_size = 8
                total += KEY_BYTES + element_size + len(component.attribute)
        return total


@dataclass
class KDCStats:
    """Cumulative accounting counters for one KDC instance."""

    grants_issued: int = 0
    keys_issued: int = 0
    hash_operations: int = 0
    bytes_sent: int = 0
    publisher_keys_issued: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class KDC:
    """A stateless key distribution center.

    >>> kdc = KDC(master_key=bytes(16))
    >>> kdc.register_topic("news", CompositeKeySpace({}))
    >>> key_a = kdc.topic_key("news", at_time=0.0)
    >>> key_b = KDC(master_key=bytes(16), registry=kdc.registry).topic_key(
    ...     "news", at_time=0.0)
    >>> key_a == key_b  # replicas share no state beyond rk(KDC)
    True
    """

    def __init__(
        self,
        master_key: bytes | None = None,
        registry: dict[str, TopicConfig] | None = None,
        revocations: set[tuple[str, str]] | None = None,
    ):
        self.master_key = master_key if master_key is not None else os.urandom(
            KEY_BYTES
        )
        if len(self.master_key) < KEY_BYTES:
            raise ValueError("master key too short")
        #: Topic registry -- public configuration, not secret state.
        self.registry: dict[str, TopicConfig] = (
            registry if registry is not None else {}
        )
        #: Revoked ``(subscriber, topic)`` pairs (lazy revocation: the
        #: denial bites at the next renewal, not mid-epoch).
        self.revocations: set[tuple[str, str]] = (
            revocations if revocations is not None else set()
        )
        self.stats = KDCStats()
        #: topic -> its epoch offset as a fraction of the epoch length.
        self._epoch_fractions: dict[str, float] = {}

    # -- configuration ------------------------------------------------------

    def register_topic(
        self,
        topic: str,
        schema: CompositeKeySpace,
        epoch_length: float = 3600.0,
        per_publisher: bool = False,
        epoch_policy: object | None = None,
    ) -> None:
        """Declare a topic namespace and its securable-attribute schema."""
        if epoch_length <= 0:
            raise ValueError("epoch length must be positive")
        self.registry[topic] = TopicConfig(
            topic, schema, epoch_length, per_publisher, epoch_policy
        )

    def retune_epoch(self, topic: str) -> float:
        """Apply the topic's adaptive epoch policy; returns the new length.

        Intended to run at an epoch boundary (Section 3.1's adaptive
        epoch sizing).  A no-op for topics without a policy.
        """
        config = self.config_for(topic)
        if config.epoch_policy is not None:
            config.epoch_length = config.epoch_policy.current_length()
        return config.epoch_length

    def config_for(self, topic: str) -> TopicConfig:
        """Topic configuration (KeyError for unregistered topics)."""
        if topic not in self.registry:
            raise KeyError(f"topic {topic!r} is not registered with the KDC")
        return self.registry[topic]

    def revoke(self, subscriber: str, topic: str) -> None:
        """Deny future grants for *(subscriber, topic)* (lazy revocation)."""
        self.revocations.add((subscriber, topic))

    def replicate(self) -> "KDC":
        """Spin up a replica: shares only ``rk(KDC)`` and the public registry."""
        return KDC(
            master_key=self.master_key,
            registry=self.registry,
            revocations=self.revocations,
        )

    # -- epochs --------------------------------------------------------------

    def _epoch_frame(self, topic: str) -> tuple[float, float]:
        """``(epoch length, offset)`` of *topic*'s epochs.

        The offset staggers renewals per topic (Section 3.1): a fixed
        fraction of the epoch length, ``KH`` of the topic alone, so it is
        computed once per topic; the length can be retuned.
        """
        length = self.config_for(topic).epoch_length
        fraction = self._epoch_fractions.get(topic)
        if fraction is None:
            digest = KH(b"psguard:epoch-offset", topic.encode("utf-8"))
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            self._epoch_fractions[topic] = fraction
        return length, fraction * length

    def epoch_of(self, topic: str, at_time: float) -> int:
        """The epoch number containing *at_time* for *topic*.

        Epochs are the half-open intervals ``[epoch_start(e),
        epoch_start(e + 1))``; the fixup below keeps the division
        consistent with :meth:`epoch_start` when *at_time* is exactly a
        boundary value (float division can land a hair on either side,
        which would seal a boundary-instant event under the wrong key).
        """
        length, offset = self._epoch_frame(topic)
        epoch = int((at_time - offset) // length)
        if at_time >= (epoch + 1) * length + offset:
            epoch += 1
        elif at_time < epoch * length + offset:
            epoch -= 1
        return epoch

    def epoch_start(self, topic: str, epoch: int) -> float:
        """Wall-clock start of epoch number *epoch* for *topic*."""
        length, offset = self._epoch_frame(topic)
        return epoch * length + offset

    def epoch_end(self, topic: str, at_time: float) -> float:
        """Wall-clock end of the epoch containing *at_time*."""
        return self.epoch_start(topic, self.epoch_of(topic, at_time) + 1)

    # -- key derivation ---------------------------------------------------------

    def topic_key(
        self,
        topic: str,
        at_time: float = 0.0,
        publisher: str | None = None,
        epoch: int | None = None,
    ) -> bytes:
        """Epoch-scoped topic key ``K(w)`` or per-publisher ``K_P(w)``.

        All authorization and encryption keys for the epoch root here, so
        epoch rollover is the lazy-revocation rekey of Section 3.1.  An
        explicit *epoch* pins the derivation regardless of *at_time* (used
        by boundary-exact renewals, where float division on ``at_time``
        could otherwise land in the epoch that is ending).
        """
        config = self.config_for(topic)
        if epoch is None:
            epoch = self.epoch_of(topic, at_time)
        if config.per_publisher:
            if not publisher:
                raise ValueError(
                    f"topic {topic!r} uses per-publisher keys; a publisher "
                    "identity is required"
                )
            material = f"{publisher}\x00{topic}\x00{epoch}".encode("utf-8")
        else:
            material = f"{topic}\x00{epoch}".encode("utf-8")
        return KH(self.master_key, material)

    def issue_publisher_key(
        self, topic: str, publisher: str, at_time: float = 0.0
    ) -> bytes:
        """Hand a publisher its (per-publisher or shared) topic key."""
        key = self.topic_key(topic, at_time, publisher=publisher)
        self.stats.publisher_keys_issued += 1
        self.stats.hash_operations += 1
        self.stats.bytes_sent += KEY_BYTES
        return key

    def issue_token(self, topic: str) -> bytes:
        """Routing token ``T(w) = F_{rk}(w)`` (Section 4.1).

        Tokens are epoch-independent: they drive routing, not decryption.
        """
        self.config_for(topic)
        return F(self.master_key, topic.encode("utf-8"))

    # -- authorization ---------------------------------------------------------

    def authorize(
        self,
        subscriber: str,
        filters: Filter | list[Filter],
        at_time: float = 0.0,
        publisher: str | None = None,
        min_epoch: int | None = None,
    ) -> AuthorizationGrant:
        """Issue the authorization grant for a subscription filter.

        *filters* is one conjunctive :class:`Filter` or a DNF list of them.
        Every clause must pin the topic with ``<topic, EQ, w>``, and all
        clauses of one grant must share the topic.  The clause's key
        material follows the rules in :mod:`repro.core.envelope`:
        constrained securable attributes get minimal-cover keys,
        unconstrained ones get root keys, and clauses with no securable
        constraint additionally get the topic component for plain events.

        *min_epoch* floors the granted epoch: a renewal issued at exactly
        the old grant's ``expires_at`` must target the upcoming epoch even
        when float division puts *at_time* a hair inside the ending one.
        """
        clauses = filter_as_clauses(filters)
        topic = self.clause_topic(clauses[0])
        if (subscriber, topic) in self.revocations:
            raise GrantDenied(
                f"subscriber {subscriber!r} is revoked on topic {topic!r}"
            )
        config = self.config_for(topic)
        if config.epoch_policy is not None:
            config.epoch_policy.observe_subscription(at_time)
        epoch = self.epoch_of(topic, at_time)
        if min_epoch is not None and epoch < min_epoch:
            epoch = min_epoch
        topic_key = self.topic_key(
            topic, at_time, publisher=publisher, epoch=epoch
        )

        clause_grants: list[ClauseGrant] = []
        total_hash_ops = 1  # the topic-key KH
        for clause in clauses:
            if self.clause_topic(clause) != topic:
                raise ValueError(
                    "all clauses of one grant must target the same topic"
                )
            components, hash_ops = config.schema.authorization_components(
                topic_key, clause
            )
            constrained = {component.attribute for component in components}
            for attribute in sorted(config.schema.attribute_names()):
                if attribute in constrained:
                    continue
                components.append(
                    self._root_component(config, topic_key, attribute)
                )
                hash_ops += 1
            if not constrained:
                components.append(
                    AuthorizationComponent(TOPIC_COMPONENT, topic, topic_key)
                )
            clause_grants.append(
                ClauseGrant(clause, topic, tuple(components))
            )
            total_hash_ops += hash_ops

        grant = AuthorizationGrant(
            subscriber=subscriber,
            topic=topic,
            epoch=epoch,
            expires_at=self.epoch_start(topic, epoch + 1),
            clauses=tuple(clause_grants),
            hash_operations=total_hash_ops,
        )
        self.stats.grants_issued += 1
        self.stats.keys_issued += grant.key_count()
        self.stats.hash_operations += total_hash_ops
        self.stats.bytes_sent += grant.wire_bytes()
        return grant

    @staticmethod
    def clause_topic(clause: Filter) -> str:
        """The topic *clause* pins with ``<topic, EQ, w>``."""
        for constraint in clause:
            if constraint.name == "topic" and constraint.op is Op.EQ:
                return str(constraint.value)
        raise ValueError(
            "every clause must pin its topic with <topic, EQ, w>"
        )

    @staticmethod
    def _root_component(
        config: TopicConfig, topic_key: bytes, attribute: str
    ) -> AuthorizationComponent:
        """Root-level authorization for an unconstrained securable attribute."""
        space = config.schema.space_for(attribute)
        if isinstance(space, NumericKeySpace):
            root = KTID.root(space.arity)
            return AuthorizationComponent(
                attribute, root, space.node_key(topic_key, root)
            )
        if isinstance(space, CategoryKeySpace):
            root_label = space.tree.root_label
            return AuthorizationComponent(
                attribute, root_label, space.node_key(topic_key, root_label)
            )
        if isinstance(space, StringKeySpace):
            _, key = space.authorization_key(topic_key, "")
            return AuthorizationComponent(attribute, "", key)
        raise TypeError(f"unknown key space type {type(space).__name__}")
