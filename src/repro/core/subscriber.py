"""Subscriber-side engine.

A subscriber accumulates :class:`~repro.core.kdc.AuthorizationGrant`\\ s and
opens incoming sealed events with them.  Per Section 3.1, opening an event
means: check that some granted element is an ancestor of the event's
element (the match test), derive the component leaf key down the tree
(``H`` per level, via the key cache of Section 3.2.3), combine components,
and decrypt.

A sealed event that matches none of the subscriber's grants is
*cryptographically* unreadable -- :meth:`Subscriber.receive` returns
``None``, and no amount of local computation would help (one-wayness of
``H``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace
from repro.core.composite import AuthorizationComponent
from repro.core.derive import cache_namespace, cached_walk, element_path, value_path
from repro.core.envelope import OpenResult, SealedEvent, open_event
from repro.core.kdc import TOPIC_COMPONENT, AuthorizationGrant, ClauseGrant
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.recovery.dedup import DedupWindow


@dataclass
class SubscriberStats:
    """Cost counters for the event-processing experiments."""

    events_received: int = 0
    events_opened: int = 0
    events_unreadable: int = 0
    hash_operations: int = 0
    decrypt_operations: int = 0
    #: Opens that only succeeded because an expired grant was still
    #: inside the post-expiry grace window (degraded-mode indicator).
    grace_opens: int = 0
    #: Stamped events dropped by the end-to-end dedup window because the
    #: same (origin, sequence) pair was already processed -- at-least-once
    #: transport retries surfacing at the edge, made invisible.
    duplicates_suppressed: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class Subscriber:
    """A subscribing principal holding authorization grants.

    *grace_period* keeps an expired grant usable for that many seconds
    past its epoch's end.  The grant's keys still only open events sealed
    *in its own epoch*, so grace does not extend read access to new
    events; it keeps in-flight old-epoch events decryptable when delivery
    (or a KDC outage delaying the renewal) straddles the boundary.

    *dedup_window* sizes the bounded end-to-end duplicate filter: events
    stamped with publisher envelope metadata (origin + sequence, see
    :class:`~repro.core.envelope.SealedEvent`) are suppressed when the
    same pair arrives again -- the exactly-once edge over an
    at-least-once transport.  Memory is at most *dedup_window* sequence
    numbers per publisher; an event arriving more than *dedup_window*
    publications behind that publisher's newest is suppressed as stale
    (the safe direction).  ``0`` disables the filter; unstamped events
    (sealed directly via :func:`~repro.core.envelope.seal_event`) always
    bypass it.
    """

    def __init__(
        self,
        subscriber_id: str,
        cache_bytes: int = 64 * 1024,
        grace_period: float = 0.0,
        dedup_window: int = 1024,
    ):
        if grace_period < 0:
            raise ValueError("grace period must be non-negative")
        self.subscriber_id = subscriber_id
        self.grace_period = grace_period
        self.grants: list[AuthorizationGrant] = []
        self.cache = KeyCache(cache_bytes)
        self.dedup = DedupWindow(window=dedup_window) if dedup_window else None
        self.stats = SubscriberStats()

    # -- grant management -----------------------------------------------------

    def add_grant(self, grant: AuthorizationGrant) -> None:
        """Install a grant obtained from the KDC."""
        if grant.subscriber != self.subscriber_id:
            raise ValueError(
                f"grant was issued to {grant.subscriber!r}, "
                f"not {self.subscriber_id!r}"
            )
        self.grants.append(grant)

    def active_grants(self, at_time: float = 0.0) -> list[AuthorizationGrant]:
        """Grants usable at *at_time* (epoch unexpired, or within grace)."""
        return [
            g
            for g in self.grants
            if at_time < g.expires_at + self.grace_period
        ]

    def drop_expired(self, at_time: float) -> int:
        """Discard expired grants; returns how many were dropped."""
        before = len(self.grants)
        self.grants = self.active_grants(at_time)
        return before - len(self.grants)

    def key_count(self, at_time: float = 0.0) -> int:
        """Total keys held across active grants (Figure 3's metric)."""
        return sum(g.key_count() for g in self.active_grants(at_time))

    # -- event processing -------------------------------------------------------

    def receive(
        self,
        sealed: SealedEvent,
        schema_lookup,
        at_time: float = 0.0,
    ) -> OpenResult | None:
        """Attempt to open *sealed*; ``None`` when no active grant matches.

        *schema_lookup* maps a topic name to its
        :class:`~repro.core.composite.CompositeKeySpace` (usually
        ``kdc.config_for(topic).schema`` relayed out of band -- schemas are
        public configuration).

        A repeated ``(origin, sequence)`` -- the same published event
        received twice -- also returns ``None``: it is suppressed by the
        duplicate window (*dedup_window*) before any grant is tried and
        counts in ``stats.duplicates_suppressed``, not
        ``events_unreadable``.
        """
        self.stats.events_received += 1
        if (
            self.dedup is not None
            and sealed.origin is not None
            and sealed.sequence is not None
            and self.dedup.seen(sealed.origin, sealed.sequence)
        ):
            self.stats.duplicates_suppressed += 1
            return None
        topic = sealed.routable.get("topic")
        for grant in self.active_grants(at_time):
            if grant.topic != topic:
                continue
            schema = schema_lookup(grant.topic)
            for clause_grant in grant.clauses:
                result = self._try_clause(sealed, schema, grant, clause_grant)
                if result is not None:
                    self.stats.events_opened += 1
                    self.stats.hash_operations += result.hash_operations
                    self.stats.decrypt_operations += result.decrypt_operations
                    if at_time >= grant.expires_at:
                        self.stats.grace_opens += 1
                    return result
        self.stats.events_unreadable += 1
        return None

    def _try_clause(
        self,
        sealed: SealedEvent,
        schema,
        grant: AuthorizationGrant,
        clause_grant: ClauseGrant,
    ) -> OpenResult | None:
        # Plaintext constraints on NON-securable attributes must hold on the
        # routable part (e.g. publisher identity, auxiliary routing labels).
        # Securable constraints are enforced cryptographically below: the
        # grant's cover element must be an ancestor of the event's element,
        # which *is* the matching semantics (range containment, category
        # subsumption, string prefix) -- a plain EQ test here would wrongly
        # reject e.g. a category grant covering a descendant leaf.
        securable = schema.attribute_names()
        for constraint in clause_grant.clause:
            if constraint.name == "topic" or constraint.name in securable:
                continue
            if not constraint.matches(sealed.routable):
                return None
        for lock in sealed.locks:
            component_keys: dict[str, bytes] = {}
            hash_ops = 0
            for attribute in lock.attributes:
                derived = self._derive_component(
                    sealed, schema, grant, clause_grant, attribute
                )
                if derived is None:
                    break
                component_keys[attribute], ops = derived
                hash_ops += ops
            else:
                try:
                    return open_event(
                        sealed, schema, component_keys, hash_operations=hash_ops
                    )
                except ValueError:
                    continue
        return None

    def _derive_component(
        self,
        sealed: SealedEvent,
        schema,
        grant: AuthorizationGrant,
        clause_grant: ClauseGrant,
        attribute: str,
    ) -> tuple[bytes, int] | None:
        """Derive one component leaf key, or ``None`` when unauthorized."""
        event_element = sealed.elements.get(attribute)
        if event_element is None:
            return None
        if attribute == TOPIC_COMPONENT:
            for component in clause_grant.keys_for(TOPIC_COMPONENT):
                if component.element == event_element:
                    return component.key, 0
            return None

        space = schema.space_for(attribute)
        for component in clause_grant.keys_for(attribute):
            if not self._covers(space, component, event_element):
                continue
            namespace = cache_namespace(grant.topic, attribute, grant.epoch)
            key, ops = cached_walk(
                self.cache,
                namespace,
                element_path(space, component.element),
                component.key,
                value_path(space, event_element),
            )
            return key, ops
        return None

    @staticmethod
    def _covers(
        space, component: AuthorizationComponent, event_element: object
    ) -> bool:
        if isinstance(space, NumericKeySpace):
            return isinstance(component.element, KTID) and isinstance(
                event_element, KTID
            ) and component.element.is_prefix_of(event_element)
        if isinstance(space, CategoryKeySpace):
            return space.tree.subsumes(
                str(component.element), str(event_element)
            )
        if isinstance(space, StringKeySpace):
            return space.matches(str(component.element), str(event_element))
        return False
