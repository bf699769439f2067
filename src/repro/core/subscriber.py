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

import weakref
from dataclasses import dataclass

from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace
from repro.core.derive import cache_namespace, cached_walk, element_path, value_path
from repro.core.envelope import OpenResult, SealedEvent, open_event
from repro.core.kdc import TOPIC_COMPONENT, AuthorizationGrant
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
        self._held: list[_HeldGrant] = []
        self.cache = KeyCache(cache_bytes)
        self.dedup = DedupWindow(window=dedup_window) if dedup_window else None
        self.stats = SubscriberStats()

    # -- grant management -----------------------------------------------------

    @property
    def grants(self) -> list[AuthorizationGrant]:
        """The installed grants, oldest first (a copy)."""
        return [held.grant for held in self._held]

    def add_grant(self, grant: AuthorizationGrant) -> None:
        """Install a grant obtained from the KDC."""
        if grant.subscriber != self.subscriber_id:
            raise ValueError(
                f"grant was issued to {grant.subscriber!r}, "
                f"not {self.subscriber_id!r}"
            )
        self._held.append(_HeldGrant(grant))

    def active_grants(self, at_time: float = 0.0) -> list[AuthorizationGrant]:
        """Grants usable at *at_time* (epoch unexpired, or within grace)."""
        return [
            held.grant
            for held in self._held
            if at_time < held.grant.expires_at + self.grace_period
        ]

    def drop_expired(self, at_time: float) -> int:
        """Discard expired grants, and their plans; returns how many."""
        before = len(self._held)
        self._held = [
            held
            for held in self._held
            if at_time < held.grant.expires_at + self.grace_period
        ]
        return before - len(self._held)

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

        Each grant is tried through its :class:`_GrantPlan`, looked up
        (or compiled) at the first event the grant is tried on and again
        only if the topic's schema object changes.
        """
        stats = self.stats
        stats.events_received += 1
        if (
            self.dedup is not None
            and sealed.origin is not None
            and sealed.sequence is not None
            and self.dedup.seen(sealed.origin, sealed.sequence)
        ):
            stats.duplicates_suppressed += 1
            return None
        topic = sealed.routable.get("topic")
        grace_period = self.grace_period
        for held in self._held:
            grant = held.grant
            if at_time >= grant.expires_at + grace_period:
                continue
            if grant.topic != topic:
                continue
            schema = schema_lookup(topic)
            plan = held.plan
            if plan is None or plan.schema is not schema:
                plan = held.plan = _plan_for(grant, schema)
            for checks, attributes in plan.clauses:
                result = self._try_clause(sealed, schema, checks, attributes)
                if result is not None:
                    stats.events_opened += 1
                    stats.hash_operations += result.hash_operations
                    stats.decrypt_operations += result.decrypt_operations
                    if at_time >= grant.expires_at:
                        stats.grace_opens += 1
                    return result
        stats.events_unreadable += 1
        return None

    def _try_clause(
        self,
        sealed: SealedEvent,
        schema,
        checks: tuple,
        attributes: dict,
    ) -> OpenResult | None:
        # Plaintext constraints on NON-securable attributes must hold on the
        # routable part (e.g. publisher identity, auxiliary routing labels).
        # Securable constraints are enforced cryptographically below: the
        # grant's cover element must be an ancestor of the event's element,
        # which *is* the matching semantics (range containment, category
        # subsumption, string prefix) -- a plain EQ test here would wrongly
        # reject e.g. a category grant covering a descendant leaf.
        routable = sealed.routable
        for constraint in checks:
            if not constraint.matches(routable):
                return None
        for lock in sealed.locks:
            component_keys: dict[str, bytes] = {}
            hash_ops = 0
            for attribute in lock.attributes:
                derived = self._derive_component(sealed, attributes, attribute)
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
        self, sealed: SealedEvent, attributes: dict, attribute: str
    ) -> tuple[bytes, int] | None:
        """Derive one component leaf key, or ``None`` when unauthorized.

        The first granted component whose element covers the event's
        walks the key cache from that element down to the event's leaf.
        """
        event_element = sealed.elements.get(attribute)
        if event_element is None:
            return None
        # A KeyError here names a lock attribute the schema does not declare.
        kind, space, components = attributes[attribute]
        if kind is _TOPIC:
            for element, key in components:
                if element == event_element:
                    return key, 0
            return None
        if kind is _NUMERIC:
            if not isinstance(event_element, KTID):
                return None
            for element, namespace, start, key in components:
                if element.is_prefix_of(event_element):
                    return cached_walk(
                        self.cache, namespace, start, key, event_element.digits
                    )
            return None
        if kind is _CATEGORY:
            covers = space.tree.subsumes
        elif kind is _STRING:
            covers = space.matches
        else:
            return None
        value = str(event_element)
        for element, namespace, start, key in components:
            if covers(element, value):
                return cached_walk(
                    self.cache,
                    namespace,
                    start,
                    key,
                    value_path(space, event_element),
                )
        return None


_TOPIC = "topic"
_NUMERIC = "numeric"
_CATEGORY = "category"
_STRING = "string"


def _plan_for(grant: AuthorizationGrant, schema) -> "_GrantPlan":
    """The plan of *grant* under *schema*, shared by equal grants.

    A plan is a pure function of the grant's topic, epoch and clauses
    (not of its subscriber) and of the schema, so every subscriber of a
    process holding an equal grant -- the same filter in the same epoch
    -- uses one plan.  :data:`_PLANS` holds plans weakly: a plan lives
    exactly as long as some held grant refers to it.
    """
    key = (schema, grant.topic, grant.epoch, grant.clauses)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _GrantPlan(grant, schema)
    return plan


class _GrantPlan:
    """What trying one grant on an event needs that no event changes.

    Per clause: the clause's constraints on non-securable attributes
    (checked on the routable part), and per attribute its space kind, its
    space, and its granted components -- for a key-tree attribute each as
    ``(element, cache namespace, root-relative start path, key)``, for the
    topic component as ``(element, key)``.  A component a key-space kind
    can never cover (a numeric one without a KTID) is left out.

    The namespace scopes the cache walk by the key tree it descends: the
    grant's epoch and an 8-byte fingerprint of the granted key.  Grants
    from two per-publisher trees share topic, attribute and epoch, so a
    namespace without the fingerprint would let one tree's cached keys
    seed the other's walk.  A tuple scope prices as one path part, like
    the bare epoch did, so entry costs are unchanged.
    """

    __slots__ = ("schema", "clauses", "__weakref__")

    def __init__(self, grant: AuthorizationGrant, schema):
        self.schema = schema
        securable = schema.attribute_names()
        clauses = []
        for clause_grant in grant.clauses:
            checks = tuple(
                constraint
                for constraint in clause_grant.clause
                if constraint.name != "topic"
                and constraint.name not in securable
            )
            attributes = {
                attribute: _compile_attribute(
                    grant,
                    clause_grant.keys_for(attribute),
                    attribute,
                    schema.space_for(attribute),
                )
                for attribute in securable
            }
            attributes[TOPIC_COMPONENT] = (
                _TOPIC,
                None,
                tuple(
                    (component.element, component.key)
                    for component in clause_grant.keys_for(TOPIC_COMPONENT)
                ),
            )
            clauses.append((checks, attributes))
        self.clauses = tuple(clauses)


def _compile_attribute(grant, components, attribute, space) -> tuple:
    """``(kind, space, compiled components)`` for one securable attribute."""
    if isinstance(space, NumericKeySpace):
        kind = _NUMERIC
        components = [c for c in components if isinstance(c.element, KTID)]
    elif isinstance(space, CategoryKeySpace):
        kind = _CATEGORY
    elif isinstance(space, StringKeySpace):
        kind = _STRING
    else:
        return None, space, ()  # a space no grant element can cover
    compiled = []
    for component in components:
        element = component.element
        compiled.append(
            (
                element if kind is _NUMERIC else str(element),
                cache_namespace(
                    grant.topic, attribute, (grant.epoch, component.key[:8])
                ),
                element_path(space, element),
                component.key,
            )
        )
    return kind, space, tuple(compiled)


#: Live plans by ``(schema, topic, epoch, clauses)``; see :func:`_plan_for`.
_PLANS: "weakref.WeakValueDictionary[tuple, _GrantPlan]" = (
    weakref.WeakValueDictionary()
)


class _HeldGrant:
    """One installed grant and, once it has been tried, its (possibly
    shared) plan, which this reference keeps alive."""

    __slots__ = ("grant", "plan")

    def __init__(self, grant: AuthorizationGrant):
        self.grant = grant
        self.plan: _GrantPlan | None = None
