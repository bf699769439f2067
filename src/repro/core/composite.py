"""Composite (multi-attribute, AND/OR) key space.

The paper's technical report extends the per-attribute key spaces to
complex subscriptions combining constraints with Boolean ``AND``/``OR``.
This module implements the construction PSGuard uses:

- Every securable attribute of a topic is declared in a
  :class:`CompositeKeySpace` (its *schema*), mapping the attribute name to
  its key space (numeric, category, string, or bare topic).
- A conjunctive clause locks an event under the *combined* key
  ``KH(sorted component leaf keys)`` -- derivable only by a subscriber who
  can derive **every** component key, i.e. whose constraints all match.
- Disjunctions become multiple clauses; the event envelope
  (:mod:`repro.core.envelope`) wraps its per-event content key once per
  clause, so matching **any** clause suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from repro.crypto.prf import KH
from repro.core.category import CategoryKeySpace
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace
from repro.siena.filters import Filter
from repro.siena.operators import Op

AttributeKeySpace = Union[NumericKeySpace, CategoryKeySpace, StringKeySpace]

_COMBINE_LABEL = b"psguard:combine:"


def combine_keys(component_keys: Mapping[str, bytes]) -> bytes:
    """Combine per-attribute component keys into one clause lock key.

    Deterministic and order-independent: components are concatenated in
    attribute-name order and folded through the keyed hash.  A single
    component collapses to itself so the common one-attribute case adds no
    extra derivation step on either side.
    """
    if not component_keys:
        raise ValueError("cannot combine an empty component set")
    if len(component_keys) == 1:
        return next(iter(component_keys.values()))
    material = b"".join(
        name.encode("utf-8") + b"\x00" + component_keys[name]
        for name in sorted(component_keys)
    )
    return KH(_COMBINE_LABEL, material)


@dataclass(frozen=True)
class AuthorizationComponent:
    """One granted key-space element for one attribute of one clause.

    ``element`` is the public element identifier (a :class:`KTID` for
    numeric attributes, a category label, or a string pattern) and ``key``
    the corresponding node key.
    """

    attribute: str
    element: object
    key: bytes


class CompositeKeySpace:
    """The per-topic schema: which key space secures which attribute.

    >>> schema = CompositeKeySpace({"age": NumericKeySpace("age", 128)})
    >>> sorted(schema.attribute_names())
    ['age']
    """

    def __init__(self, spaces: Mapping[str, AttributeKeySpace]):
        for name, space in spaces.items():
            if space.name != name:
                raise ValueError(
                    f"schema key {name!r} disagrees with space name "
                    f"{space.name!r}"
                )
        self.spaces: dict[str, AttributeKeySpace] = dict(spaces)

    def attribute_names(self) -> set[str]:
        """Names of all securable attributes."""
        return set(self.spaces)

    def space_for(self, attribute: str) -> AttributeKeySpace:
        """The key space securing *attribute* (KeyError if undeclared)."""
        return self.spaces[attribute]

    # -- publisher side ----------------------------------------------------

    def event_component(
        self, topic_key: bytes, attribute: str, value: object
    ) -> tuple[object, bytes]:
        """Leaf element identifier and key for an event's attribute value."""
        space = self.space_for(attribute)
        if isinstance(space, NumericKeySpace):
            if not isinstance(value, (int, float)):
                raise TypeError(
                    f"attribute {attribute!r} is numeric, got {value!r}"
                )
            return space.encryption_key(topic_key, value)
        if isinstance(space, CategoryKeySpace):
            if not isinstance(value, str):
                raise TypeError(
                    f"attribute {attribute!r} is categorical, got {value!r}"
                )
            # Events may carry a bare label or the routing path string.
            return space.encryption_key(topic_key, space.tree.label_of(value))
        if isinstance(space, StringKeySpace):
            if not isinstance(value, str):
                raise TypeError(
                    f"attribute {attribute!r} is a string, got {value!r}"
                )
            return space.encryption_key(topic_key, value)
        raise TypeError(f"unknown key space type {type(space).__name__}")

    # -- KDC side --------------------------------------------------------------

    def authorization_components(
        self, topic_key: bytes, clause: Filter
    ) -> tuple[list[AuthorizationComponent], int]:
        """Grant the key material for one conjunctive clause.

        Returns ``(components, key_generation_hash_ops)``.  The ``topic``
        constraint needs no component (the topic key itself scopes every
        derivation); every other constraint must target a declared
        attribute.
        """
        components: list[AuthorizationComponent] = []
        hash_ops = 0
        numeric_bounds: dict[str, dict[str, float]] = {}

        for constraint in clause:
            if constraint.name == "topic":
                continue
            space = self.spaces.get(constraint.name)
            if space is None:
                # Constraints on undeclared attributes are plaintext routing
                # constraints (e.g. publisher identity, auxiliary labels);
                # they carry no key material and are enforced by plaintext
                # matching at the subscriber and the brokers.
                continue
            if isinstance(space, NumericKeySpace):
                bounds = numeric_bounds.setdefault(
                    constraint.name,
                    {"low": 0.0, "high": float(space.range_size - 1)},
                )
                if constraint.op in (Op.GE, Op.GT):
                    low = float(constraint.value)
                    if constraint.op is Op.GT:
                        low += space.least_count
                    bounds["low"] = max(bounds["low"], low)
                elif constraint.op in (Op.LE, Op.LT):
                    high = float(constraint.value)
                    if constraint.op is Op.LT:
                        high -= space.least_count
                    bounds["high"] = min(bounds["high"], high)
                elif constraint.op is Op.EQ:
                    bounds["low"] = max(bounds["low"], float(constraint.value))
                    bounds["high"] = min(bounds["high"], float(constraint.value))
                else:
                    raise ValueError(
                        f"operator {constraint.op} is not securable on the "
                        f"numeric attribute {constraint.name!r}"
                    )
            elif isinstance(space, CategoryKeySpace):
                # EQ carries a bare label (subsumption semantics enforced
                # by the key space); PREFIX carries the routing path
                # string, letting one filter drive both in-network prefix
                # matching and the grant.
                if constraint.op not in (Op.EQ, Op.PREFIX):
                    raise ValueError(
                        "category attributes support EQ (label) or PREFIX "
                        f"(ontology path) constraints, got {constraint.op}"
                    )
                label = space.tree.label_of(str(constraint.value))
                element, key = space.authorization_key(topic_key, label)
                hash_ops += space.tree.depth(label) + 1
                components.append(
                    AuthorizationComponent(constraint.name, element, key)
                )
            elif isinstance(space, StringKeySpace):
                expected = Op.SUFFIX if space.suffix_mode else Op.PREFIX
                if constraint.op not in (expected, Op.EQ):
                    raise ValueError(
                        f"string attribute {constraint.name!r} supports only "
                        f"{expected} or EQ constraints, got {constraint.op}"
                    )
                element, key = space.authorization_key(
                    topic_key, str(constraint.value)
                )
                hash_ops += len(str(constraint.value)) + 1
                components.append(
                    AuthorizationComponent(constraint.name, element, key)
                )

        for attribute, bounds in numeric_bounds.items():
            space = self.spaces[attribute]
            assert isinstance(space, NumericKeySpace)
            if bounds["low"] > bounds["high"]:
                raise ValueError(
                    f"unsatisfiable numeric constraints on {attribute!r}"
                )
            for element, key in space.authorization_keys(
                topic_key, bounds["low"], bounds["high"]
            ):
                hash_ops += element.depth + 1
                components.append(
                    AuthorizationComponent(attribute, element, key)
                )
        return components, hash_ops


def filter_as_clauses(filters: Filter | list[Filter]) -> list[Filter]:
    """Normalize a filter (or explicit DNF list of filters) to clause form.

    A single :class:`~repro.siena.filters.Filter` is one conjunctive
    clause; a list expresses a disjunction of clauses.
    """
    if isinstance(filters, Filter):
        return [filters]
    clauses = list(filters)
    if not clauses:
        raise ValueError("a disjunction needs at least one clause")
    if not all(isinstance(clause, Filter) for clause in clauses):
        raise TypeError("every clause must be a Filter")
    return clauses

