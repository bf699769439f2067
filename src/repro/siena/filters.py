"""Subscription filters and the covering relation.

A filter is a conjunction of per-attribute constraints, e.g.::

    f = <<topic, EQ, cancerTrail>, <age, >, 20>>

``f`` *covers* ``f'`` when every event matching ``f'`` also matches ``f``
(Section 2.1).  Brokers use covering to suppress redundant upstream
subscription forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.siena.events import Event
from repro.siena.operators import Op, implies, matches, valid_operand


@dataclass(frozen=True)
class Constraint:
    """A single constraint ``<name, op, value>`` on one attribute."""

    name: str
    op: Op
    value: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("constraint attribute name must be non-empty")
        if not valid_operand(self.op, self.value):
            raise ValueError(
                f"operand {self.value!r} is not valid for operator {self.op}"
            )

    def matches(self, event: Event) -> bool:
        """Whether *event* carries this attribute with a satisfying value."""
        if self.name not in event:
            return False
        return matches(self.op, self.value, event[self.name])

    def implied_by(self, other: "Constraint") -> bool:
        """Whether *other* (the narrower constraint) implies this one."""
        if self.name != other.name:
            return False
        return implies(other.op, other.value, self.op, self.value)

    def __str__(self) -> str:
        if self.op is Op.ANY:
            return f"<{self.name}, any>"
        return f"<{self.name}, {self.op.value}, {self.value!r}>"


class Filter:
    """A conjunction of constraints; the unit of subscription.

    Multiple constraints may target the same attribute (e.g. a range is
    ``<age, >=, l> AND <age, <=, u>``).
    """

    #: The constraints as :mod:`repro.routing.tokens` compiled them for
    #: its match predicates (hex tokens parsed, ``F`` keyed).  Written by
    #: that module only; never part of equality or the wire form, and
    #: gone with the filter.
    _token_steps: tuple | None = None

    def __init__(self, constraints: Iterable[Constraint]):
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        if not self.constraints:
            raise ValueError("a filter must contain at least one constraint")
        # Filters are immutable and heavily used as dict keys on broker
        # hot paths (subscription tables, match-result caches); building
        # and hashing a set of constraints per lookup dominates, so do
        # it once.
        self._key = frozenset(self.constraints)
        self._hash = hash(self._key)
        # What covers() consults first: a filter can only cover one that
        # constrains every attribute it does.
        self._names = frozenset(c.name for c in self.constraints)

    @classmethod
    def of(cls, *constraints: Constraint) -> "Filter":
        """Build a filter from constraint arguments."""
        return cls(constraints)

    @classmethod
    def topic(cls, topic: str) -> "Filter":
        """Shorthand for the ubiquitous ``<topic, EQ, w>`` filter."""
        return cls.of(Constraint("topic", Op.EQ, topic))

    @classmethod
    def numeric_range(
        cls, topic: str, attribute: str, low: float, high: float
    ) -> "Filter":
        """Shorthand for ``<topic, EQ, w> AND <attr in [low, high]>``."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return cls.of(
            Constraint("topic", Op.EQ, topic),
            Constraint(attribute, Op.GE, low),
            Constraint(attribute, Op.LE, high),
        )

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Filter):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " AND ".join(str(c) for c in self.constraints)
        return f"Filter({inner})"

    def matches(self, event: Event) -> bool:
        """Whether *event* satisfies every constraint."""
        return all(constraint.matches(event) for constraint in self.constraints)

    def covers(self, other: "Filter") -> bool:
        """Whether this filter covers *other* (self is at least as general).

        Sound, Siena-style check: every constraint of ``self`` must be
        implied by some constraint of ``other``.  Incompleteness (returning
        ``False`` for an actually-covered pair) only costs extra forwarded
        subscriptions, never a missed event.
        """
        if not self._names <= other._names:
            return False
        return all(
            any(mine.implied_by(theirs) for theirs in other.constraints)
            for mine in self.constraints
        )

    def attribute_names(self) -> set[str]:
        """The set of attribute names this filter constrains."""
        return set(self._names)
