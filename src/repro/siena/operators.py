"""Siena attribute operators, matching, and constraint implication.

The covering relation of Section 2.1 -- filter ``f`` covers ``f'`` when
``(name' op' value') => (name op value)`` -- bottoms out in per-constraint
Boolean implication between (operator, value) pairs, implemented here by
:func:`implies`.
"""

from __future__ import annotations

import enum
from typing import Any

AttributeValue = int | float | str | bytes


class Op(enum.Enum):
    """Matching operators supported by the pub-sub core.

    ``EQ``/``NE``/inequalities work on numbers and strings; ``PREFIX``,
    ``SUFFIX`` and ``SUBSTRING`` are string operators; ``ANY`` matches every
    event that carries the attribute at all.
    """

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PREFIX = "prefix"
    SUFFIX = "suffix"
    SUBSTRING = "substr"
    ANY = "any"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Op.{self.name}"


_NUMERIC_OPS = {Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.ANY}
_STRING_OPS = {
    Op.EQ,
    Op.NE,
    Op.LT,
    Op.LE,
    Op.GT,
    Op.GE,
    Op.PREFIX,
    Op.SUFFIX,
    Op.SUBSTRING,
    Op.ANY,
}


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def valid_operand(op: Op, value: Any) -> bool:
    """Whether *value* is a sensible constraint operand for *op*."""
    if op is Op.ANY:
        return value is None
    if _is_numeric(value):
        return op in _NUMERIC_OPS
    if isinstance(value, str):
        return op in _STRING_OPS
    return False


def matches(op: Op, constraint_value: Any, event_value: Any) -> bool:
    """Evaluate ``event_value op constraint_value``.

    Cross-type comparisons never match (a numeric constraint cannot match a
    string-valued attribute), mirroring Siena's typed attribute model.
    """
    if op is Op.ANY:
        return True
    if _is_numeric(constraint_value) != _is_numeric(event_value):
        return False
    if isinstance(constraint_value, str) != isinstance(event_value, str):
        return False
    if op is Op.EQ:
        return event_value == constraint_value
    if op is Op.NE:
        return event_value != constraint_value
    if op is Op.LT:
        return event_value < constraint_value
    if op is Op.LE:
        return event_value <= constraint_value
    if op is Op.GT:
        return event_value > constraint_value
    if op is Op.GE:
        return event_value >= constraint_value
    if not isinstance(event_value, str):
        return False
    if op is Op.PREFIX:
        return event_value.startswith(constraint_value)
    if op is Op.SUFFIX:
        return event_value.endswith(constraint_value)
    if op is Op.SUBSTRING:
        return constraint_value in event_value
    raise AssertionError(f"unhandled operator {op}")  # pragma: no cover


def implies(narrow_op: Op, narrow_value: Any, wide_op: Op, wide_value: Any) -> bool:
    """Whether ``(x narrow_op narrow_value)`` implies ``(x wide_op wide_value)``.

    This is the per-constraint building block of the covering relation: the
    *narrow* constraint comes from the covered (more specific) filter and
    the *wide* constraint from the covering (more general) one.  The
    implementation is sound but intentionally not complete for every exotic
    operator pair -- exactly like Siena, an unrecognized pair conservatively
    returns ``False``, which only costs an extra forwarded subscription,
    never a missed event.

    What it must be is *transitive*: a broker maintains its forwarded
    set incrementally (:meth:`repro.siena.broker.Broker.unsubscribe`),
    and that equals a scan of the whole table only when covering is a
    preorder.  A pair recognised through an intermediate constraint
    (``PREFIX p => GE a => NE c``) is therefore recognised directly too.
    """
    if wide_op is Op.ANY:
        return True
    if narrow_op is Op.ANY:
        return False
    if _is_numeric(narrow_value) != _is_numeric(wide_value):
        return False

    if narrow_op is Op.EQ:
        # x == v implies (v wide_op wide_value).
        return matches(wide_op, wide_value, narrow_value)

    numeric = _is_numeric(narrow_value)
    if narrow_op in (Op.GT, Op.GE) and wide_op in (Op.GT, Op.GE):
        if wide_op is Op.GT and narrow_op is Op.GE:
            return narrow_value > wide_value
        return narrow_value >= wide_value
    if narrow_op in (Op.LT, Op.LE) and wide_op in (Op.LT, Op.LE):
        if wide_op is Op.LT and narrow_op is Op.LE:
            return narrow_value < wide_value
        return narrow_value <= wide_value
    if narrow_op in (Op.GT, Op.GE) and wide_op is Op.NE:
        if numeric and isinstance(narrow_value, int) and isinstance(wide_value, int):
            threshold = narrow_value + 1 if narrow_op is Op.GT else narrow_value
            return wide_value < threshold
        return (
            wide_value < narrow_value
            if narrow_op is Op.GE
            else wide_value <= narrow_value
        )
    if narrow_op in (Op.LT, Op.LE) and wide_op is Op.NE:
        if numeric and isinstance(narrow_value, int) and isinstance(wide_value, int):
            threshold = narrow_value - 1 if narrow_op is Op.LT else narrow_value
            return wide_value > threshold
        return (
            wide_value > narrow_value
            if narrow_op is Op.LE
            else wide_value >= narrow_value
        )
    if narrow_op is Op.NE and wide_op is Op.NE:
        return narrow_value == wide_value

    if isinstance(narrow_value, str) and isinstance(wide_value, str):
        if narrow_op is Op.PREFIX and wide_op is Op.PREFIX:
            return narrow_value.startswith(wide_value)
        if narrow_op is Op.SUFFIX and wide_op is Op.SUFFIX:
            return narrow_value.endswith(wide_value)
        if narrow_op in (Op.PREFIX, Op.SUFFIX) and wide_op is Op.SUBSTRING:
            return wide_value in narrow_value
        if narrow_op is Op.SUBSTRING and wide_op is Op.SUBSTRING:
            return wide_value in narrow_value
        # Every string with prefix p is >= p, and p itself has the prefix:
        # the three cases below are that fact carried through GE, so that
        # PREFIX => GE => {GT, NE} chains compose (see the docstring).
        if narrow_op is Op.PREFIX and wide_op is Op.GE:
            return narrow_value >= wide_value
        if narrow_op is Op.PREFIX and wide_op is Op.GT:
            return narrow_value > wide_value
        if narrow_op is Op.PREFIX and wide_op is Op.NE:
            return not wide_value.startswith(narrow_value)

    return False
