"""Operator matching and constraint implication (the covering kernel)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.siena.operators import Op, implies, matches, valid_operand


class TestMatches:
    def test_eq(self):
        assert matches(Op.EQ, 5, 5)
        assert not matches(Op.EQ, 5, 6)
        assert matches(Op.EQ, "a", "a")

    def test_ne(self):
        assert matches(Op.NE, 5, 6)
        assert not matches(Op.NE, 5, 5)

    def test_inequalities(self):
        assert matches(Op.GT, 20, 30)       # 30 > 20
        assert not matches(Op.GT, 20, 20)
        assert matches(Op.GE, 20, 20)
        assert matches(Op.LT, 20, 10)
        assert matches(Op.LE, 20, 20)
        assert not matches(Op.LE, 20, 21)

    def test_string_inequalities(self):
        assert matches(Op.GT, "apple", "banana")
        assert not matches(Op.LT, "apple", "banana")

    def test_prefix(self):
        assert matches(Op.PREFIX, "can", "cancerTrail")
        assert not matches(Op.PREFIX, "trail", "cancerTrail")

    def test_suffix(self):
        assert matches(Op.SUFFIX, "Trail", "cancerTrail")
        assert not matches(Op.SUFFIX, "cancer", "cancerTrail")

    def test_substring(self):
        assert matches(Op.SUBSTRING, "cer", "cancerTrail")
        assert not matches(Op.SUBSTRING, "xyz", "cancerTrail")

    def test_any_matches_everything(self):
        assert matches(Op.ANY, None, 5)
        assert matches(Op.ANY, None, "s")

    def test_cross_type_never_matches(self):
        assert not matches(Op.EQ, 5, "5")
        assert not matches(Op.GT, "a", 1)
        assert not matches(Op.PREFIX, "1", 10)

    def test_bool_is_not_numeric(self):
        assert not matches(Op.EQ, 1, True)


class TestValidOperand:
    def test_numeric_operators(self):
        assert valid_operand(Op.GT, 5)
        assert valid_operand(Op.GT, 5.5)
        assert not valid_operand(Op.PREFIX, 5)

    def test_string_operators(self):
        assert valid_operand(Op.PREFIX, "abc")
        assert valid_operand(Op.GT, "abc")

    def test_any_needs_none(self):
        assert valid_operand(Op.ANY, None)
        assert not valid_operand(Op.ANY, 5)

    def test_bool_rejected(self):
        assert not valid_operand(Op.EQ, True)


class TestImplies:
    """implies(narrow_op, narrow_v, wide_op, wide_v)."""

    def test_paper_example(self):
        # <age, >, 30> implies <age, >, 20>  (f covers f').
        assert implies(Op.GT, 30, Op.GT, 20)
        assert not implies(Op.GT, 20, Op.GT, 30)

    def test_eq_implies_anything_it_satisfies(self):
        assert implies(Op.EQ, 25, Op.GT, 20)
        assert implies(Op.EQ, 25, Op.LE, 25)
        assert not implies(Op.EQ, 25, Op.GT, 30)
        assert implies(Op.EQ, "cancerTrail", Op.PREFIX, "cancer")

    def test_ge_gt_interactions(self):
        assert implies(Op.GE, 21, Op.GT, 20)
        assert implies(Op.GT, 20, Op.GE, 20)
        assert not implies(Op.GE, 20, Op.GT, 20)

    def test_le_lt_interactions(self):
        assert implies(Op.LE, 19, Op.LT, 20)
        assert implies(Op.LT, 20, Op.LE, 20)
        assert not implies(Op.LE, 20, Op.LT, 20)

    def test_inequality_implies_ne(self):
        assert implies(Op.GT, 20, Op.NE, 20)
        assert implies(Op.GT, 20, Op.NE, 15)
        assert not implies(Op.GT, 20, Op.NE, 25)
        assert implies(Op.LT, 20, Op.NE, 20)
        assert not implies(Op.LT, 20, Op.NE, 15)

    def test_integer_tightening(self):
        # Over integers, x > 20 means x >= 21, so x != 21 is NOT implied
        # but x != 20 is.
        assert implies(Op.GT, 20, Op.NE, 20)
        assert not implies(Op.GT, 20, Op.NE, 21)

    def test_any_is_the_top(self):
        assert implies(Op.GT, 5, Op.ANY, None)
        assert not implies(Op.ANY, None, Op.GT, 5)

    def test_prefix_containment(self):
        assert implies(Op.PREFIX, "cancer", Op.PREFIX, "can")
        assert not implies(Op.PREFIX, "can", Op.PREFIX, "cancer")

    def test_suffix_containment(self):
        assert implies(Op.SUFFIX, "erTrail", Op.SUFFIX, "Trail")
        assert not implies(Op.SUFFIX, "Trail", Op.SUFFIX, "erTrail")

    def test_prefix_implies_substring(self):
        assert implies(Op.PREFIX, "cancer", Op.SUBSTRING, "anc")
        assert implies(Op.SUFFIX, "Trail", Op.SUBSTRING, "rail")

    def test_substring_containment(self):
        assert implies(Op.SUBSTRING, "ancer", Op.SUBSTRING, "nce")

    def test_ne_implies_only_itself(self):
        assert implies(Op.NE, 5, Op.NE, 5)
        assert not implies(Op.NE, 5, Op.NE, 6)

    def test_unrelated_pairs_conservatively_false(self):
        assert not implies(Op.SUBSTRING, "abc", Op.PREFIX, "abc")
        assert not implies(Op.GT, 5, Op.LT, 10)


# -- soundness property: implication must never lie -------------------------

_NUMERIC_IMPLICATION_OPS = [Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]


@given(
    narrow_op=st.sampled_from(_NUMERIC_IMPLICATION_OPS),
    narrow_value=st.integers(-50, 50),
    wide_op=st.sampled_from(_NUMERIC_IMPLICATION_OPS),
    wide_value=st.integers(-50, 50),
    sample=st.integers(-60, 60),
)
def test_numeric_implication_is_sound(
    narrow_op, narrow_value, wide_op, wide_value, sample
):
    """If implies() says yes, every satisfying value satisfies the wide one."""
    if implies(narrow_op, narrow_value, wide_op, wide_value):
        if matches(narrow_op, narrow_value, sample):
            assert matches(wide_op, wide_value, sample)


_STRING_IMPLICATION_OPS = [Op.EQ, Op.PREFIX, Op.SUFFIX, Op.SUBSTRING]


@given(
    narrow_op=st.sampled_from(_STRING_IMPLICATION_OPS),
    narrow_value=st.text(alphabet="abc", max_size=4),
    wide_op=st.sampled_from(_STRING_IMPLICATION_OPS),
    wide_value=st.text(alphabet="abc", max_size=4),
    sample=st.text(alphabet="abc", max_size=6),
)
def test_string_implication_is_sound(
    narrow_op, narrow_value, wide_op, wide_value, sample
):
    if implies(narrow_op, narrow_value, wide_op, wide_value):
        if matches(narrow_op, narrow_value, sample):
            assert matches(wide_op, wide_value, sample)


# -- covering must be a preorder: implies() is transitive --------------------

_NUMERIC_OPERANDS = [-1, 0, 1, 1.5, 2, 2.5, 3, 10]
_STRING_OPERANDS = ["", "a", "b", "c", "aa", "ab", "ba", "bc", "abc", "abd"]
_ALL_STRING_OPS = _NUMERIC_IMPLICATION_OPS + [Op.PREFIX, Op.SUFFIX, Op.SUBSTRING]
_GRID = (
    [(Op.ANY, None)]
    + [(op, v) for op in _NUMERIC_IMPLICATION_OPS for v in _NUMERIC_OPERANDS]
    + [(op, v) for op in _ALL_STRING_OPS for v in _STRING_OPERANDS]
)


def test_implication_is_transitive_over_the_operand_grid():
    """``a => b`` and ``b => c`` give ``a => c`` for every constraint triple.

    The broker's incremental forwarded set equals a full covering scan
    only when ``covers`` is a preorder.  Before ``PREFIX p => {GT, NE} w``
    was recognised, 330 triples of this grid failed, all of the shape
    ``PREFIX => GE => {GT, NE}``.
    """
    violations = [
        (a, b, c)
        for a in _GRID
        for b in _GRID
        if implies(*a, *b)
        for c in _GRID
        if implies(*b, *c) and not implies(*a, *c)
    ]
    assert violations == []


def test_string_implication_is_sound_exhaustively():
    """Brute force over every string of length <= 3 on a 3-letter alphabet:
    whatever ``implies`` accepts, no string satisfies the narrow
    constraint and not the wide one."""
    universe = [
        "".join(letters)
        for length in range(4)
        for letters in itertools.product("abc", repeat=length)
    ]
    constraints = [(Op.ANY, None)] + [
        (op, operand) for op in _ALL_STRING_OPS for operand in universe
    ]
    unsound = [
        (narrow, wide, sample)
        for narrow in constraints
        for wide in constraints
        if implies(*narrow, *wide)
        for sample in universe
        if matches(*narrow, sample) and not matches(*wide, sample)
    ]
    assert unsound == []


def test_prefix_implies_gt_and_ne_exactly():
    """The two closure cases are complete as well as sound."""
    assert implies(Op.PREFIX, "b", Op.GT, "a")
    assert not implies(Op.PREFIX, "a", Op.GT, "a")      # "a" itself
    assert implies(Op.PREFIX, "ab", Op.NE, "a")
    assert implies(Op.PREFIX, "ab", Op.NE, "b")
    assert not implies(Op.PREFIX, "a", Op.NE, "ab")     # "ab" has the prefix
    assert not implies(Op.PREFIX, "a", Op.NE, "a")
