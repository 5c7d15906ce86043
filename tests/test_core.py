"""Tests for the exact circle and torus primitives."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import runnerspec
from runnerspec.core import (
    InvalidInput,
    ZeroVector,
    circle_distance,
    dot,
    format_rational,
    norm_sq,
    parse_rational,
    primitive_part,
    torus_point,
)

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def test_parse_format_round_trip():
    assert parse_rational("7/50") == F(7, 50)
    assert parse_rational(" 3 ") == 3
    assert parse_rational("-1/6") == F(-1, 6)
    assert format_rational(F(7, 50)) == "7/50"
    assert format_rational(3) == "3"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-1, 10**5000)) == "-1/1" + "0" * 5000


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("three halves")


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "x, expected",
    [
        (0, F(0)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(1, 4)),
        (F(-1, 4), F(1, 4)),
        (F(7, 3), F(1, 3)),
        (5, F(0)),
    ],
)
def test_circle_distance_values(x, expected):
    assert circle_distance(x) == expected


@given(rationals)
def test_circle_distance_range_and_symmetry(x):
    d = circle_distance(x)
    assert 0 <= d <= F(1, 2)
    assert circle_distance(-x) == d
    assert circle_distance(x + 1) == d


@given(rationals, rationals)
def test_circle_distance_triangle(x, y):
    assert circle_distance(x + y) <= circle_distance(x) + circle_distance(y)


def test_torus_point_wraps():
    assert torus_point([F(3, 2), F(-1, 4), 2]) == (F(1, 2), F(3, 4), F(0))


def test_primitive_part():
    assert primitive_part((2, 4)) == (1, 2)
    assert primitive_part((-2, 4)) == (1, -2)
    assert primitive_part((0, -3, 6)) == (0, 1, -2)
    assert primitive_part((5,)) == (1,)
    with pytest.raises(ZeroVector):
        primitive_part((0, 0))


@pytest.mark.parametrize(
    "call, entry",
    [
        (lambda: runnerspec.max_loneliness([1.5, 2]), "1.5"),
        (lambda: runnerspec.max_loneliness([F(5, 2), 3]), "Fraction(5, 2)"),
        (lambda: runnerspec.d_hyperplane([1.2, 1]), "1.2"),
        (lambda: runnerspec.kronecker_lift((F(1, 2), 1), 1), "Fraction(1, 2)"),
        (lambda: runnerspec.saturate((1, 0), (0, "1")), "'1'"),
        (lambda: primitive_part((2, 4.5)), "4.5"),
    ],
)
def test_non_integer_entries_are_refused(call, entry):
    with pytest.raises(InvalidInput, match=f"is not an integer: {re.escape(entry)}$"):
        call()


def test_integral_entries_of_other_types_are_read_as_ints():
    assert primitive_part((np.int64(2), 4.0, True)) == (2, 4, 1)
    assert runnerspec.max_loneliness([np.int64(1), 2.0]) == runnerspec.max_loneliness([1, 2])


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4))
def test_primitive_part_idempotent(vec):
    if all(c == 0 for c in vec):
        return
    p = primitive_part(vec)
    assert primitive_part(p) == p
    assert next(c for c in p if c != 0) > 0


def test_dot_and_norm():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert norm_sq((1, 2, 3)) == 14
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_every_exported_error_is_invalid_input():
    # The command line reports InvalidInput, and only it, as bad input.
    exported = [getattr(runnerspec, name) for name in runnerspec.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
    assert len(errors) == 13
    assert all(issubclass(e, InvalidInput) for e in errors)
    assert "InvalidInput" not in runnerspec.__all__
