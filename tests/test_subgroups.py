"""Tests for finite cyclic subgroups and deep witnesses."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runnerspec import loneliness
from runnerspec.subgroups import (
    CenterReached,
    FiniteCyclicSubgroup,
    d_finite_cyclic,
    deep_witness,
)

from oracles import naive_cyclic_distance

F = Fraction


# --- finite cyclic subgroups ----------------------------------------------


def test_cyclic_order():
    g = FiniteCyclicSubgroup((F(12, 25), F(9, 25)))
    assert g.order == 25
    assert len(g.generator) == 2


@pytest.mark.parametrize(
    "generator, d",
    [
        ((F(12, 25), F(9, 25)), F(7, 50)),
        ((F(1, 2),), F(0)),
        ((F(1, 5),), F(1, 10)),
        ((F(1, 2), F(1, 2)), F(0)),
    ],
)
def test_d_finite_cyclic_values(generator, d):
    assert d_finite_cyclic(FiniteCyclicSubgroup(generator)) == d


def test_d_finite_cyclic_against_naive_oracle():
    gens = [
        (F(1, 7),),
        (F(3, 8),),
        (F(2, 9), F(5, 9)),
        (F(1, 6), F(1, 4)),
        (F(5, 12), F(7, 12)),
        (F(12, 25), F(9, 25)),
    ]
    for gen in gens:
        assert d_finite_cyclic(FiniteCyclicSubgroup(gen)) == naive_cyclic_distance(gen)


@given(
    st.integers(1, 600).flatmap(
        lambda q: st.lists(st.integers(0, q).map(lambda a: F(a, q)), min_size=1, max_size=4)
    ),
    st.sampled_from((7, 64, 1 << 16)),
)
@settings(max_examples=80, deadline=None)
def test_d_finite_cyclic_matches_the_oracle(generator, cells):
    with mock.patch.object(loneliness, "_GRID_CELLS", cells):
        got = d_finite_cyclic(FiniteCyclicSubgroup(generator))
    assert got == naive_cyclic_distance(generator)


def test_cyclic_closed_form_all_orders():
    # single coordinate 1/q: even orders reach the center, odd q = 2s+1
    # sits at 1/(4s+2)
    for q in range(2, 1001):
        d = d_finite_cyclic(FiniteCyclicSubgroup((F(1, q),)))
        if q % 2 == 0:
            assert d == 0
        else:
            s = (q - 1) // 2
            assert d == F(1, 4 * s + 2)


# --- witnesses ------------------------------------------------------------


@pytest.mark.parametrize(
    "speeds, point, count",
    [
        ((1, 2), (F(1, 3), F(2, 3)), 2),
        ((1, 2, 3), (F(1, 4), F(1, 2), F(3, 4)), 2),
        ((2, 3), (F(2, 5), F(3, 5)), 2),
    ],
)
def test_deep_witness(speeds, point, count):
    w, tight = deep_witness(speeds)
    assert w == point
    assert tight == count


def test_deep_witness_scans_each_tuple_once():
    for speeds in ((1, 2), (1, 2, 3), (2, 3)):
        with mock.patch.object(loneliness, "_scan_rows", wraps=loneliness._scan_rows) as scan:
            deep_witness(speeds)
        assert scan.call_count == 1


def test_deep_witness_requires_positive_distance():
    with pytest.raises(CenterReached):
        deep_witness((1, 1))
