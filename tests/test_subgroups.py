"""Tests for center distances of finite and product subgroups."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runnerspec.core import UnsupportedDimension, linf_center_distance
from runnerspec import loneliness, subgroups
from runnerspec.loneliness import d_subtorus1
from runnerspec.subgroups import (
    CenterReached,
    FiniteCyclicSubgroup,
    ProductSubgroup,
    SubgroupTooLarge,
    d_finite_cyclic,
    d_subgroup,
    deep_witness,
    extremal_face_contacts,
    find_rational_witness,
    is_proper,
    pad_subgroup,
)

from oracles import face_contacts_reference, naive_cyclic_distance

F = Fraction


# --- finite cyclic subgroups ----------------------------------------------


def test_cyclic_order_and_elements():
    g = FiniteCyclicSubgroup((F(12, 25), F(9, 25)))
    assert g.order == 25
    assert len(g.generator) == 2
    elements = g.elements()
    assert len(elements) == 25
    assert elements[0] == (F(0), F(0))
    assert len(set(elements)) == 25


@pytest.mark.parametrize(
    "generator, d",
    [
        ((F(12, 25), F(9, 25)), F(7, 50)),
        ((F(1, 2),), F(0)),
        ((F(1, 5),), F(1, 10)),
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


def test_face_contacts_touch_all_four_edges():
    g = FiniteCyclicSubgroup((F(12, 25), F(9, 25)))
    d, contacts = extremal_face_contacts(g)
    assert d == F(7, 50)
    assert contacts == {(0, 1), (0, -1), (1, 1), (1, -1)}


@given(
    st.integers(1, 300).flatmap(
        lambda q: st.lists(st.integers(0, q).map(lambda a: F(a, q)), min_size=1, max_size=4)
    ),
    st.sampled_from((7, 64, 1 << 16)),
)
@settings(max_examples=80, deadline=None)
def test_face_contacts_match_the_oracle(generator, cells):
    with mock.patch.object(subgroups, "_GRID_CELLS", cells):
        got = extremal_face_contacts(FiniteCyclicSubgroup(generator))
    assert got == face_contacts_reference(generator)


# --- product subgroups ----------------------------------------------------


def test_d_subgroup_line():
    assert d_subgroup(ProductSubgroup([(1, 2)])) == F(1, 6)


def test_d_subgroup_circle_times_thirds():
    sub = ProductSubgroup(
        torus_directions=[(1, 0)],
        finite_elements=[(0, F(1, 3)), (0, F(2, 3))],
    )
    assert d_subgroup(sub) == F(1, 6)


def test_d_subgroup_center_element():
    sub = ProductSubgroup(finite_elements=[(F(1, 2), F(1, 2))])
    assert d_subgroup(sub) == 0


def test_d_subgroup_dimension_two_unsupported():
    sub = ProductSubgroup(torus_directions=[(1, 0), (0, 1)])
    with pytest.raises(UnsupportedDimension):
        d_subgroup(sub)


def test_d_subgroup_coset_limit(monkeypatch):
    g = FiniteCyclicSubgroup((F(0), F(1, 5)))
    sub = ProductSubgroup([(1, 0)], g.elements())
    assert d_subgroup(sub) == F(1, 10)
    monkeypatch.setattr(subgroups, "DEFAULT_COSET_LIMIT", 3)
    with pytest.raises(SubgroupTooLarge):
        d_subgroup(sub)


@pytest.mark.parametrize(
    "dirs", [[(1, 2, 3), (2, 4, 6)], [(1, 0, 1), (0, 1, 1), (1, 1, 2)]]
)
def test_torus_directions_must_be_independent(dirs):
    with pytest.raises(ValueError, match="linearly independent"):
        ProductSubgroup(torus_directions=dirs)


def test_finite_elements_must_close():
    with pytest.raises(ValueError):
        ProductSubgroup(finite_elements=[(F(1, 3), F(0))])


def test_is_proper_examples():
    assert is_proper(ProductSubgroup([(1, 2, 3)]))
    assert not is_proper(ProductSubgroup(finite_elements=[(0, 0)]))
    shifted = ProductSubgroup([(0, 1)], finite_elements=[(F(1, 2), 0)])
    assert is_proper(shifted)
    assert not is_proper(ProductSubgroup([(0, 1)]))


@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11))
@settings(max_examples=60)
def test_properness_iff_distance_below_half(q, a, b):
    # 0-dimensional case: the subgroup misses every coordinate hyperplane
    # exactly when it keeps a positive margin... which is d < 1/2.
    sub = ProductSubgroup((), FiniteCyclicSubgroup((F(a, q), F(b, q))).elements())
    assert is_proper(sub) == (d_subgroup(sub) < F(1, 2))


# --- witnesses ------------------------------------------------------------


@pytest.mark.parametrize(
    "speeds, point",
    [
        ((1, 2), (F(1, 3), F(2, 3))),
        ((1, 3), (F(1, 2), F(1, 2))),
        ((1, 2, 3), (F(1, 4), F(1, 2), F(3, 4))),
    ],
)
def test_find_rational_witness(speeds, point):
    w = find_rational_witness(speeds)
    assert w == point
    assert linf_center_distance(w) == d_subtorus1(speeds)


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


def test_deep_witness_requires_positive_distance():
    with pytest.raises(CenterReached):
        deep_witness((1, 1))


# --- padding --------------------------------------------------------------


def test_pad_preserves_distance():
    base = ProductSubgroup((), FiniteCyclicSubgroup((F(1, 5),)).elements())
    padded = pad_subgroup(base, 1)
    assert padded.dimension == 1
    assert padded.ambient_dimension == 2
    assert d_subgroup(padded) == F(1, 10) == d_subgroup(base)


def test_pad_keeps_improper_improper():
    origin = ProductSubgroup(finite_elements=[(F(0),)])
    padded = pad_subgroup(origin, 1)
    assert not is_proper(padded)
    assert d_subgroup(padded) == F(1, 2)


def test_pad_line_exceeds_supported_dimension():
    padded = pad_subgroup(ProductSubgroup([(1, 2)]), 1)
    assert padded.dimension == 2
    with pytest.raises(UnsupportedDimension):
        d_subgroup(padded)


def test_pad_validates():
    base = ProductSubgroup([(1, 2)])
    with pytest.raises(ValueError):
        pad_subgroup(base, -1)
    assert pad_subgroup(base, 0) is base
