"""Tests for exact plane lattices, lifts, slices, and named constants."""

import functools
import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runnerspec import lattice, loneliness
from runnerspec.core import UnsupportedDimension, primitive_part
from runnerspec.lattice import (
    _row_hnf,
    DEFAULT_PI_BOUNDS,
    REFINED_PI_BOUNDS,
    BudgetExceeded,
    DegenerateBasis,
    NotContained,
    PiPower,
    SaturatedPlane,
    ball_volume,
    basis_length_bound,
    certificate_profile,
    d_subtorus2,
    dense_sequence,
    density_radius_sq,
    kronecker_lift,
    lift_volume_threshold,
    lrc_threshold,
    named_constants,
    saturate,
    shortest_projected_vector,
    slice_plane_to_line,
    threshold_below_power_bound,
)
from runnerspec.loneliness import d_hyperplane, d_subtorus1

from oracles import brute_shortest_projected, subtorus2_reference

F = Fraction


# --- saturation -----------------------------------------------------------


def test_saturate_standard_plane():
    plane = saturate((1, 0, 0), (0, 1, 0))
    assert plane.basis_u == (1, 0, 0)
    assert plane.basis_v == (0, 1, 0)
    assert plane.covolume_sq == 1


def test_saturate_known_covolumes():
    assert saturate((1, 1, 1), (0, 1, 2)).covolume_sq == 6
    assert saturate((1, 2, 0), (0, 0, 1)).covolume_sq == 5
    assert saturate((1, 0, 1), (0, 1, 1)).covolume_sq == 3


def test_saturate_divides_out_index():
    # (2,0,0),(0,3,0) generate an index-6 sublattice of the axis plane
    plane = saturate((2, 0, 0), (0, 3, 0))
    assert plane.covolume_sq == 1


def test_saturate_contains_inputs_and_is_idempotent():
    rng = random.Random(7)
    seen = 0
    while seen < 25:
        u = tuple(rng.randint(-4, 4) for _ in range(3))
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        try:
            plane = saturate(u, v)
        except DegenerateBasis:
            continue
        seen += 1
        plane.coords_of(u)
        plane.coords_of(v)
        again = saturate(plane.basis_u, plane.basis_v)
        assert again == plane
        assert plane.coords_of(plane.basis_u) == (F(1), F(0))
        assert plane.coords_of(plane.basis_v) == (F(0), F(1))
        (a, b), (_, c) = plane.gram()
        assert plane.covolume_sq == a * c - b * b > 0


def test_saturate_rejects_degenerate():
    with pytest.raises(DegenerateBasis):
        saturate((1, 2, 3), (2, 4, 6))
    with pytest.raises(DegenerateBasis):
        saturate((1, 2), (1,))


def test_coords_of_raises_off_plane():
    plane = saturate((1, 0, 0), (0, 1, 0))
    with pytest.raises(NotContained):
        plane.coords_of((0, 0, 1))


def test_a_vector_of_another_length_is_not_contained():
    plane = saturate((1, 0, 0), (0, 1, 0))
    with pytest.raises(NotContained, match=r"\(1, 2\) has 2 entries, the plane has 3"):
        plane.coords_of((1, 2))
    with pytest.raises(NotContained, match="has 4 entries, the plane has 3"):
        density_radius_sq((1, 2, 0, 0), plane)


# --- shortest projected vector --------------------------------------------


@pytest.mark.parametrize(
    "v, x, p_sq",
    [
        ((1, 0, 0), (0, 0, -1), F(1)),
        ((1, 2), (0, -1), F(1, 5)),
        ((1, 1), (0, -1), F(1, 2)),
        ((1, 2, 3), (0, -1, -1), F(3, 14)),
        # ties between projections of equal length: the chosen offset is frozen
        ((1, 1, 1), (-1, 0, 0), F(2, 3)),
        ((12, 10, 3), (-5, -4, -1), F(17, 253)),
        ((11, 7, 5), (-5, -3, -2), F(14, 195)),
        ((1, 1, 1, 1), (0, -1, 0, 0), F(3, 4)),
    ],
)
def test_shortest_projected_known(v, x, p_sq):
    assert shortest_projected_vector(v) == (x, p_sq)


def _det(M):
    """Integer determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
        if M[0][j]
    )


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-6, 6), min_size=width, max_size=width),
            min_size=0,
            max_size=4,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_row_hnf_is_a_unimodular_hermite_form(A):
    H, T, Z = _row_hnf(A)
    width = len(A[0]) if A else 0

    def times(row):
        return tuple(sum(r * a[j] for r, a in zip(row, A)) for j in range(width))

    assert [times(t) for t in T] == H
    assert all(times(z) == (0,) * width for z in Z)
    assert len(H) + len(Z) == len(A)
    assert abs(_det([list(r) for r in T + Z])) == 1
    # Hermite form: pivots move strictly right, are positive, and the
    # entries above each pivot lie in [0, pivot)
    pivots = [next(j for j, c in enumerate(h) if c) for h in H]
    assert pivots == sorted(set(pivots))
    for i, (h, j) in enumerate(zip(H, pivots)):
        assert h[j] > 0
        assert all(0 <= H[k][j] < h[j] for k in range(i))


def test_shortest_projected_matches_brute_force():
    vs = [(a, b) for a in range(1, 9) for b in range(a, 9) if gcd(a, b) == 1]
    vs += [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 3, 5), (2, 2, 3), (1, 2, 4)]
    vs += [(1, 1, 1, 1), (1, 2, 3, 4)]
    for v in vs:
        x, p_sq = shortest_projected_vector(v)
        assert p_sq == brute_shortest_projected(v)
        # returned witness realizes its own value
        n = sum(c * c for c in v)
        d = sum(a * b for a, b in zip(x, v))
        assert F(n * sum(a * a for a in x) - d * d, n) == p_sq


# (n, entry bound): the bounds keep each oracle call to a few ms, and
# n = 4, whose Gram is the one of rank 3, is drawn three times in five
@given(
    st.sampled_from([(2, 20), (3, 8), (4, 5), (4, 5), (4, 5)])
    .flatmap(lambda nb: st.lists(st.integers(-nb[1], nb[1]), min_size=nb[0], max_size=nb[0]))
    .filter(lambda v: gcd(*v) == 1)
)
@settings(max_examples=100, deadline=None)
def test_shortest_projected_matches_the_oracle(v):
    x, p_sq = shortest_projected_vector(v)
    assert p_sq == brute_shortest_projected(v)
    n = sum(c * c for c in v)
    d = sum(a * b for a, b in zip(x, v))
    assert F(n * sum(a * a for a in x) - d * d, n) == p_sq


def test_shortest_projected_unsupported_dimensions():
    with pytest.raises(UnsupportedDimension):
        shortest_projected_vector((1,))
    with pytest.raises(UnsupportedDimension):
        shortest_projected_vector((1, 1, 1, 1, 1))


def test_shortest_projected_deterministic():
    assert shortest_projected_vector((3, 5, 7)) == shortest_projected_vector((3, 5, 7))


# --- lifts and density certificates ---------------------------------------


def test_lift_line_slope_family():
    for j in range(1, 7):
        cert = kronecker_lift((1, j), F(1, 2))
        assert cert.outer_plane.covolume_sq == 1
        assert cert.delta_sq == F(1, 4 * (1 + j * j))


def test_lift_axis_direction():
    cert = kronecker_lift((1, 0, 0), F(1, 2))
    assert cert.delta_sq == F(1, 4)
    assert cert.guaranteed


def test_lift_guarantee_threshold():
    assert kronecker_lift((2, 3), F(1, 7)).guaranteed
    assert not kronecker_lift((2, 3), F(1, 8)).guaranteed


def test_lift_large_volume_is_guaranteed():
    # volume past the n=3 threshold at epsilon 1/25 forces density
    for v in ((1, 1, 199), (3, 7, 199), (60, 110, 191)):
        assert sum(c * c for c in v) > 39578
        assert kronecker_lift(v, F(1, 25)).guaranteed


def test_lift_delta_is_quarter_projection():
    for v in ((1, 2), (2, 3), (1, 2, 3), (2, 3, 5), (1, 3, 4)):
        cert = kronecker_lift(v, F(1, 3))
        _, p_sq = shortest_projected_vector(v)
        assert cert.delta_sq == p_sq / 4
        assert cert.delta_sq == density_radius_sq(v, cert.outer_plane)


def test_lift_does_not_recheck_its_own_plane():
    # v always lies in saturate(v, x), so the lift skips coords_of.
    with mock.patch.object(SaturatedPlane, "coords_of", autospec=True) as coords:
        for v in ((2, 3), (1, 2, 3), (2, 3, 5, 7)):
            assert kronecker_lift(v, F(1, 3)).delta_sq == shortest_projected_vector(v)[1] / 4
    coords.assert_not_called()


def test_lift_json_shape():
    data = kronecker_lift((2, 3), F(1, 7)).to_json_dict()
    assert data["kind"] == "density-certificate"
    assert data["inner_direction"] == [2, 3]
    assert data["delta_sq"] == "1/52"
    assert data["guaranteed"] is True
    assert data["outer_plane"]["covolume_sq"] == 1


def test_lift_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        kronecker_lift((1, 2), 0)


@pytest.mark.parametrize(
    "v, expected",
    [((1, 1), F(1, 8)), ((1, 0), F(1, 4)), ((1, 2), F(1, 20))],
)
def test_density_radius_sq_in_unit_plane(v, expected):
    plane = saturate((1, 0), (0, 1))
    assert density_radius_sq(v, plane) == expected


def test_density_radius_requires_containment():
    plane = saturate((1, 0, 0), (0, 1, 0))
    with pytest.raises(NotContained):
        density_radius_sq((0, 0, 1), plane)


def test_certificate_profile_is_tight():
    for v in ((2, 3), (1, 2, 3), (1, 4), (2, 3, 5)):
        cert = kronecker_lift(v, F(1, 2))
        prof = certificate_profile(cert)
        assert prof.spacing_identity_ok
        assert prof.samples == 64
        assert prof.max_sample_sq <= cert.delta_sq
        assert prof.tight_sample_sq == cert.delta_sq
        assert abs(float(prof.tight_sample_sq) - float(cert.delta_sq)) <= 1e-9


def test_lift_outputs_are_frozen():
    # 300 seeded primitive v (n = 2..4, entries in [-200, 200]): the digest
    # pins the tie choice among equal projections and the exact values
    rng = random.Random(20231)
    lines = []
    while len(lines) < 300:
        v = tuple(rng.randint(-200, 200) for _ in range(rng.randint(2, 4)))
        if gcd(*v) != 1:
            continue
        cert = kronecker_lift(v, F(1, rng.randint(2, 40)))
        prof = certificate_profile(cert)
        lines.append(
            f"{v} {shortest_projected_vector(v)} {cert.to_json_dict()} "
            f"{prof.spacing_identity_ok} {prof.max_sample_sq} {prof.tight_sample_sq} {prof.samples}\n"
        )
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "998c8f3bf69fd7f1455a69d009da53d80774ff6a2d88b373a5124f41b7e758e0"


# --- slices and dense sequences -------------------------------------------


def test_slice_known_values():
    assert slice_plane_to_line((1, 1, 1), (0, 1, 2)) == (1, -1, -3)
    assert slice_plane_to_line((1, 1, 1), (0, 0, 1)) == (1, 1, -1)


def test_slice_output_lies_in_plane_with_nonzero_coords():
    rng = random.Random(11)
    seen = 0
    while seen < 30:
        u = tuple(rng.randint(-3, 3) for _ in range(3))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        try:
            w = slice_plane_to_line(u, v)
        except (DegenerateBasis, ValueError):
            continue
        seen += 1
        assert all(c != 0 for c in w)
        saturate(u, v).coords_of(w)
        assert w == primitive_part(w)


def test_slice_rejects_parallel():
    with pytest.raises(DegenerateBasis):
        slice_plane_to_line((1, 2, 3), (2, 4, 6))


def test_dense_sequence_values():
    assert dense_sequence((1, 1, 1), (0, 1, 2), 0) == (1, 1, 1)
    assert dense_sequence((1, 1, 1), (0, 1, 2), 1) == (1, 2, 3)
    assert dense_sequence((1, 1, 1), (0, 1, 2), 2) == (1, 3, 5)
    assert dense_sequence((2, 2), (0, 2), 1) == (1, 2)


def test_dense_sequence_validates():
    with pytest.raises(ValueError):
        dense_sequence((1, 0), (0, 1), -1)
    with pytest.raises(DegenerateBasis):
        dense_sequence((1, 2), (2, 4), 1)


# --- exact plane distances ------------------------------------------------


@pytest.mark.parametrize(
    "u, v, d",
    [
        ((1, 2, 0), (0, 0, 1), F(1, 6)),
        ((1, 0), (0, 1), F(0)),
        ((1, 0, 0), (0, 1, 0), F(1, 2)),
        ((1, 0, 1), (0, 1, 1), F(1, 6)),
    ],
)
def test_d_subtorus2_values(u, v, d):
    assert d_subtorus2(u, v) == d


def test_d_subtorus2_product_case_matches_line():
    assert d_subtorus2((1, 2, 0), (0, 0, 1)) == d_subtorus1((1, 2))
    assert d_subtorus2((1, 3, 0), (0, 0, 1)) == d_subtorus1((1, 3))


def test_d_subtorus2_full_hyperplane_case():
    # the saturation of this pair is the whole hyperplane x1 + x2 = x3
    assert d_subtorus2((1, 0, 1), (0, 1, 1)) == d_hyperplane((1, 1, -1))


def test_d_subtorus2_symmetric_and_basis_independent():
    assert d_subtorus2((1, 0, 1), (0, 1, 1)) == d_subtorus2((0, 1, 1), (1, 0, 1))
    assert d_subtorus2((1, 0, 1), (1, 1, 2)) == d_subtorus2((1, 0, 1), (0, 1, 1))


def _no_scan(*args, **kwargs):
    raise AssertionError("a crease circle was scanned past the bound")


def test_d_subtorus2_budget(monkeypatch):
    # 1,417 candidate times: a large entry alone is no reason to refuse.
    assert d_subtorus2((13, 0, 1), (0, 1, 1)) == d_hyperplane((1, 13, -13)) == F(1, 54)
    monkeypatch.setattr(lattice, "coset_center_distance", _no_scan)
    u, v = (11, -12, 5, 5, -3, -7, 10), (-1, 0, -1, 0, 1, 0, 1)
    with pytest.raises(BudgetExceeded, match="needs 158748025 candidate times"):
        d_subtorus2(u, v)


def test_d_subtorus2_refuses_a_plane_past_its_candidate_bound(monkeypatch):
    # (1, 0, 1), (0, 1, 1): the creases give the directions (1, 0), (0, 1)
    # and (1, 1) with two circles of 11 candidates each, and (1, -1),
    # (2, 1) and (1, 2) with one circle of 19.
    u, v = (1, 0, 1), (0, 1, 1)
    work = 3 * 2 * 11 + 3 * 19
    monkeypatch.setattr(loneliness, "_COSET_CANDIDATES", work)
    assert d_subtorus2(u, v) == subtorus2_reference(u, v)

    monkeypatch.setattr(loneliness, "_COSET_CANDIDATES", work - 1)
    monkeypatch.setattr(lattice, "coset_center_distance", _no_scan)
    message = f"plane {u}, {v} needs {work} candidate times, past the coset scan's bound {work - 1}"
    with pytest.raises(BudgetExceeded, match=re.escape(message)):
        d_subtorus2(u, v)


@given(st.lists(st.integers(-60, 60), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_coset_candidates_closed_form_matches_the_crease_sum(w):
    creases = loneliness._creases([(x, 0) for x in w])
    assert loneliness._coset_candidates(w) == 1 + sum(abs(e) for e, _ in creases)


def test_d_subtorus2_refuses_a_large_plane_at_once(monkeypatch):
    # n = 60: 555 directions, each counted from its sorted |w_i|.  Summing
    # every direction's creases instead took about 0.5 s on 2 vCPUs.
    rng = random.Random(60)
    u, v = ([rng.randint(-12, 12) for _ in range(60)] for _ in range(2))
    monkeypatch.setattr(lattice, "coset_center_distance", _no_scan)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="past the coset scan's bound"):
        d_subtorus2(u, v)
    assert time.perf_counter() - start < 0.1


def _seeded_planes(seed, n, entry, count):
    """Independent pairs with |entries| <= entry, often holding a zero
    coordinate (u_i = v_i = 0) or a coordinate repeated up to sign."""
    rng = random.Random(seed)
    planes = []
    while len(planes) < count:
        cols = [(rng.randint(-entry, entry), rng.randint(-entry, entry)) for _ in range(n)]
        if rng.random() < 0.3:
            cols[rng.randrange(n)] = (0, 0)
        if rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            cols[j] = (s * cols[i][0], s * cols[i][1])
        u, v = tuple(c[0] for c in cols), tuple(c[1] for c in cols)
        if any(u[i] * v[j] != u[j] * v[i] for i, j in itertools.combinations(range(n), 2)):
            planes.append((u, v))
    return planes


def test_d_subtorus2_matches_the_reference():
    planes = [((7, -5), (5, 4)), ((12, 1), (0, 11)), ((1, 2, 3), (2, 3, 4))]
    for n, entry, count in ((2, 6, 40), (3, 2, 30), (4, 1, 20), (5, 1, 15)):
        planes += _seeded_planes(8 + n, n, entry, count)
    for u, v in planes:
        assert d_subtorus2(u, v) == subtorus2_reference(u, v), (u, v)


@pytest.mark.parametrize(
    "fn",
    [saturate, slice_plane_to_line, functools.partial(dense_sequence, j=1), d_subtorus2],
    ids=["saturate", "slice_plane_to_line", "dense_sequence", "d_subtorus2"],
)
@pytest.mark.parametrize(
    "u, v",
    [((1, 2, 3), (1, 2)), ((1, 2, 3), (-2, -4, -6)), ((1,), (2,))],
    ids=["mismatched-lengths", "dependent", "n=1"],
)
def test_plane_functions_reject_degenerate_pairs(fn, u, v):
    with pytest.raises(DegenerateBasis):
        fn(u, v)


def test_triangle_bound_line_vs_lifted_plane():
    # L-inf distance of the line exceeds the plane's by at most the
    # certified L2 density radius
    for v in ((1, 2, 3), (2, 3, 5), (1, 1, 2), (1, 3, 4), (2, 3, 4), (1, 2, 5)):
        cert = kronecker_lift(v, F(1, 10))
        plane = cert.outer_plane
        d1 = d_subtorus1(v)
        d2 = d_subtorus2(plane.basis_u, plane.basis_v)
        gap = d1 - d2
        assert gap <= 0 or gap * gap <= cert.delta_sq


# --- named constants ------------------------------------------------------


@pytest.mark.parametrize(
    "k, coef, power",
    [
        (0, F(1), 0),
        (1, F(2), 0),
        (2, F(1), 1),
        (3, F(4, 3), 1),
        (4, F(1, 2), 2),
        (5, F(8, 15), 2),
    ],
)
def test_ball_volume_exact(k, coef, power):
    assert ball_volume(k) == PiPower(coef, power)


@pytest.mark.parametrize("k", [350, 360])
def test_pi_power_decimal_below_the_normal_range(k):
    # 1/(k/2)! is subnormal at k = 350 and 0.0 as a float at k = 360, while
    # omega_k itself is a normal float.
    expected = math.exp(k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1))
    assert ball_volume(k).decimal() == pytest.approx(expected, rel=1e-12)


def test_pi_power_bounds_enclose_decimal():
    for pp in (ball_volume(3), lrc_threshold(3), basis_length_bound(2, 1)):
        lo, hi = pp.bounds()
        assert float(lo) <= pp.decimal() <= float(hi)
        rlo, rhi = pp.bounds(REFINED_PI_BOUNDS)
        assert lo <= rlo <= rhi <= hi


def test_basis_length_bound_values():
    assert basis_length_bound(1, 1) == PiPower(F(1), 0)
    assert basis_length_bound(2, 1) == PiPower(F(6), -1)
    assert basis_length_bound(2, 5).coefficient == 5 * basis_length_bound(2, 1).coefficient


def test_lift_volume_threshold_values():
    assert lift_volume_threshold(3, 1, F(2, 25)) == PiPower(F(625), -1)
    with pytest.raises(ValueError):
        lift_volume_threshold(3, 3, F(1, 2))
    with pytest.raises(ValueError):
        lift_volume_threshold(3, 1, 0)


def test_lrc_threshold_values():
    assert lrc_threshold(2) == PiPower(F(3), 0)
    assert lrc_threshold(3) == PiPower(F(144), -1)
    lo, hi = lrc_threshold(3).bounds(DEFAULT_PI_BOUNDS)
    assert (lo, hi) == (F(60000, 1309), F(14400000, 314159))
    with pytest.raises(ValueError):
        lrc_threshold(1)


def test_threshold_stays_below_power_bound():
    assert all(threshold_below_power_bound(n) for n in range(2, 13))


def test_named_constants_bundle():
    nc = named_constants(3)
    assert nc.epsilon == F(1, 6)
    assert nc.c_star == nc.lrc_threshold == PiPower(F(144), -1)
    assert nc.omega_k == PiPower(F(2), 0)
    assert nc.tao_bound == 3.0**7.5
    assert nc.threshold_below_tao

    nc25 = named_constants(3, epsilon=F(2, 25))
    assert nc25.c_star == PiPower(F(625), -1)
    assert 198.9 < nc25.c_star.decimal() < 199.0

    # beyond the float range the approximations saturate instead of raising
    nc100 = named_constants(100)
    assert nc100.tao_bound == math.inf
    assert nc100.lrc_threshold.decimal() == math.inf
    assert nc100.threshold_below_tao
    # a coefficient past the float range with a product inside it
    assert PiPower(F(10**309), -3).decimal() == pytest.approx(1e307 * (100 / math.pi**3))


def test_named_constants_validates():
    with pytest.raises(ValueError):
        named_constants(3, k=3)
