"""Acceptance suite: the headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
for each guarantee.  Everything is exact rational arithmetic unless a
tolerance is stated in the test itself; expected values come from the
independent oracles in ``oracles.py`` or are closed-form.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, pi

import pytest

from runnerspec.core import circle_distance
from runnerspec.lattice import (
    DEFAULT_PI_BOUNDS,
    certificate_profile,
    d_subtorus2,
    dense_sequence,
    kronecker_lift,
    lift_volume_threshold,
    lrc_threshold,
    slice_plane_to_line,
    threshold_below_power_bound,
)
from runnerspec.loneliness import (
    coset_center_distance,
    d_hyperplane,
    d_subtorus1,
    max_loneliness,
)
from runnerspec.spectrum import (
    EnumerationSpec,
    build_spectrum,
    certify_absence,
    enumerate_proper_primitive,
    verify_closed_form_s2,
    verify_family_fan_sun,
    verify_window,
    accumulation_report,
)
from runnerspec.subgroups import FiniteCyclicSubgroup, d_finite_cyclic, deep_witness

from oracles import (
    grid_ml,
    mobius_primitive_count,
    naive_cyclic_distance,
    pair_distance,
    s2_expected_keys,
    s2_truncation,
)

F = Fraction


def test_c01_four_speed_family_identity():
    """ML(8, 4r+3, 4r+11, 4r+19) = (2r+7)/(8r+30) exactly for r <= 100."""
    report = verify_family_fan_sun(100)
    assert report.passed
    assert len(report.checks) == 101
    assert report.checks[0].ml == F(7, 30)
    assert report.checks[100].ml == F(207, 830)


def test_c02_n2_table_matches_closed_form(table_n2_1e6):
    """The n=2 key set at volume 10^6 is the truncated closed form.

    Keys are 0 and 1/(4s+2); the truncation point s_max = 706 comes from
    the minimal-volume pair (s, s+1), computed independently, and covers
    in particular every s realized by the witness family (1, 2s), which
    reaches s = 499 under the same bound.
    """
    table = table_n2_1e6
    assert set(table.entries) == s2_expected_keys(10**6)
    assert s2_truncation(10**6) == 706
    literal_family = {F(0)} | {F(1, 4 * s + 2) for s in range(1, 500)}
    assert literal_family <= set(table.entries)
    report = verify_closed_form_s2(table)
    assert report.passed
    assert report.largest_key == F(1, 6)


@pytest.mark.slow
def test_c03_absence_certificate_7_50(table_n3_4e4):
    """No proper line orbit in n=3 has center distance 7/50.

    Phase A covers every canonical triple with squared volume <= 199^2
    and must come back empty-handed (count cross-checked against the
    Moebius oracle); it reads the scan of the session's n=3 build at
    4*10^4 >= 199^2, which a fresh scan equals (see test_spectrum).
    Phase B closes the tail with the rational pi lower bound 3.14159.
    """
    assert DEFAULT_PI_BOUNDS[0] == F(314159, 100000)
    cert = certify_absence(F(7, 50), 3, 199**2)
    assert cert.phase_a_passed
    assert cert.phase_a_witness is None
    assert cert.phase_a_checked == mobius_primitive_count(3, 199**2) == 574032
    assert cert.cases_ok
    assert cert.density_lhs > 1
    assert cert.phase_b_passed
    assert cert.passed


def test_c04_finite_cyclic_witness():
    """The 25-element cyclic subgroup from (12/25, 9/25) sits at 7/50."""
    group = FiniteCyclicSubgroup((F(12, 25), F(9, 25)))
    d = d_finite_cyclic(group)
    assert d == F(7, 50)
    assert d == naive_cyclic_distance((F(12, 25), F(9, 25)))


def test_c05_n3_max_distance_is_one_quarter(table_n3_1e3, table_n3_1e4):
    """The largest n=3 center distance is 1/4, witnessed by (1, 2, 3)."""
    tables = [
        build_spectrum(EnumerationSpec(3, 14)),
        table_n3_1e3,
        table_n3_1e4,
    ]
    for table in tables:
        assert table.max_key == F(1, 4)
        assert (1, 2, 3) in table.entries[F(1, 4)].witnesses


def test_c06_n3_window_has_no_violations(table_n3_4e4):
    """Every n=3 value of ML inside (0, 1/3) has the form s/(3s+1).

    Checked on the full table at squared volume 4*10^4; the table itself
    is cross-checked against the Moebius orbit count first.
    """
    table = table_n3_4e4
    assert table.total_multiplicity() == mobius_primitive_count(3, 4 * 10**4) == 582742
    report = verify_window(table, "strict")
    assert report.passed
    assert not report.violations
    assert report.in_window == 93
    assert report.class_counts == {1: 93}


def test_c07_engine_agrees_with_independent_routes():
    """The candidate-set engine, the dense grid, the hyperplane closed
    form, and the coset scanner all compute the same numbers."""
    count = 0
    for n in (1, 2, 3):
        for t in itertools.combinations_with_replacement(range(1, 13), n):
            g = 0
            for c in t:
                g = gcd(g, c)
            if g != 1:
                continue
            count += 1
            assert max_loneliness(t).ml == grid_ml(t), t
    assert count == 334

    pairs = 0
    for b in range(1, 201):
        for a in range(1, b + 1):
            if a * a + b * b > 4 * 10**4 or gcd(a, b) != 1:
                continue
            pairs += 1
            d = d_subtorus1((a, b))
            assert d == d_hyperplane((b, -a)), (a, b)
            assert d == pair_distance(a, b), (a, b)
    assert pairs > 6000

    for n in (1, 2, 3):
        zero = (F(0),) * n
        for t in enumerate_proper_primitive(EnumerationSpec(n, 10**3)):
            assert coset_center_distance(t, zero) == d_subtorus1(t), t


def test_c08_witnesses_are_pinned_on_two_coordinates():
    """Every n=3 orbit with positive center distance admits a farthest
    point with at least two coordinates at the extreme value."""
    least = None
    for t in enumerate_proper_primitive(EnumerationSpec(3, 2000)):
        res = max_loneliness(t)
        if res.d_value == 0:
            continue
        point, tight = deep_witness(t)
        assert tight >= 2, t
        assert min(circle_distance(c) for c in point) == res.ml
        if least is None or tight < least:
            least = tight
    assert least == 2


def test_c09_slicing_and_density_on_random_planes():
    """Random plane bases: the sliced line never beats the plane, a
    nearby line with index j <= 64 comes within 1/50 of it, and every
    lift certificate survives exact sampling at 1e-9."""
    rng = random.Random(20260823)
    bases = []
    while len(bases) < 200:
        u = tuple(rng.randint(-2, 2) for _ in range(3))
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        cross = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        # need a genuine plane not stuck inside a coordinate hyperplane
        if any(cross) and all(a or b for a, b in zip(u, v)):
            bases.append((u, v))
    deepest_j = 0
    for u, v in bases:
        d2 = d_subtorus2(u, v)
        w = slice_plane_to_line(u, v)
        assert d_subtorus1(w) >= d2, (u, v)
        for j in range(65):
            wj = dense_sequence(u, v, j)
            if 0 in wj:
                continue  # sits inside a coordinate subtorus, distance 1/2
            if abs(d_subtorus1(wj) - d2) <= F(1, 50):
                deepest_j = max(deepest_j, j)
                break
        else:
            pytest.fail(f"no j <= 64 approaches d2 for basis {(u, v)}")
        cert = kronecker_lift(w, F(1, 5))
        profile = certificate_profile(cert)
        assert profile.spacing_identity_ok, (u, v)
        assert profile.tight_sample_sq == cert.delta_sq
        assert float(profile.max_sample_sq) <= float(cert.delta_sq) + 1e-9
    assert deepest_j <= 64


def test_c10_threshold_constants():
    """Volume thresholds: exact small cases, a rational pi enclosure,
    and the n^(5n/2) domination up to n = 12."""
    two = lrc_threshold(2)
    assert (two.coefficient, two.pi_power) == (F(3), 0)

    three = lrc_threshold(3)
    assert (three.coefficient, three.pi_power) == (F(144), -1)
    assert abs(three.decimal() - 144 / pi) <= 1e-9 * (144 / pi)
    lo, hi = three.bounds()
    assert lo < F(144) / F.from_float(pi) < hi

    assert all(threshold_below_power_bound(n) for n in range(2, 13))

    c_star = lift_volume_threshold(3, 1, F(2, 25))
    assert (c_star.coefficient, c_star.pi_power) == (F(625), -1)
    assert 198.9 < c_star.decimal() < 199.0


def test_c11_accumulation_is_one_sided(table_n3_1e3, table_n3_1e4):
    """Keys pile up toward 1/6, 1/10, 1/14 from above only: a tight
    window below each target is empty, while the count just above 1/6
    grows with the volume bound."""
    targets = (F(1, 6), F(1, 10), F(1, 14))
    tight = accumulation_report(table_n3_1e4, targets, F(1, 1000))
    assert [row.below_count for row in tight] == [0, 0, 0]

    small = accumulation_report(table_n3_1e3, (F(1, 6),), F(1, 100))[0]
    large = accumulation_report(table_n3_1e4, (F(1, 6),), F(1, 100))[0]
    assert small.below_count == large.below_count == 0
    assert (small.above_count, large.above_count) == (4, 36)
    assert small.above_count < large.above_count
