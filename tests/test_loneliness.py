"""Tests for the maximum-loneliness engine and its companion distances."""

import contextlib
import itertools
import sys
import threading
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from runnerspec import loneliness
from runnerspec.core import circle_distance
from runnerspec.loneliness import (
    InvalidNormal,
    InvalidSpeeds,
    SpeedTuple,
    _int64_ok,
    _scan_rows,
    coset_center_distance,
    d_hyperplane,
    d_subtorus1,
    max_loneliness,
    maximizing_times,
)

from oracles import (
    _scan_best_python,
    coset_reference,
    grid_ml,
    grid_ml_witness,
    maximizing_times_reference,
    pair_distance,
    scan_reference_numpy,
)

F = Fraction

speed_lists = st.lists(st.integers(1, 30), min_size=1, max_size=3)


def primitive(speeds):
    g = 0
    for s in speeds:
        g = gcd(g, s)
    return g == 1


# --- construction ---------------------------------------------------------


def test_speed_tuple_normalizes_signs():
    assert SpeedTuple((-2, 3)).speeds == (2, 3)
    assert SpeedTuple((3, -2, 1)).speeds == (3, 2, 1)


def test_speed_tuple_rejects_bad_input():
    with pytest.raises(InvalidSpeeds):
        SpeedTuple(())
    with pytest.raises(InvalidSpeeds):
        SpeedTuple((0, 1))
    with pytest.raises(InvalidSpeeds):
        SpeedTuple((2, 4))


# --- exact values ---------------------------------------------------------


@pytest.mark.parametrize(
    "speeds, ml, witness",
    [
        ((1,), F(1, 2), F(1, 2)),
        ((1, 2), F(1, 3), F(1, 3)),
        ((2, 3), F(2, 5), F(1, 5)),
        ((1, 2, 3), F(1, 4), F(1, 4)),
    ],
)
def test_max_loneliness_known_values(speeds, ml, witness):
    res = max_loneliness(speeds)
    assert res.ml == ml
    assert res.witness_time == witness
    assert res.d_value == F(1, 2) - ml


@pytest.mark.parametrize(
    "speeds, point",
    [
        ((1, 2), (F(1, 3), F(2, 3))),
        ((1, 3), (F(1, 2), F(1, 2))),
        ((1, 2, 3), (F(1, 4), F(1, 2), F(3, 4))),
    ],
)
def test_witness_point_realizes_the_center_distance(speeds, point):
    # The orbit point at the witness time is a rational point of the
    # closure at L-infinity distance d_value from the center.
    res = max_loneliness(speeds)
    w = tuple(res.witness_time * s % 1 for s in speeds)
    assert w == point
    assert max(abs(c - F(1, 2)) for c in w) == res.d_value


def test_max_loneliness_four_runner_family():
    assert max_loneliness((8, 3, 11, 19)).ml == F(7, 30)


@pytest.mark.parametrize(
    "speeds, d",
    [((1, 2), F(1, 6)), ((1, 3), F(0)), ((1, 2, 2), F(1, 6))],
)
def test_d_subtorus1_values(speeds, d):
    assert d_subtorus1(speeds) == d


def test_witness_is_earliest_maximizer():
    for speeds in ((1, 2), (2, 3), (1, 2, 3), (3, 4, 5)):
        res = max_loneliness(speeds)
        times = maximizing_times(speeds)
        assert res.witness_time == min(times)
        for t in times:
            assert min(circle_distance(t * s) for s in speeds) == res.ml
        assert grid_ml_witness(speeds) == (res.ml, res.witness_time)


# --- oracle agreement -----------------------------------------------------


def test_grid_oracle_spot_checks():
    for speeds in ((1, 2), (1, 5), (2, 3, 7), (4, 6, 9), (5, 8, 11), (1, 10, 12)):
        assert max_loneliness(speeds).ml == grid_ml(speeds)


def test_numpy_and_python_scans_agree():
    # The kernel returns (a, q, k) for a witness k/q; the reference
    # returns (a, q, tn, td) with td == q.  Each tuple alone, then the
    # three of length 3 as one batch.
    tuples = ((1, 2), (2, 3, 7), (5, 8, 11), (97, 998, 1001))
    for speeds in tuples:
        ((a, q, k),) = _scan_rows(np.array([speeds], dtype=np.int64)).tolist()
        assert (a, q, k, q) == _scan_best_python(speeds)
    batch = _scan_rows(np.array(tuples[1:], dtype=np.int64)).tolist()
    for speeds, (a, q, k) in zip(tuples[1:], batch):
        assert (a, q, k, q) == _scan_best_python(speeds)


def _reference(speeds):
    a, q, tn, td = _scan_best_python(speeds)
    return Fraction(a, q), Fraction(tn, td)


# Rows b * (x_1, ..., x_n) with x_i <= 5: small and large rows share one
# batch, so grids hold denominators far below their width, while the
# exhaustive oracle's grid stays at most 7 * 2520 points per row.
_rows = st.tuples(
    st.sampled_from((1, 2, 3, 5, 7)),
    st.lists(st.integers(1, 5), min_size=3, max_size=3),
).map(lambda bx: tuple(bx[0] * x for x in bx[1]))

# Tuples whose maximum is reached on two denominators at different times
# in [0, 1/2], so only the earliest-time rule picks the witness; their
# oracle grids have at most 18480 points.
_CROSS_TIES = ((2, 5, 10), (4, 5, 8), (5, 7, 10), (7, 8, 14))


@given(
    st.integers(1, 3),
    st.lists(_rows | st.sampled_from(_CROSS_TIES), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from((7, 64, 1 << 16)),
)
@settings(max_examples=40, deadline=None)
def test_kernel_batch_matches_oracles(n, rows, repeat, cells):
    batch = [r[:n] for r in rows]
    if repeat:
        batch += batch[:2]
    with mock.patch.object(loneliness, "_GRID_CELLS", cells):
        got = _scan_rows(batch).tolist()
    for speeds, (a, q, k) in zip(batch, got):
        res = (Fraction(a, q), Fraction(k, q))
        assert res == _reference(speeds)
        assert res == grid_ml_witness(speeds)


def test_kernel_keeps_the_earliest_time_across_denominators():
    expected = [grid_ml_witness(v) for v in _CROSS_TIES]
    assert expected[0] == (F(1, 3), F(4, 15))
    # One row is solved on lattices and a batch on grids; the rows b v are
    # not primitive for b = 3, and reach the same maximum at t / b.
    for b in (1, 3):
        rows = [tuple(b * s for s in v) for v in _CROSS_TIES]
        singles = [_scan_rows([v]).tolist()[0] for v in rows]
        for got in (singles, _scan_rows(rows).tolist()):
            assert [(F(a, q), F(k, q)) for a, q, k in got] == [(m, t / b) for m, t in expected]
    assert [_reference(v) for v in _CROSS_TIES] == expected


# The kernel scans only pair sums v_a + v_b without column b (n >= 2);
# the reference and the grid oracle keep every peak 2 v_i and every column.
# One row is solved on its pairs' lattices, two rows on the grid.
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3)
    | st.tuples(st.integers(1, 3), _rows).map(lambda nr: nr[1][: nr[0]])
)
@example((1,))
@example((5,))
@example((4, 6, 1))
@example((7,))
@example((1, 2, 2))
@example((1, 3))
@example((1, 3, 5))
@example(_CROSS_TIES[0])
@example(_CROSS_TIES[1])
@example(_CROSS_TIES[2])
@example(_CROSS_TIES[3])
@settings(max_examples=60, deadline=None)
def test_reduced_candidate_set_matches_the_full_one(row):
    row = tuple(row)
    expected = grid_ml_witness(row)
    assert _reference(row) == expected
    # The reversed row puts other columns first, and the two rows take
    # the batch path instead of the one-row fold.
    for a, q, k in _scan_rows([row]).tolist() + _scan_rows([row, row[::-1]]).tolist():
        assert (F(a, q), F(k, q)) == expected


def _reduced(row, a, b):
    """Pair (a, b) of ``row`` as a batch of n >= 3 scans it: each kept speed
    mod q = v_a + v_b, folded to min(v, q - v) and sorted."""
    q = abs(row[a]) + abs(row[b])
    return tuple(sorted(min(v % q, -v % q) for c, v in enumerate(row) if c != b)), q


@contextlib.contextmanager
def _sent_problems():
    """The (speeds, q) problems ``_scan_problems`` receives, in order."""
    problems = []
    scan = loneliness._scan_problems

    def spy(speeds, q):
        problems.extend(zip(map(tuple, speeds.tolist()), q.tolist()))
        return scan(speeds, q)

    with mock.patch.object(loneliness, "_scan_problems", spy):
        yield problems


def _pairs(batch):
    return [(row, a, b) for row in batch for a, b in itertools.combinations(range(len(row)), 2)]


def test_kernel_scans_pair_sums_without_the_partner_column():
    # A problem is a pair's kept speeds, column b dropped, on q = v_a + v_b.
    # One row, or rows of n <= 2, send every one in order; rows of n >= 3
    # send each distinct reduced problem once.
    for batch in ([(1, 2, 2), (3, 5, 7), (2, 5, 10)], [(8, 3, 11, 19)], [(2, 3), (3, 2)], [(5,), (1,)]):
        with _sent_problems() as problems:
            _scan_rows(batch)
        assert all(len(speeds) == max(1, len(batch[0]) - 1) for speeds, _ in problems)
        if len(batch) == 1 or len(batch[0]) <= 2:
            kept = [(tuple(v for c, v in enumerate(row) if c != b), row[a] + row[b])
                    for row, a, b in _pairs(batch)]
            assert problems == (kept if len(batch[0]) > 1 else [((5,), 10), ((1,), 2)])
        else:
            assert sorted(problems) == sorted({_reduced(*p) for p in _pairs(batch)})
    # Permuted rows, and a column moved by a pair sum, repeat problems.
    batch = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 2, 6)]
    with _sent_problems() as problems:
        _scan_rows(batch)
    assert len(problems) < len(_pairs(batch))
    # One row of n <= 3 is solved on its pairs' lattices and builds no grid;
    # one row of n = 4 still does.
    with _sent_problems() as problems:
        for row in ((5,), (2, 3), (3, 5, 7), (2, 5, 10)):
            _scan_rows([row])
        assert problems == []
        _scan_rows([(8, 3, 11, 19)])
    assert len(problems) == 6


def _repeating_batch(row, t):
    """``row``, and ``row`` with each column past the first two moved by
    +-t (v_1 + v_2), each also reversed and rotated: the pair (1, 2)
    repeats its reduced problem across rows, and every pair across the
    permutations of one row."""
    moved = [row]
    for x in range(2, len(row)):
        for step in (t, -t):
            r = list(row)
            r[x] += step * (row[0] + row[1])
            if r[x]:
                moved.append(tuple(r))
    return moved + [r[::-1] for r in moved] + [r[1:] + r[:1] for r in moved]


def _check_merged_batch(batch, merges):
    with _sent_problems() as problems:
        got = _scan_rows(batch).tolist()
    if merges:
        assert len(problems) == len({_reduced(*p) for p in _pairs(batch)}) < len(_pairs(batch))
    else:
        assert len(problems) == len(_pairs(batch))
    assert got == [_scan_rows([r]).tolist()[0] for r in batch]
    for r, (a, q, k) in zip(batch, got):
        assert (F(a, q), F(k, q)) == _reference(r)


# A batch of n >= 3 scans each distinct reduced problem once, when its key,
# q radix^(n-1) + the sorted speeds in base radix = max q // 2 + 1, fits
# int64.  Row by row it must equal the one-row scans and the reference.
@given(
    st.lists(st.integers(1, 6), min_size=3, max_size=6),
    st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_a_batch_that_merges_problems_matches_the_oracle(row, t):
    _check_merged_batch(_repeating_batch(tuple(row), t), merges=True)


def test_a_batch_merges_problems_only_while_its_keys_fit_int64():
    # For n = 6 the key passes 2^63 once a pair sum passes about 2,580; one
    # row with such a sum sends the whole batch down the unmerged path.
    for row, merges in (((1, 2, 3, 5, 1250, 1280), True), ((1, 2, 3, 5, 1300, 1340), False)):
        top = row[-1] + row[-2]
        assert ((top + 1) * (top // 2 + 1) ** 5 <= 1 << 63) == merges
        _check_merged_batch(_repeating_batch(row, 1)[:4], merges)


def test_maximizing_times_skips_denominators_that_cannot_hold_the_maximum(monkeypatch):
    # (1, 2, 3) has maximum 1/4 at 1/4 and 3/4.  Of its pair sums 3, 4
    # and 5 only 4 has 4 | 2q; it is solved once, on the lattice of its two
    # columns at the radius q - 2q/4 = 2, and no grid is built.  The
    # kernel's answer is given, so every lattice seen is maximizing_times'.
    solved = []
    lattice = loneliness._lattice_times

    def spy(u, w, q, radius=None):
        solved.append((u, w, q, radius))
        return lattice(u, w, q, radius)

    def no_grid(*args):
        raise AssertionError("a grid was built")

    assert _scan_rows([(1, 2, 3)]).tolist() == [[1, 4, 1]]
    monkeypatch.setattr(loneliness, "_scan_rows", lambda rows: np.array([(1, 4, 1)]))
    monkeypatch.setattr(loneliness, "_lattice_times", spy)
    monkeypatch.setattr(loneliness, "_deviation_grid", no_grid)
    assert maximizing_times((1, 2, 3)) == (F(1, 4), F(3, 4))
    assert solved == [(1, 2, 4, 2)]


def test_maximizing_times_skips_grids_that_cannot_hold_the_maximum(monkeypatch):
    # (8, 3, 11, 19) has maximum 7/30.  Of its pair sums 11, 19, 27, 14,
    # 22 and 30 only 30 has 30 | 2q; it is scanned once, on three columns.
    scanned = []
    grid = loneliness._deviation_grid

    def spy(speeds, q, j0, j1):
        scanned.append((speeds.tolist(), q.tolist()))
        return grid(speeds, q, j0, j1)

    assert _scan_rows([(8, 3, 11, 19)]).tolist() == [[7, 30, 13]]
    monkeypatch.setattr(loneliness, "_scan_rows", lambda rows: np.array([(7, 30, 13)]))
    monkeypatch.setattr(loneliness, "_deviation_grid", spy)
    assert maximizing_times((8, 3, 11, 19)) == (F(13, 30), F(17, 30))
    assert scanned == [([[8, 3, 11]], [30])]


def test_a_tie_across_slices_keeps_the_earlier_time(monkeypatch):
    # With 7 cells, the two columns of (1, 2) on q = 8 leave 3 times per
    # slice: j = 0..2, then 3..4.  The deviation is 8, 6, 4, 4, 8, so the
    # minimum 4 is reached first at j = 2 and again at j = 3, in the next slice.
    monkeypatch.setattr(loneliness, "_GRID_CELLS", 7)
    spans = []
    grid = loneliness._deviation_grid

    def spy(speeds, q, j0, j1):
        spans.append((j0, j1))
        return grid(speeds, q, j0, j1)

    monkeypatch.setattr(loneliness, "_deviation_grid", spy)
    a, k = loneliness._scan_problems(np.array([[1, 2]]), np.array([8]))
    assert spans == [(0, 3), (3, 5)]
    assert (a.tolist(), k.tolist()) == ([2], [2])


# --- int32 and int64 grids ---------------------------------------------------
# A grid is int32 while 2 max(v, q) j1 < 2^31, and int64 past it.


def _grid_reference(speeds, q, j0, j1):
    return [[max(abs(2 * j * v % (2 * qq) - qq) for v in vs) for j in range(j0, j1)] for vs, qq in zip(speeds, q)]


def test_a_grid_is_int32_only_while_every_cell_fits():
    # On q = 3 a raw kept speed of 10^8 makes the cell 2 v j pass 2^31 at
    # j = 11, so j1 = 12 needs int64, though 2 q j1 is tiny.
    cases = [
        ([[1, 10**8]], [3], 0, 10, np.int32),
        ([[1, 10**8]], [3], 0, 12, np.int64),
        ([[1, 5], [2, 7]], [9, 46340], 0, 23170, np.int32),
        ([[1, 5], [2, 7]], [9, 46340], 0, 23171, np.int64),
        ([[3, 46340]], [46341], 23160, 23171, np.int64),
    ]
    for speeds, q, j0, j1, dtype in cases:
        dev = loneliness._deviation_grid(np.array(speeds), np.array(q), j0, j1)
        assert dev.dtype == dtype
        assert dev.tolist() == _grid_reference(speeds, q, j0, j1)


# Rows b x with x_i <= 40 have pair sums up to about 96,000, on both sides
# of the bound on the merged batch path (q > 46,340).  A last entry V of
# 65,537 or 200,003 is kept raw on a row's small pairs when the row is scanned
# alone at n = 4, and in a batch of n = 4, which is unmerged past pair sums
# of about 93,000; there V alone passes the bound once V q > 2^31.
@st.composite
def _rows_across_the_int32_bound(draw):
    n = draw(st.sampled_from((3, 4)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.sampled_from((1, 97, 1201)))
        row = [b * x for x in draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))]
        row[0] += draw(st.integers(0, 1))  # often primitive, for maximizing_times
        if n == 4 and draw(st.booleans()):
            row[-1] = draw(st.sampled_from((65_537, 200_003)))
        rows.append(tuple(row))
    return rows


@given(_rows_across_the_int32_bound())
@example([(5003, 6007, 7001, 200_003)])
@example([(5003, 6007, 7001, 200_003), (1202, 2402, 3603, 4804)])
@example([(24001, 36013, 48017), (1, 2, 3)])
@settings(max_examples=30, deadline=None)
def test_int32_and_int64_grids_match_the_oracle(rows):
    expected = [scan_reference_numpy(r) for r in rows]
    for got in (_scan_rows(rows).tolist(), [_scan_rows([r]).tolist()[0] for r in rows]):
        for (a, q, k), ((ea, eq, ek), _) in zip(got, expected):
            assert (F(a, q), F(k, q)) == (F(ea, eq), F(ek, eq))
    for r, (_, times) in zip(rows, expected):
        if gcd(*r) == 1:
            assert maximizing_times(r) == times


@pytest.mark.parametrize(
    "row, ml, times",
    [((1, 2, 100000007), F(1, 3), (F(1, 3), F(2, 3))), ((3, 5, 7, 110000007), F(1, 2), (F(1, 2),))],
)
def test_raw_speeds_far_above_their_pair_sum(row, ml, times):
    # Each row keeps its last speed raw on the pair sums of its small
    # speeds.  (1, 2) reaches its maximum 1/3 only at 1/3 and 2/3, where
    # 100000007 = 2 (mod 3) is at 1/3 too; odd speeds are all at 1/2 only
    # at t = 1/2, as 3 t = 1/2 (mod 1) puts 5 t at 1/6 otherwise.
    ((a, q, k),) = _scan_rows([row]).tolist()
    assert (F(a, q), F(k, q)) == (ml, times[0])
    if len(row) == 3:  # the n = 4 row would scan its three 1.1 * 10^8 pairs again
        assert maximizing_times(row) == times


# --- the plane lattice of a pair sum ---------------------------------------
# One row of n <= 3 is solved on each pair's lattice; two rows go to the
# grid, which stays the lattice's differential partner.


def _one_and_two_rows(row):
    one = _scan_rows([row]).tolist()[0]
    two = _scan_rows([row, row]).tolist()
    assert two == [one, one]
    return one


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
@example([1, 10**6, 2])
@example([999999, 1000000, 999998])
@settings(max_examples=150, deadline=None)
def test_lattice_matches_the_grid_on_large_speeds(row):
    _one_and_two_rows(tuple(row))


def test_skewed_pairs_fall_back_to_the_grid(monkeypatch):
    # On q = 1 + 10^5 the kept speeds (1, 2) give the basis vector (1, 2),
    # and on q = 2 + 10^5 the speeds (1, 10^5) give (1, -2): each box holds
    # about q/2 points, so those pairs are scanned on the grid and the pair
    # on q = 3 on its lattice.
    assert loneliness._lattice_times(1, 2, 10**5 + 1) is None
    assert loneliness._lattice_times(1, 10**5, 10**5 + 2) is None
    assert loneliness._lattice_times(1, 10**5, 3) is not None
    problems = []
    scan = loneliness._scan_problems

    def spy(speeds, q):
        problems.extend(zip(speeds.tolist(), q.tolist()))
        return scan(speeds, q)

    monkeypatch.setattr(loneliness, "_scan_problems", spy)
    for b in (1, 2):
        problems.clear()
        row = (b, b * 10**5, 2 * b)
        _scan_rows([row])
        assert problems == [([b, 2 * b], b * (10**5 + 1)), ([b, b * 10**5], b * (10**5 + 2))]
        assert _one_and_two_rows(row) == [b, 3 * b, 1]
    assert max_loneliness((1, 10**5, 2)).witness_time == F(1, 3)


def test_a_lattice_cap_of_zero_sends_every_pair_to_the_grid(monkeypatch):
    tuples = _KNOWN + _CROSS_TIES + ((97, 998, 1001), (1, 10**5, 2), (4, 6, 1))
    rows = [(2, 4, 6), (7,), (3, 6)]
    before = [(max_loneliness(v), maximizing_times(v)) for v in tuples]
    kernel = [_scan_rows([r]).tolist() for r in rows]
    grids = []
    scan = loneliness._scan_problems

    def spy(speeds, q):
        grids.append(len(q))
        return scan(speeds, q)

    monkeypatch.setattr(loneliness, "_LATTICE_POINTS", 0)
    monkeypatch.setattr(loneliness, "_scan_problems", spy)
    assert [(max_loneliness(v), maximizing_times(v)) for v in tuples] == before
    assert [_scan_rows([r]).tolist() for r in rows] == kernel
    assert len(grids) >= len(tuples) + len(rows)


_KNOWN = ((1,), (1, 2), (2, 3), (1, 2, 3), (3, 4, 5), (8, 3, 11, 19), (1, 2, 2))


def test_tiny_grid_cell_limit_gives_the_same_results(monkeypatch):
    before = [(max_loneliness(v), maximizing_times(v)) for v in _KNOWN]
    monkeypatch.setattr(loneliness, "_GRID_CELLS", 7)
    after = [(max_loneliness(v), maximizing_times(v)) for v in _KNOWN]
    assert after == before
    assert after[3][0].ml == F(1, 4) and after[3][0].witness_time == F(1, 4)


def test_speeds_past_the_int64_bound_are_refused(monkeypatch):
    batch = [(1, 2, 3), (40, 97, 98), (5, 8, 11), (3, 31, 64)]

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(loneliness, "_INT64_LIMIT", 2 * 20 * 20 + 1)
    monkeypatch.setattr(loneliness, "_deviation_grid", no_grid)
    for scan in (
        lambda: _scan_rows(batch),
        lambda: _scan_rows([(1, 2), (-98, 3)]),
        lambda: max_loneliness((40, 97, 98)),
        lambda: maximizing_times((40, 97, 98)),
    ):
        with pytest.raises(InvalidSpeeds, match="speed 98 is too large"):
            scan()


def test_speeds_past_int64_itself_are_refused_before_conversion():
    # np.asarray would raise OverflowError on 10^20, and np.abs would wrap
    # -2^63 to itself; the bound is checked on the raw entries first.
    for scan, top in (
        (lambda: max_loneliness((1, 10**20)), 10**20),
        (lambda: maximizing_times((1, 10**20)), 10**20),
        (lambda: _scan_rows([(1, -(2**63))]), 2**63),
        (lambda: _scan_rows(np.array([(1, -(2**63))], dtype=np.int64)), 2**63),
    ):
        with pytest.raises(InvalidSpeeds, match=f"speed {top} is too large"):
            scan()


def test_an_empty_batch_gives_no_rows():
    for rows in ([], np.empty((0, 3), dtype=np.int64)):
        got = _scan_rows(rows)
        assert got.shape == (0, 3) and got.dtype == np.int64


def test_an_array_and_rows_of_ints_give_the_same_results():
    rows = [(1, -2, 3), (-4, 5, 7), (2, 5, -10), (-3, -3, 4)]
    got = _scan_rows(rows)
    assert got.shape == (4, 3) and got.dtype == np.int64
    assert np.array_equal(_scan_rows(np.array(rows, dtype=np.int64)), got)
    assert np.array_equal(_scan_rows(np.abs(np.array(rows))), got)


# n = 3 rows up to 1000 are solved on lattices of a few points each.
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=4)
    | st.lists(st.integers(1, 1000), min_size=3, max_size=3)
    | st.sampled_from(_CROSS_TIES),
    st.booleans(),
    st.sampled_from((7, 64, 1 << 16)),
)
@settings(max_examples=60, deadline=None)
def test_maximizing_times_matches_the_oracle(row, repeat, cells):
    row = tuple(row) + (tuple(row[:1]) if repeat else ())
    speeds = tuple(s // gcd(*row) for s in row)
    with mock.patch.object(loneliness, "_GRID_CELLS", cells):
        got = maximizing_times(speeds)
    assert got == maximizing_times_reference(speeds)


def test_int64_ok_switches_at_two_max_speed_squared():
    top = isqrt(((1 << 60) - 1) // 2)
    assert 2 * top * top < 1 << 60 <= 2 * (top + 1) * (top + 1)
    assert _int64_ok(top)
    assert _int64_ok(-top)
    assert not _int64_ok(top + 1)
    assert not _int64_ok(-(top + 1))


def test_n2_closed_form_identity():
    # d of a coprime pair is 0 for even sum, else 1/(2(a+b)); the same
    # value comes back through the hyperplane normal (b, -a).
    for a in range(1, 40):
        for b in range(a, 41):
            if gcd(a, b) != 1:
                continue
            d = d_subtorus1((a, b))
            assert d == pair_distance(a, b)
            assert d == d_hyperplane((b, -a))


# --- properties -----------------------------------------------------------


@given(speed_lists)
@settings(max_examples=60)
def test_ml_bounds_and_witness(speeds):
    assume(primitive(speeds))
    res = max_loneliness(speeds)
    n = len(set(speeds))
    assert F(1, n + 1) <= res.ml <= F(1, 2)
    assert min(circle_distance(res.witness_time * s) for s in speeds) == res.ml
    assert 0 <= res.witness_time < 1


@given(speed_lists, st.integers(1, 30))
@settings(max_examples=40)
def test_ml_never_grows_with_more_speeds(speeds, extra):
    assume(primitive(speeds))
    assert max_loneliness(tuple(speeds) + (extra,)).ml <= max_loneliness(speeds).ml


@given(st.permutations([1, 4, 9]), st.tuples(*[st.sampled_from([-1, 1])] * 3))
def test_ml_invariant_under_isometries(perm, signs):
    base = max_loneliness((1, 4, 9)).ml
    assert max_loneliness(tuple(p * s for p, s in zip(perm, signs))).ml == base


@given(speed_lists)
@settings(max_examples=40)
def test_duplicates_do_not_change_ml(speeds):
    assume(primitive(speeds))
    doubled = tuple(speeds) + (speeds[0],)
    assert max_loneliness(doubled).ml == max_loneliness(speeds).ml


def test_concurrent_scans_keep_their_own_grids():
    # Every thread scans in its own scratch array, viewed as int32 or int64
    # grids; with one shared array, concurrent queries would overwrite each
    # other's grids.  n <= 3 tuples are solved on lattices, so the n = 4
    # tuples share grids: int32 ones on small pair sums, int64 ones on pair
    # sums past 46,340 or with a raw kept speed of 200,003.
    tuples = [
        (1, 2, 3),
        (9001, 9011, 9013),
        (3, 7, 199),
        (4001, 4003, 4007, 4013),
        (5003, 5009, 5011, 5021),
        (30011, 30013, 30029, 30047),
        (5003, 6007, 7001, 200003),
    ]
    dtypes = set()
    grid = loneliness._deviation_grid

    def spy(*args):
        dev = grid(*args)
        dtypes.add(dev.dtype)
        return dev

    with mock.patch.object(loneliness, "_deviation_grid", spy):
        expected = [max_loneliness(t) for t in tuples]
    assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
    results = {}

    def work(i):
        results[i] = [max_loneliness(t) for t in tuples * 5]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == expected * 5 for i in range(4))


# --- shifted variant ------------------------------------------------------


def test_d_min_max_examples():
    assert coset_center_distance((1, 2), (0, 0)) == F(1, 6)
    assert coset_center_distance((1, 3), (0, 0)) == F(0)
    assert coset_center_distance((1,), (F(1, 2),)) == F(0)
    # a zero entry freezes its coordinate: the circle x_2 = 1/3
    assert coset_center_distance((1, 0), (0, F(1, 3))) == F(1, 6)


@given(speed_lists)
@settings(max_examples=40)
def test_d_min_max_zero_shift_matches_engine(speeds):
    assume(primitive(speeds))
    zero = (F(0),) * len(speeds)
    assert coset_center_distance(speeds, zero) == d_subtorus1(speeds)


_shift_denominators = st.integers(1, 40) | st.integers(10**12 - 40, 10**12 + 40)


@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    st.sampled_from((0, 1, -1)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_coset_distance_matches_the_oracle(speeds, repeat, data):
    # Zeros and repeated speeds (also up to sign) included; the oracle
    # evaluates its own candidate superset in Fractions.
    if repeat and len(speeds) > 1:
        speeds[-1] = repeat * speeds[0]
    shift = [
        F(data.draw(st.integers(-100, 100)), data.draw(_shift_denominators))
        for _ in speeds
    ]
    got = coset_center_distance(speeds, shift, with_witness=True)
    assert got == coset_reference(speeds, shift)


def test_d_min_max_validates_input():
    with pytest.raises(ValueError, match="same positive length"):
        coset_center_distance((1, 2), (F(0),))
    with pytest.raises(InvalidSpeeds):
        d_subtorus1((2, 4))


def test_coset_scan_refuses_a_direction_past_its_candidate_bound(monkeypatch):
    # (2, 3): one candidate at t = 0, 2|v_i| per coordinate, |2 - 3| and
    # |2 + 3| for the pair.
    direction, shift = (2, 3), (F(1, 3), 0)
    work = 1 + 4 + 6 + 1 + 5
    expected = coset_reference(direction, shift)
    monkeypatch.setattr(loneliness, "_COSET_CANDIDATES", work)
    assert coset_center_distance(direction, shift, with_witness=True) == expected

    def no_scan(*args, **kwargs):
        raise AssertionError("a class was scanned past the bound")

    monkeypatch.setattr(loneliness, "_COSET_CANDIDATES", work - 1)
    monkeypatch.setattr(loneliness, "min", no_scan, raising=False)
    message = f"needs {work} candidate times, past the coset scan's bound {work - 1}"
    with pytest.raises(InvalidSpeeds, match=message):
        coset_center_distance(direction, shift)


# --- hyperplane closed form -----------------------------------------------


@pytest.mark.parametrize(
    "normal, d",
    [((2, -1), F(1, 6)), ((3, -2), F(1, 10)), ((3, -1), F(0)), ((1, 1, -1), F(1, 6))],
)
def test_d_hyperplane_values(normal, d):
    assert d_hyperplane(normal) == d


def test_d_hyperplane_rejects_bad_normals():
    for bad in ((0, 0), (2, 4), (0, 1), (3,)):
        with pytest.raises(InvalidNormal):
            d_hyperplane(bad)
