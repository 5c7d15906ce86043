"""Exact engines for maximum loneliness and line-orbit center distances.

The orbit of a speed vector v is the line {t*v mod 1}.  Its maximum
loneliness is the largest value of min_i ||t*v_i|| over t, where ||.||
is distance to the nearest integer; the L-infinity distance from the
orbit closure to the torus center is exactly 1/2 minus that maximum.

Both quantities are computed by scanning a finite candidate set of
rational times: peaks of the individual sawtooth functions sit at odd
multiples of 1/(2*v_i), and a local maximum of the pointwise minimum
that is not a peak must be a crossing of a rising branch with a falling
branch, which forces t*(v_i + v_j) to be an integer.  For n >= 2 the
peaks are redundant: a maximum at one is 1/2, so every runner is at 1/2
and t*(v_a + v_b) is in Z for every pair a < b.  On q = v_a + v_b,
j v_b = -j v_a (mod q), so runner b's column repeats runner a's and is
dropped.  A single runner keeps its peak 2 v_1.  A dense-grid oracle on
the full candidate set lives in the test suite.

One batched kernel, ``_scan_rows``, does every scan.  It takes an (m, n)
batch of same-length tuples, an int64 array or rows of ints, and returns
an (m, 3) int64 array of (a, q, k): maximum loneliness a/q, first reached
at t = k/q.  Each row gives one problem per pair, its n - 1 kept speeds
on q = v_a + v_b, and every time j/q with j <= q/2 is evaluated (the
profile is symmetric under j -> q - j) in grids of at most ``_GRID_CELLS``
cells, int32 where every cell fits and int64 otherwise.  ``_deviation_grid``
builds every grid, over a range of j, and ``_scan_problems`` keeps each
problem's first minimum.  In a batch of n >= 3, each kept speed is first
reduced mod q, folded to min(v, q - v) and sorted, which leaves
|2jv mod 2q - q| unchanged at every j; problems that then repeat, as across the permutations of a row
or rows equal mod a pair sum, are scanned once.  The tie-break is fixed: a larger value a/q wins,
and an equal value wins only at a strictly earlier time, so every result
carries the earliest maximizing time.  Tuples with 2 * max|v|^2 at or
above ``_INT64_LIMIT`` are refused with ``InvalidSpeeds`` before any
entry is converted.  A batch of one row, as every single-tuple query is,
picks its best pair by a fold in Python ints, at n <= 3 mostly solved on
plane lattices.  The reference scan it is tested against is in the tests.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    HALF,
    IntVector,
    InvalidInput,
    RationalLike,
    _int_vector,
    circle_distance,
    torus_point,
)

__all__ = [
    "InvalidNormal",
    "InvalidSpeeds",
    "LonelinessResult",
    "SpeedTuple",
    "coset_center_distance",
    "d_hyperplane",
    "d_subtorus1",
    "max_loneliness",
    "maximizing_times",
]

# The int64 kernel takes a tuple only when 2 * max|v|^2 is below this
# bound, which keeps every intermediate below 2**62.  Larger tuples are
# refused: an arbitrary-precision scan of the smallest, (1, 759250125),
# would take over ten minutes.
_INT64_LIMIT = 1 << 60

# Most candidate times one coset scan, or all of a plane's crease circles,
# may evaluate, at 1.6 to 3.3 us each for n = 2..5: past it a scan runs for
# a minute or more, so the direction or plane is refused before any scan.
_COSET_CANDIDATES = 1 << 25

# Most cells one scan grid may hold.  Every grid the kernel builds, for a
# block of tuples or for one huge tuple, is sliced to this size, so its
# scratch memory stays at a few MiB whatever the speeds.
_GRID_CELLS = 1 << 16

# Most points a single-tuple scan enumerates on one pair's lattice: a pair
# with a larger box (about 0.5% of random n = 3 pairs; (1, X, 2) holds about
# q/2 points) is scanned on the grid instead.
_LATTICE_POINTS = 256

# One scratch array per thread holds every grid the kernel builds.  With
# a grid allocated and freed per scan, the allocator could hand the freed
# pages back to the system and fault them in again on the next query;
# whether it did depended on what else the process held, and where it did,
# the point-query rate fell by a fifth, at worst by half.
_SCRATCH = threading.local()


class InvalidSpeeds(InvalidInput):
    """Speeds must be nonzero with gcd 1, and at most 759,250,124 to be scanned;
    a coset scan takes at most 2**25 candidate times, as do a plane's circles."""


class InvalidNormal(InvalidInput):
    """Hyperplane normals must be primitive and not axis-parallel."""


@dataclass(frozen=True, init=False)
class SpeedTuple:
    """Primitive nonzero integer speeds: the data of a proper line orbit.

    Signs are dropped on construction (circle distance is even), so
    ``speeds`` holds absolute values in input order.
    """

    speeds: IntVector

    def __init__(self, speeds: Iterable[int]):
        vals = _int_vector(speeds)
        if not vals:
            raise InvalidSpeeds("need at least one speed")
        if any(s == 0 for s in vals):
            raise InvalidSpeeds(f"zero speed in {vals}")
        g = gcd(*vals)
        if g != 1:
            raise InvalidSpeeds(f"speeds {vals} share the common factor {g}")
        object.__setattr__(self, "speeds", tuple(abs(s) for s in vals))


@dataclass(frozen=True)
class LonelinessResult:
    """Exact maximum loneliness with its witness time.

    ``d_value`` is the L-infinity distance from the orbit closure to the
    torus center; it always equals 1/2 - ml.
    """

    ml: Fraction
    witness_time: Fraction
    d_value: Fraction


SpeedsLike = Union[SpeedTuple, Sequence[int]]


def _as_speed_tuple(v: SpeedsLike) -> SpeedTuple:
    return v if isinstance(v, SpeedTuple) else SpeedTuple(v)


def _pair_index(n: int) -> Tuple[List[int], List[int], List[List[int]]]:
    """The candidate set: pairs a < b, each on q = v_a + v_b with every
    column but b, as columns a, b, kept; for n = 1, 2 v_1 on column 0."""
    if n == 1:
        return [0], [0], [[0]]
    a, b = (list(c) for c in zip(*itertools.combinations(range(n), 2)))
    return a, b, [[c for c in range(n) if c != y] for y in b]


def _int64_ok(top: int) -> bool:
    return 2 * top * top < _INT64_LIMIT


def _require_int64(top: int) -> None:
    """Raise ``InvalidSpeeds`` unless a speed of size ``top`` fits the kernel."""
    if not _int64_ok(top):
        raise InvalidSpeeds(
            f"speed {top} is too large for the exact scan, which needs "
            f"2*v^2 < 2^60 (|v| <= {isqrt((_INT64_LIMIT - 1) // 2):,})"
        )


def _deviation_grid(speeds: np.ndarray, q: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """max_i |(2 j v_i mod 2q) - q| for every problem row and every j0 <= j < j1.

    This is q - 2 q min_i ||j v_i / q||, so its first minimum over j is
    the first maximum of the loneliness profile on the denominator q.
    ``speeds`` is (r, n) and ``q`` is (r,); the one scratch array is
    (n, r, j1 - j0), a view of this thread's scratch, updated in place.
    The result is a view of it too, valid until the next call.  The view
    is int32 when 2 max(v, q) j1 < 2^31, which bounds every cell, and int64
    otherwise; the bound reads the speeds, as a row scanned alone or
    unmerged keeps raw speeds far above q.  On 2 vCPUs int32 cells took the
    grids of a one-worker n = 3 @ 10^4 build from 25-26 to 21.5 ms.
    """
    n, r, w = speeds.shape[1], len(q), j1 - j0
    scratch = getattr(_SCRATCH, "grid", None)
    if scratch is None or len(scratch) < n * r * w:
        scratch = _SCRATCH.grid = np.empty(max(n * r * w, _GRID_CELLS), dtype=np.int64)
    # Every cell is at most 2 v j or 2 q, so below 2^31 when this holds.
    dtype = np.int32 if 2 * max(int(speeds.max()), int(q.max())) * j1 < 1 << 31 else np.int64
    x = scratch.view(dtype)[: n * r * w].reshape(n, r, w)
    qc = q[:, None].astype(dtype)
    np.multiply((2 * speeds.T).astype(dtype)[:, :, None], np.arange(j0, j1, dtype=dtype), out=x)
    x %= 2 * qc
    x -= qc
    np.abs(x, out=x)
    for row in x[1:]:
        np.maximum(x[0], row, out=x[0])
    return x[0]


def _scan_problems(speeds: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First maximum (a, k) of the scaled minimum over j for every problem.

    Problem p is the tuple ``speeds[p]`` on the denominator ``q[p]``.  The
    profile j -> min_i ||j v_i / q|| is symmetric under j -> q - j, so its
    first maximum lies in [0, q // 2] and only that half is scanned.
    Problems are sorted by q and cut into runs that share one grid width
    and hold at most ``_GRID_CELLS`` (speed, problem, j) cells; a problem
    whose q is below the width only repeats its period there, which never
    moves its first maximum, so no mask is needed.  A run of two or more
    problems is cut to fit one grid; only a run of one problem wider than a
    grid is scanned in ascending slices of j, where a later slice's minimum
    wins only when strictly smaller, so the earliest one survives.
    """
    p = len(q)
    cells = max(1, _GRID_CELLS // speeds.shape[1])
    a = np.empty(p, dtype=np.int64)
    k = np.empty(p, dtype=np.int64)
    order = np.argsort(q, kind="stable")
    widths = (q[order] // 2 + 1).tolist()
    s = 0
    while s < p:
        e = min(p, s + max(1, cells // widths[s]))
        while e - s > 1 and (e - s) * widths[e - 1] > cells:
            e = s + max(1, cells // widths[e - 1])
        idx, width, step = order[s:e], widths[e - 1], max(1, cells // (e - s))
        sp, qq = speeds[idx], q[idx]
        dev = _deviation_grid(sp, qq, 0, min(width, step))
        kk = dev.argmin(axis=1)
        best = dev[np.arange(e - s), kk]
        for j0 in range(step, width, step):
            dev = _deviation_grid(sp, qq, j0, min(width, j0 + step))[0]
            j = int(dev.argmin())
            if dev[j] < best[0]:
                best[0], kk[0] = dev[j], j0 + j
        a[idx], k[idx] = (qq - best) // 2, kk
        s = e
    return a, k


def _lattice_times(u: int, w: int, q: int, radius: Optional[int] = None):
    """(dev, j) over a box of times j < q holding every j whose deviation
    max(|2x - q|, |2y - q|) at (x, y) = (j u, j w) mod q is at most ``radius``,
    by default the best Babai corner's; None past ``_LATTICE_POINTS`` points.

    For gcd(u, w, q) = 1, j <-> (x, y) mod qZ^2 is one to one on the lattice
    Z(u, w) + qZ^2 of determinant q, whose L-infinity closest point to
    (q/2, q/2) is the best time.  Basis vectors carry their time as a third
    entry.  With e1, e2 Lagrange-Gauss reduced and e1 x e2 = q, a point
    al e1 + be e2 within ``radius`` has |2 be q - e1 x C| <= |e1|_1 radius,
    C = (q, q), and al is bounded the same way by e2.
    """
    g = gcd(u, q)
    inv = pow(u // g, -1, q // g)
    e1, e2 = (g, inv * w % q, inv), (0, q // g, q // g * pow(w, -1, g))
    while True:
        if e2[0] ** 2 + e2[1] ** 2 < e1[0] ** 2 + e1[1] ** 2:
            e1, e2 = e2, e1
        n1 = e1[0] ** 2 + e1[1] ** 2
        mu = (2 * (e1[0] * e2[0] + e1[1] * e2[1]) + n1) // (2 * n1)
        if mu == 0:
            break
        e2 = (e2[0] - mu * e1[0], e2[1] - mu * e1[1], e2[2] - mu * e1[2])
    if e1[0] * e2[1] < e1[1] * e2[0]:
        e2 = tuple(-c for c in e2)

    def dev(al: int, be: int) -> int:
        x, y = al * e1[0] + be * e2[0], al * e1[1] + be * e2[1]
        return max(abs(2 * x - q), abs(2 * y - q))

    # (q/2, q/2) = s e1 + t e2 with 2s = C x e2 / q and 2t = e1 x C / q.
    s2, t2 = e2[1] - e2[0], e1[0] - e1[1]
    if radius is None:
        radius = min(dev(s2 // 2 + i, t2 // 2 + k) for i in (0, 1) for k in (0, 1))

    def span(c2: int, e: Tuple[int, ...]) -> range:
        r = (abs(e[0]) + abs(e[1])) * radius
        return range(-((r - q * c2) // (2 * q)), (r + q * c2) // (2 * q) + 1)

    als, bes = span(s2, e2), span(t2, e1)
    if len(als) * len(bes) > _LATTICE_POINTS:
        return None
    return [(dev(al, be), (al * e1[2] + be * e2[2]) % q) for al in als for be in bes]


def _scan_rows(rows: Union[np.ndarray, Sequence[Sequence[int]]]) -> np.ndarray:
    """Best (a, q, k) per row of an (m, n) batch of speeds, as an (m, 3) array.

    Signs are ignored.  A fold over the pairs of ``_pair_index`` keeps the
    first best: a later pair wins only with a larger a/q, or with the same
    value at a strictly earlier k/q.  Rows of n >= 3 merge problems on one
    int64 key per row and pair: q, then the reduced speeds, in base
    max(q) // 2 + 1.  A batch whose keys could pass 2^63 is scanned unmerged,
    as is n <= 2, where a sorted row is its own problem.
    """
    if len(rows) == 0:
        return np.empty((0, 3), dtype=np.int64)
    # Checked on the raw entries: np.asarray overflows past int64, np.abs wraps -2^63.
    if isinstance(rows, np.ndarray):
        lo, hi = int(rows.min()), int(rows.max())
    else:
        lo, hi = min(map(min, rows)), max(map(max, rows))
    _require_int64(max(hi, -lo))
    rows = np.abs(np.asarray(rows, dtype=np.int64))
    i, j, keep = _pair_index(rows.shape[1])
    den = rows[:, i] + rows[:, j]
    c = len(keep[0])
    if len(rows) == 1:
        # One row: a fold over its pairs in Python ints is far cheaper than
        # the array steps below.  For n <= 3 a pair's one or two kept columns
        # are solved on its lattice, for the row over its gcd g: (g a', g q', k').
        row, dens = rows[0].tolist(), den[0].tolist()
        g, found = gcd(*row), [None] * len(dens)
        for p, (cols, qq) in enumerate(zip(keep, dens) if len(row) <= 3 else ()):
            points = _lattice_times(row[cols[0]] // g, row[cols[-1]] // g, qq // g)
            if points is not None:
                d, kk = min(points)
                found[p] = ((qq - g * d) // 2, kk)
        grid = [p for p, x in enumerate(found) if x is None]
        if grid:
            a, k = _scan_problems(rows[0][keep][grid], den[0, grid])
            for p, aa, kk in zip(grid, a.tolist(), k.tolist()):
                found[p] = (aa, kk)
        ba, bq, bk = -1, 1, 0
        for (aa, kk), qq in zip(found, dens):
            if aa * bq > ba * qq or (aa * bq == ba * qq and kk * bq < bk * qq):
                ba, bq, bk = aa, qq, kk
        return np.array([(ba, bq, bk)], dtype=np.int64)
    top = int(den.max())
    radix = top // 2 + 1
    if c > 1 and (top + 1) * radix**c <= 1 << 63:
        # Key: q, then each kept speed mod q folded to min(v, q - v), sorted.
        keys = den.T.copy()
        for key, cols, q in zip(keys, keep, den.T):
            s = rows[:, cols] % q[:, None]
            for col in np.sort(np.minimum(s, q[:, None] - s), axis=1).T:
                key *= radix
                key += col
        keys, inverse = np.unique(keys, return_inverse=True)
        speeds = np.empty((len(keys), c), dtype=np.int64)
        for x in range(c - 1, -1, -1):
            keys, speeds[:, x] = np.divmod(keys, radix)
        a, k = (x[inverse].reshape(den.T.shape).T for x in _scan_problems(speeds, keys))
    else:
        a, k = _scan_problems(rows[:, keep].reshape(-1, c), den.ravel())
        a, k = a.reshape(den.shape), k.reshape(den.shape)
    ba, bq, bk = a[:, 0], den[:, 0], k[:, 0]
    for y in range(1, den.shape[1]):
        ay, qy, ky = a[:, y], den[:, y], k[:, y]
        left, right = ay * bq, ba * qy
        win = (left > right) | ((left == right) & (ky * bq < bk * qy))
        ba, bq, bk = np.where(win, ay, ba), np.where(win, qy, bq), np.where(win, ky, bk)
    return np.stack([ba, bq, bk], axis=1)


def max_loneliness(v: SpeedsLike) -> LonelinessResult:
    """Exact maximum over t of min_i ||t * v_i||, with its earliest witness.

    The witness time is the smallest maximizing candidate in [0, 1).
    """
    st = _as_speed_tuple(v)
    a, q, k = _scan_rows([st.speeds])[0].tolist()
    ml = Fraction(a, q)
    return LonelinessResult(ml=ml, witness_time=Fraction(k, q), d_value=HALF - ml)


def d_subtorus1(v: SpeedsLike) -> Fraction:
    """Center distance of the line subtorus with direction v: 1/2 - ml."""
    return max_loneliness(v).d_value


def maximizing_times(v: SpeedsLike) -> Tuple[Fraction, ...]:
    """All candidate times attaining the maximum loneliness, ascending.

    Each pair's q is scanned once, on its kept columns, if B divides 2q
    for the maximum A/B in lowest terms: a hit at j/q has (q - dev) B = 2qA,
    so dev = q - 2qA/B.  For n <= 3 the lattice box of that radius is read;
    otherwise the grid covers j <= q/2 and each hit j adds q - j too, as
    dev(j) = dev(q - j).
    """
    speeds = _as_speed_tuple(v).speeds
    bn, bd, _ = _scan_rows([speeds])[0].tolist()
    arr = np.array(speeds, dtype=np.int64)
    i, j, keep = _pair_index(len(speeds))
    step = max(1, _GRID_CELLS // len(keep[0]))
    pairs = zip((arr[i] + arr[j]).tolist(), keep)
    times = set()
    for q, cols in {q: cols for q, cols in pairs if 2 * q * bn % bd == 0}.items():
        hit = q - 2 * q * bn // bd
        if len(speeds) <= 3:
            points = _lattice_times(speeds[cols[0]], speeds[cols[-1]], q, hit)
            if points is not None:
                times.update(Fraction(t, q) for d, t in points if d == hit)
                continue
        width, q_arr = q // 2 + 1, np.array([q], dtype=np.int64)
        for j0 in range(0, width, step):
            dev = _deviation_grid(arr[None, cols], q_arr, j0, min(width, j0 + step))
            for h in (np.flatnonzero(dev[0] == hit) + j0).tolist():
                times.update((Fraction(h, q), Fraction(-h % q, q)))
    return tuple(sorted(times))


def d_hyperplane(normal: Sequence[int]) -> Fraction:
    """Center distance of the codimension-1 subgroup {x : normal . x in Z}.

    Closed form: the circle distance of (sum of entries)/2, divided by the
    l1 norm of the normal.  Axis-parallel normals are rejected because the
    subgroup they cut out is contained in a coordinate hyperplane.
    """
    vec = _int_vector(normal)
    if not vec or all(c == 0 for c in vec):
        raise InvalidNormal("zero normal")
    if gcd(*vec) != 1:
        raise InvalidNormal(f"normal {vec} is not primitive")
    if sum(1 for c in vec if c != 0) == 1:
        raise InvalidNormal(f"normal {vec} is axis-parallel")
    return circle_distance(Fraction(sum(vec), 2)) / sum(abs(c) for c in vec)


def _creases(cols: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """2 x_i for every column x_i, then x_i - x_j and x_i + x_j for i < j."""
    out = [(2 * a, 2 * b) for a, b in cols]
    for (ai, bi), (aj, bj) in itertools.combinations(cols, 2):
        out += [(ai - aj, bi - bj), (ai + aj, bi + bj)]
    return out


def _coset_candidates(direction: Sequence[int]) -> int:
    """Candidate times a coset scan of ``direction`` evaluates, whatever the shift:
    1 + sum |e| over its ``_creases``, which is 1 + 2 sum_k k a_k over the |v_i|
    sorted ascending (k from 1), as |a - b| + |a + b| = 2 max(|a|, |b|)."""
    return 1 + 2 * sum(k * a for k, a in enumerate(sorted(map(abs, direction)), 1))


def _require_candidates(work: int, what: str, error: type) -> None:
    """Raise ``error`` before any scan if ``what`` needs more than ``_COSET_CANDIDATES``."""
    if work > _COSET_CANDIDATES:
        bound = f"past the coset scan's bound {_COSET_CANDIDATES}"
        raise error(f"{what} needs {work} candidate times, {bound}")


def coset_center_distance(
    direction: Sequence[int],
    shift: Sequence[RationalLike],
    with_witness: bool = False,
):
    """Exact min over t of the center distance of the coset t*direction + shift.

    Zero entries in ``direction`` are allowed; those coordinates are frozen
    at their shift value and contribute a constant term.  ``d_subtorus2``
    needs them: on a plane's crease circle, a coordinate whose (u_i, v_i)
    is parallel to the crease line stays constant.

    With the shift written as c_i/D over its common denominator, every
    vertex of t -> max_i ||t v_i + s_i - 1/2|| in [0, 1) lies in one of
    these classes of times j/q, j = r mod D: t = 0 (q = D), the
    half-integer crossings of each coordinate (q = 2D|v_i|) and the pair
    crossings (q = D|v_i - v_j| and q = D|v_i + v_j|).  At t = j/q,
    2q ||t v_i + s_i - 1/2|| = |(2 j v_i + 2 q s_i) mod 2q - q|, the
    kernel's grid with an integer offset per speed, so the whole scan is
    in Python ints.  The witness is the earliest minimizing time.  Class
    (e, u) holds |e| candidates; a direction whose classes hold more than
    ``_COSET_CANDIDATES`` in all raises ``InvalidSpeeds`` before the scan.
    """
    vec = _int_vector(direction)
    pt = torus_point(shift)
    if len(pt) != len(vec) or not vec:
        raise InvalidInput("direction and shift must have the same positive length")
    _require_candidates(_coset_candidates(vec), f"direction {vec}", InvalidSpeeds)
    den = lcm(*(s.denominator for s in pt))
    num = [s.numerator * (den // s.denominator) for s in pt]
    # Class (e, u) holds the times (u + c*D) / (D*e) for every integer c.
    classes = [(1, 0)] + _creases([(v, -c) for v, c in zip(vec, num)])
    bd, bq, bj = 1, 1, 0  # 1/2 at t = 0: no value is larger
    for e, u in classes:
        if e == 0:
            continue
        q = den * abs(e)
        terms = [(2 * v, 2 * abs(e) * c) for v, c in zip(vec, num)]

        def dev(j: int) -> int:
            return max(abs((a * j + b) % (2 * q) - q) for a, b in terms)

        j = min(range((u if e > 0 else -u) % den, q, den), key=dev)
        d = dev(j)
        if d * bq < bd * q or (d * bq == bd * q and j * bq < bj * q):
            bd, bq, bj = d, q, j
    best = Fraction(bd, 2 * bq)
    if with_witness:
        return best, Fraction(bj, bq)
    return best
