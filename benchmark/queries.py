"""Seeded point queries and their exact self-checks.

Every generator draws only from the ``random.Random`` it is given, so one
seed gives one query list.  Every check recomputes the claim in
``Fraction`` arithmetic with code of its own; none calls the package.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from math import floor, gcd, lcm
from typing import Callable, Dict, List, Sequence, Tuple

from runnerspec.lattice import d_subtorus2, kronecker_lift
from runnerspec.loneliness import coset_center_distance, max_loneliness
from runnerspec.subgroups import FiniteCyclicSubgroup, d_finite_cyclic

HALF = Fraction(1, 2)

# Span name of each query kind: the public function it calls.
SPAN = {
    "ml": "loneliness.max_loneliness",
    "coset": "loneliness.coset_center_distance",
    "lift": "lattice.kronecker_lift",
    "subtorus2": "lattice.d_subtorus2",
    "cyclic": "subgroups.d_finite_cyclic",
}

Query = Tuple[str, tuple]


def _primitive(rng: random.Random, n: int, lo: int, hi: int) -> Tuple[int, ...]:
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if gcd(*v) == 1:
            return v


def _shift(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    out = []
    for _ in range(n):
        q = rng.randint(2, 30)
        out.append(Fraction(rng.randrange(q), q))
    return tuple(out)


def _independent_pair(rng: random.Random, n: int, m: int):
    while True:
        u = tuple(rng.randint(-m, m) for _ in range(n))
        v = tuple(rng.randint(-m, m) for _ in range(n))
        if any(u[i] * v[j] != u[j] * v[i] for i in range(n) for j in range(i + 1, n)):
            return u, v


# Distinct speeds the large ML tuples are drawn from.
LARGE_BASE = 12


def make_queries(rng: random.Random, counts: Dict[str, int]) -> List[Query]:
    """A shuffled, stratified mix: a fixed count of each kind and size class.

    ``ml_tiny`` is per dimension n = 2..4 with speeds up to 60, where
    several times often tie for the maximum, so the earliest-witness rule
    matters; ``ml_small`` is per dimension n = 3..6 with speeds up to 3000;
    ``ml_large`` are n = 3 tuples drawn from ``LARGE_BASE`` seeded speeds
    in [90000, 100000].  The large tuples share their candidate
    denominators 2*v_i and v_i + v_j, so the kernel's scratch cache holds
    at most 78 arrays however many of them a pass sends, and each one
    costs about as much as the next.  They make most of a pass's time:
    their large numpy scans slow down far less than interpreted code when
    the machine is busy, which keeps the pass time steady.
    ``subtorus2`` alternates n = 3 planes with entries in [-1, 1] and
    n = 2 planes with entries in [-6, 6]: wider n = 3 entries put seconds
    into single queries and make the mix depend on the seed.
    """
    out: List[Query] = []
    for n in range(2, 5):
        out += [("ml", (_primitive(rng, n, 1, 60),)) for _ in range(counts["ml_tiny"])]
    for n in range(3, 7):
        out += [("ml", (_primitive(rng, n, 1, 3000),)) for _ in range(counts["ml_small"])]
    base = rng.sample(range(90000, 100001), LARGE_BASE)
    for _ in range(counts["ml_large"]):
        v = (0, 0, 0)
        while gcd(*v) != 1:
            v = tuple(rng.sample(base, 3))
        out.append(("ml", (v,)))
    for _ in range(counts["coset"]):
        direction = (0, 0, 0)
        while not any(direction):
            direction = tuple(rng.randint(-20, 20) for _ in range(3))
        out.append(("coset", (direction, _shift(rng, 3))))
    for _ in range(counts["lift"]):
        v = _primitive(rng, rng.choice((3, 4)), 1, 200)
        out.append(("lift", (v, Fraction(1, rng.randint(10, 40)))))
    for i in range(counts["subtorus2"]):
        out.append(("subtorus2", _independent_pair(rng, 3, 1) if i % 2 else _independent_pair(rng, 2, 6)))
    for _ in range(counts["cyclic"]):
        q = rng.randint(100, 1000)
        out.append(("cyclic", (tuple(Fraction(rng.randrange(q), q) for _ in range(3)),)))
    rng.shuffle(out)
    return out


def _coset(direction, shift):
    return coset_center_distance(direction, shift, with_witness=True)


def _cyclic(generator):
    return d_finite_cyclic(FiniteCyclicSubgroup(generator))


CALL: Dict[str, Callable] = {
    "ml": max_loneliness,
    "coset": _coset,
    "lift": kronecker_lift,
    "subtorus2": d_subtorus2,
    "cyclic": _cyclic,
}


def _dist(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer."""
    f = x - floor(x)
    return min(f, 1 - f)


# Largest candidate grid (see grid_cells) that check_query scans in full.
FULL_CHECK_CELLS = 20_000


def _ml_is_earliest_max(v: Sequence[int], ml: Fraction, witness: Fraction) -> bool:
    """Every candidate time j/q scores at most ``ml``, and none before the
    witness reaches it.  Maximizers of min_i ||t v_i|| sit at sawtooth peaks
    (q = 2 v_i) or branch crossings (q = v_i + v_j), so this proves both
    the value and the earliest-witness rule."""
    a, b = ml.numerator, ml.denominator
    for q in {2 * x for x in v} | {x + y for i, x in enumerate(v) for y in v[i + 1 :]}:
        for j in range(q):
            m = min(min(j * x % q, q - j * x % q) for x in v)
            if m * b > a * q or (m * b == a * q and Fraction(j, q) < witness):
                return False
    return True


def check_query(kind: str, args: tuple, result) -> bool:
    """Exact check of one answer; it recomputes, never trusts, the value."""
    if kind == "ml":
        (v,) = args
        t = result.witness_time
        return (
            0 <= t < 1
            and min(_dist(t * x) for x in v) == result.ml
            and result.d_value == HALF - result.ml
            and (grid_cells(v) > FULL_CHECK_CELLS or _ml_is_earliest_max(v, result.ml, t))
        )
    if kind == "coset":
        direction, shift = args
        best, t = result
        return max(_dist(t * d + s - HALF) for d, s in zip(direction, shift)) == best
    if kind == "lift":
        v, eps = args
        return result.inner_direction == tuple(v) and result.guaranteed == (
            result.delta_sq <= eps * eps
        )
    if kind == "subtorus2":
        u, v = args
        grid = [Fraction(k, 7) for k in range(7)]
        upper = min(
            max(_dist(a * ui + b * vi - HALF) for ui, vi in zip(u, v))
            for a in grid
            for b in grid
        )
        return 0 <= result <= upper
    if kind == "cyclic":
        (g,) = args
        q = lcm(*(c.denominator for c in g))
        best = min(max(_dist(k * c - HALF) for c in g) for k in range(q))
        return result == best
    raise ValueError(f"unknown query kind {kind!r}")


def render(kind: str, result) -> str:
    """Canonical text of an answer, for the results digest."""
    if kind == "ml":
        return f"{result.ml}@{result.witness_time}"
    if kind == "coset":
        return f"{result[0]}@{result[1]}"
    if kind == "lift":
        return f"{result.delta_sq}|{result.guaranteed}|{list(result.shortest_offset)}"
    return str(result)


def grid_cells(v: Sequence[int]) -> int:
    """Cells of the dense candidate grid: sum of q * n over the denominators
    2*v_i and v_i + v_j that the maximum-loneliness scan must cover."""
    n = len(v)
    qs = {2 * x for x in v}
    qs.update(v[i] + v[j] for i in range(n) for j in range(i + 1, n))
    return n * sum(qs)


# ---------------------------------------------------------------------------
# Report arguments and checks for a built table.


def make_reports(rng: random.Random):
    """Four accumulation targets in [0, 1/4] with one window, and one
    multiplicity threshold."""
    targets = [Fraction(rng.randint(0, 2500), 10000) for _ in range(4)]
    return (targets, Fraction(1, rng.randint(20, 500))), rng.randint(1, 60)


def check_accumulation(table, targets, window, rows) -> bool:
    """Counts from bisection over the sorted keys, not a scan."""
    keys = sorted(table.entries)
    if len(rows) != len(targets):
        return False
    for x, row in zip(targets, rows):
        above = bisect.bisect_left(keys, x + window) - bisect.bisect_right(keys, x)
        below = keys[bisect.bisect_right(keys, x - window) : bisect.bisect_left(keys, x)]
        if (row.target, row.above_count, row.below_count, list(row.below_keys)) != (
            x, above, len(below), below
        ):
            return False
    return True


def check_multiplicity(table, threshold, rows) -> bool:
    want = sorted(
        ((k, e.multiplicity) for k, e in table.entries.items() if e.multiplicity >= threshold),
        key=lambda r: (-r[1], -r[0]),
    )
    return [(r.key, r.multiplicity) for r in rows] == want
