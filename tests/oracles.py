"""Independent oracles used to compute expected values for the tests.

Everything here is deliberately naive: dense grids, box enumerations,
and closed-form counting arguments that share no code with the package
internals.  Slow is fine; wrong is not.
"""

import itertools
from decimal import Decimal
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

GRID_LIMIT = 200_000_000


def _grid_denominator(speeds: Sequence[int]) -> int:
    dens = {2 * v for v in speeds}
    for i, a in enumerate(speeds):
        for b in speeds[i + 1 :]:
            dens.add(a + b)
            if a != b:
                dens.add(abs(a - b))
    return lcm(*dens)


def grid_ml(speeds: Sequence[int]) -> Fraction:
    """Exact maximum loneliness by evaluating every t = j/M.

    M is the least common multiple of all candidate denominators, so the
    grid contains every breakpoint of the piecewise-linear profile; the
    maximum over the grid is the true maximum.  Only usable for small
    speeds (M explodes quickly).
    """
    M = _grid_denominator(speeds)
    if M > GRID_LIMIT:
        raise ValueError(f"grid of size {M} is too large for the exact oracle")
    best = 0
    chunk = 8_000_000
    for start in range(0, M, chunk):
        j = np.arange(start, min(start + chunk, M), dtype=np.int64)
        dmin = None
        for v in speeds:
            r = (j * v) % M
            np.minimum(r, M - r, out=r)
            dmin = r if dmin is None else np.minimum(dmin, r, out=dmin)
        m = int(dmin.max())
        if m > best:
            best = m
    return Fraction(best, M)


def grid_ml_witness(speeds: Sequence[int]) -> Tuple[Fraction, Fraction]:
    """(ml, earliest maximizing t) from the same exhaustive grid."""
    M = _grid_denominator(speeds)
    if M > GRID_LIMIT:
        raise ValueError(f"grid of size {M} is too large for the exact oracle")
    best = -1
    best_j = 0
    for j in range(M):
        worst = M
        for v in speeds:
            r = (j * v) % M
            r = min(r, M - r)
            if r < worst:
                worst = r
        if worst > best:
            best = worst
            best_j = j
    return Fraction(best, M), Fraction(best_j, M)


def _candidate_denominators(speeds: Sequence[int]) -> List[int]:
    """Peak denominators 2 v_i and crossing denominators v_i + v_j, ascending."""
    dens = {2 * v for v in speeds}
    for i, a in enumerate(speeds):
        for b in speeds[i + 1 :]:
            dens.add(a + b)
    return sorted(dens)


def _candidate_value(speeds: Sequence[int], j: int, q: int) -> int:
    """q times min_i ||j v_i / q||, in integers."""
    return min(min((j * v) % q, q - (j * v) % q) for v in speeds)


def _scan_best_python(speeds: Sequence[int]) -> Tuple[int, int, int, int]:
    """Arbitrary-precision scan of every candidate time j/q, j < q.

    Returns (a, q, tn, td): the largest min_i ||t v_i|| over the candidates
    is a/q, first attained at t = tn/td.  Denominators are taken in
    ascending order, and a later one wins only with a larger value or an
    equal value at a strictly earlier time.
    """
    bn, bd, btn, btd = -1, 1, 0, 1
    for q in _candidate_denominators([abs(v) for v in speeds]):
        a, k = max((_candidate_value(speeds, j, q), -j) for j in range(q))
        k = -k
        if a * bd > bn * q or (a * bd == bn * q and k * btd < btn * q):
            bn, bd, btn, btd = a, q, k, q
    return bn, bd, btn, btd


def class_representative(speeds: Sequence[int], q: int) -> Tuple[int, ...]:
    """The least sorted fold(u s mod q), each entry folded to min(x, q - x),
    over every unit u mod q.

    Multiplying every speed by a unit permutes the times j/q, so every
    problem (speeds, q) with the same representative has the same maximum
    of min_i ||j s_i / q|| over j.
    """
    return min(
        tuple(sorted(min(u * s % q, -u * s % q) for s in speeds))
        for u in range(1, q)
        if gcd(u, q) == 1
    )


def maximizing_times_reference(speeds: Sequence[int]) -> Tuple[Fraction, ...]:
    """Every candidate time j/q in [0, 1) attaining the largest value, ascending."""
    values = {
        Fraction(j, q): Fraction(_candidate_value(speeds, j, q), q)
        for q in _candidate_denominators(speeds)
        for j in range(q)
    }
    best = max(values.values())
    return tuple(sorted(t for t, val in values.items() if val == best))


def scan_reference_numpy(speeds: Sequence[int]) -> Tuple[Tuple[int, int, int], Tuple[Fraction, ...]]:
    """``_scan_best_python`` and ``maximizing_times_reference`` in numpy, for
    speeds too large to scan in Python: (a, q, k), the maximum a/q first
    reached at k/q, and every candidate time attaining it, ascending.

    Every candidate denominator is scanned over all j < q and every
    column, a chunk of j at a time, with j v mod q in int64 (j v < 2^63 for
    speeds below 2^31).  Denominators are taken in ascending order with the
    same tie rule as the Python scan.
    """
    speeds = [abs(v) for v in speeds]
    found = []
    for q in _candidate_denominators(speeds):
        best, hits = -1, []
        for j0 in range(0, q, 1 << 20):
            j = np.arange(j0, min(q, j0 + (1 << 20)), dtype=np.int64)
            worst = np.full(len(j), q, dtype=np.int64)
            for v in speeds:
                r = j * v % q
                np.minimum(worst, np.minimum(r, q - r), out=worst)
            top = int(worst.max())
            if top > best:
                best, hits = top, []
            if top == best:
                hits += (np.flatnonzero(worst == top) + j0).tolist()
        found.append((best, q, hits))
    bn, bd, bk = -1, 1, 0
    for a, q, hits in found:
        if a * bd > bn * q or (a * bd == bn * q and hits[0] * bd < bk * q):
            bn, bd, bk = a, q, hits[0]
    times = {Fraction(j, q) for a, q, hits in found if a * bd == bn * q for j in hits}
    return (bn, bd, bk), tuple(sorted(times))


def ml_interval(speeds: Sequence[int], points: int = 10**6) -> Tuple[Fraction, Fraction]:
    """[lower, upper] enclosure of ml from a uniform grid of arbitrary size.

    The profile is Lipschitz with constant max(speeds), so the true
    maximum exceeds the grid maximum by at most L/(2*points).
    """
    M = points
    best = 0
    chunk = 8_000_000
    for start in range(0, M, chunk):
        j = np.arange(start, min(start + chunk, M), dtype=np.int64)
        dmin = None
        for v in speeds:
            r = (j * v) % M
            np.minimum(r, M - r, out=r)
            dmin = r if dmin is None else np.minimum(dmin, r, out=dmin)
        m = int(dmin.max())
        if m > best:
            best = m
    lo = Fraction(best, M)
    return lo, lo + Fraction(max(speeds), 2 * M)


def coset_distance_check(
    direction: Sequence[int],
    shift: Sequence[Fraction],
    claimed: Fraction,
    witness: Fraction,
) -> bool:
    """Certify a claimed coset center distance.

    The witness pins the distance from above (exact evaluation); a grid
    through the witness denominator plus the Lipschitz bound pins it from
    below within slack; the claim must sit at the grid minimum.
    """

    def linf(t: Fraction) -> Fraction:
        worst = Fraction(0)
        for v, s in zip(direction, shift):
            x = (v * t + s) % 1
            d = abs(x - Fraction(1, 2))
            if d > worst:
                worst = d
        return worst

    if linf(witness) != claimed:
        return False
    den = witness.denominator
    M = den * max(1, 200_000 // den)
    grid_min = min(linf(Fraction(j, M)) for j in range(M))
    L = max(abs(v) for v in direction)
    slack = Fraction(L, 2 * M)
    return claimed == grid_min or (grid_min - slack <= claimed <= grid_min)


def coset_reference(
    direction: Sequence[int], shift: Sequence[Fraction]
) -> Tuple[Fraction, Fraction]:
    """(min over t of max_i ||t v_i + s_i - 1/2||, earliest minimizing t).

    Evaluates, in Fractions, a generous superset of the profile's
    vertices in [0, 1): t = 0, every half-integer crossing of each
    coordinate and every pairwise branch crossing, for both the sum and
    difference denominators.
    """
    items = [(int(v), Fraction(s) % 1) for v, s in zip(direction, shift)]
    cands = {Fraction(0)}
    for v, s in items:
        if v == 0:
            continue
        lo, hi = (s, s + v) if v > 0 else (s + v, s)
        for m in range(floor(2 * lo) - 1, ceil(2 * hi) + 2):
            t = (Fraction(m, 2) - s) / v
            if 0 <= t < 1:
                cands.add(t)
    for i, (vi, si) in enumerate(items):
        for vj, sj in items[i + 1 :]:
            for den, off in ((vi - vj, sj - si), (vi + vj, 1 - si - sj)):
                if den == 0:
                    continue
                lo, hi = sorted((-off, den - off))
                for c in range(floor(lo) - 1, ceil(hi) + 2):
                    t = (off + c) / den
                    if 0 <= t < 1:
                        cands.add(t)

    def value(t: Fraction) -> Fraction:
        return max(abs((t * v + s) % 1 - Fraction(1, 2)) for v, s in items)

    best_t = min(sorted(cands), key=value)
    return value(best_t), best_t


def _det3(r1, r2, r3):
    return (
        r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
        - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
        + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
    )


def _min_max_lp(u: Sequence[int], v: Sequence[int], offsets: Sequence[int]) -> Fraction:
    """min d s.t. |alpha*u_i + beta*v_i - m_i - 1/2| <= d on the unit square.

    Enumerates every basic point (triple of active constraints) by
    Cramer's rule in Fractions and keeps the best feasible one.
    """
    cons = []
    for ui, vi, mi in zip(u, v, offsets):
        rhs = Fraction(2 * mi + 1, 2)
        cons.append((ui, vi, -1, rhs))
        cons.append((-ui, -vi, -1, -rhs))
    cons += [(1, 0, 0, Fraction(1)), (-1, 0, 0, Fraction(0))]
    cons += [(0, 1, 0, Fraction(1)), (0, -1, 0, Fraction(0))]
    best = None
    for c1, c2, c3 in itertools.combinations(cons, 3):
        det = _det3(c1, c2, c3)
        if det == 0:
            continue
        cols = [[c[0], c[1], c[2]] for c in (c1, c2, c3)]
        sol = []
        for k in range(3):
            swapped = [row[:k] + [c[3]] + row[k + 1 :] for row, c in zip(cols, (c1, c2, c3))]
            sol.append(_det3(*swapped) / det)
        alpha, beta, dval = sol
        if best is not None and dval >= best:
            continue
        if all(a * alpha + b * beta + c * dval <= rhs for a, b, c, rhs in cons):
            best = dval
    assert best is not None
    return best


def subtorus2_reference(u: Sequence[int], v: Sequence[int]) -> Fraction:
    """Center distance of the plane closure of {alpha*u + beta*v mod 1}.

    Branch and bound over integer offset vectors m (m_i within the range
    of alpha*u_i + beta*v_i on the unit square, widened by one): each
    offset vector is a small linear program, solved exactly, and an
    offset is pruned by its lower bound against the best value so far,
    starting from a coarse-grid incumbent.
    """
    half = Fraction(1, 2)
    grid = [Fraction(k, 4) for k in range(5)]
    best = min(
        max(abs((al * ui + be * vi) % 1 - half) for ui, vi in zip(u, v))
        for al in grid
        for be in grid
    )
    options = []
    for ui, vi in zip(u, v):
        corners = (0, ui, vi, ui + vi)
        cmin, cmax = min(corners), max(corners)
        opts = []
        for m in range(cmin - 1, cmax + 1):
            center = Fraction(2 * m + 1, 2)
            opts.append((m, max(cmin - center, center - cmax, Fraction(0))))
        opts.sort(key=lambda t: t[1])
        options.append(opts)

    def descend(idx: int, cur_lb: Fraction, chosen: Tuple[int, ...]) -> None:
        nonlocal best
        if cur_lb >= best:
            return
        if idx == len(u):
            best = min(best, _min_max_lp(u, v, chosen))
            return
        for m, lb in options[idx]:
            nl = max(lb, cur_lb)
            if nl >= best:
                break
            descend(idx + 1, nl, chosen + (m,))

    descend(0, Fraction(0), ())
    return best


def brute_shortest_projected(v: Sequence[int]) -> Fraction:
    """Smallest positive squared projection onto the complement of v.

    Two passes: a small box finds an incumbent; the incumbent bounds the
    length of any better canonical representative (|x|^2 <= p^2 + N/4
    after reduction along v), which gives a complete second box.
    """
    n = len(v)
    N = sum(c * c for c in v)

    def proj_sq(x: Tuple[int, ...]) -> Fraction:
        d = sum(a * b for a, b in zip(x, v))
        return Fraction(N * sum(a * a for a in x) - d * d, N)

    def scan(bound: int, incumbent) -> Fraction:
        best = incumbent
        ranges = [range(-bound, bound + 1)] * n
        for x in itertools.product(*ranges):
            p = proj_sq(x)
            if p > 0 and (best is None or p < best):
                best = p
        return best

    incumbent = scan(2, None)
    assert incumbent is not None
    limit = isqrt(int(incumbent + Fraction(N, 4))) + 1
    return scan(limit, incumbent)


def _mobius(d: int) -> int:
    if d == 1:
        return 1
    result = 1
    x = d
    p = 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            result = -result
        p += 1
    if x > 1:
        result = -result
    return result


def count_sorted_tuples(n: int, max_volume_sq: int) -> int:
    """Number of 1 <= v1 <= ... <= vn with squared sum bounded, gcd free."""

    def rec(slots: int, lo: int, budget: int) -> int:
        if slots == 0:
            return 1
        if slots == 1:
            hi = isqrt(budget)
            return hi - lo + 1 if hi >= lo else 0
        total = 0
        hi = isqrt(budget // slots)
        for x in range(lo, hi + 1):
            total += rec(slots - 1, x, budget - x * x)
        return total

    return rec(n, 1, max_volume_sq)


def mobius_primitive_count(n: int, max_volume_sq: int) -> int:
    """Primitive sorted tuple count via inclusion-exclusion over gcds."""
    total = 0
    d = 1
    while d * d * n <= max_volume_sq:
        mu = _mobius(d)
        if mu:
            total += mu * count_sorted_tuples(n, max_volume_sq // (d * d))
        d += 1
    return total


def s2_truncation(max_volume_sq: int) -> int:
    """Largest s whose key 1/(4s+2) is achievable within the volume bound.

    The smallest-volume pair with distance 1/(4s+2) sums to 2s+1 with the
    two entries as equal as possible: (s, s+1), always coprime, with
    squared volume 2s^2 + 2s + 1.
    """
    s = 0
    while 2 * (s + 1) * (s + 1) + 2 * (s + 1) + 1 <= max_volume_sq:
        s += 1
    return s


def s2_expected_keys(max_volume_sq: int) -> set:
    return {Fraction(0)} | {
        Fraction(1, 4 * s + 2) for s in range(1, s2_truncation(max_volume_sq) + 1)
    }


def pair_distance(a: int, b: int) -> Fraction:
    """Center distance of a coprime pair: 0 when a+b is even, else half
    the reciprocal of the sum."""
    assert gcd(a, b) == 1
    if (a + b) % 2 == 0:
        return Fraction(0)
    return Fraction(1, 2 * (a + b))


def naive_cyclic_distance(coords: Sequence[Fraction]) -> Fraction:
    """Min over all multiples of the max coordinate distance to 1/2,
    computed entirely with Fraction arithmetic."""
    pts = [Fraction(c) % 1 for c in coords]
    dens = [c.denominator for c in pts]
    order = lcm(*dens)
    best = None
    for k in range(order):
        worst = max(abs((k * c) % 1 - Fraction(1, 2)) for c in pts)
        if best is None or worst < best:
            best = worst
    return best


def _volume_key(t: Sequence[int]):
    return (sum(x * x for x in t), tuple(t))


def canonical_block(n: int, max_volume_sq: int, v1: int) -> List[Tuple[int, ...]]:
    """Canonical tuples (sorted, positive, primitive, squared sum in bound,
    first entry v1) in lexicographic order, by filtering every sorted tuple
    of entries up to sqrt(max_volume_sq - v1^2)."""
    hi = isqrt(max(max_volume_sq - v1 * v1, 0))
    return [
        t
        for t in ((v1, *rest) for rest in itertools.combinations_with_replacement(range(v1, hi + 1), n - 1))
        if sum(x * x for x in t) <= max_volume_sq and gcd(*t) == 1
    ]


def block_reference(n: int, max_volume_sq: int, v1: int) -> List[Tuple[str, int, List[List[int]]]]:
    """One leading-coordinate block's result, assembled the plain way.

    The block's canonical tuples (``canonical_block``) are each scanned by
    the arbitrary-precision reference, and grouped in a dict by their
    maximum loneliness: one Fraction per distinct value, rows in order of
    first appearance, each group's witnesses sorted by (squared volume,
    tuple) and capped at 8.
    """
    groups: Dict[Fraction, List[Tuple[int, ...]]] = {}
    for t in canonical_block(n, max_volume_sq, v1):
        a, q, _, _ = _scan_best_python(t)
        groups.setdefault(Fraction(a, q), []).append(t)
    out = []
    for ml, wits in groups.items():
        best = sorted(wits, key=_volume_key)[:8]
        out.append((str(Fraction(1, 2) - ml), len(wits), [list(w) for w in best]))
    return out


def _rational_text(x: Fraction) -> str:
    """"p/q", or "p" when q = 1, with digits from ``Decimal``, which has
    no digit limit."""
    text = str(Decimal(x.numerator))
    return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


def flat_reference(table) -> str:
    """A table's TSV text the plain way: per key, descending, the key and
    ml = 1/2 - key in ``Fraction``s, each written out and as ``float`` to
    12 significant digits, then the multiplicity."""
    lines = ["d\td_approx\tml\tml_approx\tmultiplicity"]
    for key in sorted(table.entries, reverse=True):
        ml = Fraction(1, 2) - key
        cells = (_rational_text(key), f"{float(key):.12g}", _rational_text(ml), f"{float(ml):.12g}")
        lines.append("\t".join(cells) + f"\t{table.entries[key].multiplicity}")
    return "\n".join(lines) + "\n"


def fold_reference(blocks: Sequence[Tuple[np.ndarray, ...]], cap: int) -> Tuple[np.ndarray, ...]:
    """Block results (a, q, mult, wits, key) merged by value the way block
    folds were first written: ``np.unique`` on a * span + q, ``np.add.at``
    for the multiplicities, then one lexsort on (value, squared volume,
    tuple), so that rows' input order never matters; each value keeps its
    ``cap`` least witnesses."""
    a, q, mult, wits, key = map(np.concatenate, zip(*blocks))
    key += np.repeat(np.cumsum([0, *(len(b[0]) for b in blocks[:-1])]), [len(b[4]) for b in blocks])
    span = int(q.max(initial=0)) + 1
    values, value = np.unique(a * span + q, return_inverse=True)
    total = np.zeros(len(values), dtype=np.int64)
    np.add.at(total, value, mult)
    key = value[key]
    rows = np.lexsort((*wits.T[::-1], (wits * wits).sum(axis=1), key))
    rows = rows[np.arange(len(rows)) - np.searchsorted(key[rows], key[rows]) < cap]
    return values // span, values % span, total, wits[rows], key[rows]
