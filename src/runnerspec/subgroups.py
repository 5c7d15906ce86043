"""Finite cyclic subgroups of the torus and deep witnesses of line orbits.

The center distance of the cyclic subgroup generated by a rational point,
such as the one generated by (12/25, 9/25), is one problem on the ML
kernel's grid.  A deep witness is an orbit point at the maximum
loneliness with the most coordinates pinned at the extreme value.
Cosets of a line are measured by ``loneliness.coset_center_distance``,
and orbit closures inside planes by ``d_subtorus2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Tuple

import numpy as np

from .core import (
    HALF,
    InvalidInput,
    RationalLike,
    TorusPoint,
    circle_distance,
    torus_point,
)
from .loneliness import (
    SpeedsLike,
    _as_speed_tuple,
    _int64_ok,
    _scan_problems,
    maximizing_times,
)

__all__ = [
    "CenterReached",
    "FiniteCyclicSubgroup",
    "SubgroupTooLarge",
    "d_finite_cyclic",
    "deep_witness",
]


class CenterReached(InvalidInput):
    """Deep witnesses exist only when the orbit misses the center."""


class SubgroupTooLarge(InvalidInput):
    """A cyclic order past the exact scan's int64 bound (above 759,250,124)."""


@dataclass(frozen=True, init=False)
class FiniteCyclicSubgroup:
    """The cyclic subgroup generated by one rational torus point."""

    generator: TorusPoint
    order: int

    def __init__(self, generator: Iterable[RationalLike]):
        pt = torus_point(generator)
        if not pt:
            raise InvalidInput("generator needs at least one coordinate")
        object.__setattr__(self, "generator", pt)
        object.__setattr__(self, "order", lcm(*(c.denominator for c in pt)))


def d_finite_cyclic(group: FiniteCyclicSubgroup) -> Fraction:
    """L-infinity distance from a finite cyclic subgroup to the center.

    The multiple k*g is the generator's numerators n_i over the order q
    sampled at t = k/q, and 2q |(k*g)_i - 1/2| = |(2 k n_i mod 2q) - q| is
    the ML kernel's grid, so the distance is 1/2 - a/q for the kernel's
    maximum a/q on the one problem (numerators, q).  Orders past the
    kernel's int64 bound raise ``SubgroupTooLarge`` before any scan.
    """
    q = group.order
    if not _int64_ok(q):
        raise SubgroupTooLarge(f"order {q} is past the exact scan's bound, 2*q^2 < 2^60")
    nums = [c.numerator * (q // c.denominator) for c in group.generator]
    (a,), _ = _scan_problems(np.array([nums], dtype=np.int64), np.array([q], dtype=np.int64))
    return HALF - Fraction(int(a), q)


def deep_witness(v: SpeedsLike) -> Tuple[TorusPoint, int]:
    """A witness with the most coordinates pinned at the extreme value.

    Scans every maximizing candidate time and counts the coordinates i
    with ||t v_i|| equal to the maximum loneliness; returns the earliest
    point with the highest count.  Requires a positive center distance.
    """
    st = _as_speed_tuple(v)
    times = maximizing_times(st)
    ml = min(circle_distance(times[0] * s) for s in st.speeds)
    if ml == HALF:
        raise CenterReached(f"orbit of {st.speeds} reaches the center")
    best_point = None
    best_count = -1
    for t in times:
        count = sum(1 for s in st.speeds if circle_distance(t * s) == ml)
        if count > best_count:
            best_count = count
            best_point = torus_point(t * s for s in st.speeds)
    assert best_point is not None
    return best_point, best_count
