"""Closed subgroups of the torus assembled from a line part and a finite part.

A subgroup here is a finite union of cosets of a subtorus of dimension
at most 1; that is exactly the shape needed for the plane-case analyses
(a 1-dimensional direction crossed with a finite group) and for finite
cyclic subgroups such as the one generated by (12/25, 9/25).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Set, Tuple

import numpy as np

from .core import (
    HALF,
    IntVector,
    InvalidInput,
    RationalLike,
    TorusPoint,
    UnsupportedDimension,
    _int_vector,
    circle_distance,
    linf_center_distance,
    torus_point,
)
from .lattice import _row_hnf
from .loneliness import (
    SpeedsLike,
    SpeedTuple,
    _GRID_CELLS,
    _grid_slices,
    _int64_ok,
    _scan_problems,
    coset_center_distance,
    max_loneliness,
    maximizing_times,
)

__all__ = [
    "CenterReached",
    "FiniteCyclicSubgroup",
    "ProductSubgroup",
    "SubgroupTooLarge",
    "d_finite_cyclic",
    "d_subgroup",
    "deep_witness",
    "extremal_face_contacts",
    "find_rational_witness",
    "is_proper",
    "pad_subgroup",
]

DEFAULT_COSET_LIMIT = 10**6
_CLOSURE_CHECK_LIMIT = 512


class CenterReached(InvalidInput):
    """Deep witnesses exist only when the orbit misses the center."""


class SubgroupTooLarge(InvalidInput):
    """Too many cosets to iterate, or a cyclic order past the exact scan's
    int64 bound (above 759,250,124)."""


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

    def elements(self) -> Tuple[TorusPoint, ...]:
        """All order-many multiples of the generator, in multiple order."""
        q = self.order
        nums = [int(c * q) for c in self.generator]
        return tuple(
            tuple(Fraction((k * n) % q, q) for n in nums) for k in range(q)
        )


def d_finite_cyclic(group: FiniteCyclicSubgroup) -> Fraction:
    """L-infinity distance from a finite cyclic subgroup to the center.

    The multiple k*g is the generator's numerators n_i over the order q
    sampled at t = k/q, and 2q |(k*g)_i - 1/2| = |(2 k n_i mod 2q) - q| is
    the ML kernel's grid, so the distance is 1/2 - a/q for the kernel's
    maximum a/q on the one problem (numerators, q).  Orders past the
    kernel's int64 bound raise ``SubgroupTooLarge`` before any scan.
    """
    q = group.order
    if not _int64_ok((q,)):
        raise SubgroupTooLarge(f"order {q} is past the exact scan's bound, 2*q^2 < 2^60")
    nums = [c.numerator * (q // c.denominator) for c in group.generator]
    (a,), _ = _scan_problems(np.array([nums], dtype=np.int64), np.array([q], dtype=np.int64))
    return HALF - Fraction(int(a), q)


def extremal_face_contacts(
    group: FiniteCyclicSubgroup,
) -> Tuple[Fraction, Set[Tuple[int, int]]]:
    """Which faces of the minimal center box the subgroup touches.

    Returns (d, contacts) where contacts holds (coordinate, sign) pairs:
    sign +1 for the face at 1/2 + d, sign -1 for the face at 1/2 - d,
    collected over every element realizing the minimal distance d.  Small
    examples touch all faces; this is an observation helper, not an
    invariant of the package.
    """
    d = d_finite_cyclic(group)
    contacts: Set[Tuple[int, int]] = set()
    if d == 0:
        return d, contacts
    # The multiple k*g has 2q ((k*g)_i - 1/2) = 2 (k n_i mod q) - q, and
    # its deviation on the kernel's grid is the max of their absolute
    # values, so it minimizes where that deviation is 2 q d.
    q = group.order
    nums = [c.numerator * (q // c.denominator) for c in group.generator]
    speeds = np.array([nums], dtype=np.int64)
    target = int(2 * q * d)
    cells = max(1, _GRID_CELLS // len(nums))
    for j0, dev in _grid_slices(speeds, np.array([q], dtype=np.int64), q, cells):
        k = np.flatnonzero(dev[0] == target) + j0
        faces = 2 * (k[:, None] * speeds % q) - q
        for sign in (1, -1):
            hit = (faces == sign * target).any(axis=0)
            contacts.update((int(i), sign) for i in np.flatnonzero(hit))
    return d, contacts


@dataclass(frozen=True, init=False)
class ProductSubgroup:
    """A union of cosets: span of the torus directions, shifted by each
    finite element.

    The finite part is stored as an explicit, complete element list (the
    constructor sorts, dedupes, and adds the origin); a cyclic finite part
    is passed as ``group.elements()``.  Closure is verified only for small
    lists, larger ones are trusted.
    """

    torus_directions: Tuple[IntVector, ...]
    finite_elements: Tuple[TorusPoint, ...]

    def __init__(
        self,
        torus_directions: Iterable[Sequence[int]] = (),
        finite_elements: Iterable[Iterable[RationalLike]] = (),
    ):
        dirs = tuple(_int_vector(d) for d in torus_directions)
        elems = {torus_point(e) for e in finite_elements}
        if dirs:
            n = len(dirs[0])
        elif elems:
            n = len(next(iter(elems)))
        else:
            raise InvalidInput("need at least one direction or finite element")
        if any(len(d) != n for d in dirs) or any(len(e) != n for e in elems):
            raise InvalidInput("mixed ambient dimensions")
        if dirs and len(_row_hnf(dirs)[0]) != len(dirs):
            raise InvalidInput("torus directions must be linearly independent")
        elems.add(torus_point([0] * n))
        ordered = tuple(sorted(elems))
        if len(ordered) <= _CLOSURE_CHECK_LIMIT:
            index = set(ordered)
            for a in ordered:
                for b in ordered:
                    s = tuple((x + y) % 1 for x, y in zip(a, b))
                    if s not in index:
                        raise InvalidInput(
                            "finite element list is not closed under addition"
                        )
        object.__setattr__(self, "torus_directions", dirs)
        object.__setattr__(self, "finite_elements", ordered)

    @property
    def dimension(self) -> int:
        return len(self.torus_directions)

    @property
    def ambient_dimension(self) -> int:
        if self.torus_directions:
            return len(self.torus_directions[0])
        return len(self.finite_elements[0])


def d_subgroup(subgroup: ProductSubgroup) -> Fraction:
    """Exact center distance of a subgroup of dimension at most 1.

    Dimension 0 is a minimum over the element list; dimension 1 iterates
    the cosets explicitly, at most ``DEFAULT_COSET_LIMIT`` of them.
    """
    dim = subgroup.dimension
    if dim == 0:
        return min(linf_center_distance(e) for e in subgroup.finite_elements)
    if dim == 1:
        direction = subgroup.torus_directions[0]
        if gcd(*direction) != 1:
            raise InvalidInput(f"direction {direction} is not primitive")
        if len(subgroup.finite_elements) > DEFAULT_COSET_LIMIT:
            raise SubgroupTooLarge(
                f"{len(subgroup.finite_elements)} cosets exceed the limit"
                f" {DEFAULT_COSET_LIMIT}"
            )
        return min(
            coset_center_distance(direction, h) for h in subgroup.finite_elements
        )
    raise UnsupportedDimension(f"dimension {dim} subgroup distances are not supported")


def is_proper(subgroup: ProductSubgroup) -> bool:
    """Whether the subgroup avoids the union of coordinate hyperplanes.

    A coset of a 1-dimensional subtorus is connected, so it lies in the
    union of the hyperplanes {x_i = 0} iff it lies in a single one, which
    pins both the direction and the shift to zero in that coordinate.
    """
    dim = subgroup.dimension
    if dim == 0:
        return any(
            all(c != 0 for c in e) for e in subgroup.finite_elements
        )
    if dim == 1:
        direction = subgroup.torus_directions[0]
        return any(
            all(v != 0 or h != 0 for v, h in zip(direction, e))
            for e in subgroup.finite_elements
        )
    raise UnsupportedDimension(f"properness in dimension {dim} is not supported")


def find_rational_witness(v: SpeedsLike) -> TorusPoint:
    """A rational orbit point realizing the center distance exactly.

    The earliest maximum-loneliness time t gives the point t*v mod 1,
    whose L-infinity distance to the center equals 1/2 - ml.
    """
    st = v if isinstance(v, SpeedTuple) else SpeedTuple(v)
    res = max_loneliness(st)
    return torus_point(res.witness_time * s for s in st.speeds)


def deep_witness(v: SpeedsLike) -> Tuple[TorusPoint, int]:
    """A witness with the most coordinates pinned at the extreme value.

    Scans every maximizing candidate time and counts the coordinates i
    with ||t v_i|| equal to the maximum loneliness; returns the earliest
    point with the highest count.  Requires a positive center distance.
    """
    st = v if isinstance(v, SpeedTuple) else SpeedTuple(v)
    res = max_loneliness(st)
    if res.d_value == 0:
        raise CenterReached(f"orbit of {st.speeds} reaches the center")
    best_point = None
    best_count = -1
    for t in maximizing_times(st):
        count = sum(1 for s in st.speeds if circle_distance(t * s) == res.ml)
        if count > best_count:
            best_count = count
            best_point = torus_point(t * s for s in st.speeds)
    assert best_point is not None
    return best_point, best_count


def pad_subgroup(subgroup: ProductSubgroup, extra: int) -> ProductSubgroup:
    """Append ``extra`` full-circle directions on fresh coordinates.

    Padding never moves the subgroup relative to the center in the old
    coordinates, and the new circles pass through 1/2, so the center
    distance is preserved; the properness check is simply re-run by the
    caller on the result.
    """
    if extra < 0:
        raise InvalidInput("cannot pad by a negative number of circles")
    if extra == 0:
        return subgroup
    n = subgroup.ambient_dimension
    zeros = (0,) * extra
    dirs = [d + zeros for d in subgroup.torus_directions]
    for i in range(extra):
        unit = [0] * (n + extra)
        unit[n + i] = 1
        dirs.append(tuple(unit))
    zero_frac = tuple([Fraction(0)] * extra)
    elems = [e + zero_frac for e in subgroup.finite_elements]
    return ProductSubgroup(dirs, elems)
