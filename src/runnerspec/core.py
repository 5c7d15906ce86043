"""Exact arithmetic on the unit circle and the torus.

Every distance, time, and threshold in this package is a
``fractions.Fraction``; no floating point enters any computation here.
Integer vectors are plain tuples of Python ints, so nothing overflows.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple, Union

__all__ = [
    "HALF",
    "Rational",
    "UnsupportedDimension",
    "ZeroVector",
    "circle_distance",
    "format_rational",
    "parse_rational",
    "primitive_part",
    "torus_point",
]

Rational = Fraction
IntVector = Tuple[int, ...]
TorusPoint = Tuple[Fraction, ...]
RationalLike = Union[Fraction, int, str]

HALF = Fraction(1, 2)


class InvalidInput(ValueError):
    """Input that this package's computations do not accept.

    Every check on arguments, tuples and files raises this class or one of
    its subclasses; the command line reports it as ``error: <message>``
    with exit 2, and anything else as a bug, with its traceback.
    """


class ZeroVector(InvalidInput):
    """Raised when an operation needs an integer vector with a nonzero entry."""


class UnsupportedDimension(InvalidInput):
    """The requested dimension is outside the implemented range."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare "p") into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def format_rational(x: RationalLike) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1.

    The digits come from ``decimal``, which, unlike ``str`` of an int, has
    no limit on their number.
    """
    f = Fraction(x)
    text = str(Decimal(f.numerator))
    if f.denominator == 1:
        return text
    return f"{text}/{Decimal(f.denominator)}"


def circle_distance(x: RationalLike) -> Fraction:
    """Distance from x to the nearest integer, always in [0, 1/2].

    Periodic with period 1 and even, so the sign and integer part of x
    never matter.
    """
    f = Fraction(x) % 1
    return min(f, 1 - f)


def torus_point(coords: Iterable[RationalLike]) -> TorusPoint:
    """Wrap rational coordinates into the fundamental domain [0,1)^n."""
    return tuple(Fraction(c) % 1 for c in coords)


def _int_vector(entries: Iterable[object]) -> IntVector:
    """The entries as a tuple of ints.

    Raises InvalidInput naming the first entry that is not an integer:
    ints, bools, numpy integers and 2.0 pass; 1.5, 5/2 and "3" do not.
    """
    vals = tuple(entries)
    for i, c in enumerate(vals):
        try:
            ok = int(c) == c
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise InvalidInput(f"entry {i} of {vals} is not an integer: {c!r}")
    return tuple(map(int, vals))


def primitive_part(vector: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries.

    The sign is normalized so that the first nonzero entry comes out
    positive; the zero vector is rejected.
    """
    vec = _int_vector(vector)
    g = gcd(*vec)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    first = next(c for c in vec if c != 0)
    if first < 0:
        g = -g
    return tuple(c // g for c in vec)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def norm_sq(v: Sequence[int]) -> int:
    return sum(c * c for c in v)
