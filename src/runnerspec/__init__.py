"""Exact-arithmetic toolkit for lonely runner spectra.

Rational arithmetic end to end: maximum loneliness of integer speed
tuples, center distances of closed subgroups of the torus, lattice
density certificates for line orbits inside planes, and exhaustively
enumerated spectrum tables with their verification helpers.

Each module declares its own public names in ``__all__``; the package
re-exports all of them.
"""

from . import core, lattice, loneliness, spectrum, subgroups
from .core import *
from .lattice import *
from .loneliness import *
from .spectrum import *
from .subgroups import *

__version__ = "0.1.0"

__all__ = (
    core.__all__ + loneliness.__all__ + subgroups.__all__ + lattice.__all__ + spectrum.__all__
)
