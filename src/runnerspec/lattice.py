"""Exact lattice geometry for plane subtori and density certificates.

Lattice work runs over Python ints, with ``Fraction``s only for exact
solves, coset shifts and answers: one unimodular row reduction gives
Hermite forms for canonical bases, integer kernels and the split of Z^n
along a line; shortest vectors come from greedy reduction of an integer
Gram plus a certified box enumeration, and plane center distances are
minima of the integer coset scan over the plane's crease circles.
The named constants at the bottom are carried symbolically as rational
multiples of integer powers of pi, with rigorous rational enclosures.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import (
    HALF,
    IntVector,
    InvalidInput,
    RationalLike,
    UnsupportedDimension,
    _int_vector,
    dot,
    norm_sq,
    primitive_part,
)
from .loneliness import _coset_candidates, _creases, _require_candidates, coset_center_distance

__all__ = [
    "BudgetExceeded",
    "DegenerateBasis",
    "DensityCertificate",
    "InvalidDirection",
    "NamedConstants",
    "NotContained",
    "PiPower",
    "SaturatedPlane",
    "ball_volume",
    "basis_length_bound",
    "certificate_profile",
    "d_subtorus2",
    "dense_sequence",
    "density_radius_sq",
    "kronecker_lift",
    "lift_volume_threshold",
    "lrc_threshold",
    "named_constants",
    "saturate",
    "shortest_projected_vector",
    "slice_plane_to_line",
    "threshold_below_power_bound",
]

# 3.14159 < pi < 3.14160; enough for every check in this package, and
# deliberately coarse so that sensitivity tests can show the first five
# digits genuinely matter.  Swap in the refined pair when more slack is
# needed.
DEFAULT_PI_BOUNDS: Tuple[Fraction, Fraction] = (
    Fraction(314159, 100000),
    Fraction(314160, 100000),
)
REFINED_PI_BOUNDS: Tuple[Fraction, Fraction] = (
    Fraction(3141592653589793, 10**15),
    Fraction(3141592653589794, 10**15),
)


class DegenerateBasis(InvalidInput):
    """The supplied generators do not span a plane (or miss a coordinate)."""


class InvalidDirection(InvalidInput):
    """Directions must be primitive integer vectors."""


class NotContained(InvalidInput):
    """The direction does not lie in the span of the plane."""


class BudgetExceeded(InvalidInput):
    """A query needs more work than its budget: a plane's candidate times, a family's members."""


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _require_primitive(vec: Sequence[int]) -> None:
    g = gcd(*vec)
    if g != 1:
        raise InvalidDirection(f"{tuple(vec)} is not primitive (gcd {g})")


def _unit_basis(n: int) -> List[IntVector]:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def _pivot_columns(
    columns: Iterable[Tuple[IntVector, int]],
) -> Tuple[Optional[Tuple[IntVector, int]], List[IntVector]]:
    """Reduce (vector, key) pairs unimodularly, each key linear in its vector.

    Returns (pivot vector with the gcd of the keys, or None) and the kept
    vectors, whose keys are all 0.
    """
    pivot: Optional[Tuple[IntVector, int]] = None
    kept: List[IntVector] = []
    for col, a in columns:
        if a == 0:
            kept.append(col)
        elif pivot is None:
            pivot = (col, a)
        else:
            pcol, pa = pivot
            g, x, y = _ext_gcd(pa, a)
            comb = tuple(x * p + y * c for p, c in zip(pcol, col))
            zero = tuple((a // g) * p - (pa // g) * c for p, c in zip(pcol, col))
            pivot = (comb, g)
            kept.append(zero)
    return pivot, kept


def _integer_kernel(rows: Sequence[Sequence[int]], n: int) -> List[IntVector]:
    """Basis of {x in Z^n : r . x = 0 for every row r}, saturated."""
    return _row_hnf([tuple(r[i] for r in rows) for i in range(n)])[2]


def _row_hnf(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[IntVector], List[IntVector], List[IntVector]]:
    """Row Hermite form with positive pivots and reduced entries above.

    Each row carries its row of the identity; per column, the open rows
    collapse onto one pivot, which reduces the rows placed before it.
    Returns (H, T, Z): the nonzero rows H of the form, T with T @ input
    = H, and Z, a basis of the left kernel; [T; Z] is unimodular.
    """
    width = len(rows[0]) if rows else 0
    work = [tuple(r) + e for r, e in zip(rows, _unit_basis(len(rows)))]
    placed: List[IntVector] = []
    for col in range(width):
        pivot, work = _pivot_columns((r, r[col]) for r in work)
        if pivot is None:
            continue
        prow, p = pivot
        if p < 0:
            prow, p = tuple(-c for c in prow), -p
        for i, d in enumerate(placed):
            q = d[col] // p
            placed[i] = tuple(a - q * b for a, b in zip(d, prow))
        placed.append(prow)
    H = [d[:width] for d in placed]
    return H, [d[width:] for d in placed], [d[width:] for d in work]


def _matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> List[tuple]:
    """Rows of A times columns of B; ``dot``'s strict zip checks the shapes."""
    cols = list(zip(*B))
    return [tuple(dot(row, col) for col in cols) for row in A]


def _solve_symmetric(
    A: Sequence[Sequence[int]], b: Sequence[int]
) -> List[Fraction]:
    """Solve A x = b exactly for a small nonsingular integer matrix.

    Integer row operations clear each pivot's column, leaving a diagonal
    system; the only division is one Fraction per unknown at the end.
    """
    n = len(A)
    M = [list(row) + [bi] for row, bi in zip(A, b, strict=True)]
    for col in range(n):
        piv = next(i for i in range(col, n) if M[i][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        p = M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [p[col] * x - f * y for x, y in zip(M[i], p)]
    return [Fraction(M[i][n], M[i][i]) for i in range(n)]


def _independent2(u: Sequence[int], v: Sequence[int]) -> bool:
    return any(
        u[i] * v[j] != u[j] * v[i]
        for i, j in itertools.combinations(range(len(u)), 2)
    )


def _plane_pair(u: Sequence[int], v: Sequence[int]) -> Tuple[IntVector, IntVector]:
    """u and v as int tuples, or DegenerateBasis unless they span a plane."""
    uu, vv = _int_vector(u), _int_vector(v)
    if len(uu) != len(vv):
        raise DegenerateBasis("mismatched lengths")
    if not _independent2(uu, vv):
        raise DegenerateBasis(f"{uu} and {vv} are linearly dependent")
    return uu, vv


@dataclass(frozen=True)
class SaturatedPlane:
    """Canonical basis of Z^n intersected with a rational plane."""

    basis_u: IntVector
    basis_v: IntVector

    def gram(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        a = norm_sq(self.basis_u)
        b = dot(self.basis_u, self.basis_v)
        c = norm_sq(self.basis_v)
        return ((a, b), (b, c))

    @property
    def covolume_sq(self) -> int:
        (a, b), (_, c) = self.gram()
        return a * c - b * b

    def coords_of(self, vector: Sequence[int]) -> Tuple[Fraction, Fraction]:
        """Rational coordinates of a vector in this basis, or NotContained."""
        vec = _int_vector(vector)
        if len(vec) != len(self.basis_u):
            raise NotContained(f"{vec} has {len(vec)} entries, the plane has {len(self.basis_u)}")
        basis = (self.basis_u, self.basis_v)
        alpha, beta = _solve_symmetric(self.gram(), [dot(vec, b) for b in basis])
        if _matmul([(alpha, beta)], basis)[0] != vec:
            raise NotContained(f"{vec} is not in the span of the plane")
        return alpha, beta

    def to_json_dict(self) -> dict:
        return {
            "basis": [list(self.basis_u), list(self.basis_v)],
            "gram": [list(r) for r in self.gram()],
            "covolume_sq": self.covolume_sq,
        }


def saturate(u: Sequence[int], v: Sequence[int]) -> SaturatedPlane:
    """Basis of Z^n intersected with the rational span of u and v.

    Double orthogonal complement: the integer kernel of [u; v] spans the
    orthogonal complement of the plane, and the integer kernel of that
    is exactly the saturation.  The output basis is put in Hermite form
    so equal planes yield identical objects.
    """
    uu, vv = _plane_pair(u, v)
    n = len(uu)
    rel = _integer_kernel([uu, vv], n)
    plane = _integer_kernel(rel, n)
    hnf = _row_hnf(plane)[0]
    assert len(hnf) == 2
    return SaturatedPlane(hnf[0], hnf[1])


def _shortest_on_gram(G_in: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Exact shortest nonzero vector for a positive definite integer Gram.

    Greedy pairwise size reduction (strict decreases only, so it always
    terminates), then a box enumeration whose bounds come from the
    Cauchy-Schwarz inequality against the dual basis: |c_i| is at most
    sqrt(bound * adj(G)_ii / det G), read off the adjugate diagonal of
    the rank <= 3 Gram.  The result is the true minimum regardless of
    how good the reduction was.  Every comparison is invariant under
    scaling G, so a Gram scaled to integers gives the same coefficients.
    Returns (norm_sq, coefficients over the input generators).
    """
    r = len(G_in)
    G = [list(row) for row in G_in]
    C = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(512):
        changed = False
        order = sorted(range(r), key=lambda i: G[i][i])
        if order != list(range(r)):
            G = [[G[a][b] for b in order] for a in order]
            C = [C[a] for a in order]
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                mu = (2 * G[i][j] + G[j][j]) // (2 * G[j][j])  # nearest to G_ij / G_jj
                if mu == 0:
                    continue
                gii = G[i][i] - 2 * mu * G[i][j] + mu * mu * G[j][j]
                if gii >= G[i][i]:
                    continue
                C[i] = [a - mu * b for a, b in zip(C[i], C[j])]
                newrow = [G[i][k] - mu * G[j][k] for k in range(r)]
                newrow[i] = gii
                G[i] = newrow
                for k in range(r):
                    G[k][i] = newrow[k]
                changed = True
        if not changed:
            break
    if r == 1:
        adj, det = [1], G[0][0]
    elif r == 2:
        adj, det = [G[1][1], G[0][0]], G[0][0] * G[1][1] - G[0][1] ** 2
    else:
        (a, b, c), (_, e, f), (_, _, i) = G
        adj = [e * i - f * f, a * i - c * c, a * e - b * b]
        det = a * adj[0] - b * (b * i - c * f) + c * (b * f - c * e)
    bound = min(G[i][i] for i in range(r))
    box = [math.isqrt(bound * a // det) for a in adj]
    best: Optional[int] = None
    best_c: Tuple[int, ...] = ()
    for coeffs in itertools.product(*(range(-b, b + 1) for b in box)):
        first = next((c for c in coeffs if c != 0), None)
        if first is None or first < 0:
            continue
        q = 0
        for i in range(r):
            q += coeffs[i] * coeffs[i] * G[i][i]
            for j in range(i + 1, r):
                q += 2 * coeffs[i] * coeffs[j] * G[i][j]
        if best is None or q < best:
            best = q
            best_c = coeffs
    assert best is not None
    return best, _matmul([best_c], C)[0]


def shortest_projected_vector(v: Sequence[int]) -> Tuple[IntVector, Fraction]:
    """Integer x outside Z*v whose component orthogonal to v is shortest.

    The projections of Z^n onto the hyperplane orthogonal to v form a
    rank n-1 lattice; a basis with known integer preimages is built from
    a splitting Z^n = Z*c + kernel, and the shortest vector is found
    exactly on its Gram matrix, scaled by N^2 = |v|^4 to integers.
    Returns (x, p_sq) with p_sq the squared length of the projection; x
    is a deterministic representative (reduced along v, lexicographically
    smallest of the sign pair).
    """
    vec = _int_vector(v)
    n = len(vec)
    if n not in (2, 3, 4):
        raise UnsupportedDimension(f"ambient dimension {n} is not supported")
    _require_primitive(vec)
    N = norm_sq(vec)
    H, (c_vec,), kernel = _row_hnf([[x] for x in vec])
    assert H == [(1,)]
    r0 = len(kernel)  # n - 1
    kappa = tuple(vi - N * ci for vi, ci in zip(vec, c_vec))
    # kappa lies in the kernel lattice; its integer coordinates there
    K = [[dot(a, b) for b in kernel] for a in kernel]
    rhs = [dot(kappa, b) for b in kernel]
    lam = _solve_symmetric(K, rhs)
    lam_int = []
    for x in lam:
        assert x.denominator == 1
        lam_int.append(int(x))
    # Lattice of projections, written in kernel coordinates scaled by N:
    # kernel vectors project to themselves (rows N*e_i, preimage k_i) and
    # c projects to -kappa/N (row -lam, preimage c).
    stack = [
        [N if j == i else 0 for j in range(r0)] for i in range(r0)
    ] + [[-x for x in lam_int]]
    hnf, T, _ = _row_hnf(stack)
    assert len(hnf) == r0
    preimages = _matmul(T, kernel + [c_vec])
    # the Gram of the projections is HKH / N^2; the scale goes at the return
    HKH = _matmul(_matmul(hnf, K), list(zip(*hnf)))
    scaled, coeffs = _shortest_on_gram(HKH)
    x = _matmul([coeffs], preimages)[0]
    m = (2 * dot(x, vec) + N) // (2 * N)  # nearest to x.v / N
    x = tuple(xi - m * vi for xi, vi in zip(x, vec))
    neg = tuple(-c for c in x)
    if neg < x:
        x = neg
    assert (N * norm_sq(x) - dot(x, vec) ** 2) * N == scaled
    return x, Fraction(scaled, N * N)


@dataclass(frozen=True)
class DensityCertificate:
    """Exact half-spacing certificate for a line orbit inside a plane.

    The parallel translates of the line through the plane lattice are
    covolume/|v| apart, so every point of the plane torus is within
    sqrt(delta_sq) of the orbit in the L2 sense, and that bound is tight.
    """

    inner_direction: IntVector
    outer_plane: SaturatedPlane
    shortest_offset: IntVector
    delta_sq: Fraction
    epsilon: Fraction
    guaranteed: bool

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "kind": "density-certificate",
            "inner_direction": list(self.inner_direction),
            "outer_plane": self.outer_plane.to_json_dict(),
            "shortest_offset": list(self.shortest_offset),
            "delta_sq": str(self.delta_sq),
            "epsilon": str(self.epsilon),
            "guaranteed": self.guaranteed,
        }


def density_radius_sq(v: Sequence[int], plane: SaturatedPlane) -> Fraction:
    """Squared density radius of the orbit of v inside the plane torus."""
    vec = _int_vector(v)
    _require_primitive(vec)
    plane.coords_of(vec)  # raises NotContained if v is outside the span
    return Fraction(plane.covolume_sq, 4 * norm_sq(vec))


def kronecker_lift(v: Sequence[int], epsilon: RationalLike) -> DensityCertificate:
    """Lift a line to the best plane through it and certify orbit density.

    The plane Zv + Zx is saturated: v is primitive, and x, the integer vector
    with the shortest orthogonal component, is primitive modulo Zv.
    ``guaranteed`` records whether the certified radius is at most epsilon.
    """
    vec = _int_vector(v)
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    x, _ = shortest_projected_vector(vec)
    plane = SaturatedPlane(*_row_hnf([vec, x])[0])
    # density_radius_sq without its checks: vec is primitive and spans the plane
    dsq = Fraction(plane.covolume_sq, 4 * norm_sq(vec))
    return DensityCertificate(
        inner_direction=vec,
        outer_plane=plane,
        shortest_offset=x,
        delta_sq=dsq,
        epsilon=eps,
        guaranteed=dsq <= eps * eps,
    )


PROFILE_GRID = 8


@dataclass(frozen=True)
class CertificateProfile:
    spacing_identity_ok: bool
    max_sample_sq: Fraction
    tight_sample_sq: Fraction
    samples: int


def certificate_profile(cert: DensityCertificate) -> CertificateProfile:
    """Sample the plane torus and measure exact L2 distances to the orbit.

    The samples form a ``PROFILE_GRID`` x ``PROFILE_GRID`` grid over the
    plane basis.

    Distances are taken inside the plane: the projection of the plane
    lattice onto the in-plane normal of v is a 1-dimensional lattice, so
    the distance from a sample to the family of orbit lines is a circle
    distance of its normal coordinate.  The farthest point (normal
    coordinate at half the spacing) is included explicitly, which makes
    the tightness check exact rather than approximate.  The normal is
    scaled by |v|^2 to integers, so each sample's distance is one residue
    mod ``PROFILE_GRID`` * g, and the scale cancels in each field's one
    ``Fraction``.
    """
    plane = cert.outer_plane
    vec = cert.inner_direction
    b1, b2 = plane.basis_u, plane.basis_v
    z = b1 if _independent2(b1, vec) else b2
    # the in-plane normal z - (z.v / v.v) v, scaled by v.v to integers
    w = tuple(norm_sq(vec) * zi - dot(z, vec) * vi for zi, vi in zip(z, vec))
    c1, c2 = dot(b1, w), dot(b2, w)
    g = gcd(c1, c2)
    period = PROFILE_GRID * g
    residues = (
        (i * c1 + j * c2) % period for i in range(PROFILE_GRID) for j in range(PROFILE_GRID)
    )
    far = max(min(r, period - r) for r in residues)
    w_sq = norm_sq(w)
    tight_sq = Fraction(g * g, 4 * w_sq)
    return CertificateProfile(
        spacing_identity_ok=tight_sq == cert.delta_sq,
        max_sample_sq=Fraction(far * far, PROFILE_GRID * PROFILE_GRID * w_sq),
        tight_sample_sq=tight_sq,
        samples=PROFILE_GRID * PROFILE_GRID,
    )


def slice_plane_to_line(u: Sequence[int], v: Sequence[int]) -> IntVector:
    """A proper line direction inside the plane spanned by u and v.

    Normalize u (adding the smallest workable multiple of v) until every
    coordinate is nonzero, flip signs to make it positive, sort the
    coordinates by v_i/u_i, and combine the first strictly increasing
    adjacent pair: (v_a + v_b) * u - (u_a + u_b) * v.  The result is an
    integer combination of u and v, has no zero coordinate, and its
    center distance can only exceed that of the plane.
    """
    uu, vv = _plane_pair(u, v)
    n = len(uu)
    if any(a == 0 and b == 0 for a, b in zip(uu, vv)):
        raise DegenerateBasis("plane is stuck inside a coordinate hyperplane")
    shifted = None
    for size in itertools.count():
        for m in (size, -size) if size else (0,):
            cand = tuple(a + m * b for a, b in zip(uu, vv))
            if all(c != 0 for c in cand):
                shifted = cand
                break
        if shifted is not None:
            break
    signs = tuple(1 if c > 0 else -1 for c in shifted)
    us = tuple(s * c for s, c in zip(signs, shifted))
    vs = tuple(s * c for s, c in zip(signs, vv))
    order = sorted(range(n), key=lambda i: Fraction(vs[i], us[i]))
    pair = None
    for a, b in zip(order, order[1:]):
        if vs[a] * us[b] < vs[b] * us[a]:
            pair = (a, b)
            break
    assert pair is not None  # equal ratios everywhere would mean dependence
    a, b = pair
    w = tuple(
        (vs[a] + vs[b]) * ui - (us[a] + us[b]) * vi for ui, vi in zip(us, vs)
    )
    w = tuple(s * c for s, c in zip(signs, w))
    return primitive_part(w)


def dense_sequence(u1: Sequence[int], u2: Sequence[int], j: int) -> IntVector:
    """The j-th member u1 + j*u2 of the line family filling the plane."""
    uu, vv = _plane_pair(u1, u2)
    if j < 0:
        raise InvalidInput("index must be nonnegative")
    return primitive_part(tuple(a + j * b for a, b in zip(uu, vv)))


def d_subtorus2(u: Sequence[int], v: Sequence[int]) -> Fraction:
    """Exact center distance of the closure of {alpha*u + beta*v mod 1}.

    With x_i = alpha*u_i + beta*v_i, F = max_i ||x_i - 1/2|| is affine on
    every cell cut out of the (alpha, beta) plane by the crease lines
    {f(p) in Z} of these functionals f: 2(u_i, v_i), where coordinate i
    peaks or bottoms out, and (u_i - u_j, v_i - v_j) and (u_i + u_j,
    v_i + v_j) for i < j, where x_i +- x_j is an integer and the max can
    switch coordinate.  Two of the (u_i, v_i) are independent, so every
    cell is bounded and a minimum of F sits at a cell vertex, on some
    crease line.

    Write f = g*(a, b) with (a, b) primitive and a*x0 + b*y0 = 1.  The
    lines f = k mod 1, k = 0..g-1, are the circles
    p = (k/g)(x0, y0) + t(-b, a), on which x = t*w + (k/g)*c with
    w_i = -b*u_i + a*v_i and c_i = x0*u_i + y0*v_i: a coset of a line,
    whose scan candidates are the circle's crossings with the other
    crease lines.  So the distance is the least ``coset_center_distance``
    over these circles.  Functionals sharing a direction (a, b) are
    scanned once, at the lcm g of their multipliers, in g *
    ``_coset_candidates(w)`` candidate times; a plane past
    ``_COSET_CANDIDATES`` in all raises ``BudgetExceeded`` before any scan.
    """
    uu, vv = _plane_pair(u, v)
    levels = {}
    for f1, f2 in _creases(list(zip(uu, vv))):
        g = gcd(f1, f2)
        if g:
            sign = 1 if (f1, f2) > (0, 0) else -1
            key = (sign * f1 // g, sign * f2 // g)
            levels[key] = lcm(levels.get(key, 1), g)
    lines = {(a, b): (g, [a * y - b * x for x, y in zip(uu, vv)]) for (a, b), g in levels.items()}
    work = sum(g * _coset_candidates(w) for g, w in lines.values())
    _require_candidates(work, f"plane {uu}, {vv}", BudgetExceeded)
    best = HALF
    for (a, b), (g, w) in lines.items():
        _, x0, y0 = _ext_gcd(a, b)
        c = [x0 * ui + y0 * vi for ui, vi in zip(uu, vv)]
        for k in range(g):
            best = min(best, coset_center_distance(w, [Fraction(k * ci, g) for ci in c]))
    return best


# ---------------------------------------------------------------------------
# Named constants, carried as rational multiples of integer powers of pi.


@dataclass(frozen=True)
class PiPower:
    """Exact value coefficient * pi**pi_power with a positive coefficient."""

    coefficient: Fraction
    pi_power: int

    def decimal(self) -> float:
        """Float approximation, ``math.inf`` beyond the float range."""
        try:
            coef = float(self.coefficient)
            power = math.pi**self.pi_power
        except OverflowError:
            coef = power = 0.0
        if min(coef, power) >= sys.float_info.min:
            return coef * power
        # a factor alone overflowed, or fell below the normal range where
        # it loses precision; round the exact product once
        try:
            return float(self.coefficient * Fraction(math.pi) ** self.pi_power)
        except OverflowError:
            return math.inf

    def bounds(
        self, pi_bounds: Tuple[Fraction, Fraction] = DEFAULT_PI_BOUNDS
    ) -> Tuple[Fraction, Fraction]:
        """Rigorous rational enclosure from a rational enclosure of pi."""
        lo, hi = pi_bounds
        assert self.coefficient > 0
        p = self.pi_power
        if p >= 0:
            return self.coefficient * lo**p, self.coefficient * hi**p
        return self.coefficient / hi ** (-p), self.coefficient / lo ** (-p)


def ball_volume(k: int) -> PiPower:
    """Volume of the unit k-ball: pi^(k/2) / Gamma(k/2 + 1), exactly.

    Even k = 2m gives pi^m / m!; odd k = 2m+1 gives
    4^(m+1) (m+1)! / (2m+2)! * pi^m after cancelling the half-integer
    Gamma value, so the power of pi is always an integer.
    """
    if k < 0:
        raise InvalidInput("dimension must be nonnegative")
    m, odd = divmod(k, 2)
    if not odd:
        return PiPower(Fraction(1, math.factorial(m)), m)
    coef = Fraction(
        4 ** (m + 1) * math.factorial(m + 1), math.factorial(2 * m + 2)
    )
    return PiPower(coef, m)


def basis_length_bound(k: int, volume: RationalLike) -> PiPower:
    """Reduced-basis length bound 2^k (3/2)^(k(k-1)/2) * V / omega_k."""
    V = Fraction(volume)
    if k < 1 or V <= 0:
        raise InvalidInput("need k >= 1 and a positive volume")
    om = ball_volume(k)
    e = k * (k - 1) // 2
    coef = Fraction(2**k) * Fraction(3**e, 2**e) * V / om.coefficient
    return PiPower(coef, -om.pi_power)


def lift_volume_threshold(n: int, k: int, epsilon: RationalLike) -> PiPower:
    """Volume above which a k-torus must be epsilon/2-dense in a larger one.

    1 / (omega_(n-k) * (epsilon/2)^(n-k)): once the covolume clears this,
    disjoint tubes of radius epsilon/2 around the orbit would exceed the
    total volume, forcing a short offset vector.
    """
    eps = Fraction(epsilon)
    if not (1 <= k < n):
        raise InvalidInput("need 1 <= k < n")
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    codim = n - k
    om = ball_volume(codim)
    coef = 1 / (om.coefficient * (eps / 2) ** codim)
    return PiPower(coef, -om.pi_power)


def lrc_threshold(n: int) -> PiPower:
    """Checking threshold for n runners, at tube radius 1/(n(n+1)).

    Equals Gamma((n+1)/2) * (n(n+1))^(n-1) / pi^((n-1)/2); the half
    powers of pi cancel into the integer-power representation.
    """
    if n < 2:
        raise InvalidInput("need n >= 2")
    return lift_volume_threshold(n, 1, Fraction(2, n * (n + 1)))


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def threshold_below_power_bound(
    n: int, pi_bounds: Tuple[Fraction, Fraction] = DEFAULT_PI_BOUNDS
) -> bool:
    """Whether lrc_threshold(n) < n^(5n/2), by rigorous upper bound and logs."""
    _, ub = lrc_threshold(n).bounds(pi_bounds)
    return _log_fraction(ub) < 2.5 * n * math.log(n)


def _float_power_or_inf(base: float, exponent: float) -> float:
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NamedConstants:
    n: int
    k: int
    volume: Fraction
    epsilon: Fraction
    omega_k: PiPower
    ell_kV: PiPower
    c_star: PiPower
    lrc_threshold: PiPower
    tao_bound: float
    threshold_below_tao: bool


def named_constants(
    n: int,
    k: int = 1,
    volume: RationalLike = 1,
    epsilon: Optional[RationalLike] = None,
    pi_bounds: Tuple[Fraction, Fraction] = DEFAULT_PI_BOUNDS,
) -> NamedConstants:
    """Bundle of the package's named constants for given parameters.

    ``epsilon`` feeds the lift threshold and defaults to 2/(n(n+1)), the
    choice under which the lift threshold and the checking threshold
    coincide.
    """
    if not (1 <= k < n):
        raise InvalidInput("need 1 <= k < n")
    eps = Fraction(epsilon) if epsilon is not None else Fraction(2, n * (n + 1))
    vol = Fraction(volume)
    return NamedConstants(
        n=n,
        k=k,
        volume=vol,
        epsilon=eps,
        omega_k=ball_volume(k),
        ell_kV=basis_length_bound(k, vol),
        c_star=lift_volume_threshold(n, k, eps),
        lrc_threshold=lrc_threshold(n),
        tao_bound=_float_power_or_inf(n, 2.5 * n),
        threshold_below_tao=threshold_below_power_bound(n, pi_bounds),
    )
