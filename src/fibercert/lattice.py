"""Integer linear algebra for kernel lattices and the deep-point search.

perp_basis computes a canonical saturated basis of the kernel of a primitive
class; covolume and systole are exact (Gram determinant, bounded shortest-
vector enumeration); deep_point is an exact argmax over a box, with a float
prefilter used only to shortlist candidates for exact rational comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .errors import CapabilityError, ValidationError

Vec = tuple[int, ...]


@dataclass(frozen=True)
class FiberedClass:
    """A primitive integral class (p_1, ..., p_r, n)."""

    vector: Vec

    def __post_init__(self):
        vec = tuple(int(v) for v in self.vector)
        if not any(vec):
            raise ValidationError("class must be nonzero")
        object.__setattr__(self, "vector", vec)

    @property
    def rank(self) -> int:
        return len(self.vector) - 1

    @property
    def n(self) -> int:
        return self.vector[-1]

    @property
    def p_part(self) -> Vec:
        return self.vector[:-1]

    def is_primitive(self) -> bool:
        g = 0
        for v in self.vector:
            g = gcd(g, abs(v))
        return g == 1

    def primitive_reduction(self) -> "FiberedClass":
        g = 0
        for v in self.vector:
            g = gcd(g, abs(v))
        return FiberedClass(tuple(v // g for v in self.vector))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _xgcd(b, a % b)
    return (g, t, s - (a // b) * t)


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form: positive pivots, entries above reduced."""
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0])
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        # Clear the column below pivot_row by gcd steps.
        nz = [i for i in range(pivot_row, m) if rows[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
        for i in range(pivot_row + 1, m):
            while rows[i][col] != 0:
                q = rows[pivot_row][col] // rows[i][col]
                rows[pivot_row] = [a - q * b for a, b in zip(rows[pivot_row], rows[i])]
                rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-a for a in rows[pivot_row]]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == m:
            break
    for prow, pcol in pivots:
        piv = rows[prow][pcol]
        for i in range(prow):
            q = rows[i][pcol] // piv
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[prow])]
    return rows


def int_det(mat: list[list[int]]) -> int:
    """Exact determinant of a small square integer matrix (cofactor expansion)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * int_det(minor)
    return total


@dataclass(frozen=True)
class PerpLattice:
    """The kernel lattice of a class, with its coordinate projection.

    ``basis`` rows span the saturated kernel of alpha in Z^{r+1};
    ``zeta_basis`` drops the last coordinate.  covol2 is the Gram determinant
    of the projection; ambient_covol2 that of the unprojected basis.
    """

    alpha: FiberedClass
    basis: tuple[Vec, ...]
    zeta_basis: tuple[Vec, ...]
    covol2: int
    ambient_covol2: int

    def word_vector(self, coeffs: Sequence[int]) -> Vec:
        if len(coeffs) != len(self.basis):
            raise ValidationError("wrong number of word coefficients")
        d = len(self.alpha.vector)
        return tuple(
            sum(c * b[i] for c, b in zip(coeffs, self.basis)) for i in range(d)
        )


def perp_basis(alpha: FiberedClass) -> PerpLattice:
    """Canonical basis of the saturated kernel lattice of a primitive class."""
    if not alpha.is_primitive():
        raise ValidationError(
            "class is not primitive: divide by the gcd of its entries first"
        )
    a = list(alpha.vector)
    d = len(a)
    # Column operations tracked in U until a*U = (g, 0, ..., 0).
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(1, d):
        if a[i] == 0:
            continue
        g, s, t = _xgcd(a[0], a[i])
        x0, xi = a[0] // g, a[i] // g
        for row in U:
            c0, ci = row[0], row[i]
            row[0] = s * c0 + t * ci
            row[i] = -xi * c0 + x0 * ci
        a[0], a[i] = g, 0
    if a[0] == 0:
        # alpha had a[0] = 0 throughout; swap a nonzero coordinate forward.
        raise ValidationError("internal error: primitive class reduced to zero")
    kernel_rows = [[U[r][c] for r in range(d)] for c in range(1, d)]
    rows = _hnf_rows(kernel_rows)
    basis = tuple(tuple(r) for r in rows)
    for b in basis:
        if sum(x * y for x, y in zip(b, alpha.vector)) != 0:
            raise ValidationError("internal error: kernel basis not orthogonal")
    zeta = tuple(b[:-1] for b in basis)
    gram_z = [[sum(x * y for x, y in zip(u, v)) for v in zeta] for u in zeta]
    gram_a = [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    covol2 = int_det(gram_z)
    if covol2 <= 0:
        raise ValidationError(
            "projected kernel basis is degenerate (class has n = 0?)"
        )
    return PerpLattice(alpha, basis, zeta, covol2, int_det(gram_a))


def covolume(L: PerpLattice) -> int:
    """Squared covolume (Gram determinant) of the projected lattice."""
    return L.covol2


def _gram_schmidt(rows) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Exact Gram-Schmidt orthogonalization: the b* rows and the mu coefficients."""
    n = len(rows)
    bstar = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            denom = sum(x * x for x in bstar[j])
            mu[i][j] = sum(x * y for x, y in zip(rows[i], bstar[j])) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
    return bstar, mu


def _lll(basis: list[list[Fraction]], delta: Fraction = Fraction(3, 4)) -> list[list[Fraction]]:
    """Exact LLL reduction over the rationals (small ranks only)."""
    b = [list(map(Fraction, row)) for row in basis]
    n = len(b)
    bstar, mu = _gram_schmidt(b)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise CapabilityError("LLL failed to terminate (unexpected)")
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        bstar, mu = _gram_schmidt(b)
        lhs = sum(x * x for x in bstar[k])
        rhs = (delta - mu[k][k - 1] ** 2) * sum(x * x for x in bstar[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            bstar, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b


@dataclass(frozen=True)
class ShortestVector:
    length2: int
    vector: Vec


def systole(L: PerpLattice) -> ShortestVector:
    """Exact shortest nonzero vector of the projected lattice (rank <= 4)."""
    r = len(L.zeta_basis)
    if r > 4:
        raise CapabilityError(f"shortest-vector enumeration supports rank <= 4, got {r}")
    reduced = _lll([list(map(Fraction, row)) for row in L.zeta_basis])
    rows = [tuple(int(x) for x in row) for row in reduced]
    # Gram-Schmidt over the reduced basis for enumeration bounds.
    n = len(rows)
    bstar, mu = _gram_schmidt(rows)
    norms = [sum(x * x for x in v) for v in bstar]
    best2 = min(sum(x * x for x in row) for row in rows)
    bestv: Optional[Vec] = None
    for row in rows:
        if sum(x * x for x in row) == best2:
            bestv = row
            break

    coeffs = [0] * n

    def search(level: int, remaining: Fraction):
        nonlocal best2, bestv
        if level < 0:
            vec = tuple(
                sum(coeffs[i] * rows[i][k] for i in range(n)) for k in range(len(rows[0]))
            )
            l2 = sum(x * x for x in vec)
            if 0 < l2 < best2:
                best2, bestv = l2, vec
            return
        center = -sum(mu[i][level] * coeffs[i] for i in range(level + 1, n))
        if norms[level] == 0:
            return
        bound = remaining / norms[level]
        half = math.isqrt(int(bound)) + 2
        lo = math.floor(center) - half
        hi = math.ceil(center) + half
        for c in range(lo, hi + 1):
            contrib = (Fraction(c) - center) ** 2 * norms[level]
            if contrib > remaining:
                continue
            coeffs[level] = c
            search(level - 1, remaining - contrib)
        coeffs[level] = 0

    search(n - 1, Fraction(best2))
    # Canonical sign: lexicographically positive representative.
    assert bestv is not None
    if bestv < tuple(-x for x in bestv):
        bestv = tuple(-x for x in bestv)
    return ShortestVector(int(best2), bestv)


@dataclass(frozen=True)
class DeepPoint:
    point: Vec
    dist2: Fraction


def _bbox_dist2_lower(y: Vec, bbox) -> Fraction:
    total = Fraction(0)
    for v, (lo, hi) in zip(y, bbox):
        if v < lo:
            total += (lo - v) ** 2
        elif v > hi:
            total += (v - hi) ** 2
    return total


def _exact_min_dist2(y: Vec, hulls, bboxes, rank: int, order=None,
                     floor: Optional[Fraction] = None) -> Optional[Fraction]:
    """Exact min squared distance from y to the hulls, or None as soon as it
    provably cannot exceed ``floor`` (the incumbent best)."""
    best: Optional[Fraction] = None
    for i in (order if order is not None else range(len(hulls))):
        if best is not None and _bbox_dist2_lower(y, bboxes[i]) >= best:
            continue
        d = geometry.point_hull_dist2(y, hulls[i], rank)
        if best is None or d < best:
            best = d
            if floor is not None and best <= floor:
                return None
            if best == 0:
                break
    return best


def deep_point(obstacles: Sequence[Sequence[tuple]], R: int, rank: int) -> DeepPoint:
    """Exact argmax over integer points of [-R, R]^rank of the minimum squared
    distance to the union of obstacle hulls; ties break to the
    lexicographically smallest point."""
    if not obstacles:
        raise ValidationError("obstacle list must be nonempty")
    if R < 1:
        raise ValidationError("box radius must be >= 1")
    if rank not in (1, 2):
        raise CapabilityError(f"deep-point search supports rank <= 2, got {rank}")
    hulls = [list(h) for h in obstacles]
    bboxes = [
        [geometry.directional_extrema(h, tuple(1 if i == j else 0 for i in range(rank)))
         for j in range(rank)]
        for h in hulls
    ]

    if rank == 1:
        best: Optional[DeepPoint] = None
        for v in range(-R, R + 1):
            d = _exact_min_dist2(
                (v,), hulls, bboxes, 1,
                floor=None if best is None else best.dist2,
            )
            if d is not None and (best is None or d > best.dist2):
                best = DeepPoint((v,), d)
        return best

    # Float prefilter over the whole grid, exact confirmation on a shortlist.
    xs = np.arange(-R, R + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    px = gx.ravel().astype(np.float64)
    py = gy.ravel().astype(np.float64)
    dmin = np.full(px.shape, np.inf)
    for hull in hulls:
        fh = [(float(a), float(b)) for a, b in hull]
        if len(fh) == 1:
            d2 = (px - fh[0][0]) ** 2 + (py - fh[0][1]) ** 2
        else:
            d2 = np.full(px.shape, np.inf)
            m = len(fh)
            inside = np.ones(px.shape, dtype=bool) if m >= 3 else None
            for i in range(m if m > 2 else 1):
                ax, ay = fh[i]
                bx, by = fh[(i + 1) % m]
                dx, dy = bx - ax, by - ay
                dd = dx * dx + dy * dy
                if dd == 0:
                    seg = (px - ax) ** 2 + (py - ay) ** 2
                else:
                    t = np.clip(((px - ax) * dx + (py - ay) * dy) / dd, 0.0, 1.0)
                    seg = (px - ax - t * dx) ** 2 + (py - ay - t * dy) ** 2
                d2 = np.minimum(d2, seg)
                if inside is not None:
                    cross = dx * (py - ay) - dy * (px - ax)
                    inside &= cross >= 0
            if inside is not None:
                d2[inside] = 0.0
        dmin = np.minimum(dmin, d2)
    max_val = float(dmin.max())
    guard = 1e-9 + 1e-6 * max_val
    idx = np.nonzero(dmin >= max_val - guard)[0]
    candidates = sorted((int(gx.ravel()[i]), int(gy.ravel()[i])) for i in idx)
    # Float bbox corners for ordering hulls nearest-first per candidate; the
    # order is a heuristic only, all comparisons stay exact.
    lo_f = np.array([[float(b[0]) for b in bb] for bb in bboxes])
    hi_f = np.array([[float(b[1]) for b in bb] for bb in bboxes])
    best = None
    for y in candidates:
        fy = np.array([float(v) for v in y])
        lower = np.maximum(lo_f - fy, 0.0) ** 2 + np.maximum(fy - hi_f, 0.0) ** 2
        order = np.argsort(lower.sum(axis=1))
        d = _exact_min_dist2(
            y, hulls, bboxes, 2, order=order,
            floor=None if best is None else best.dist2,
        )
        if d is not None and (best is None or d > best.dist2):
            best = DeepPoint(y, d)
    return best
