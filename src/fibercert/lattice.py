"""Integer linear algebra for kernel lattices and the deep-point search.

perp_basis computes a canonical saturated basis of the kernel of a primitive
class and its exact squared covolume (Gram determinant); systole is the exact
shortest vector of the rank <= 2 projected lattice by Lagrange-Gauss
reduction; deep_point is an exact argmax over the lattice points of a box,
found by branch and bound over cells with integer bounds and exact rational
distances.  No floating point is used.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import geometry
from .errors import CapabilityError, ValidationError

Vec = tuple[int, ...]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


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
        if _dot(b, alpha.vector) != 0:
            raise ValidationError("internal error: kernel basis not orthogonal")
    zeta = tuple(b[:-1] for b in basis)
    gram_z = [[_dot(u, v) for v in zeta] for u in zeta]
    gram_a = [[_dot(u, v) for v in basis] for u in basis]
    covol2 = int_det(gram_z)
    if covol2 <= 0:
        raise ValidationError(
            "projected kernel basis is degenerate (class has n = 0?)"
        )
    return PerpLattice(alpha, basis, zeta, covol2, int_det(gram_a))


@dataclass(frozen=True)
class ShortestVector:
    length2: int
    vector: Vec


def systole(L: PerpLattice) -> ShortestVector:
    """Exact shortest nonzero vector of the projected lattice (rank <= 2).

    Rank 1 is its single basis row.  Rank 2 is Lagrange-Gauss reduction:
    keep |u| <= |v| and subtract from v the nearest-integer multiple of u
    until that multiple is 0.  Then |2<u, v>| <= <u, u> <= <v, v>, so every
    a*u + b*v with b != 0 is at least as long as u, and u is a shortest
    vector.  Each swap strictly shortens u, so the loop ends; all arithmetic
    is on integers.  The sign is the lexicographically positive one.
    """
    rows = L.zeta_basis
    if len(rows) > 2:
        raise CapabilityError(f"shortest-vector search supports rank <= 2, got {len(rows)}")
    u = rows[0]
    if len(rows) == 2:
        v = rows[1]
        while True:
            if _dot(v, v) < _dot(u, u):
                u, v = v, u
            uu = _dot(u, u)
            m = (2 * _dot(u, v) + uu) // (2 * uu)
            if m == 0:
                break
            v = tuple(b - m * a for a, b in zip(u, v))
    if u < tuple(-x for x in u):
        u = tuple(-x for x in u)
    return ShortestVector(_dot(u, u), u)


@dataclass(frozen=True)
class DeepPoint:
    point: Vec
    dist2: Fraction


Box = tuple[int, int, int, int]  # (x_lo, x_hi, y_lo, y_hi)


def _outward(points: Sequence[tuple]) -> Box:
    """The integer box around rank-2 points, rounded outward."""
    xs, ys = zip(*points)
    return (math.floor(min(xs)), math.ceil(max(xs)),
            math.floor(min(ys)), math.ceil(max(ys)))


def _gap2(x0: int, x1: int, y0: int, y1: int, box: Box) -> int:
    """Squared distance between the cell [x0, x1] x [y0, y1] and a box."""
    a, b, c, d = box
    gx = a - x1 if a > x1 else (x0 - b if x0 > b else 0)
    gy = c - y1 if c > y1 else (y0 - d if y0 > d else 0)
    return gx * gx + gy * gy


def _beats(dist2, point: Vec, best: Optional[DeepPoint]) -> bool:
    """Whether (dist2, point) displaces the incumbent: farther, or as far and
    lexicographically smaller."""
    return (best is None or dist2 > best.dist2
            or (dist2 == best.dist2 and point < best.point))


def deep_point(obstacles: Sequence[Sequence[tuple]], R: int, rank: int) -> DeepPoint:
    """Exact argmax over integer points of [-R, R]^rank of the minimum squared
    distance to the union of obstacle hulls; ties break to the
    lexicographically smallest point.

    Best-first branch and bound over cells of lattice points.  Rank 1 is
    searched as rank 2 with second coordinate 0 throughout, which changes
    neither distances nor the lexicographic order, so its cells are
    intervals and rank-2 cells are rectangles.
    - Bound: f(y) = min_i d(y, H_i)^2 is at most |y - v|^2 for every vertex v
      of every hull, and that is largest at a corner of the cell, so the
      least such corner value over the vertices bounds f on the cell.
    - Pruning: a hull whose bounding box is farther from the cell than the
      bound is never the nearest one inside it and is dropped, and so is a
      vertex that far away.  A cell is dropped when its bound, paired with
      its low corner (its lexicographically smallest point), cannot
      displace the incumbent (see _beats).
    - Leaves: cells are halved along their longest side down to single
      points, which geometry.point_hull_dist2 scores exactly, nearest
      bounding box first.
    Bounds use integer boxes rounded outward around every hull and every
    vertex, so Fraction vertices keep them valid, and all arithmetic is
    exact: Python ints and Fractions, no floating point.
    """
    if not obstacles:
        raise ValidationError("obstacle list must be nonempty")
    if R < 1:
        raise ValidationError("box radius must be >= 1")
    if rank not in (1, 2):
        raise CapabilityError(f"deep-point search supports rank <= 2, got {rank}")
    hulls = [list(h) for h in obstacles]
    pad = (0,) * (2 - rank)
    bboxes = [_outward([tuple(v) + pad for v in h]) for h in hulls]
    vertices = [_outward([tuple(v) + pad]) for h in hulls for v in h]

    def entry(lo: Vec, hi: Vec, near: list[int], verts: list[Box]) -> tuple:
        """Heap entry of the cell [lo, hi]: its negated bound, its corners,
        and the hulls and vertex boxes within the bound of it."""
        (x0, y0), (x1, y1) = lo, hi
        sx, sy = x0 + x1, y0 + y1
        # Per axis the far end of the cell from [a, b] is x0 exactly when the
        # cell's midpoint lies below the interval's.
        bound = min(((x0 - b) ** 2 if sx < a + b else (x1 - a) ** 2)
                    + ((y0 - d) ** 2 if sy < c + d else (y1 - c) ** 2)
                    for a, b, c, d in verts)
        return (-bound, lo, hi,
                [i for i in near if _gap2(x0, x1, y0, y1, bboxes[i]) <= bound],
                [v for v in verts if _gap2(x0, x1, y0, y1, v) <= bound])

    def score(y: Vec, near: list[int], best: Optional[DeepPoint]) -> Optional[Fraction]:
        """Exact f(y), or None as soon as y provably cannot displace best."""
        d = None
        x, z = y
        for gap, i in sorted((_gap2(x, x, z, z, bboxes[i]), i) for i in near):
            if d is not None and gap >= d:
                break
            di = geometry.point_hull_dist2(y[:rank], hulls[i], rank)
            if d is None or di < d:
                d = di
                if not _beats(d, y, best):
                    return None
        return d

    best: Optional[DeepPoint] = None
    span = R if rank == 2 else 0
    heap = [entry((-R, -span), (R, span), list(range(len(hulls))), vertices)]
    while heap:
        neg_bound, lo, hi, near, verts = heapq.heappop(heap)
        if not _beats(-neg_bound, lo, best):
            break  # no cell left is bounded any better
        if lo == hi:
            d = score(lo, near, best)
            if d is not None:
                best = DeepPoint(lo, d)
            continue
        (x0, y0), (x1, y1) = lo, hi
        if x1 - x0 >= y1 - y0:
            mid = (x0 + x1) // 2
            halves = ((lo, (mid, y1)), ((mid + 1, y0), hi))
        else:
            mid = (y0 + y1) // 2
            halves = ((lo, (x1, mid)), ((x0, mid + 1), hi))
        for half in halves:
            child = entry(*half, near, verts)
            if _beats(-child[0], child[1], best):
                heapq.heappush(heap, child)
    return DeepPoint(best.point[:rank], best.dist2)
