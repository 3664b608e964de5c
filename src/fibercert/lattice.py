"""Integer linear algebra for kernel lattices and the deep-point search.

perp_basis writes the Hermite normal form basis of the saturated kernel of a
primitive class of rank <= 2 in closed form, with its exact squared covolume;
systole is the exact shortest vector of the projected lattice by
Lagrange-Gauss reduction; Obstacles indexes the obstacle hulls by their
boxes; deep_point is an exact argmax over the lattice points of a box among
them, found by branch and bound over exact boxes, with exact rational
distances, over half the box when the obstacles are point-symmetric and
over one period strip of it when they repeat along the kernel.  No floating
point is used.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from . import geometry
from .errors import ValidationError

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

    def is_primitive(self) -> bool:
        return gcd(*self.vector) == 1

    def primitive_reduction(self) -> "FiberedClass":
        g = gcd(*self.vector)
        return FiberedClass(tuple(v // g for v in self.vector))

    @cached_property
    def lattice(self) -> "PerpLattice":
        """perp_basis of the class, computed once per class object."""
        return perp_basis(self)


@dataclass(frozen=True)
class PerpLattice:
    """The kernel lattice of a class, with its coordinate projection.

    ``basis`` rows span the saturated kernel of alpha in Z^{r+1};
    ``zeta_basis`` drops the last coordinate.  covol2 is the Gram determinant
    of the projection.
    """

    alpha: FiberedClass
    basis: tuple[Vec, ...]
    zeta_basis: tuple[Vec, ...]
    covol2: int

    @cached_property
    def shortest_vector(self) -> "ShortestVector":
        """systole of the lattice, computed once per lattice object."""
        return systole(self)

    @property
    def period(self) -> Optional[Vec]:
        """The projection v of the primitive kernel vector (v, 0), whose
        last coordinate is 0: (-b, a)/gcd(a, b) for alpha = (a, b, n).  A
        word moved by it keeps its power.  None in rank 1, where the kernel
        holds no such vector, and for a = b = 0."""
        x = self.alpha.vector[:-1]
        g = gcd(*x)
        return (-x[1] // g, x[0] // g) if len(x) == 2 and g else None


def perp_basis(alpha: FiberedClass) -> PerpLattice:
    """The row Hermite normal form basis of the saturated kernel lattice of
    a primitive class alpha = (x, n) of rank <= 2 with n != 0, in closed form.

    Dropping the last coordinate maps the kernel onto
    Lambda = {y : <x, y> = 0 mod n}, of index |n| in Z^r, and the kernel row
    over y is (y, -<x, y>/n); so the basis is Lambda's upper-triangular one,
    positive diagonal and entries above it reduced, each row extended.
    - Rank 1: Lambda = |n| Z, since x is a unit mod n.
    - Rank 2, x = (a, b): with g = gcd(b, n) and d = |n|/g, the basis is
      ((g, e), (0, d)).  (0, d) is the least positive multiple of (0, 1) in
      Lambda.  A y in Lambda has a*y_0 in gZ, and a is a unit mod g because
      gcd(a, b, n) = 1, so g divides y_0.  (g, e) lies in Lambda exactly
      when (b/g) e = -a mod d, which has one solution e in [0, d) since b/g
      is a unit mod d; g d = |n| is the index, so the two rows span Lambda.
    """
    if not alpha.is_primitive():
        raise ValidationError(
            "class is not primitive: divide by the gcd of its entries first"
        )
    *x, n = alpha.vector
    if n == 0:
        raise ValidationError(
            "projected kernel basis is degenerate (class has n = 0?)"
        )
    if len(x) == 1:
        zeta = ((abs(n),),)
    else:
        a, b = x
        g = gcd(b, n)
        d = abs(n) // g
        zeta = ((g, -a * pow(b // g, -1, d) % d), (0, d))
    basis = tuple(y + (-geometry.dot(x, y) // n,) for y in zeta)
    for row in basis:
        if geometry.dot(row, alpha.vector) != 0:
            raise ValidationError("internal error: kernel basis not orthogonal")
    # covol2 is the Gram determinant det(Z Z^T) = det(Z)^2 of the square Z.
    det = zeta[0][0] if len(x) == 1 else zeta[0][0] * zeta[1][1] - zeta[0][1] * zeta[1][0]
    return PerpLattice(alpha, basis, zeta, det * det)


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
    u = rows[0]
    if len(rows) == 2:
        v = rows[1]
        while True:
            if geometry.dot(v, v) < geometry.dot(u, u):
                u, v = v, u
            uu = geometry.dot(u, u)
            m = (2 * geometry.dot(u, v) + uu) // (2 * uu)
            if m == 0:
                break
            v = tuple(b - m * a for a, b in zip(u, v))
    if u < tuple(-x for x in u):
        u = tuple(-x for x in u)
    return ShortestVector(geometry.dot(u, u), u)


@dataclass(frozen=True)
class DeepPoint:
    point: Vec
    dist2: Fraction


Box = tuple  # (x_lo, x_hi, y_lo, y_hi)


def _box(points: Sequence[tuple]) -> Box:
    """The exact box around rank-2 points."""
    xs, ys = zip(*points)
    return (min(xs), max(xs), min(ys), max(ys))


def _pad(v: Sequence) -> tuple:
    """A rank-1 or rank-2 point as a rank-2 point, second coordinate 0."""
    return tuple(v) + (0,) * (2 - len(v))


@dataclass(frozen=True)
class BaseHull:
    """A hull shared by every obstacle placed from it, with its exact box
    and its vertices as rank-2 points (in rank 1 their y coordinate is 0).

    An obstacle is a pair (base, x): the hull base.hull + x for an integer
    shift x.  Its box and vertices are the base's plus x."""

    hull: tuple
    box: Box
    vertices: tuple[tuple, ...]

    @classmethod
    def of(cls, hull: Sequence[tuple]) -> "BaseHull":
        hull = tuple(tuple(v) for v in hull)
        padded = tuple(_pad(v) for v in hull)
        return cls(hull, _box(padded), padded)

    @cached_property
    def reflected(self) -> tuple:
        """The hull reflected through the origin (geometry.reflect), in
        convex_hull's form, so it equals the hull of a base built from the
        reflected points; computed once per base."""
        return tuple(geometry.reflect(self.hull))


Obstacle = tuple[BaseHull, Vec]  # the hull base.hull + x, placed as (base, x)


class Obstacles:
    """An index of placed obstacles, each exact box computed once with
    coordinates doubled, for deep_point's cell bounds and for every question
    asked at one point.  ``period`` is a nonzero rank-2 kernel shift v (see
    PerpLattice.period) and ``pool`` every obstacle placed from the words,
    of which ``placed`` is the part kept (``placed`` itself by default);
    Obstacles.strip checks them for deep_point."""

    def __init__(self, placed: Sequence[Obstacle], period: Optional[Vec] = None,
                 pool: Optional[Sequence[Obstacle]] = None):
        self.placed = list(placed)
        self.period, self.pool = period, self.placed if pool is None else pool
        self.shifts = [_pad(x) for _, x in self.placed]
        self.doubled = [tuple(2 * (e + t) for e, t in zip(base.box, (sx, sx, sy, sy)))
                        for (base, _), (sx, sy) in zip(self.placed, self.shifts)]

    def __len__(self) -> int:
        return len(self.placed)

    @cached_property
    def symmetric(self) -> bool:
        """Whether the obstacles are point-symmetric, checked in the order
        build_obstacles places kernel words: obstacle N-1-i is obstacle i
        reflected through the origin, its shift negated and its base's hull
        the reflected hull of obstacle i's base.  Then the union of the
        obstacles is closed under y -> -y.  One pass over half the shifts
        and bases; each base reflects its hull once (BaseHull.reflected)."""
        placed, shifts, n = self.placed, self.shifts, len(self.placed)
        half = (n + 1) // 2
        return (shifts[:half] == [(-a, -b) for a, b in reversed(shifts[n // 2:])]
                and all(b.hull == a.reflected for (a, _), (b, _)
                        in zip(placed[:half], reversed(placed[n // 2:]))))

    @cached_property
    def strip(self) -> Optional[Vec]:
        """The period v oriented lexicographically negative, when every
        obstacle (base, x) has its partner (base, x - v) in the pool, placed
        from the same base object; None without a period or when a partner
        is missing.  Checked, never assumed, in one pass over the pool and
        one over the obstacles."""
        if self.period is None:
            return None
        v = self.period if self.period < (0, 0) else tuple(-c for c in self.period)
        vx, vy = v
        pool = {(id(base), x) for base, x in self.pool}
        if all((id(base), (x0 - vx, x1 - vy)) in pool for base, (x0, x1) in self.placed):
            return v
        return None

    def cell_bound(self, lo: Vec, hi: Vec, near: Sequence[int]) -> tuple[int, list[int]]:
        """The least far-corner value of the cell [lo, hi] over the vertices
        of the obstacles in ``near``, and those obstacles whose box lies
        within that bound of the cell.

        A vertex's far-corner value is the largest squared distance from a
        point of the cell to the vertex.  Each vertex lies in its obstacle's
        box, so no vertex of an obstacle has a value below LB/4, the least
        far-corner value of a point of the obstacle's box.  In doubled
        coordinates LB = (gx + wx)^2 + (gy + wy)^2, where wx is the cell's
        width and gx twice the distance from the cell's midpoint to the
        obstacle's box along x, and likewise for y.
        Obstacles are walked in increasing LB and their vertices scored only
        while LB is below 4 times the least value so far, so the result is
        exact.  An obstacle's vertices are its base's shifted by x, so the
        base's are scored against the cell shifted by -x instead.
        """
        (x0, y0), (x1, y1) = lo, hi
        sx, sy, wx, wy = x0 + x1, y0 + y1, x1 - x0, y1 - y0
        doubled = self.doubled
        ranked = []
        for i in near:
            a, b, c, d = doubled[i]
            gx = a - sx if sx < a else (sx - b if sx > b else 0)
            gy = c - sy if sy < c else (sy - d if sy > d else 0)
            # Twice the gap between the cell and the box along x is gx - wx.
            ex = gx - wx if gx > wx else 0
            ey = gy - wy if gy > wy else 0
            gx += wx
            gy += wy
            ranked.append((gx * gx + gy * gy, i, ex * ex + ey * ey))
        ranked.sort()
        placed, shifts = self.placed, self.shifts
        best = None
        for lb, i, _ in ranked:
            if best is not None and lb >= 4 * best:
                break
            tx, ty = shifts[i]
            u0, u1, v0, v1 = x0 - tx, x1 - tx, y0 - ty, y1 - ty
            su, sv = sx - 2 * tx, sy - 2 * ty
            for a, c in placed[i][0].vertices:
                # Per axis the far end of the cell from a is u0 exactly when
                # the cell's midpoint lies below a.
                value = (((u0 - a) ** 2 if su < 2 * a else (u1 - a) ** 2)
                         + ((v0 - c) ** 2 if sv < 2 * c else (v1 - c) ** 2))
                if best is None or value < best:
                    best = value
        limit = 4 * best
        return best, [i for _, i, gap in ranked if gap <= limit]

    def seen_from(self, point: Vec, among: Optional[Sequence[int]] = None) -> "_Seen":
        """The obstacles in ``among`` (all by default) ranked nearest box
        first from an integer point of length rank."""
        return _Seen(self, point, range(len(self.placed)) if among is None else among)


class _Seen:
    """Obstacles ranked by the squared gap between their doubled box and the
    doubled point, once for every question asked there.  A hull is no nearer
    than its box, so each answer reads a prefix of the ranking and stays
    exact."""

    def __init__(self, index: Obstacles, point: Sequence[int], among: Sequence[int]):
        self.index, self.point = index, tuple(point)
        px, py = (2 * p for p in _pad(point))
        ranked = []
        for i in among:
            a, b, c, d = index.doubled[i]
            ranked.append((max(a - px, px - b, 0) ** 2 + max(c - py, py - d, 0) ** 2, i))
        self.ranked = sorted(ranked)

    def dist2(self) -> Fraction:
        """Exact min over the obstacles of the squared distance from the
        point, scored until a gap reaches 4 times the least so far."""
        placed = self.index.placed
        best = None
        for gap, i in self.ranked:
            if best is not None and gap >= 4 * best:
                break
            base, x = placed[i]
            d = geometry.point_hull_dist2(tuple(p - t for p, t in zip(self.point, x)), base.hull)
            if best is None or d < best:
                best = d
        return best

    def misses(self, body: BaseHull) -> bool:
        """Whether ``body``, a dilated hull about the origin, moved to the
        point misses every obstacle.  The moved body's box lies within
        L-inf distance ``reach`` of the point, so a box meeting it has a gap
        of at most 8 reach^2; the obstacles whose box meets it are tested
        exactly, nearest first.  The body moved to the point meets base + x
        iff x - point lies in body ⊕ (-base): in rank 2 one containment test
        in the sum with the base's cached reflection (BaseHull.reflected),
        in rank 1 two comparisons of interval ends."""
        a, b, c, d = body.box
        reach = max(-a, b, -c, d)
        px, py = _pad(self.point)
        # The moved body's box, doubled.
        a, b, c, d = 2 * (a + px), 2 * (b + px), 2 * (c + py), 2 * (d + py)
        placed, doubled = self.index.placed, self.index.doubled
        for gap, i in self.ranked:
            if gap > 8 * reach * reach:
                break
            e, f, g, h = doubled[i]
            if e > b or a > f or g > d or c > h:
                continue  # disjoint boxes, so disjoint hulls
            base, x = placed[i]
            t = tuple(s - p for s, p in zip(x, self.point))
            if len(t) == 1:
                meets = base.hull[0][0] + t[0] <= body.hull[-1][0] \
                    and body.hull[0][0] <= base.hull[-1][0] + t[0]
            else:
                meets = geometry.contains_point(
                    geometry.minkowski_sum(body.hull, base.reflected), t)
            if meets:
                return False
        return True


def _beats(dist2, point: Vec, best: Optional[DeepPoint]) -> bool:
    """Whether (dist2, point) displaces the incumbent: farther, or as far and
    lexicographically smaller."""
    return (best is None or dist2 > best.dist2
            or (dist2 == best.dist2 and point < best.point))


def _strip(R: int, right: int, v: Vec) -> list[tuple[Vec, Vec]]:
    """The cells of [-R, right] x [-R, R] whose points p have p + v outside
    [-R, R]^2, for v <lex 0: p_0 + v_0 < -R in the first -v_0 columns, and
    in the columns after them p_1 + v_1 > R or < -R in |v_1| rows."""
    w, h = -v[0], v[1]
    cells = []
    if w:
        cells.append(((-R, -R), (min(right, w - R - 1), R)))
    if h and w - R <= right:
        y0, y1 = (max(-R, R - h + 1), R) if h > 0 else (-R, min(R, -R - h - 1))
        cells.append(((w - R, y0), (right, y1)))
    return cells


def deep_point(obstacles: Obstacles, R: int, rank: int) -> DeepPoint:
    """Exact argmax over integer points of [-R, R]^rank of the minimum squared
    distance to the union of obstacle hulls; ties break to the
    lexicographically smallest point.

    Each obstacle is a placed translate (base, x), the hull base.hull + x
    (see BaseHull); obstacles placed from one base share its box and
    vertices, and no translate is ever materialized.  Best-first branch and
    bound over cells of lattice points.  Rank 1 is searched as rank 2 with
    second coordinate 0 throughout, which changes neither distances nor the
    lexicographic order, so its cells are intervals and rank-2 cells are
    rectangles.
    - Bound: f(y) = min_i d(y, H_i)^2 is at most |y - v|^2 for every vertex v
      of every hull, and that is largest at a corner of the cell, so the
      least such far-corner value over the vertices bounds f on the cell.
      Obstacles.cell_bound computes that least value exactly while scoring
      only the vertices of hulls whose bounding box could still hold a
      smaller one: a hull's box gives a lower bound on all of its vertices'
      values, and hulls are visited in increasing order of it.
    - Pruning: a hull whose bounding box is farther from the cell than the
      bound is never the nearest one inside it, so a cell carries only the
      hulls within its bound, and its halves search no others: every vertex
      value that could set their bounds belongs to one of those hulls.  A
      cell is dropped when its bound, paired with its low corner (its
      lexicographically smallest point), cannot displace the incumbent (see
      _beats).
    - Leaves: cells are halved along their longest side down to single
      points y, which Obstacles.seen_from(y, near).dist2() scores exactly,
      nearest bounding box first.
    - Half the box: when the obstacles are point-symmetric
      (Obstacles.symmetric, checked on the placed translates, never
      assumed), f(-y) = f(y), so the set A of argmax points is closed under
      negation.  Its lexicographically smallest point p is then <=lex 0:
      were p >lex 0, -p would be a point of A below it.  Every point <=lex 0
      has x <= 0, so the search covers [-R, 0] x [-R, R] ([-R, 0] in rank
      1) with the same bounds and tie-break, and returns the full box's
      result.
    - Period strip: when Obstacles.strip gives v (rank 2 only; checked on
      the placed translates, never assumed), the search starts from the
      one or two cells S of that box whose points p have p + v outside
      [-R, R]^2: the first -v_0 columns, and |v_1| rows at the top (v_1 > 0)
      or the bottom (v_1 < 0) of the columns after them.  Let D be such
      that every pool obstacle left out of the index lies farther than D
      from the full box (any D when the pool is the index).  Take p and
      p + v both in the box.  Then f(p + v) = min over obstacles o of
      d(p, o - v)^2.  If o - v is an obstacle, its term is >= f(p);
      otherwise it is in the pool but left out, and its term is > D^2.
      So when the full box's maximum d* is <= D^2, f does not decrease
      along +v, and the smallest argmax p* has p* + v outside the box:
      otherwise p* + v would be an argmax below it, as v <lex 0, and in
      the half box too, as v_0 <= 0.  So p* lies in S, and the search
      returns the full box's result.  When d* > D^2, f stays above D^2
      along p*, p* + v, ..., whose last point in the box lies in S, so
      the search also reports a distance above D^2 (see certify).
    Bounds use the exact box of every hull and the exact vertices, so they
    hold for Fraction vertices too, and all arithmetic is exact: Python
    ints and Fractions, no floating point.
    """
    if not obstacles:
        raise ValidationError("obstacle list must be nonempty")
    if R < 1:
        raise ValidationError("box radius must be >= 1")
    best: Optional[DeepPoint] = None
    span = R if rank == 2 else 0
    right = 0 if obstacles.symmetric else R
    v = obstacles.strip if rank == 2 else None
    cells = _strip(R, right, v) if v else [((-R, -span), (right, span))]
    # A heap entry is a cell's negated bound, its corners, and the hulls
    # within the bound of it.
    heap = []
    for lo, hi in cells:
        bound, near = obstacles.cell_bound(lo, hi, range(len(obstacles)))
        heap.append((-bound, lo, hi, near))
    heapq.heapify(heap)
    while heap:
        neg_bound, lo, hi, near = heapq.heappop(heap)
        if not _beats(-neg_bound, lo, best):
            break  # no cell left is bounded any better
        if lo == hi:
            d = obstacles.seen_from(lo[:rank], near).dist2()
            if _beats(d, lo, best):
                best = DeepPoint(lo, d)
            continue
        (x0, y0), (x1, y1) = lo, hi
        if x1 - x0 >= y1 - y0:
            mid = (x0 + x1) // 2
            halves = ((lo, (mid, y1)), ((mid + 1, y0), hi))
        else:
            mid = (y0 + y1) // 2
            halves = ((lo, (x1, mid)), ((x0, mid + 1), hi))
        for lo, hi in halves:
            bound, kept = obstacles.cell_bound(lo, hi, near)
            if _beats(bound, lo, best):
                heapq.heappush(heap, (-bound, lo, hi, kept))
    return DeepPoint(best.point[:rank], best.dist2)
