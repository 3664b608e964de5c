"""Exact convex geometry over the rationals, in cover ranks 1 and 2.

All coordinates are ints or Fractions; no floating point is used here, so
every predicate (containment, disjointness, distance comparison) is exact.
No function takes a rank: each reads it from the length of its points.
Hulls are vertex lists: sorted endpoints in rank 1, counterclockwise monotone
chains in rank 2, each from its lexicographically smallest vertex, as
convex_hull returns them.  minkowski_sum, minkowski_difference, reflect and
hulls_disjoint need hulls in this form; the sum and the difference walk
their edges, and hulls_disjoint runs on the sum.  halfspace_vertices works
on integer rows: it clears its bounds by their lcm, tests every candidate
vertex on integers, and builds Fractions only for the vertices it accepts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import ValidationError

Point = tuple  # tuple of int | Fraction, length = rank


def _chain(pts: Iterable[Point]) -> list[Point]:
    """One monotone chain over sorted rank-2 points: every kept turn is a
    strict left turn, so collinear points drop out."""
    chain = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            chain.pop()
        chain.append(p)
    return chain


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull.

    Rank 1: [min] or [min, max].  Rank 2: counterclockwise order, starting
    from the lexicographically smallest vertex (monotone chain).
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValidationError("empty point set has no hull")
    if len(pts) == 1:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]
    return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def dot(u: Sequence, v: Sequence):
    """The inner product <u, v>."""
    return sum(map(mul, u, v))


def directional_extrema(points: Iterable[Point], u: Sequence) -> tuple:
    """(min, max) of <u, x> over the points."""
    vals = [dot(u, p) for p in points]
    if not vals:
        raise ValidationError("empty point set")
    return min(vals), max(vals)


def translate(points: Iterable[Point], v: Sequence) -> list[Point]:
    return [tuple(a + b for a, b in zip(p, v)) for p in points]


def reflect(hull: Sequence[Point]) -> list[Point]:
    """The hull reflected through the origin.  A half turn keeps the
    counterclockwise order, so the negated vertices only start again from
    their smallest."""
    neg = [tuple(-a for a in p) for p in hull]
    i = neg.index(min(neg))
    return neg[i:] + neg[:i]


def _edges(hull: Sequence[Point]) -> list[Point]:
    """Edge vectors of a rank-2 hull in vertex order: none for a point, there
    and back for a segment."""
    if len(hull) == 1:
        return []
    return [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(hull, [*hull[1:], hull[0]])]


def _turn(d: Point, e: Point):
    """Positive if direction d comes before e counterclockwise from straight
    down, negative if after, 0 if they point the same way.  A canonical
    hull's edges, from its lexicographically smallest vertex, come in this
    order: first the half (-90°, 90°], then (90°, 270°]."""
    hd, he = d[0] < 0 or (d[0] == 0 and d[1] < 0), e[0] < 0 or (e[0] == 0 and e[1] < 0)
    return he - hd if hd != he else d[0] * e[1] - d[1] * e[0]


def minkowski_sum(hull_a: Sequence[Point], hull_b: Sequence[Point]) -> list[Point]:
    """Hull of the Minkowski sum of two hulls, both in convex_hull's form.

    Rank 2 merges the two edge sequences by direction from the sum of the
    first vertices, the sum's lexicographically smallest vertex; parallel
    edges merge into one, so no vertex is collinear.
    """
    if len(hull_a[0]) == 1:
        lo, hi = hull_a[0][0] + hull_b[0][0], hull_a[-1][0] + hull_b[-1][0]
        return [(lo,)] if lo == hi else [(lo,), (hi,)]
    ea, eb = _edges(hull_a), _edges(hull_b)
    na, nb = len(ea), len(eb)
    (ax, ay), (bx, by) = hull_a[0], hull_b[0]
    x, y, i, j, out = ax + bx, ay + by, 0, 0, []
    while i < na or j < nb:
        out.append((x, y))
        turn = 1 if j == nb else -1 if i == na else _turn(ea[i], eb[j])
        if turn >= 0:
            x, y, i = x + ea[i][0], y + ea[i][1], i + 1
        if turn <= 0:
            x, y, j = x + eb[j][0], y + eb[j][1], j + 1
    return out or [(x, y)]


def minkowski_difference(hull_b: Sequence[Point], hull_a: Sequence[Point]
                         ) -> Optional[list[Point]]:
    """The hull Q with minkowski_sum(hull_a, Q) == hull_b, or None if there is
    none.  Rank 2 subtracts each edge of hull_a from hull_b's edge of the
    same direction; hull_a may have no direction that hull_b lacks, nor a
    longer edge."""
    if len(hull_b[0]) == 1:
        lo, hi = hull_b[0][0] - hull_a[0][0], hull_b[-1][0] - hull_a[-1][0]
        return None if lo > hi else [(lo,)] if lo == hi else [(lo,), (hi,)]
    ea, eb = _edges(hull_a), _edges(hull_b)
    (ax, ay), (bx, by) = hull_a[0], hull_b[0]
    x, y, i, out = bx - ax, by - ay, 0, []
    for e in eb:
        turn = _turn(ea[i], e) if i < len(ea) else -1
        if turn > 0:
            return None
        dx, dy = e
        if turn == 0:
            dx, dy, i = dx - ea[i][0], dy - ea[i][1], i + 1
            if dx * e[0] + dy * e[1] < 0:
                return None
        if dx or dy:
            out.append((x, y))
            x, y = x + dx, y + dy
    return (out or [(x, y)]) if i == len(ea) else None


def dilate(hull: Sequence[Point], s: int) -> list[Point]:
    """Minkowski sum with the cube [-s, s]^rank (s = 0 is a no-op)."""
    if s == 0:
        return list(hull)
    if s < 0:
        raise ValidationError("dilation must be nonnegative")
    cube = [(-s,), (s,)] if len(hull[0]) == 1 else [(-s, -s), (s, -s), (s, s), (-s, s)]
    return minkowski_sum(hull, cube)


def contains_point(hull: Sequence[Point], y: Point) -> bool:
    """Exact membership of y in the closed hull."""
    if len(y) == 1:
        lo, hi = hull[0][0], hull[-1][0]
        return lo <= y[0] <= hi
    if len(hull) == 1:
        return tuple(y) == tuple(hull[0])
    if len(hull) == 2:
        a, b = hull
        cross = (b[0] - a[0]) * (y[1] - a[1]) - (b[1] - a[1]) * (y[0] - a[0])
        if cross != 0:
            return False
        dot = (y[0] - a[0]) * (b[0] - a[0]) + (y[1] - a[1]) * (b[1] - a[1])
        return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (y[1] - a[1]) - (b[1] - a[1]) * (y[0] - a[0])
        if cross < 0:
            return False
    return True


def point_hull_dist2(y: Point, hull: Sequence[Point]) -> Fraction:
    """Exact squared Euclidean distance from y to the closed hull.

    In rank 2, outside a hull of two or more vertices, each edge [a, b],
    d = b - a, gives a candidate num / den: |y - a|^2 / 1 or |y - b|^2 / 1
    when y projects onto the line at or beyond an endpoint, and
    cross(d, y - a)^2 / |d|^2 between them (Lagrange's identity).  The
    candidates are compared by cross-multiplication, dens being positive,
    and one Fraction is built for the least; Fraction vertices work alike.
    """
    if len(y) == 1:
        lo, hi = hull[0][0], hull[-1][0]
        if lo <= y[0] <= hi:
            return Fraction(0)
        return Fraction((lo - y[0]) ** 2 if y[0] < lo else (y[0] - hi) ** 2)
    if len(hull) == 1:
        return Fraction(sum((a - b) ** 2 for a, b in zip(y, hull[0])))
    if contains_point(hull, y):
        return Fraction(0)
    yx, yy = y
    best, best_den = None, 1
    for (ax, ay), (bx, by) in zip(hull, [*hull[1:], hull[0]]):
        dx, dy, px, py = bx - ax, by - ay, yx - ax, yy - ay
        t, dd = px * dx + py * dy, dx * dx + dy * dy
        if t <= 0:
            num, den = px * px + py * py, 1
        elif t >= dd:
            num, den = (yx - bx) ** 2 + (yy - by) ** 2, 1
        else:
            num, den = (dx * py - dy * px) ** 2, dd
        if best is None or num * best_den < best * den:
            best, best_den = num, den
    return Fraction(best, best_den)


def hulls_disjoint(hull_a: Sequence[Point], hull_b: Sequence[Point]) -> bool:
    """Exact disjointness of two closed hulls in convex_hull's form (touching
    counts as overlap).  In rank 2 they meet iff 0 lies in A ⊕ (-B)."""
    if len(hull_a[0]) == 1:
        return hull_a[-1][0] < hull_b[0][0] or hull_b[-1][0] < hull_a[0][0]
    return not contains_point(minkowski_sum(hull_a, reflect(hull_b)), (0, 0))


def halfspace_vertices(halfspaces: Sequence[tuple[Sequence, Fraction]]) -> list[Point]:
    """Vertices of a bounded polytope {x : <u, x> <= c} in rank 1 or 2.

    Each halfspace is (u, c) with integer u and rational c; a zero u with a
    negative c empties the region.  Raises ValidationError if the normals
    leave a direction d free (<u, d> <= 0 for every u, so the region is
    unbounded if nonempty), or if the region is empty.

    Rank 2 intersects every pair of rows and keeps the points that satisfy
    all rows.  The rows are integer: each bound times den, the lcm of the
    bounds' denominators.  A pair's point, times its determinant det > 0 and
    den, is an integer point, tested against every row on integers; Fractions
    are built only for the vertices that pass.
    """
    normals = [u for u, _ in halfspaces if any(u)]
    if not normals:
        raise ValidationError("unbounded halfspace intersection")
    rank = len(normals[0])
    # Some free direction is a boundary direction of the recession cone, so
    # it is perpendicular to a normal.
    free = [(1,), (-1,)] if rank == 1 else [d for a, b in normals for d in ((-b, a), (b, -a))]
    if any(all(dot(u, d) <= 0 for u in normals) for d in free):
        raise ValidationError("unbounded halfspace intersection")
    if rank == 1:
        hi = min(Fraction(c, u[0]) for u, c in halfspaces if u[0] > 0)
        lo = max(Fraction(c, u[0]) for u, c in halfspaces if u[0] < 0)
        if lo > hi or any(c < 0 for u, c in halfspaces if u[0] == 0):
            raise ValidationError("empty halfspace intersection")
        return [(lo,)] if lo == hi else [(lo,), (hi,)]
    den = lcm(*(c.denominator for _, c in halfspaces))
    rows = [(a, b, c.numerator * (den // c.denominator)) for (a, b), c in halfspaces]
    verts = []
    for i, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[i + 1:]:
            det = a1 * b2 - b1 * a2
            if det == 0:
                continue
            # The pair's vertex is (x, y) / (det den); with det > 0 a row
            # holds there iff a x + b y <= c det.
            x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
            if det < 0:
                det, x, y = -det, -x, -y
            if all(a * x + b * y <= c * det for a, b, c in rows):
                verts.append((Fraction(x, det * den), Fraction(y, det * den)))
    if not verts:
        raise ValidationError("empty halfspace intersection")
    return convex_hull(verts)
