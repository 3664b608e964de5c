"""Reconstruction of the fibered cone and its dual from finite support data.

The dual cone in Z^{r+1} is the cone over the support polytopes stacked at
their heights.  Facet slopes are estimated from the data: for a direction u,
the directional extent N'_1(u, p) is subadditive in p, so N'_1(u, p)/p
decreases to the true slope and min over computed p is a certified upper
estimate.  Past a support route's checked period only the powers that can
set a facet are read, and the model is the one every power gives (see
estimate_dual_cone).  Every model records the truncation p_max and the
convergence window constant C.  The models set the subcone and the word
radius of a certificate; its obstacles are exact supports, never cone
slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from . import geometry
from .errors import SubconeError, ValidationError
from .trackmap import LiftedGraphMap, PowerMemo

# Membership margins below this in absolute value are reported near-boundary.
BOUNDARY_TOLERANCE = Fraction(1, 100)


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g == 0:
        raise ValidationError("zero vector cannot be normalized")
    return tuple(v // g for v in vec)


def _signed_axes(rank: int) -> list[tuple[int, ...]]:
    """e_0, -e_0, e_1, -e_1, ... in Z^rank."""
    return [tuple(sign * (i == j) for i in range(rank)) for j in range(rank) for sign in (1, -1)]


def _clear_denominators(vec) -> tuple[tuple[int, ...], int]:
    """A rational vector times the lcm of its denominators, and that lcm."""
    fracs = [Fraction(c) for c in vec]
    den = lcm(*(c.denominator for c in fracs))
    return tuple(int(c * den) for c in fracs), den


def _rays_over_slice(vertices) -> tuple[tuple[int, ...], ...]:
    """The primitive integer rays through the height-1 points s, as (s, 1), sorted."""
    return tuple(sorted({_primitive(_clear_denominators(list(v) + [1])[0])
                         for v in vertices}))


@dataclass(frozen=True)
class FacetDirection:
    """One dual-cone facet direction with its slope estimate and C-window."""

    u: tuple[int, ...]
    slope: Fraction  # certified upper estimate of the true facet slope
    c_window: int    # N'_1(u, k0) - N'_2(u, k0)


@dataclass(frozen=True)
class DualConeModel:
    rank: int
    p_max: int
    k0: Optional[int]
    facets: tuple[FacetDirection, ...]
    low_confidence: bool = False

    @property
    def C(self) -> int:
        return max(f.c_window for f in self.facets)

    def facet(self, u: Sequence[int]) -> FacetDirection:
        u = tuple(int(v) for v in u)
        for f in self.facets:
            if f.u == u:
                return f
        raise ValidationError(f"direction {u} is not a model facet direction")

    def contains_fattened(self, point: Sequence[int]) -> bool:
        """Is (x, p) inside the C-fattened reconstructed dual cone: p >= 0 and
        <u, x> <= slope * p + c_window for every facet?"""
        *x, p = point
        return p >= 0 and all(geometry.dot(f.u, x) <= f.slope * p + f.c_window
                              for f in self.facets)

    def base_polytope(self) -> list[tuple]:
        """Vertices of the height-1 slice of the (unfattened) model cone."""
        return geometry.halfspace_vertices([(f.u, f.slope) for f in self.facets])


def _candidate_directions(rank: int, ratio_points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The signed axes, then in rank 2 both primitive normals of every edge of
    the hull of the ratio points, given in integers (see estimate_dual_cone)."""
    dirs = _signed_axes(rank)
    if rank == 2 and len(set(ratio_points)) >= 2:
        hull = geometry.convex_hull(ratio_points)
        n = len(hull)
        for i in range(n if n > 2 else 1):
            v, w = hull[i], hull[(i + 1) % n]
            # Outward normal for a counterclockwise hull, and its opposite.
            normal = (w[1] - v[1], v[0] - w[0])
            for cand in (normal, tuple(-c for c in normal)):
                prim = _primitive(cand)
                if prim not in dirs:
                    dirs.append(prim)
    return dirs


def _powers_read(hull_of: PowerMemo, p_max: int) -> list[int]:
    """The powers in 1..p_max whose hulls can set a facet of the estimate
    (see estimate_dual_cone): every one, unless the route ``hull_of`` has a
    period (T, c, Q) by p_max; then 1..T + c and, for each residue r < c,
    the largest p <= p_max with p ≡ T + r (mod c)."""
    hull_of(p_max)  # walks to p_max, or to the route's period if it finds one first
    if hull_of.period is None:
        return list(range(1, p_max + 1))
    T, c, _ = hull_of.period
    lasts = (p_max - (p_max - T - r) % c for r in range(c))
    return sorted({*range(1, min(p_max, T + c) + 1), *(p for p in lasts if p > 0)})


def estimate_dual_cone(track: LiftedGraphMap, p_max: int,
                       route: str = "semiring") -> DualConeModel:
    """Reconstruct the dual cone from the support hulls at powers 1..p_max,
    read from the map's ``route`` memo ("semiring" or "oracle").

    Only the powers of _powers_read are read, and the model is the one that
    every power gives.  With a period (T, c, Q), each power p = p0 + kc
    past T + c, p0 = T + r, is H_{p0} ⊕ kQ with k >= 1, and:
    - the normal fan of H ⊕ kQ does not depend on k > 0, so its vertices
      are a_i + k q_j over one fixed set of pairs (a_i, q_j) of vertices of
      H_{p0} and Q;
    - each ratio point (a_i + k q_j)/(p0 + kc) moves monotonically, as k
      grows from 0, along the segment from a_i/p0 towards q_j/c, so the
      ratio points of the powers between p0 and the last one read lie on
      segments between read ones: the ratio hull keeps its vertices, and
      _chain drops collinear points (for p0 = 0 the point is q_j/c at
      every k);
    - top_u(p)/p = (A + kB)/(p0 + kc) is monotone in k, so its least value
      is at k = 0 or at the largest k, and the fallback window's
      min <u, x> = A' + kB' is linear in k;
    - scaling the ratio points by the lcm of the powers read, not of
      1..p_max, changes neither the hull's vertex order nor its primitive
      edge normals.
    A route with no period, like the path oracle, reads every power.
    """
    if p_max < 1:
        raise ValidationError("p_max must be >= 1")
    hull_of = getattr(track, route)
    powers = _powers_read(hull_of, p_max)
    supports = {p: hull_of(p) for p in powers}
    ratio_points = []
    if track.rank == 2:
        # The hull of a union is the hull of the union of the hulls, so the
        # hull vertices v of each power p suffice.  Their ratio points v/p,
        # times the lcm of the powers > 0, are integers with the same hull
        # vertex order and primitive edge normals.
        scale = lcm(*powers)
        ratio_points = [(x * m, y * m) for p in powers for m in (scale // p,)
                        for x, y in supports[p]]
    k0 = track.k0
    facets = []
    # Each power's hull vertices, as rank-2 points (second coordinate 0 in rank 1).
    hulls = [[(*x, 0)[:2] for x in supports[p]] for p in powers]
    for u in _candidate_directions(track.rank, ratio_points):
        # N'_1(u, p): the largest <u, x> over the hull vertices of power p.
        a, b = (*u, 0)[:2]
        tops = [max([a * x + b * y for x, y in h]) for h in hulls]
        # The least N'_1/p, its pairs (hi, p > 0) compared by cross-multiplication.
        top, q = tops[0], powers[0]
        for p, hi in zip(powers, tops):
            if hi * q < top * p:
                top, q = hi, p
        slope = Fraction(top, q)
        if k0 is not None and k0 <= p_max:
            lo, hi = geometry.directional_extrema(hull_of(k0), u)
            c_window = hi - lo
        else:
            # No strict-positivity window available; fall back to the widest
            # observed deviation so the fattened cone still contains the data.
            c_window = max(0, -min(geometry.dot(u, x) for p in powers
                                   for x in supports[p]))
        facets.append(FacetDirection(u, slope, c_window))
    return DualConeModel(track.rank, p_max, k0, tuple(facets),
                         low_confidence=k0 is None or p_max < k0)


@dataclass(frozen=True)
class Membership:
    status: str  # interior | exterior | near-boundary
    margin: Fraction


@dataclass(frozen=True)
class FiberedConeModel:
    """The reconstructed fibered cone in H^1 coordinates.

    ``generators`` are the primitive integer extreme rays of the dual cone,
    each with a positive last coordinate; a class is in the cone iff it
    pairs nonnegatively with all of them.  ``slope_cap`` restricts to the
    axis-centered slope box |alpha_i| <= slope_cap * n, the proper subcone
    P that keeps the comparability constant epsilon positive.  Membership
    and the extreme rays read one list of halfspaces of the height-1 slice
    {alpha : n = 1}, so the subcone is defined in one place.
    """

    rank: int
    generators: tuple[tuple[int, ...], ...]
    slope_cap: Optional[Fraction] = None

    def __post_init__(self):
        for g in self.generators:
            if g[-1] <= 0:
                raise ValidationError(f"generator {g} must have a positive last coordinate")

    @cached_property
    def _slice(self) -> tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]:
        """(u, c, scale) per halfspace <u, s> <= c of the height-1 slice:
        (-g', g_n, g_n) per generator g = (g', g_n) and, when capped,
        (+-e_i, cap, 1 + cap).  A class (x, n) with n > 0 has slack
        c n - <u, x> on a halfspace, and ``scale`` n is its unit, so a
        margin does not grow or shrink with the generators' size."""
        rows = [(tuple(-a for a in g[:-1]), Fraction(g[-1]), Fraction(g[-1]))
                for g in self.generators]
        if self.slope_cap is not None:
            rows += [(e, self.slope_cap, 1 + self.slope_cap) for e in _signed_axes(self.rank)]
        return tuple(rows)

    def membership(self, alpha: Sequence[int]) -> Membership:
        alpha = tuple(int(v) for v in alpha)
        if len(alpha) != self.rank + 1:
            raise ValidationError(
                f"class has length {len(alpha)}, expected {self.rank + 1}"
            )
        *x, n = alpha
        if n <= 0:
            return Membership("exterior", Fraction(-1))
        margin = min((c * n - geometry.dot(u, x)) / (scale * n)
                     for u, c, scale in self._slice)
        if abs(margin) < BOUNDARY_TOLERANCE:
            return Membership("near-boundary", margin)
        return Membership("interior" if margin > 0 else "exterior", margin)

    def subcone_slope(self, cap: Fraction) -> "FiberedConeModel":
        """Intersect with the axis-centered slope box |alpha_i| <= cap * n."""
        cap = Fraction(cap)
        if cap <= 0:
            raise SubconeError(f"slope cap must be positive, got {cap}")
        return FiberedConeModel(self.rank, self.generators, cap)

    @cached_property
    def extreme_rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer extreme rays of the (sub)cone, sorted; computed
        once per model.  They are the rays through the vertices of the
        height-1 slice (each has a positive last coordinate), and a slice
        that is unbounded raises SubconeError."""
        try:
            vertices = geometry.halfspace_vertices([(u, c) for u, c, _ in self._slice])
        except ValidationError as exc:
            raise SubconeError(f"subcone has no bounded height-1 slice: {exc}") from exc
        return _rays_over_slice(vertices)


def fibered_cone_from_dual(dual: DualConeModel) -> FiberedConeModel:
    """Dualize: generators are the primitive rays over the base-slice vertices."""
    return FiberedConeModel(dual.rank, _rays_over_slice(dual.base_polytope()))


def subcone_models(track: LiftedGraphMap, cone_p_max: int, slope_cap: Optional[Fraction],
                   route: str = "semiring",
                   ) -> tuple[DualConeModel, FiberedConeModel, FiberedConeModel]:
    """(dual, cone, P): the dual cone at ``cone_p_max`` on ``route``, the
    fibered cone, and its subcone P capped by ``slope_cap`` (P is the cone
    when None), as bound, sweep and verify build it."""
    dual = estimate_dual_cone(track, cone_p_max, route)
    cone = fibered_cone_from_dual(dual)
    P = cone if slope_cap is None else cone.subcone_slope(slope_cap)
    return dual, cone, P


@dataclass(frozen=True)
class EpsilonBound:
    """Conservative comparability constant for truncating the word enumeration.

    For any word (x, y) in the kernel of a class in the subcone, every point
    q of its support translate satisfies
    ||q||_inf >= epsilon * ||x||_inf - c_inf  and
    ||q||_inf <= ||x||_inf / epsilon + c_inf,
    a two-sided norm comparison.  rho bounds the per-coordinate support growth rate,
    c_ratio bounds sum_i |p_i| / n over the subcone's extreme rays.
    """

    epsilon: Fraction
    rho: Fraction
    c_inf: int
    c_ratio: Fraction
    rays: tuple[tuple[int, ...], ...]


def epsilon_of_subcone(P: FiberedConeModel, dual: DualConeModel) -> EpsilonBound:
    if P.slope_cap is None:
        raise SubconeError("epsilon needs a proper subcone: give a slope cap")
    rho = Fraction(0)
    c_inf = 0
    for u in _signed_axes(dual.rank):
        f = dual.facet(u)
        rho = max(rho, f.slope)
        c_inf = max(c_inf, f.c_window)
    rho = max(rho, Fraction(0))
    rays = P.extreme_rays
    c_ratio = Fraction(0)
    for *x, n in rays:  # n > 0: every ray passes through the height-1 slice
        c_ratio = max(c_ratio, Fraction(sum(abs(v) for v in x), n))
    # c_ratio > 0: the slice holds a neighborhood of the axis point s = 0,
    # which has slack g_n > 0 on every generator and cap > 0 on the box.
    eps = 1 - rho * c_ratio
    if eps <= 0:
        raise SubconeError(
            f"subcone too wide: growth rate {rho} * kernel ratio {c_ratio} >= 1; "
            "lower the slope cap"
        )
    return EpsilonBound(min(eps, Fraction(1)), rho, c_inf, c_ratio, rays)
