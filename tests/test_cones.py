import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercert.cones import (
    FiberedConeModel,
    Membership,
    _candidate_directions,
    epsilon_of_subcone,
    estimate_dual_cone,
    fibered_cone_from_dual,
    subcone_models,
)
from fibercert import cones, geometry
from fibercert.errors import SubconeError, ValidationError
from fibercert.geometry import contains_point, convex_hull
from fibercert.pipeline import POWER_CAP
from fibercert.trackmap import support_of_power

from conftest import checked_oracle, every_power_estimate, load_map, tuple_state_walk
from test_trackmap import doubling_rose, single_edge_rose


# -- dual cone reconstruction ---------------------------------------------

def test_dual_cone_of_pure_shift_is_a_ray():
    """[t] has support {p} at power p: both facet slopes are 1 = -(-1)."""
    dual = estimate_dual_cone(single_edge_rose(), 6)
    assert dual.facet((1,)).slope == 1
    assert dual.facet((-1,)).slope == -1
    assert dual.C == 0
    assert dual.base_polytope() == [(1,)]
    assert not dual.low_confidence


def test_low_confidence_dual_cone_below_k0(r2):
    """Below k0 there is no strict-positivity window: each facet's c_window
    falls back to the widest observed deviation, and the fattened cone still
    contains the data."""
    assert r2.k0 == 2
    dual = estimate_dual_cone(r2, 1)
    assert dual.low_confidence
    assert tuple(f.c_window for f in dual.facets) == (0, 1, 0, 1, 0, 1)
    for p, points in enumerate(tuple_state_walk(r2, 1)):
        for x in points:
            assert dual.contains_fattened(x + (p,))


def test_dual_cone_of_doubling_rose_is_0_to_p():
    """1 + 2t has support {0..p} at power p: slopes 1 and 0."""
    dual = estimate_dual_cone(doubling_rose(), 5)
    assert dual.facet((1,)).slope == 1
    assert dual.facet((-1,)).slope == 0
    assert dual.facet((1,)).c_window == 1  # k0 = 1 extent is {0, 1}
    assert dual.base_polytope() == [(0,), (1,)]
    assert dual.contains_fattened((3, 4))
    assert dual.contains_fattened((5, 4))  # inside the C = 1 fattening
    assert not dual.contains_fattened((6, 4))
    assert not dual.contains_fattened((0, -1))


def test_rank_1_estimate_never_takes_the_lcm(r1, r2, monkeypatch):
    """lcm(1..p_max) scales the rank-2 ratio points only: a rank-1 estimate
    gives the same model without it."""
    want = estimate_dual_cone(r1, 16)

    def refuse(*args):
        raise AssertionError("lcm called")

    monkeypatch.setattr(cones, "lcm", refuse)
    assert estimate_dual_cone(r1, 16) == want
    with pytest.raises(AssertionError, match="lcm called"):
        estimate_dual_cone(r2, 4)


def test_dual_cone_slopes_are_certified_upper_estimates(r1, r2):
    """Every computed support point lies under every facet's slope line."""
    for track, p_max in ((r1, 12), (r2, 10)):
        dual = estimate_dual_cone(track, p_max)
        for f in dual.facets:
            for p in range(1, p_max + 1):
                hi = geometry.directional_extrema(support_of_power(track, p), f.u)[1]
                assert Fraction(hi, p) >= f.slope
        for p, points in enumerate(tuple_state_walk(track, p_max)):
            for x in points:
                assert dual.contains_fattened(x + (p,))


def test_ratio_hull_from_hull_vertices(r1, r2):
    """The hull of the ratio points x/p over every support point, as the
    reference walk occupies them, equals the hull over each power's hull
    vertices, which estimate_dual_cone uses."""
    for track in (r1, r2):
        def ratio_hull(supports):
            return convex_hull([tuple(Fraction(c, p) for c in x)
                                for p in range(1, 21) for x in supports[p]])

        hulls = [support_of_power(track, p) for p in range(21)]
        assert ratio_hull(tuple_state_walk(track, 20)) == ratio_hull(hulls)


def _fraction_directions(ratio_points):
    """The rank-2 candidate directions from ratio points kept as Fractions:
    the reference for _candidate_directions on scaled integers."""
    dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if len(set(ratio_points)) < 2:
        return dirs
    hull = convex_hull(ratio_points)
    n = len(hull)
    for i in range(n if n > 2 else 1):
        v, w = hull[i], hull[(i + 1) % n]
        normal = (w[1] - v[1], v[0] - w[0])
        den = math.lcm(*(Fraction(c).denominator for c in normal))
        for cand in (normal, tuple(-c for c in normal)):
            ints = [int(c * den) for c in cand]
            g = math.gcd(*ints)
            prim = tuple(c // g for c in ints)
            if prim not in dirs:
                dirs.append(prim)
    return dirs


def _scaled_directions(vertices):
    """_candidate_directions on the ratio points x/p of (x, p) pairs, given
    as the integers x * (L // p), L the lcm of the p, as estimate_dual_cone
    builds them."""
    scale = math.lcm(*(p for _, p in vertices))
    return _candidate_directions(2, [tuple(c * (scale // p) for c in x) for x, p in vertices])


def _fractions(vertices):
    return [tuple(Fraction(c, p) for c in x) for x, p in vertices]


@pytest.mark.parametrize("vertices", [
    [((3, 1), 2)],                                   # one ratio point
    [((2, 4), 2), ((3, 6), 3), ((1, 2), 1)],         # one point three times
    [((0, 0), 1), ((1, 2), 2), ((3, 6), 3)],         # collinear
    [((1, -1), 3), ((-2, 2), 4), ((5, -5), 7)],      # collinear, off the axes
    [((0, 0), 1), ((1, 0), 2), ((0, 1), 3), ((1, 1), 5)],
], ids=["single", "repeated", "collinear", "collinear-anti", "quadrilateral"])
def test_integer_ratio_hull_matches_fractions(vertices):
    assert _scaled_directions(vertices) == _fraction_directions(_fractions(vertices))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                          st.integers(1, 12)), min_size=1, max_size=12))
def test_integer_ratio_hull_matches_fractions_on_random_points(vertices):
    assert _scaled_directions(vertices) == _fraction_directions(_fractions(vertices))


def test_integer_ratio_hull_matches_fractions_on_r2(r2):
    vertices = [(x, p) for p in range(1, 41) for x in support_of_power(r2, p)]
    dirs = _scaled_directions(vertices)
    assert dirs == _fraction_directions(_fractions(vertices)) and len(dirs) > 4


@pytest.mark.parametrize("p_max", [1, 2, 7, 30])
def test_dual_cone_scales_every_ratio_point_by_one_factor(monkeypatch, p_max):
    """estimate_dual_cone hands _candidate_directions the ratio points x/p of
    the hull vertices of the powers it reads as integers, all times one
    positive factor, and in rank 1, which reads only the axes, none.  r2's
    semiring route has the period (T, c) = (1, 2), so it reads 1..3 and the
    last power of each residue mod 2; so does the oracle route once the
    period is checked on it, and without that it reads every power.  Maps
    loaded anew, so no period is installed on the oracle beforehand."""
    seen = []

    def spy(rank, ratio_points):
        seen.append(ratio_points)
        return _candidate_directions(rank, ratio_points)

    monkeypatch.setattr(cones, "_candidate_directions", spy)
    every = list(range(1, p_max + 1))
    few = {1: [1], 2: [1, 2], 7: [1, 2, 3, 6, 7], 30: [1, 2, 3, 29, 30]}[p_max]
    for route, checked, read in (("oracle", False, every), ("oracle", True, few),
                                 ("semiring", False, few)):
        seen.clear()
        r1, r2 = load_map("r1"), load_map("r2")
        for track in (r1, r2):
            if checked:
                checked_oracle(track)
            estimate_dual_cone(track, p_max, route)
        assert seen[0] == []
        want = _fractions([(x, p) for p in read for x in support_of_power(r2, p)])
        pairs = [(c, f) for pt, frac in zip(seen[1], want) for c, f in zip(pt, frac)]
        assert len(seen[1]) == len(want) and all(isinstance(c, int) for c, _ in pairs)
        scale = next(c / f for c, f in pairs if f)
        assert scale > 0 and all(c == scale * f for c, f in pairs), route


def test_paper_scale_semiring_cone_reads_few_powers():
    """At p_max POWER_CAP, the semiring route's dual cone of each bundled
    map, on a map loaded anew, equals the every-power reference, and its
    build alone, semiring walk included, takes under 0.1 s: past r1's period
    (T, c) = (1, 1) it reads 3 powers and past r2's (1, 2) 5, not 2,000
    (r2's build read them all in about 0.35 s on 2 CPUs)."""
    reads = {"r1": [1, 2, POWER_CAP], "r2": [1, 2, 3, POWER_CAP - 1, POWER_CAP]}
    for name in ("r1", "r2"):
        fresh = load_map(name)
        start = time.monotonic()
        dual = estimate_dual_cone(fresh, POWER_CAP)
        elapsed = time.monotonic() - start
        assert elapsed < 0.1, (f"{name} semiring cone at p_max {POWER_CAP} took "
                               f"{elapsed:.3f}s (limit 0.1s)")
        assert cones._powers_read(fresh.semiring, POWER_CAP) == reads[name]
        assert dual == every_power_estimate(fresh, POWER_CAP), name


def test_dual_cone_is_stable_in_p_max(r1, r2):
    """Doubling the truncation does not change facet directions, and slopes
    only tighten (they are minima over more powers)."""
    for track in (r1, r2):
        small = estimate_dual_cone(track, 8)
        big = estimate_dual_cone(track, 16)
        dirs_small = {f.u for f in small.facets}
        dirs_big = {f.u for f in big.facets}
        assert dirs_small == dirs_big
        for f in big.facets:
            assert f.slope <= small.facet(f.u).slope


def test_dual_cone_validation():
    with pytest.raises(ValidationError):
        estimate_dual_cone(single_edge_rose(), 0)
    dual = estimate_dual_cone(single_edge_rose(), 3)
    with pytest.raises(ValidationError):
        dual.facet((7, 7))


# -- fibered cone and membership -----------------------------------------

def test_fibered_cone_of_pure_shift():
    dual = estimate_dual_cone(single_edge_rose(), 4)
    cone = fibered_cone_from_dual(dual)
    assert cone.generators == ((1, 1),)
    assert cone.membership((2, 3)).status == "interior"
    # Zero slack on the generator (1, 1) is the boundary itself.
    assert cone.membership((-1, 1)) == Membership("near-boundary", Fraction(0))
    assert cone.membership((-2, 1)).status == "exterior"
    assert cone.membership((1, 0)).status == "exterior"  # n <= 0


def test_r1_cone_membership(r1_models):
    _, cone, P = r1_models
    # Base slice [-1, 2]: generators pair alpha = (a, n) with n +- slope * a.
    assert cone.membership((0, 1)).status == "interior"
    assert cone.membership((1, 2)).status == "interior"
    assert cone.membership((0, -1)).status == "exterior"
    assert cone.membership((-5, 1)).status == "exterior"
    # Classes orthogonal to a generator sit on (or beyond) the boundary.
    for g in cone.generators:
        assert cone.membership((g[1], -g[0])).status in ("near-boundary", "exterior")
    with pytest.raises(ValidationError):
        cone.membership((1, 2, 3))
    # Slope-capped subcone rejects shallow classes the full cone accepts.
    assert P.slope_cap == Fraction(1, 2)
    assert P.membership((0, 1)).status == "interior"
    inside_cone = cone.membership((2, 3))
    assert inside_cone.status == "interior"
    assert P.membership((2, 3)).status == "exterior"


def test_membership_margin_orders_depth(r2_models):
    _, _, P = r2_models
    deep = P.membership((0, 0, 1))
    shallower = P.membership((1, 1, 4))
    assert deep.status == "interior" and shallower.status == "interior"
    assert deep.margin > shallower.margin


def test_subcone_parameters_validated(r1_models):
    _, cone, _ = r1_models
    for cap in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(SubconeError):
            cone.subcone_slope(cap)
    assert cone.slope_cap is None
    assert cone.subcone_slope(Fraction(1, 2)).slope_cap == Fraction(1, 2)


def test_subcone_rays_and_monotone_epsilon(r1_models):
    dual, cone, P = r1_models
    rays = P.extreme_rays
    assert rays == ((-1, 2), (1, 2))  # slope box |a| <= n/2
    eps_half = epsilon_of_subcone(P, dual)
    assert eps_half.epsilon == Fraction(1, 2)
    assert eps_half.c_ratio == Fraction(1, 2)
    # Shrinking the subcone cannot decrease epsilon.
    eps_quarter = epsilon_of_subcone(cone.subcone_slope(Fraction(1, 4)), dual)
    assert eps_quarter.epsilon >= eps_half.epsilon
    with pytest.raises(SubconeError, match="slope cap"):
        epsilon_of_subcone(cone, dual)  # full cone is not a proper subcone


def test_r2_epsilon(r2_models):
    dual, cone, P = r2_models
    eps = epsilon_of_subcone(P, dual)
    assert eps.epsilon == Fraction(5, 11)
    assert eps.rho == Fraction(6, 11)
    assert all(ray[-1] > 0 for ray in eps.rays)


def test_extreme_rays_are_computed_once_per_model(r2_models, monkeypatch):
    dual, cone, _ = r2_models
    P = cone.subcone_slope(Fraction(1, 2))
    calls = []
    vertices = geometry.halfspace_vertices
    monkeypatch.setattr(geometry, "halfspace_vertices",
                        lambda *args: calls.append(args) or vertices(*args))
    first, second = epsilon_of_subcone(P, dual), epsilon_of_subcone(P, dual)
    assert first == second and len(calls) == 1
    assert P.extreme_rays is first.rays  # the memo itself: a tuple, never copied
    epsilon_of_subcone(cone.subcone_slope(Fraction(1, 3)), dual)
    assert len(calls) == 2  # a new subcone is a new model


def test_empty_subcone_raises():
    """A generator without a positive last coordinate, such as (1, -2),
    which forces a >= 2n outside any slope box with cap < 2, is refused when
    the model is built: with every g_n > 0 the axis point s = 0 has slack g_n
    on every generator, so no capped slice is empty."""
    for gens in (((1, -2),), ((1, 1), (1, 0))):
        with pytest.raises(ValidationError, match="positive last coordinate"):
            FiberedConeModel(1, gens)


def test_unbounded_subcone_raises(r1_models):
    """One generator leaves the height-1 slice a half-line; so does the r1
    cone {n >= 0, a + n >= 0}, whose slice is a >= -1."""
    _, cone, _ = r1_models
    for model in (FiberedConeModel(1, ((1, 1),)), cone):
        with pytest.raises(SubconeError, match="unbounded"):
            model.extreme_rays


def _in_slice(P, s):
    """Does (s, 1) satisfy every halfspace of the subcone P, by definition?"""
    alpha = tuple(s) + (1,)
    return (all(sum(a * b for a, b in zip(g, alpha)) >= 0 for g in P.generators)
            and (P.slope_cap is None or all(abs(v) <= P.slope_cap for v in s)))


_coords = st.integers(-4, 4)
_caps = st.fractions(0, 3, max_denominator=10).filter(lambda f: f > 0)
_slice_points = st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extreme_rays_span_the_height_one_slice(data):
    """The rays' height-1 points are the vertices of the slice that the
    halfspaces cut: a rational slice point satisfies them all iff it lies in
    the rays' hull.  Every generator has g_n >= 1, so each capped slice
    holds the axis point s = 0 and is bounded: only an uncapped one may be
    unbounded."""
    rank = data.draw(st.integers(1, 2))
    gens = data.draw(st.lists(st.tuples(*[_coords] * rank, st.integers(1, 4)),
                              min_size=1, max_size=5))
    cap = data.draw(st.none() | _caps)
    P = FiberedConeModel(rank, tuple(gens))
    if cap is not None:
        P = P.subcone_slope(cap)
    try:
        rays = P.extreme_rays
    except SubconeError:
        assert cap is None
        return
    points = [tuple(Fraction(v, ray[-1]) for v in ray[:-1]) for ray in rays]
    hull = convex_hull(points)
    assert len(hull) == len(rays)  # every ray is extreme
    centroid = tuple(sum(c) / len(points) for c in zip(*points))
    for s in points + [centroid]:
        assert _in_slice(P, s)
    if cap is not None:
        assert _in_slice(P, (0,) * rank) and contains_point(hull, (0,) * rank)
    s = data.draw(st.tuples(*[_slice_points] * rank))
    assert _in_slice(P, s) == contains_point(hull, s)


def test_reconstructed_cones_contain_the_axis(r1_models, r2_models):
    """Generators are rays over the height-1 dual slice, so the monodromy
    axis always pairs positively with every generator."""
    for _, cone, _ in (r1_models, r2_models):
        axis = (0,) * cone.rank + (1,)
        assert cone.membership(axis) == Membership("interior", Fraction(1))
        for g in cone.generators:
            assert g[-1] > 0


@pytest.mark.parametrize("cone_p_max", [12, 16, 24, 32, 48])
def test_membership_does_not_depend_on_the_truncation(r2, cone_p_max):
    """Each slack is measured in units of its own halfspace (g_n n for a
    generator, (1 + cap) n for the box), so the generators' growth with the
    truncation moves no class toward a facet: (1, 20, 401) stays interior,
    and the axis margin is the box's cap / (1 + cap)."""
    _, cone, P = subcone_models(r2, cone_p_max, Fraction(1, 2))
    assert P.membership((1, 20, 401)).status == "interior"
    assert P.membership((0, 0, 1)) == Membership("interior", Fraction(1, 3))
    assert max(g[-1] for g in cone.generators) >= cone_p_max - 1


def _fraction_membership(model, alpha):
    """Membership by the Fraction formula, slack by slack: the reference the
    integer comparison is checked against."""
    *x, n = alpha
    if n <= 0:
        return Membership("exterior", Fraction(-1))
    margin = min((c * n - geometry.dot(u, x)) / (scale * n) for u, c, scale in model._slice)
    if abs(margin) < cones.BOUNDARY_TOLERANCE:
        return Membership("near-boundary", margin)
    return Membership("interior" if margin > 0 else "exterior", margin)


def _on_slack(u, target, c, scale, k):
    """A class (x, n) whose slack (c n - <u, x>)/(scale n) on the halfspace
    (u, c, scale) is exactly ``target``: n a multiple k of what makes
    n (c - target scale) an integer m divisible by gcd(u), and x the
    solution of <u, x> = m nearest the axis."""
    rhs = c - target * scale
    n = rhs.denominator * math.gcd(*u) * k
    m = int(rhs * n)
    if len(u) == 1:
        return (m // u[0], n)
    a, b = u
    g = math.gcd(a, b)
    s = next(s for s in range(abs(b) // g + 1) if (m - a * s) % b == 0) if b else m // a
    x0, x1 = (s, (m - a * s) // b) if b else (m // a, 0)
    # Along the kernel (-b, a)/g, to the solution nearest the axis point.
    kx, ky = -b // g, a // g
    j = round(Fraction(-(x0 * kx + x1 * ky), kx * kx + ky * ky))
    return (x0 + j * kx, x1 + j * ky, n)


_TOL = cones.BOUNDARY_TOLERANCE
_TARGETS = [_TOL, -_TOL, Fraction(1, 99), Fraction(1, 101), -Fraction(1, 99),
            -Fraction(1, 101), Fraction(0)]


def _membership_models(r1_models, r2_models):
    """Both bundled cones and their subcones of slope cap 1/2 and 1/3."""
    return [m for _, cone, _ in (r1_models, r2_models)
            for m in (cone, cone.subcone_slope(Fraction(1, 2)),
                      cone.subcone_slope(Fraction(1, 3)))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_membership_matches_the_fraction_formula(data, r1_models, r2_models):
    """membership compares slacks in integers and builds one Fraction; it
    gives the Fraction formula's Membership, on classes drawn at random
    (n <= 0 too) and on classes whose slack on one halfspace is exactly at,
    just inside or just outside BOUNDARY_TOLERANCE on either side."""
    model = data.draw(st.sampled_from(_membership_models(r1_models, r2_models)))
    rows = [row for row in model._slice if any(row[0])]
    if data.draw(st.booleans()):
        u, c, scale = data.draw(st.sampled_from(rows))
        alpha = _on_slack(u, data.draw(st.sampled_from(_TARGETS)), c, scale,
                          data.draw(st.integers(1, 5)))
    else:
        alpha = data.draw(st.tuples(*[st.integers(-400, 400)] * model.rank,
                                    st.integers(-5, 500)))
    assert model.membership(alpha) == _fraction_membership(model, alpha)


def test_integer_membership_at_the_tolerance(r1_models, r2_models):
    """Classes whose slack on a halfspace is exactly +-BOUNDARY_TOLERANCE:
    on each model, some of them have it as their margin, and membership
    gives the Fraction formula's verdict on every one."""
    for model in _membership_models(r1_models, r2_models):
        at = 0
        for u, c, scale in model._slice:
            if not any(u):
                continue
            for target, k in product((_TOL, -_TOL), (1, 2, 3)):
                alpha = _on_slack(u, target, c, scale, k)
                want = _fraction_membership(model, alpha)
                assert model.membership(alpha) == want, alpha
                at += abs(want.margin) == _TOL
        assert at, model
