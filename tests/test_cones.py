from fractions import Fraction

import pytest

from fibercert.cones import (
    FiberedConeModel,
    epsilon_of_subcone,
    estimate_dual_cone,
    fibered_cone_from_dual,
)
from fibercert.errors import SubconeError, ValidationError
from fibercert.geometry import convex_hull
from fibercert.trackmap import support_of_power

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


def test_dual_cone_slopes_are_certified_upper_estimates(r1, r2):
    """Every computed support point lies under every facet's slope line."""
    for track, p_max in ((r1, 12), (r2, 10)):
        dual = estimate_dual_cone(track, p_max)
        for f in dual.facets:
            for p in range(1, p_max + 1):
                hi = support_of_power(track, p).extent(f.u)[1]
                assert Fraction(hi, p) >= f.slope
        for p in range(0, p_max + 1):
            for x in support_of_power(track, p).points:
                assert dual.contains_fattened(x + (p,))


def test_ratio_hull_from_hull_vertices(r1, r2):
    """The hull of the ratio points x/p over every support point equals the
    hull over each power's hull vertices, which estimate_dual_cone uses."""
    for track in (r1, r2):
        supports = [support_of_power(track, p) for p in range(1, 21)]

        def ratio_hull(attr):
            return convex_hull([tuple(Fraction(c, s.p) for c in x)
                                for s in supports for x in getattr(s, attr)], track.rank)

        assert ratio_hull("points") == ratio_hull("hull")


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


def test_slice_vertices_scale_with_height():
    dual = estimate_dual_cone(doubling_rose(), 5)
    assert dual.slice_vertices(10) == [(-1,), (11,)]  # [0,10] fattened by C=1


# -- fibered cone and membership -----------------------------------------

def test_fibered_cone_of_pure_shift():
    dual = estimate_dual_cone(single_edge_rose(), 4)
    cone = fibered_cone_from_dual(dual)
    assert cone.generators == ((1, 1),)
    assert cone.membership((2, 3)).status == "interior"
    assert cone.membership((-1, 1)).status == "exterior"


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
    with pytest.raises(SubconeError):
        cone.subcone(Fraction(0))
    with pytest.raises(SubconeError):
        cone.subcone(Fraction(3, 2))
    with pytest.raises(SubconeError):
        cone.subcone_slope(Fraction(0))
    assert not cone.is_proper
    assert cone.subcone(Fraction(1, 10)).is_proper
    assert cone.subcone_slope(Fraction(1, 2)).is_proper


def test_subcone_rays_and_monotone_epsilon(r1_models):
    dual, cone, P = r1_models
    rays = P.extreme_rays()
    assert rays == [(-1, 2), (1, 2)]  # slope box |a| <= n/2
    eps_half = epsilon_of_subcone(P, dual)
    assert eps_half.epsilon == Fraction(1, 2)
    assert eps_half.c_ratio == Fraction(1, 2)
    # Shrinking the subcone cannot decrease epsilon.
    eps_quarter = epsilon_of_subcone(cone.subcone_slope(Fraction(1, 4)), dual)
    assert eps_quarter.epsilon >= eps_half.epsilon
    with pytest.raises(SubconeError):
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
    slice_rays = FiberedConeModel._slice_rays
    monkeypatch.setattr(FiberedConeModel, "_slice_rays",
                        lambda self: calls.append(self) or slice_rays(self))
    first, second = epsilon_of_subcone(P, dual), epsilon_of_subcone(P, dual)
    assert first == second and len(calls) == 1
    P.extreme_rays().clear()  # callers get a copy, never the memo itself
    assert P.extreme_rays() == list(first.rays)
    epsilon_of_subcone(cone.subcone_slope(Fraction(1, 3)), dual)
    assert len(calls) == 2  # a new subcone is a new model


def test_degenerate_epsilon_is_flagged():
    """A subcone that collapses onto the monodromy axis gets the trivial
    comparability constant with an explicit degenerate flag."""
    dual = estimate_dual_cone(single_edge_rose(), 4)
    # Generators a >= 0 and -a >= 0 pin the slice to the axis itself.
    axis_only = FiberedConeModel(1, ((1, 0), (-1, 0))).subcone_slope(Fraction(1, 2))
    eps = epsilon_of_subcone(axis_only, dual)
    assert eps.degenerate
    assert eps.epsilon == 1
    assert eps.rays == ((0, 1),)
    assert eps.c_ratio == 0


def test_empty_subcone_raises():
    # The generator forces a >= 2n, outside any slope box with cap < 2.
    cone = FiberedConeModel(1, ((1, -2),))
    with pytest.raises((SubconeError, ValidationError)):
        cone.subcone_slope(Fraction(1, 2)).extreme_rays()


def test_reconstructed_cones_contain_the_axis(r1_models, r2_models):
    """Generators are rays over the height-1 dual slice, so the monodromy
    axis always pairs positively with every generator."""
    for _, cone, _ in (r1_models, r2_models):
        axis = (0,) * cone.rank + (1,)
        assert cone.membership(axis).status == "interior"
        for g in cone.generators:
            assert g[-1] > 0
