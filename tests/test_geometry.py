from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercert.errors import ValidationError
from fibercert.geometry import (
    contains_point,
    convex_hull,
    dilate,
    directional_extrema,
    halfspace_vertices,
    hulls_disjoint,
    minkowski_sum,
    negate,
    point_hull_dist2,
    translate,
)

points2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
point_sets2 = st.lists(points2, min_size=1, max_size=12)


# -- hulls ---------------------------------------------------------------------

def test_hull_rank1_is_interval():
    assert convex_hull([(3,), (-1,), (2,)], 1) == [(-1,), (3,)]
    assert convex_hull([(5,), (5,)], 1) == [(5,)]


def test_hull_rank2_square_is_ccw_from_lex_min():
    pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    assert convex_hull(pts, 2) == [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def test_hull_degenerate_cases():
    assert convex_hull([(2, 3)], 2) == [(2, 3)]
    assert convex_hull([(0, 0), (2, 2), (1, 1)], 2) == [(0, 0), (2, 2)]
    with pytest.raises(ValidationError):
        convex_hull([], 2)


@given(point_sets2)
def test_hull_contains_all_inputs_and_vertices_are_inputs(pts):
    hull = convex_hull(pts, 2)
    assert set(hull) <= set(pts)
    for p in pts:
        assert contains_point(hull, p, 2)


@given(point_sets2, points2)
def test_hull_membership_matches_halfplane_test(pts, y):
    """Containment agrees with an independent all-halfplanes check."""
    hull = convex_hull(pts, 2)
    if len(hull) < 3:
        return
    inside = True
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (y[1] - a[1]) - (b[1] - a[1]) * (y[0] - a[0])
        if cross < 0:
            inside = False
    assert contains_point(hull, y, 2) == inside


# -- affine operations ---------------------------------------------------------

def test_translate_negate_extrema():
    pts = [(1, 2), (-3, 4)]
    assert translate(pts, (10, -1)) == [(11, 1), (7, 3)]
    assert negate(pts) == [(-1, -2), (3, -4)]
    assert directional_extrema(pts, (1, 0)) == (-3, 1)
    assert directional_extrema(pts, (0, -1)) == (-4, -2)
    with pytest.raises(ValidationError):
        directional_extrema([], (1, 0))


@given(point_sets2, point_sets2)
def test_minkowski_sum_matches_pairwise_sums(a, b):
    hull = minkowski_sum(convex_hull(a, 2), convex_hull(b, 2), 2)
    for p, q in product(a, b):
        assert contains_point(hull, (p[0] + q[0], p[1] + q[1]), 2)
    assert set(hull) <= {(p[0] + q[0], p[1] + q[1]) for p, q in product(a, b)}


def test_dilate_is_cube_fattening():
    assert dilate([(0,)], 2, 1) == [(-2,), (2,)]
    sq = dilate([(0, 0)], 1, 2)
    assert sq == [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    assert dilate(sq, 0, 2) == sq
    with pytest.raises(ValidationError):
        dilate(sq, -1, 2)


@given(point_sets2, st.integers(0, 3))
def test_dilate_l_inf_characterization(pts, s):
    """y is in the dilated hull iff the L-inf ball of radius s around y
    meets the hull.  The independent check uses closed-box intersection."""
    hull = convex_hull(pts, 2)
    fat = dilate(hull, s, 2)
    lo_x = min(p[0] for p in hull) - s - 1
    hi_x = max(p[0] for p in hull) + s + 1
    lo_y = min(p[1] for p in hull) - s - 1
    hi_y = max(p[1] for p in hull) + s + 1
    for y in product(range(lo_x, hi_x + 1), range(lo_y, hi_y + 1)):
        box = [(y[0] - s, y[1] - s), (y[0] + s, y[1] - s),
               (y[0] + s, y[1] + s), (y[0] - s, y[1] + s)]
        near = not hulls_disjoint(convex_hull(box, 2), hull, 2)
        assert contains_point(fat, y, 2) == near


# -- distances -------------------------------------------------------------

def test_point_hull_dist2_examples():
    assert point_hull_dist2((7,), [(-1,), (3,)], 1) == 16
    assert point_hull_dist2((0,), [(-1,), (3,)], 1) == 0
    tri = [(0, 0), (4, 0), (0, 4)]
    assert point_hull_dist2((1, 1), tri, 2) == 0
    assert point_hull_dist2((-3, 0), tri, 2) == 9
    assert point_hull_dist2((3, 3), tri, 2) == Fraction(2)  # nearest edge x+y=4
    assert point_hull_dist2((5, 7), [(5, 4)], 2) == 9


@given(point_sets2, points2)
def test_point_hull_dist2_vs_dense_sampling(pts, y):
    """The exact distance is a lower bound attained by some rational point
    of the hull; check it against distances to a fine affine sample."""
    hull = convex_hull(pts, 2)
    d = point_hull_dist2(y, hull, 2)
    assert d >= 0
    grid = []
    n = 8
    for a in hull:
        for b in hull:
            for k in range(n + 1):
                t = Fraction(k, n)
                grid.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    sampled = min((y[0] - g[0]) ** 2 + (y[1] - g[1]) ** 2 for g in grid)
    assert d <= sampled
    if contains_point(hull, y, 2):
        assert d == 0
    else:
        assert d > 0


def test_hulls_disjoint_touching_counts_as_overlap():
    a = [(0, 0), (2, 0), (2, 2), (0, 2)]
    b = translate(a, (2, 0))  # shares the edge x = 2
    assert not hulls_disjoint(a, b, 2)
    assert hulls_disjoint(a, translate(a, (3, 0)), 2)
    assert hulls_disjoint([(0,), (1,)], [(2,), (5,)], 1)
    assert not hulls_disjoint([(0,), (2,)], [(2,), (5,)], 1)
    assert hulls_disjoint([(0, 0)], [(0, 1)], 2)
    assert not hulls_disjoint([(0, 0)], [(0, 0)], 2)


@settings(max_examples=200)
@given(point_sets2, point_sets2)
def test_hulls_disjoint_vs_minkowski_difference(a, b):
    """A and B intersect iff 0 lies in A + (-B)."""
    ha, hb = convex_hull(a, 2), convex_hull(b, 2)
    diff = minkowski_sum(ha, negate(hb), 2)
    meets = contains_point(diff, (0, 0), 2)
    assert hulls_disjoint(ha, hb, 2) == (not meets)


fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
frac_points2 = st.tuples(fractions, fractions)
steps = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


def _on_line(a, d, ts):
    return [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts]


# Pairs of point sets: independent ones, and pairs on one common line, whose
# hulls are points and segments that only the direction axis can separate.
frac_set_pairs = st.one_of(
    st.tuples(st.lists(frac_points2, min_size=1, max_size=6),
              st.lists(frac_points2, min_size=1, max_size=6)),
    st.builds(lambda a, d, s, t: (_on_line(a, d, s), _on_line(a, d, t)),
              frac_points2, points2, steps, steps),
)


def _bboxes_disjoint(ha, hb) -> bool:
    return any(
        max(p[k] for p in ha) < min(q[k] for q in hb)
        or max(q[k] for q in hb) < min(p[k] for p in ha)
        for k in range(len(ha[0]))
    )


@settings(max_examples=300)
@given(frac_set_pairs)
def test_disjoint_bounding_boxes_imply_disjoint_hulls(pair):
    """certify's K-scan skips the exact test for obstacles whose bounding box
    misses the moved body's; this is the premise that makes that safe, over
    Fraction vertices and point, segment and polygon hulls."""
    a, b = pair
    for rank, pa, pb in ((2, a, b),
                         (1, [p[:1] for p in a], [p[:1] for p in b])):
        ha, hb = convex_hull(pa, rank), convex_hull(pb, rank)
        if _bboxes_disjoint(ha, hb):
            assert hulls_disjoint(ha, hb, rank)
            assert hulls_disjoint(hb, ha, rank)


# -- halfspace vertex enumeration -------------------------------------------

def test_halfspace_vertices_unit_box():
    hs = [((1, 0), Fraction(1)), ((-1, 0), Fraction(1)),
          ((0, 1), Fraction(1)), ((0, -1), Fraction(1))]
    assert halfspace_vertices(hs, 2) == [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def test_halfspace_vertices_triangle_with_redundancy():
    hs = [((-1, 0), Fraction(0)), ((0, -1), Fraction(0)),
          ((1, 1), Fraction(2)), ((1, 0), Fraction(100))]
    assert halfspace_vertices(hs, 2) == [(0, 0), (2, 0), (0, 2)]


def test_halfspace_vertices_rank1_and_errors():
    hs = [((1,), Fraction(3)), ((-1,), Fraction(1))]
    assert halfspace_vertices(hs, 1) == [(-1,), (3,)]
    assert halfspace_vertices([((1,), Fraction(2)), ((-1,), Fraction(-2))], 1) == [(2,)]
    with pytest.raises(ValidationError):
        halfspace_vertices([((1,), Fraction(0)), ((-1,), Fraction(-1))], 1)
    with pytest.raises(ValidationError):
        halfspace_vertices(
            [((1, 0), Fraction(0)), ((-1, 0), Fraction(-1)),
             ((0, 1), Fraction(1)), ((0, -1), Fraction(1))], 2)


def test_halfspace_vertices_zero_normal_with_negative_bound_is_empty():
    # 0 <= -1 holds nowhere, whatever the other halfspaces allow.
    with pytest.raises(ValidationError, match="empty"):
        halfspace_vertices([((0,), -1), ((1,), 1), ((-1,), 1)], 1)
    assert halfspace_vertices([((0,), 1), ((1,), 1), ((-1,), 1)], 1) == [(-1,), (1,)]


def test_halfspace_vertices_unbounded_rank1():
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1,), 1)], 1)
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((0,), 1)], 1)


def test_halfspace_vertices_unbounded_rank2():
    # A strip has no vertex; a wedge has one, but it is not the whole region.
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)], 2)
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1, 1), 0), ((1, -1), 0)], 2)
