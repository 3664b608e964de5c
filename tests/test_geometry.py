from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibercert.errors import ValidationError
from fibercert.geometry import (
    contains_point,
    convex_hull,
    dilate,
    directional_extrema,
    halfspace_vertices,
    hulls_disjoint,
    minkowski_difference,
    minkowski_sum,
    point_hull_dist2,
    reflect,
    translate,
)

from conftest import negate

points2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
point_sets2 = st.lists(points2, min_size=1, max_size=12)


# -- hulls ---------------------------------------------------------------------

def test_hull_rank1_is_interval():
    assert convex_hull([(3,), (-1,), (2,)]) == [(-1,), (3,)]
    assert convex_hull([(5,), (5,)]) == [(5,)]


def test_hull_rank2_square_is_ccw_from_lex_min():
    pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    assert convex_hull(pts) == [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def test_hull_degenerate_cases():
    assert convex_hull([(2, 3)]) == [(2, 3)]
    assert convex_hull([(0, 0), (2, 2), (1, 1)]) == [(0, 0), (2, 2)]
    with pytest.raises(ValidationError):
        convex_hull([])


@given(point_sets2)
def test_hull_contains_all_inputs_and_vertices_are_inputs(pts):
    hull = convex_hull(pts)
    assert set(hull) <= set(pts)
    for p in pts:
        assert contains_point(hull, p)


@given(point_sets2, points2)
def test_hull_membership_matches_halfplane_test(pts, y):
    """Containment agrees with an independent all-halfplanes check."""
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    inside = True
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (y[1] - a[1]) - (b[1] - a[1]) * (y[0] - a[0])
        if cross < 0:
            inside = False
    assert contains_point(hull, y) == inside


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _reference_hull(points, rank):
    """convex_hull by brute force.  Rank 1: the least and greatest points.
    Rank 2: a -> b is a counterclockwise hull edge iff every point lies
    strictly left of the line a b or on the closed segment [a, b]; the hull
    is that cycle of edges, from the lexicographically smallest point.  An
    edge ending at a point inside another edge fails the test, so collinear
    points drop out, and all-collinear points give the two ends."""
    pts = sorted(set(points))
    if rank == 1 or len(pts) == 1:
        return pts[:1] + pts[1:][-1:]

    def on_segment(q, a, b):
        return (_cross(a, b, q) == 0
                and (q[0] - a[0]) * (b[0] - a[0]) + (q[1] - a[1]) * (b[1] - a[1]) >= 0
                and (q[0] - b[0]) * (a[0] - b[0]) + (q[1] - b[1]) * (a[1] - b[1]) >= 0)

    succ = {a: b for a in pts for b in pts if a != b
            and all(_cross(a, b, q) > 0 or on_segment(q, a, b) for q in pts)}
    hull = [pts[0]]
    while succ[hull[-1]] != pts[0]:
        hull.append(succ[hull[-1]])
    return hull


coords = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


@st.composite
def collinear_points(draw):
    """Points o + t d on one line, for rationals o, d and small integers t."""
    o = draw(st.tuples(coords, coords))
    d = draw(st.tuples(coords, coords))
    ts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    return [(o[0] + t * d[0], o[1] + t * d[1]) for t in ts]


@settings(max_examples=300)
@given(st.one_of(
    st.lists(st.tuples(coords), min_size=1, max_size=6).map(lambda pts: (pts, 1)),
    st.lists(st.tuples(coords, coords), min_size=1, max_size=10).map(lambda pts: (pts, 2)),
    collinear_points().map(lambda pts: (pts, 2)),
))
@example(([(Fraction(1, 2), 3)], 2))
@example(([(0, 0), (Fraction(1, 3), 1)], 2))
@example(([(0, 0), (1, 1), (2, 2), (Fraction(1, 2), Fraction(1, 2))], 2))
def test_hull_matches_brute_force_reference(case):
    """The exact vertex list: extreme points only, counterclockwise from the
    lexicographically smallest, on int and Fraction points."""
    pts, rank = case
    assert convex_hull(pts) == _reference_hull(pts, rank)


# -- affine operations ---------------------------------------------------------

def test_translate_negate_extrema():
    pts = [(1, 2), (-3, 4)]
    assert translate(pts, (10, -1)) == [(11, 1), (7, 3)]
    assert reflect(convex_hull(pts)) == [(-1, -2), (3, -4)]
    assert directional_extrema(pts, (1, 0)) == (-3, 1)
    assert directional_extrema(pts, (0, -1)) == (-4, -2)
    with pytest.raises(ValidationError):
        directional_extrema([], (1, 0))


@given(point_sets2, point_sets2)
def test_minkowski_sum_matches_pairwise_sums(a, b):
    hull = minkowski_sum(convex_hull(a), convex_hull(b))
    for p, q in product(a, b):
        assert contains_point(hull, (p[0] + q[0], p[1] + q[1]))
    assert set(hull) <= {(p[0] + q[0], p[1] + q[1]) for p, q in product(a, b)}


def test_dilate_is_cube_fattening():
    assert dilate([(0,)], 2) == [(-2,), (2,)]
    sq = dilate([(0, 0)], 1)
    assert sq == [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    assert dilate(sq, 0) == sq
    with pytest.raises(ValidationError):
        dilate(sq, -1)


@given(point_sets2, st.integers(0, 3))
def test_dilate_l_inf_characterization(pts, s):
    """y is in the dilated hull iff the L-inf ball of radius s around y
    meets the hull.  The independent check uses closed-box intersection."""
    hull = convex_hull(pts)
    fat = dilate(hull, s)
    lo_x = min(p[0] for p in hull) - s - 1
    hi_x = max(p[0] for p in hull) + s + 1
    lo_y = min(p[1] for p in hull) - s - 1
    hi_y = max(p[1] for p in hull) + s + 1
    for y in product(range(lo_x, hi_x + 1), range(lo_y, hi_y + 1)):
        box = [(y[0] - s, y[1] - s), (y[0] + s, y[1] - s),
               (y[0] + s, y[1] + s), (y[0] - s, y[1] + s)]
        near = not hulls_disjoint(convex_hull(box), hull)
        assert contains_point(fat, y) == near


# -- distances -------------------------------------------------------------

def test_point_hull_dist2_examples():
    assert point_hull_dist2((7,), [(-1,), (3,)]) == 16
    assert point_hull_dist2((0,), [(-1,), (3,)]) == 0
    tri = [(0, 0), (4, 0), (0, 4)]
    assert point_hull_dist2((1, 1), tri) == 0
    assert point_hull_dist2((-3, 0), tri) == 9
    assert point_hull_dist2((3, 3), tri) == Fraction(2)  # nearest edge x+y=4
    assert point_hull_dist2((5, 7), [(5, 4)]) == 9


@given(point_sets2, points2)
def test_point_hull_dist2_vs_dense_sampling(pts, y):
    """The exact distance is a lower bound attained by some rational point
    of the hull; check it against distances to a fine affine sample."""
    hull = convex_hull(pts)
    d = point_hull_dist2(y, hull)
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
    if contains_point(hull, y):
        assert d == 0
    else:
        assert d > 0


def test_hulls_disjoint_touching_counts_as_overlap():
    a = [(0, 0), (2, 0), (2, 2), (0, 2)]
    b = translate(a, (2, 0))  # shares the edge x = 2
    assert not hulls_disjoint(a, b)
    assert hulls_disjoint(a, translate(a, (3, 0)))
    assert hulls_disjoint([(0,), (1,)], [(2,), (5,)])
    assert not hulls_disjoint([(0,), (2,)], [(2,), (5,)])
    assert hulls_disjoint([(0, 0)], [(0, 1)])
    assert not hulls_disjoint([(0, 0)], [(0, 0)])


@settings(max_examples=200)
@given(point_sets2, point_sets2)
def test_hulls_disjoint_vs_minkowski_difference(a, b):
    """A and B intersect iff 0 lies in A + (-B)."""
    ha, hb = convex_hull(a), convex_hull(b)
    diff = minkowski_sum(ha, convex_hull(negate(hb)))
    meets = contains_point(diff, (0, 0))
    assert hulls_disjoint(ha, hb) == (not meets)


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


def _seg_dist2(y, a, b) -> Fraction:
    """Exact squared distance from point y to segment [a, b], on Fractions:
    point_hull_dist2's per-edge formula before it compared candidates on
    integers, kept as the reference it is checked against."""
    d = tuple(bb - aa for aa, bb in zip(a, b))
    dd = sum(x * x for x in d)
    if dd == 0:
        return Fraction(sum((yy - aa) ** 2 for yy, aa in zip(y, a)))
    t = Fraction(sum((yy - aa) * x for yy, aa, x in zip(y, a, d)), dd)
    t = max(Fraction(0), min(Fraction(1), t))
    return sum((Fraction(yy) - (aa + t * x)) ** 2 for yy, aa, x in zip(y, a, d))


def _reference_dist2(y, hull) -> Fraction:
    """The squared distance as the least per-segment Fraction, 0 inside."""
    if len(y) == 1:
        return min(_seg_dist2(y, hull[0], hull[-1]), _seg_dist2(y, hull[-1], hull[0]))
    if contains_point(hull, y):
        return Fraction(0)
    return min(_seg_dist2(y, a, b) for a, b in zip(hull, [*hull[1:], hull[0]]))


frac_points1 = st.tuples(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(st.lists(points2, min_size=1, max_size=8), points2),
    st.tuples(st.lists(frac_points2, min_size=1, max_size=6), points2),
    st.tuples(st.builds(lambda a, d, s: _on_line(a, d, s), frac_points2, points2, steps),
              points2),
    st.tuples(st.lists(frac_points1, min_size=1, max_size=4), st.tuples(st.integers(-9, 9))),
))
@example(([(0, 0)], (3, 4)))  # a single point
@example(([(0, 0), (4, 0)], (2, 3)))  # a segment, y projecting between its ends
@example(([(0, 0), (4, 0)], (6, 1)))  # a segment, y projecting past an end
@example(([(0, 0), (Fraction(1, 3), 1)], (2, 0)))
def test_point_hull_dist2_matches_fraction_reference(case):
    """The integer cross-multiplication gives the same Fraction as the
    per-segment Fraction formula: rank 1, single points, segments and
    hulls, with int and Fraction vertices."""
    pts, y = case
    hull = convex_hull(pts)
    got = point_hull_dist2(y, hull)
    assert type(got) is Fraction
    assert got == _reference_dist2(y, hull)


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
        ha, hb = convex_hull(pa), convex_hull(pb)
        if _bboxes_disjoint(ha, hb):
            assert hulls_disjoint(ha, hb)
            assert hulls_disjoint(hb, ha)


def _separating_axis_disjoint(hull_a, hull_b) -> bool:
    """The separating-axis test of two rank-2 hulls, independent of the
    Minkowski sum: disjoint iff their projections onto some edge normal or
    edge direction of either hull are disjoint."""
    axes = []
    for hull in (hull_a, hull_b):
        n = len(hull)
        if n == 1:
            continue
        for i in range(n if n > 2 else 1):
            a, b = hull[i], hull[(i + 1) % n]
            d = (b[0] - a[0], b[1] - a[1])
            axes.append((-d[1], d[0]))
            axes.append(d)  # covers collinear degenerate hulls
    if not axes:  # two single points
        return tuple(hull_a[0]) != tuple(hull_b[0])
    for axis in axes:
        if axis == (0, 0):
            continue
        lo_a, hi_a = directional_extrema(hull_a, axis)
        lo_b, hi_b = directional_extrema(hull_b, axis)
        if hi_a < lo_b or hi_b < lo_a:
            return True
    return False


@settings(max_examples=300)
@given(frac_set_pairs)
@example(([(0, 0), (2, 0)], [(2, 0), (3, 0)]))  # collinear segments touching end to end
@example(([(0, 0), (2, 0)], [(3, 0), (4, 0)]))  # collinear segments apart
@example(([(1, 1)], [(0, 0), (2, 2)]))  # a point on a segment
def test_hulls_disjoint_matches_separating_axis_reference(pair):
    """hulls_disjoint, A ⊕ (-B) missing 0, agrees with the separating-axis
    test on points, segments, collinear pairs and polygons over Fractions;
    rank-1 hulls are tested as rank-2 segments on the x axis."""
    a, b = pair
    for rank, pa, pb in ((2, a, b), (1, [p[:1] for p in a], [p[:1] for p in b])):
        ha, hb = convex_hull(pa), convex_hull(pb)
        flat = [[tuple(v) + (0,) * (2 - rank) for v in h] for h in (ha, hb)]
        assert hulls_disjoint(ha, hb) == _separating_axis_disjoint(*flat), (ha, hb)
        assert hulls_disjoint(hb, ha) == hulls_disjoint(ha, hb)


@settings(max_examples=300)
@given(frac_set_pairs)
def test_reflect_matches_hull_of_negated_points(pair):
    """reflect keeps convex_hull's form: it equals the hull of the negated
    points, in ranks 1 and 2, and reflecting twice gives the hull back."""
    for pts in (pair[0], [p[:1] for p in pair[0]]):
        hull = convex_hull(pts)
        assert reflect(hull) == convex_hull(negate(pts))
        assert reflect(reflect(hull)) == hull


@settings(max_examples=300)
@given(frac_set_pairs)
@example(([(0, 0), (2, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)]))  # parallel bottom edges
@example(([(1, 1)], [(0, 0), (0, 3)]))  # a point and a vertical segment
def test_minkowski_sum_matches_vertex_sum_reference(pair):
    """The edge merge gives the hull of the vertex sums, in ranks 1 and 2, over
    Fraction vertices, points, segments and collinear or parallel edges;
    minkowski_difference recovers either summand from the sum, and a
    difference it finds between any two hulls sums back."""
    a, b = pair
    for rank, pa, pb in ((2, a, b), (1, [p[:1] for p in a], [p[:1] for p in b])):
        ha, hb = convex_hull(pa), convex_hull(pb)
        ref = convex_hull([tuple(x + y for x, y in zip(p, q)) for p in ha for q in hb])
        assert minkowski_sum(ha, hb) == ref
        assert minkowski_difference(ref, ha) == hb
        assert minkowski_difference(ref, hb) == ha
        q = minkowski_difference(hb, ha)
        assert q is None or minkowski_sum(ha, q) == hb


def test_minkowski_difference_without_summand():
    square, triangle = [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (1, 0), (0, 1)]
    assert minkowski_difference(triangle, square) is None  # a direction too many
    assert minkowski_difference([(0, 0), (1, 0)], [(0, 0), (2, 0)]) is None  # too long
    assert minkowski_difference([(0,), (1,)], [(0,), (2,)]) is None
    assert minkowski_difference(square, [(0, 0), (1, 0)]) == [(0, 0), (0, 1)]


# -- halfspace vertex enumeration -------------------------------------------

def test_halfspace_vertices_unit_box():
    hs = [((1, 0), Fraction(1)), ((-1, 0), Fraction(1)),
          ((0, 1), Fraction(1)), ((0, -1), Fraction(1))]
    assert halfspace_vertices(hs) == [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def test_halfspace_vertices_triangle_with_redundancy():
    hs = [((-1, 0), Fraction(0)), ((0, -1), Fraction(0)),
          ((1, 1), Fraction(2)), ((1, 0), Fraction(100))]
    assert halfspace_vertices(hs) == [(0, 0), (2, 0), (0, 2)]


def test_halfspace_vertices_rank1_and_errors():
    hs = [((1,), Fraction(3)), ((-1,), Fraction(1))]
    assert halfspace_vertices(hs) == [(-1,), (3,)]
    assert halfspace_vertices([((1,), Fraction(2)), ((-1,), Fraction(-2))]) == [(2,)]
    with pytest.raises(ValidationError):
        halfspace_vertices([((1,), Fraction(0)), ((-1,), Fraction(-1))])
    with pytest.raises(ValidationError):
        halfspace_vertices(
            [((1, 0), Fraction(0)), ((-1, 0), Fraction(-1)),
             ((0, 1), Fraction(1)), ((0, -1), Fraction(1))])


def test_halfspace_vertices_zero_normal_with_negative_bound_is_empty():
    # 0 <= -1 holds nowhere, whatever the other halfspaces allow.
    with pytest.raises(ValidationError, match="empty"):
        halfspace_vertices([((0,), -1), ((1,), 1), ((-1,), 1)])
    assert halfspace_vertices([((0,), 1), ((1,), 1), ((-1,), 1)]) == [(-1,), (1,)]


def test_halfspace_vertices_unbounded_rank1():
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1,), 1)])
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((0,), 1)])


def _reference_halfspace_vertices(halfspaces):
    """Rank-2 halfspace_vertices as it was written on Fractions: the same
    unboundedness check, then every pair's intersection as a Fraction point,
    kept if it satisfies every halfspace."""
    normals = [u for u, _ in halfspaces if any(u)]
    free = [d for a, b in normals for d in ((-b, a), (b, -a))]
    if not normals or any(all(u[0] * d[0] + u[1] * d[1] <= 0 for u in normals)
                          for d in free):
        raise ValidationError("unbounded halfspace intersection")
    verts = []
    m = len(halfspaces)
    for i in range(m):
        (u1, c1) = halfspaces[i]
        for j in range(i + 1, m):
            (u2, c2) = halfspaces[j]
            det = u1[0] * u2[1] - u1[1] * u2[0]
            if det == 0:
                continue
            x = Fraction(c1 * u2[1] - c2 * u1[1], det)
            y = Fraction(u1[0] * c2 - u2[0] * c1, det)
            if all(u[0] * x + u[1] * y <= c for u, c in halfspaces):
                verts.append((x, y))
    if not verts:
        raise ValidationError("empty halfspace intersection")
    return convex_hull(verts)


def _vertices_or_error(fn, halfspaces):
    try:
        return fn(halfspaces)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


_bounds = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
_rows = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _bounds),
                 max_size=6)


@settings(max_examples=400)
@given(rows=_rows, box=st.one_of(st.none(), st.lists(_bounds, min_size=4, max_size=4)))
@example(rows=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 2), ((1, 0), 100), ((1, 1), 3)],
         box=None)  # redundant rows
@example(rows=[((0, 0), Fraction(-1, 2))], box=[1, 1, 1, 1])  # zero normal, empty
@example(rows=[((0, 0), Fraction(1, 2))], box=[1, 1, 1, 1])  # zero normal, harmless
@example(rows=[((1, 1), Fraction(-5, 2))], box=[1, 1, 1, 1])  # empty
@example(rows=[((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)], box=None)  # unbounded strip
@example(rows=[((2, 1), Fraction(1, 3)), ((-1, 3), Fraction(2, 5)), ((-1, -2), 1)],
         box=None)  # a triangle with unlike denominators
def test_halfspace_vertices_match_fraction_reference(rows, box):
    """The integer-row rank-2 path gives the Fraction reference's vertex
    list, Fraction-typed, or its ValidationError message: redundant rows,
    zero normals, and empty and unbounded regions included.  ``box``, when
    drawn, adds the four rows |x|, |y| <= its bounds, so bounded regions
    come up often."""
    if box is not None:
        rows = rows + [(e, c) for e, c in zip([(1, 0), (-1, 0), (0, 1), (0, -1)], box)]
    got = _vertices_or_error(halfspace_vertices, rows)
    assert got == _vertices_or_error(_reference_halfspace_vertices, rows)
    if not isinstance(got, str):
        assert all(type(c) is Fraction for v in got for c in v)


def test_halfspace_vertices_unbounded_rank2():
    # A strip has no vertex; a wedge has one, but it is not the whole region.
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)])
    with pytest.raises(ValidationError, match="unbounded"):
        halfspace_vertices([((1, 1), 0), ((1, -1), 0)])
