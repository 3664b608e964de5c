import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibercert import lattice
from fibercert.errors import ValidationError
from fibercert.geometry import convex_hull, dilate, point_hull_dist2, translate
from fibercert.geometry import hulls_disjoint
from fibercert.pipeline import build_obstacles, enumerate_words
from fibercert.trackmap import support_of_power
from fibercert.lattice import (
    BaseHull,
    DeepPoint,
    FiberedClass,
    Obstacles,
    PerpLattice,
    _box,
    _strip,
    deep_point,
    perp_basis,
    systole,
)

from conftest import negate, pool_strip, within_reach


def _ambient_covol2(L: PerpLattice) -> int:
    """The Gram determinant of the unprojected kernel basis (rank <= 2)."""
    gram = [[sum(x * y for x, y in zip(u, v)) for v in L.basis] for u in L.basis]
    return gram[0][0] if len(gram) == 1 else gram[0][0] * gram[1][1] - gram[0][1] ** 2


def primitive_classes(rank: int, count: int, seed: int = 7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vec = tuple(rng.randint(-9, 9) for _ in range(rank)) + (rng.randint(1, 30),)
        g = 0
        for v in vec:
            g = gcd(g, abs(v))
        if g == 1:
            out.append(FiberedClass(vec))
    return out


# -- classes -------------------------------------------------------------------

def test_fibered_class_basics():
    a = FiberedClass((3, 6))
    assert a.rank == 1 and a.n == 6
    assert not a.is_primitive()
    assert a.primitive_reduction().vector == (1, 2)
    assert FiberedClass((2, 3)).is_primitive()
    with pytest.raises(ValidationError):
        FiberedClass((0, 0))


# -- kernel lattices ---------------------------------------------------------

def test_perp_basis_examples():
    L = perp_basis(FiberedClass((0, 1)))
    assert L.basis == ((1, 0),)
    assert L.zeta_basis == ((1,),)
    assert L.covol2 == 1 and _ambient_covol2(L) == 1

    L = perp_basis(FiberedClass((1, 2)))
    assert L.basis == ((2, -1),)
    assert L.covol2 == 4  # projected basis (2,)
    assert _ambient_covol2(L) == 5  # |(2, -1)|^2 = |alpha|^2


# Reference bases, as the general row Hermite normal form computed them.
PERP_BASES = {
    (5, 1): ((1, -5),),
    (3, -7): ((7, 3),),
    (4, -1): ((1, 4),),
    (2, 3, 7): ((1, 4, -2), (0, 7, -3)),
    (4, 6, -9): ((3, 1, 2), (0, 3, 2)),
    (1, 0, 5): ((5, 0, -1), (0, 1, 0)),
    (2, 0, -3): ((3, 0, 2), (0, 1, 0)),
    (0, 0, 1): ((1, 0, 0), (0, 1, 0)),
    (1, 1, -1): ((1, 0, 1), (0, 1, 1)),
    (-3, 5, 12): ((1, 3, -1), (0, 12, -5)),
    (6, 10, 15): ((5, 0, -2), (0, 3, -2)),
    (7, -4, -6): ((2, 2, 1), (0, 3, -2)),
    (1, 990, 980101): ((1, 990, -1), (0, 980101, -990)),
}


@pytest.mark.parametrize("vector", sorted(PERP_BASES), ids=lambda v: ",".join(map(str, v)))
def test_perp_basis_table(vector):
    L = perp_basis(FiberedClass(vector))
    assert L.basis == PERP_BASES[vector]
    assert L.covol2 == vector[-1] ** 2


@st.composite
def _primitive_class(draw):
    """A primitive class of rank 1 or 2 with n != 0."""
    rank = draw(st.integers(1, 2))
    x = tuple(draw(st.lists(st.integers(-60, 60), min_size=rank, max_size=rank)))
    n = draw(st.integers(-60, 60).filter(bool))
    assume(gcd(*x, n) == 1)
    return FiberedClass(x + (n,))


def test_perp_basis_rejects_imprimitive():
    with pytest.raises(ValidationError, match="primitive"):
        perp_basis(FiberedClass((2, 4)))


def test_perp_basis_rejects_n_zero():
    for vector in ((1, 0), (1, 2, 0), (0, 1, 0)):
        with pytest.raises(ValidationError, match="degenerate"):
            perp_basis(FiberedClass(vector))


@settings(max_examples=300, deadline=None)
@given(_primitive_class())
def test_perp_basis_is_orthogonal_and_saturated(alpha):
    """Basis rows kill alpha, and the lattice is saturated: its Gram
    determinant in the ambient space equals |alpha|^2 exactly (index-1
    sublattice of alpha-perp).  The projection is the Hermite normal form:
    upper triangular, positive diagonal, the entry above it reduced."""
    L = perp_basis(alpha)
    for b in L.basis:
        assert sum(x * y for x, y in zip(b, alpha.vector)) == 0
    assert _ambient_covol2(L) == sum(v * v for v in alpha.vector)
    zeta = L.zeta_basis
    assert zeta == tuple(b[:-1] for b in L.basis)
    assert all(row[i] > 0 and not any(row[:i]) for i, row in enumerate(zeta))
    if alpha.rank == 2:
        assert 0 <= zeta[0][1] < zeta[1][1]


@settings(max_examples=200, deadline=None)
@given(_primitive_class())
def test_projected_covolume_is_n_squared(alpha):
    """covol^2 of the projected kernel lattice equals n^2 for primitive
    classes with n != 0."""
    assert perp_basis(alpha).covol2 == alpha.n ** 2


def test_covolume_is_unimodular_invariant():
    alpha = FiberedClass((2, 3, 7))
    L = perp_basis(alpha)
    b0, b1 = L.basis
    rebased = (tuple(x + 3 * y for x, y in zip(b0, b1)), tuple(-v for v in b1))
    L2 = PerpLattice(
        alpha, rebased, tuple(b[:-1] for b in rebased), 0
    )
    gram = [
        [sum(x * y for x, y in zip(u, v)) for v in L2.zeta_basis]
        for u in L2.zeta_basis
    ]
    det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    assert det == L.covol2


# -- systole -------------------------------------------------------------------

def _fake_lattice(zeta_rows) -> PerpLattice:
    alpha = FiberedClass((0,) * len(zeta_rows[0]) + (1,))
    full = tuple(tuple(r) + (0,) for r in zeta_rows)
    return PerpLattice(alpha, full, tuple(tuple(r) for r in zeta_rows), 1)


def _brute_shortest2(rows, span=12):
    best = None
    r = len(rows)
    for coeffs in product(range(-span, span + 1), repeat=r):
        if not any(coeffs):
            continue
        v = tuple(sum(c * row[i] for c, row in zip(coeffs, rows))
                  for i in range(len(rows[0])))
        l2 = sum(x * x for x in v)
        if best is None or l2 < best:
            best = l2
    return best


def test_systole_examples():
    assert systole(_fake_lattice([(5,)])).length2 == 25
    assert systole(_fake_lattice([(3, 0), (0, 4)])).length2 == 9
    s = systole(_fake_lattice([(7, 1), (3, 5)]))
    assert s.length2 == _brute_shortest2([(7, 1), (3, 5)])
    # Canonical sign: lexicographically positive representative.
    assert s.vector >= tuple(-x for x in s.vector)


def test_systole_skewed_basis():
    """A badly skewed basis whose shortest vector has large coefficients."""
    rows = [(101, 100), (100, 99)]  # det -1; shortest vector is (1, -1)-ish
    s = systole(_fake_lattice(rows))
    assert s.length2 == _brute_shortest2(rows, span=210)


def test_systole_randomized_vs_brute_force():
    rng = random.Random(11)
    for _ in range(15):
        while True:
            rows = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det != 0:
                break
        assert systole(_fake_lattice(rows)).length2 == _brute_shortest2(rows)


def _det(rows) -> int:
    return rows[0][0] if len(rows) == 1 else (
        rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])


def _in_lattice(rows, x) -> bool:
    """Whether x is an integer combination of the nonsingular rows: by
    Cramer's rule, both coefficients are integers, independent of the basis."""
    det = _det(rows)
    if len(rows) == 1:
        return x[0] % det == 0
    (a, b), (c, d) = rows
    return (x[0] * d - x[1] * c) % det == 0 and (a * x[1] - b * x[0]) % det == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.lists(
    st.lists(st.integers(-40, 40), min_size=r, max_size=r), min_size=r, max_size=r)))
def test_systole_has_no_shorter_lattice_point(rows):
    assume(_det(rows) != 0)
    s = systole(_fake_lattice(rows))
    assert _in_lattice(rows, s.vector)
    assert sum(x * x for x in s.vector) == s.length2 > 0
    assert s.vector >= tuple(-x for x in s.vector)
    k = isqrt(s.length2)
    for x in product(range(-k, k + 1), repeat=len(rows)):
        if 0 < sum(c * c for c in x) < s.length2:
            assert not _in_lattice(rows, x), x


def test_systole_on_real_kernels():
    for alpha in primitive_classes(1, 10) + primitive_classes(2, 10):
        L = perp_basis(alpha)
        s = systole(L)
        assert s.length2 >= 1
        # The reported vector really lies in the projected lattice at the
        # reported length.
        assert sum(x * x for x in s.vector) == s.length2


# -- deep point ------------------------------------------------------------

def _placed(hulls) -> Obstacles:
    """Hulls as obstacles placed from their own bases with zero shifts."""
    return Obstacles([(BaseHull.of(h), (0,) * len(h[0])) for h in hulls])


def test_deep_point_rank1_example():
    obstacles = [[(0,)], [(-5,)], [(5,)]]
    dp = deep_point(_placed(obstacles), 5, 1)
    assert dp == DeepPoint((-3,), Fraction(4))  # lex-smallest of the tie


def test_deep_point_rank2_matches_exhaustive_scan():
    rng = random.Random(23)
    for _ in range(6):
        obstacles = []
        for _k in range(rng.randint(1, 4)):
            pts = [(rng.randint(-6, 6), rng.randint(-6, 6))
                   for _ in range(rng.randint(1, 4))]
            from fibercert.geometry import convex_hull
            obstacles.append(convex_hull(pts))
        R = 6
        dp = deep_point(_placed(obstacles), R, 2)
        best = None
        # product() yields points in ascending lexicographic order, so a
        # strict improvement rule reproduces the lex-smallest tie-break.
        for y in product(range(-R, R + 1), repeat=2):
            d = min(point_hull_dist2(y, h) for h in obstacles)
            if best is None or d > best[1]:
                best = (y, d)
        assert dp.point == best[0]
        assert dp.dist2 == best[1]


def _random_obstacle(rng, rank: int, R: int, far: bool) -> list:
    """The hull of 1 to 4 random points (a point, segment or polygon), on a
    grid of spacing 1/den, placed well outside the box when far is set."""
    k = rng.choice((1, 2, 3, 4))
    den = rng.choice((1, 1, 2, 3, 4))
    reach = 4 * R if far else R + 2
    center = [rng.randint(-reach, reach) for _ in range(rank)]
    if far:
        center[rng.randrange(rank)] = rng.choice((-1, 1)) * rng.randint(2 * R, 4 * R)
    pts = [tuple(c + Fraction(rng.randint(-2 * den, 2 * den), den) for c in center)
           for _ in range(k)]
    return convex_hull(pts)


def _lattice_obstacles(rank: int, R: int, step: int) -> list:
    """Single points on a square lattice: many points tie for the maximum."""
    coords = range(-R - step, R + step + 1, step)
    return [[pt] for pt in product(coords, repeat=rank)]


def _translated_obstacles(rng, rank: int, R: int) -> list:
    """Translates of one dilated base hull along a lattice, as certify builds
    them from kernel words: the set is periodic, so many points tie."""
    den = rng.choice((1, 1, 2, 3))
    pts = [tuple(Fraction(rng.randint(-den, den), den) for _ in range(rank))
           for _ in range(rng.randint(1, 4))]
    base = dilate(convex_hull(pts), rng.randint(0, 1))
    if rank == 1:
        basis = [(rng.randint(3, 6),)]
    else:
        while True:
            basis = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2)]
            (a, b), (c, d) = basis
            if abs(a * d - b * c) >= 10:
                break
    reach = min(R, 5) + 2
    obstacles = []
    for coeffs in product(range(-2 * reach, 2 * reach + 1), repeat=rank):
        shift = tuple(sum(k * b[i] for k, b in zip(coeffs, basis)) for i in range(rank))
        if max(map(abs, shift)) <= reach:
            obstacles.append(translate(base, shift))
    return obstacles


def _diagonal_obstacles(rng, R: int) -> list:
    """Long diagonal segments, whose bounding boxes cover much of the box
    while their end points lie far from it, among a few small hulls."""
    obstacles = []
    for _ in range(rng.randint(1, 3)):
        den = rng.choice((1, 2, 3))
        cx, cy = (Fraction(rng.randint(-R * den, R * den), den) for _ in range(2))
        dx, dy = rng.choice((1, 2)), rng.choice((-2, -1, 1, 2))
        half = rng.randint(3 * R, 6 * R)
        obstacles.append(convex_hull([(cx - half * dx, cy - half * dy),
                                      (cx + half * dx, cy + half * dy)]))
    obstacles += [_random_obstacle(rng, 2, R, far=False) for _ in range(rng.randint(0, 2))]
    return obstacles


def _brute_deep_point(obstacles, R: int, rank: int) -> DeepPoint:
    best = None
    # product() yields points in ascending lexicographic order, so a strict
    # improvement rule reproduces the lex-smallest tie-break.
    for y in product(range(-R, R + 1), repeat=rank):
        d = min(point_hull_dist2(y, h) for h in obstacles)
        if best is None or d > best.dist2:
            best = DeepPoint(y, d)
    return best


def test_deep_point_matches_brute_force():
    rng = random.Random(41)
    kinds = {"random": 0, "fraction": 0, "far": 0, "ties": 0, "translates": 0,
             "diagonal": 0}
    for case in range(240):
        rank = 1 + case % 2
        R = rng.randint(1, 8)
        if case >= 200 and case % 4 < 2:
            obstacles = _translated_obstacles(rng, rank, R)
            kinds["translates"] += 1
        elif case >= 200:
            rank = 2
            obstacles = _diagonal_obstacles(rng, R)
            kinds["diagonal"] += 1
        elif case % 10 >= 8:
            obstacles = _lattice_obstacles(rank, R, rng.randint(2, 4))
            kinds["ties"] += 1
        else:
            obstacles = [_random_obstacle(rng, rank, R, far=rng.random() < 0.4)
                         for _ in range(rng.randint(1, 5))]
            kinds["random"] += 1
        kinds["fraction"] += any(isinstance(x, Fraction) and x.denominator > 1
                                 for h in obstacles for v in h for x in v)
        kinds["far"] += any(all(max(map(abs, v)) > R + 1 for v in h) for h in obstacles)
        assert deep_point(_placed(obstacles), R, rank) == \
            _brute_deep_point(obstacles, R, rank), (case, R, rank, obstacles)
    assert min(kinds.values()) >= 20, kinds


@st.composite
def _placed_translates(draw, tracks):
    """Obstacles placed from one to three shared bases with integer shifts,
    as build_obstacles places kernel words, with the translates they stand
    for.  A base is the hull of random integer or Fraction points, or the
    support hull of a power of a bundled map, mirrored at random as for a
    negative power, dilated by 0 or 1."""
    rank = draw(st.sampled_from((1, 2)))
    R = draw(st.integers(1, 5))
    placed, translates = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("int", "fraction", "support")))
        if kind == "support":
            verts = support_of_power(tracks[rank], draw(st.integers(1, 4)))
            if draw(st.booleans()):
                verts = [tuple(-c for c in v) for v in verts]
        else:
            den = 1 if kind == "int" else draw(st.integers(2, 4))
            coord = st.integers(-3 * den, 3 * den).map(lambda k, den=den: Fraction(k, den))
            verts = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=4))
        base = BaseHull.of(dilate(convex_hull(verts), draw(st.integers(0, 1))))
        shift = st.tuples(*[st.integers(-R - 6, R + 6)] * rank)
        for x in draw(st.lists(shift, min_size=1, max_size=6)):
            placed.append((base, x))
            translates.append(translate(base.hull, x))
    assume(any(any(x) for _, x in placed))
    return placed, translates, R, rank


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_deep_point_over_placed_translates(data, r1, r2):
    """deep_point over shared bases placed by nonzero shifts finds exactly
    the brute-force deep point of the materialized translates."""
    placed, translates, R, rank = data.draw(
        _placed_translates({1: r1, 2: r2}))
    assert deep_point(Obstacles(placed), R, rank) == _brute_deep_point(translates, R, rank)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_obstacles_seen_from_matches_translates(data, r1, r2):
    """The index answers both per-point questions exactly as the
    materialized translates do: the distance from every point of the box,
    and whether a body moved there and dilated misses them all."""
    placed, translates, R, rank = data.draw(
        _placed_translates({1: r1, 2: r2}))
    index = Obstacles(placed)
    coord = st.integers(-4, 4)
    body = convex_hull(data.draw(st.lists(st.tuples(*[coord] * rank), min_size=1,
                                          max_size=4)))
    s = data.draw(st.integers(0, 1))
    for y in product(range(-R, R + 1), repeat=rank):
        seen = index.seen_from(y)
        assert seen.dist2() == min(point_hull_dist2(y, t) for t in translates), y
        moved = translate(dilate(body, s), y)
        assert seen.misses(BaseHull.of(dilate(body, s))) == all(hulls_disjoint(moved, t)
                                           for t in translates), (y, body, s)


def _reflect(placed):
    """Each placed translate's partner under y -> -y, in reverse order: the
    reflected base, built as a base of its own, placed by the negated shift."""
    mirrors = {}
    for base, _ in placed:
        mirrors.setdefault(id(base), BaseHull.of(convex_hull(negate(base.hull))))
    return [(mirrors[id(base)], tuple(-c for c in x)) for base, x in reversed(placed)]


@st.composite
def _symmetric_translates(draw, tracks):
    """Placed translates closed under y -> -y in the order build_obstacles
    places kernel words, obstacle N-1-i the partner of obstacle i: a half
    drawn as in _placed_translates, a middle obstacle at shift 0 on a
    point-symmetric base or none, and the half's partners reversed."""
    half, _, R, rank = draw(_placed_translates(tracks))
    middle = []
    if draw(st.booleans()):
        coord = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
        pts = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=3))
        hull = convex_hull(pts + negate(pts))
        middle = [(BaseHull.of(dilate(hull, draw(st.integers(0, 1)))), (0,) * rank)]
    placed = half + middle + _reflect(half)
    return placed, [translate(base.hull, x) for base, x in placed], R, rank


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_deep_point_half_box_over_symmetric_translates(data, r1, r2):
    """Point-symmetric translates are marked symmetric, and the half-box
    search finds exactly the brute-force deep point of the full box."""
    placed, translates, R, rank = data.draw(_symmetric_translates({1: r1, 2: r2}))
    index = Obstacles(placed)
    assert index.symmetric
    assert deep_point(index, R, rank) == _brute_deep_point(translates, R, rank)


@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_deep_point_half_box_needs_every_partner(data, r1, r2):
    """Dropping one partner, or moving or growing one, leaves the index
    unmarked, and deep_point still finds the brute-force deep point."""
    placed, _, R, rank = data.draw(_symmetric_translates({1: r1, 2: r2}))
    i = data.draw(st.integers(0, len(placed) // 2 - 1))
    base, x = placed[i]
    how = data.draw(st.sampled_from(("drop", "move", "grow")))
    if how == "drop":
        # An obstacle at shift 0 on a point-symmetric base is its own
        # partner: dropping it leaves a point-symmetric set.
        assume(any(x) or base.hull != base.reflected)
        placed = placed[:i] + placed[i + 1:]
    else:
        if how == "move":
            x = (x[0] + 1,) + x[1:]
        else:
            base = BaseHull.of(dilate(base.hull, 1))
        placed = placed[:i] + [(base, x)] + placed[i + 1:]
    index = Obstacles(placed)
    assert not index.symmetric, how
    translates = [translate(b.hull, t) for b, t in placed]
    assert deep_point(index, R, rank) == _brute_deep_point(translates, R, rank)


def test_symmetric_needs_the_reflected_hull():
    """A partner whose base is its partner's hull unreflected, or whose
    shift is not negated, leaves the index unmarked; a base reflects its
    hull in convex_hull's vertex order."""
    tri = BaseHull.of(convex_hull([(0, 0), (2, 0), (0, 1)]))
    flip = BaseHull.of(convex_hull([(0, 0), (-2, 0), (0, -1)]))
    assert tri.reflected == flip.hull
    assert Obstacles([(tri, (3, 1)), (flip, (-3, -1))]).symmetric
    assert not Obstacles([(tri, (3, 1)), (tri, (-3, -1))]).symmetric
    assert not Obstacles([(tri, (3, 1)), (flip, (-3, 1))]).symmetric
    assert not Obstacles([(tri, (0, 0))]).symmetric
    dot = BaseHull.of([(0,)])
    assert Obstacles([(dot, (0,))]).symmetric
    assert not Obstacles([(dot, (1,))]).symmetric


def test_period_is_the_primitive_kernel_shift_of_power_zero():
    """(v, 0) lies in the kernel and v is primitive; rank 1 and a class
    with a = b = 0 have no period."""
    for alpha in primitive_classes(2, 12) + [FiberedClass((3, 0, 7)), FiberedClass((0, -2, 5))]:
        v = alpha.lattice.period
        a, b, _ = alpha.vector
        assert a * v[0] + b * v[1] == 0 and gcd(*v) == 1, alpha
    assert FiberedClass((3, 0, 7)).lattice.period == (0, 1)
    assert FiberedClass((3, 7)).lattice.period is None
    assert FiberedClass((0, 0, 1)).lattice.period is None


def test_strip_cells_are_the_points_stepping_out_of_the_box():
    """The strip's cells hold, once each, exactly the points p of the
    searched box [-R, right] x [-R, R] with p + v outside [-R, R]^2, for
    every lexicographically negative v: b = 0's (0, -1), each quarter turn
    and periods wider than the box."""
    periods = [(0, -1), (-1, 0), (0, -3), (-1, 1), (-1, -1), (-2, 3), (-3, -2),
               (-4, 1), (-1, -5), (-7, 2), (-2, 9), (-11, -1)]
    for R in range(1, 5):
        for right in (0, R):
            for v in periods:
                cells = _strip(R, right, v)
                points = [p for lo, hi in cells
                          for p in product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1))]
                want = [p for p in product(range(-R, right + 1), range(-R, R + 1))
                        if max(abs(p[0] + v[0]), abs(p[1] + v[1])) > R]
                assert sorted(points) == want, (R, right, v, cells)
                assert len(cells) <= 2


# Small primitive rank-2 classes with |n| >= 3(|a| + |b|), so that a word
# within radius R_w has power at most R_w / 3; b = 0 gives the period
# (0, -1) or (-1, 0), depending on the quarter turn.
_STRIP_CLASSES = [(1, 0, 4), (1, 1, 7), (1, 2, 9), (2, 1, 10), (1, 3, 13), (3, 2, 16)]


@st.composite
def _kernel_arrangement(draw, r2):
    """The obstacles of the kernel words of a small rank-2 class, turned a
    random number of quarter turns, and the part of them within L-inf gap
    D of the box [-R, R]^2, as certify keeps them.  The bases are r2's
    dilated supports in mirror mode, random small hulls with each negative
    power's base the reflection of its positive partner's, both
    point-symmetric, or random small hulls with an unsymmetric power-0
    base, searched over the full box.  Also every placed obstacle and the
    radius R_e they were enumerated within, which covers the period step
    of every kept obstacle, so the strip check passes: a base reaches at
    most 2 (random) or |y| / 2 + 2 (r2, safety <= 1)."""
    a, b, n = draw(st.sampled_from(_STRIP_CLASSES))
    for _ in range(draw(st.integers(0, 3))):
        a, b = -b, a
    L = FiberedClass((a, b, n)).lattice
    R, D = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("r2", "mirrored", "random")))
    R_e = 2 * (R + D + max(map(abs, L.period)) + 2)
    words = enumerate_words(L, R_e)
    if kind == "r2":
        pool = build_obstacles(r2, words, draw(st.integers(0, 1)), True)
    else:
        coord = st.integers(-1, 1)
        hulls = st.lists(st.tuples(coord, coord), min_size=1, max_size=3)
        bases = {}
        for y in sorted({y for _, y in words}, key=abs):
            if kind == "mirrored" and y < 0:
                bases[y] = BaseHull.of(bases[-y].reflected)
                continue
            pts = draw(hulls)
            if y == 0:
                pts = pts + negate(pts) if kind == "mirrored" else pts + [(1, 1)]
            bases[y] = BaseHull.of(dilate(convex_hull(pts), draw(st.integers(0, 1))))
        if kind == "random":
            assume(bases[0].hull != bases[0].reflected)
        pool = [(bases[y], x) for x, y in words]
    return pool, within_reach(pool, R, D), L.period, R_e, R, D, kind


def _translates(placed):
    return [translate(base.hull, x) for base, x in placed]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_deep_point_period_strip_matches_full_box(data, r2):
    """On kernel-word arrangements the strip check passes with v oriented
    lexicographically negative, as the check against every placed
    obstacle does.  Whenever the deep point lies within D, the strip
    search, the search without a period and brute force agree; beyond D
    the strip search reports a distance beyond D too."""
    pool, kept, period, R_e, R, D, kind = data.draw(_kernel_arrangement(r2))
    index = Obstacles(kept, period, R_e)
    assert index.strip in (period, tuple(-c for c in period))
    assert index.strip == pool_strip(kept, period, pool)
    assert index.strip < (0, 0)
    assert index.symmetric == (kind != "random")
    want = _brute_deep_point(_translates(kept), R, 2)
    assert deep_point(Obstacles(kept), R, 2) == want
    got = deep_point(index, R, 2)
    if want.dist2 <= D * D:
        assert got == want
    else:
        assert got.dist2 > D * D


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_deep_point_period_strip_refuses_a_missing_partner(data, r2):
    """Enumerating to a radius just below the partner (base, x - v) that
    one kept obstacle needs, so that the partner is not placed, fails the
    check, as the check against every placed obstacle does: the search
    runs without the strip and still finds the brute-force deep point."""
    pool, kept, period, _, R, _, _ = data.draw(_kernel_arrangement(r2))
    v = min(period, tuple(-c for c in period))
    base, (x0, x1) = data.draw(st.sampled_from(kept))
    partner = (x0 - v[0], x1 - v[1])
    pool, kept = ([(b, x) for b, x in placed if not (b is base and x == partner)]
                  for placed in (pool, kept))
    index = Obstacles(kept, period, max(map(abs, partner)) - 1)
    assert index.strip is None
    assert pool_strip(kept, period, pool) is None

    def forbidden(*args):
        raise AssertionError("the strip was searched")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lattice, "_strip", forbidden)
        assert deep_point(index, R, 2) == _brute_deep_point(_translates(kept), R, 2)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_misses_matches_the_translated_body_test(data):
    """_Seen.misses, which tests x - point against body ⊕ (-base) in rank 2
    and compares interval ends in rank 1, agrees with hulls_disjoint of
    the body translated to point - x and the base hull."""
    rank = data.draw(st.sampled_from((1, 2)))
    den = data.draw(st.integers(1, 3))
    coord = st.integers(-4 * den, 4 * den).map(lambda k: Fraction(k, den))
    hull = st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=5).map(convex_hull)
    body, base = BaseHull.of(data.draw(hull)), BaseHull.of(data.draw(hull))
    shift = st.tuples(*[st.integers(-8, 8)] * rank)
    x, point = data.draw(shift), data.draw(shift)
    moved = translate(body.hull, tuple(p - t for p, t in zip(point, x)))
    assert Obstacles([(base, x)]).seen_from(point).misses(body) == \
        hulls_disjoint(moved, base.hull)


def _far_corner(lo, hi, box) -> int:
    """The largest squared distance from a corner of the cell [lo, hi] to a
    corner of the box, taken corner by corner."""
    (x0, y0), (x1, y1) = lo, hi
    a, b, c, d = box
    return (max((x - t) ** 2 for x in (x0, x1) for t in (a, b))
            + max((y - t) ** 2 for y in (y0, y1) for t in (c, d)))


def _gap2(x0: int, x1: int, y0: int, y1: int, box) -> int:
    """Squared distance between the cell [x0, x1] x [y0, y1] and a box."""
    a, b, c, d = box
    gx = max(a - x1, x0 - b, 0)
    gy = max(c - y1, y0 - d, 0)
    return gx * gx + gy * gy


def test_cell_bound_matches_every_vertex():
    rng = random.Random(5)
    for case in range(200):
        R = rng.randint(1, 8)
        hulls = [[tuple(v) + (0,) * (2 - len(v)) for v in h]
                 for h in [_random_obstacle(rng, 2, R, far=rng.random() < 0.3)
                           for _ in range(rng.randint(1, 12))]]
        if case % 3 == 0:
            hulls += _diagonal_obstacles(rng, R)
        x0, y0 = rng.randint(-R, R), rng.randint(-R, R)
        lo, hi = (x0, y0), (x0 + rng.randint(0, R), y0 + rng.randint(0, R))
        if case % 4 == 0:
            lo, hi = (x0, 0), (hi[0], 0)  # flat, like every rank-1 cell
        near = sorted(rng.sample(range(len(hulls)), rng.randint(1, len(hulls))))
        bound, kept = _placed(hulls).cell_bound(lo, hi, near)
        assert bound == min(_far_corner(lo, hi, _box([v]))
                            for i in near for v in hulls[i]), (case, lo, hi, hulls)
        box = (lo[0], hi[0], lo[1], hi[1])
        assert sorted(kept) == [i for i in near
                                if _gap2(*box, _box(hulls[i])) <= bound]
        # The bound holds f on the cell's lattice points.
        for y in product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
            assert min(point_hull_dist2(y, hulls[i]) for i in near) <= bound


def test_deep_point_validation():
    with pytest.raises(ValidationError):
        deep_point(Obstacles([]), 3, 1)
    with pytest.raises(ValidationError):
        deep_point(_placed([[(0,)]]), 0, 1)
