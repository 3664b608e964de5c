from fractions import Fraction
from itertools import islice, takewhile
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fibercert import trackmap
from fibercert.cones import estimate_dual_cone
from fibercert.dataio import dataset_hash
from fibercert.errors import CapabilityError, ValidationError
from fibercert.geometry import contains_point, convex_hull, minkowski_sum
from fibercert.laurent import LaurentPoly, mat_pow
from fibercert.trackmap import (
    PERIOD_WINDOW,
    Edge,
    LiftedGraphMap,
    PowerMemo,
    _semiring_powers,
    build_transition_matrix,
    omega_of_word,
    oracle_iterate,
    support_of_power,
)

from conftest import every_power_estimate, negate, tuple_state_walk


def single_edge_rose() -> LiftedGraphMap:
    """One loop mapped to itself with deck shift 1: transition matrix [t]."""
    return LiftedGraphMap(
        rank=1,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (1,)),),
        vertex_images={"v": ("v", (1,))},
        edge_images={"a": (("a", (1,), 1),)},
    )


def doubling_rose() -> LiftedGraphMap:
    """One loop a -> a a' a'^-1 a' realizing transition entry 1 + 2t."""
    return LiftedGraphMap(
        rank=1,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (1,)),),
        vertex_images={"v": ("v", (0,))},
        edge_images={"a": (("a", (0,), 1), ("a", (1,), 1), ("a", (1,), -1))},
    )


def tilted_loop() -> LiftedGraphMap:
    """A rank-2 loop whose one image step has shift (-1, 1): power p is the
    single point (-p, p)."""
    return LiftedGraphMap(
        rank=2,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (1, 0)),),
        vertex_images={"v": ("v", (-1, 1))},
        edge_images={"a": (("a", (-1, 1), 1),)},
    )


def unshifted_theta() -> LiftedGraphMap:
    """Two loops swapped and doubled with every step shift zero (reach 0)."""
    return LiftedGraphMap(
        rank=1,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (0,)), Edge("b", "v", "v", (0,))),
        vertex_images={"v": ("v", (0,))},
        edge_images={"a": (("b", (0,), 1),), "b": (("a", (0,), 1), ("b", (0,), -1))},
    )


# -- validation ------------------------------------------------------------

def test_validation_rejects_broken_paths():
    with pytest.raises(ValidationError, match="rank"):
        LiftedGraphMap(0, ("v",), (), {}, {})
    with pytest.raises(ValidationError, match="duplicate edge"):
        LiftedGraphMap(
            1, ("v",),
            (Edge("a", "v", "v", (0,)), Edge("a", "v", "v", (1,))),
            {"v": ("v", (0,))}, {"a": (("a", (0,), 1),)},
        )
    with pytest.raises(ValidationError, match="unknown endpoint"):
        LiftedGraphMap(
            1, ("v",), (Edge("a", "v", "w", (0,)),),
            {"v": ("v", (0,))}, {"a": (("a", (0,), 1),)},
        )
    with pytest.raises(ValidationError, match="no image"):
        LiftedGraphMap(1, ("v",), (Edge("a", "v", "v", (1,)),), {}, {})
    # Path whose single step starts at the wrong deck shift.
    with pytest.raises(ValidationError, match="path breaks"):
        LiftedGraphMap(
            1, ("v",), (Edge("a", "v", "v", (1,)),),
            {"v": ("v", (0,))}, {"a": (("a", (5,), 1),)},
        )
    # Path that is consistent step-to-step but lands in the wrong domain.
    with pytest.raises(ValidationError, match="ends at"):
        LiftedGraphMap(
            1, ("v",), (Edge("a", "v", "v", (1,)),),
            {"v": ("v", (0,))}, {"a": (("a", (0,), 1), ("a", (1,), 1))},
        )
    with pytest.raises(ValidationError, match="orientation"):
        LiftedGraphMap(
            1, ("v",), (Edge("a", "v", "v", (1,)),),
            {"v": ("v", (0,))}, {"a": (("a", (0,), 2),)},
        )


def test_validation_rejects_unknown_edge():
    """An image step naming an edge the map does not have."""
    with pytest.raises(ValidationError, match="unknown edge 'b'"):
        LiftedGraphMap(
            1, ("v",), (Edge("a", "v", "v", (1,)),),
            {"v": ("v", (0,))}, {"a": (("b", (0,), 1),)},
        )


def test_bundled_datasets_validate_and_are_primitive(r1, r2):
    assert r1.rank == 1 and r2.rank == 2
    assert r1.k0 == 1
    assert r2.k0 == 2
    assert r1.inverse is not None
    assert r2.inverse is None


def wielandt_rose(chord: bool) -> LiftedGraphMap:
    """16 unshifted loops, e_i -> e_(i+1) and e_15 -> e_0 e_1 with the chord
    (Wielandt's matrix, exponent (16-1)^2 + 1 = 226), e_15 -> e_0 without it
    (a cyclic permutation, not primitive)."""
    names = [f"e{i}" for i in range(16)]
    images = {a: ((b, (0,), 1),) for a, b in zip(names, names[1:])}
    images["e15"] = (("e0", (0,), 1),) + ((("e1", (0,), 1),) if chord else ())
    return LiftedGraphMap(1, ("v",), tuple(Edge(a, "v", "v", (0,)) for a in names),
                          {"v": ("v", (0,))}, images)


def test_k0_reaches_wielandt_bound():
    assert wielandt_rose(chord=True).k0 == 226
    assert wielandt_rose(chord=False).k0 is None


# -- transition matrix and supports -----------------------------------------

def test_transition_matrix_of_examples():
    M = build_transition_matrix(single_edge_rose())
    assert M.entries[0][0] == LaurentPoly.monomial(1, (1,))
    M2 = build_transition_matrix(doubling_rose())
    assert M2.entries[0][0] == LaurentPoly(1, {(0,): 1, (1,): 2})


def test_r1_transition_matrix(r1):
    M = build_transition_matrix(r1)
    t = LaurentPoly.monomial(1, (1,))
    one = LaurentPoly.const(1, 1)
    assert M.entries == (
        (one, t),
        (LaurentPoly.const(1, 2), one + t),
    )


def test_support_of_power_matches_oracle(r1, r2):
    """The two hull routes agree at every power up to 200."""
    for track in (r1, r1.inverse, r2, single_edge_rose(), doubling_rose(), tilted_loop(),
                  unshifted_theta()):
        walk = oracle_iterate(track, 200)
        assert len(walk) == 201
        for p in range(0, 201):
            assert walk[p] == support_of_power(track, p), p


def _assert_oracle_matches_walk(track, p_top):
    """oracle_iterate(track, p) gives the hulls of the reference walk's
    points at every power of every p <= p_top."""
    ref = [tuple(convex_hull(points)) for points in tuple_state_walk(track, p_top)]
    for p in range(p_top + 1):
        assert oracle_iterate(track, p) == ref[:p + 1], p


def test_oracle_matches_tuple_state_walk(r1, r2):
    for track in (r1, r1.inverse, r2):
        _assert_oracle_matches_walk(track, 40)


def test_oracle_on_small_maps():
    """Loops whose powers are single points, one of them tilted, a map with
    no shift at all, and a doubling rose."""
    for p in range(13):
        assert oracle_iterate(single_edge_rose(), p)[p] == ((p,),)
        assert oracle_iterate(tilted_loop(), p)[p] == ((-p, p),)
        assert oracle_iterate(unshifted_theta(), p)[p] == ((0,),)
    for track in (single_edge_rose(), doubling_rose(), tilted_loop(), unshifted_theta()):
        _assert_oracle_matches_walk(track, 12)


def test_oracle_power_zero(r1, r2):
    for track in (r1, r2, tilted_loop(), unshifted_theta()):
        zero = (0,) * track.rank
        assert oracle_iterate(track, 0) == [(zero,)]


def test_support_semiring_matches_laurent_power(r1, r2):
    """Semiring hulls are the hulls of the supports of the literal matrix
    power."""
    for track in (r1, r2):
        M = build_transition_matrix(track)
        for p in range(0, 9):
            Mp = mat_pow(M, p)
            want = set()
            for row in Mp.entries:
                for q in row:
                    want.update(q.terms)
            assert support_of_power(track, p) == tuple(convex_hull(want)), p


def test_support_is_subadditive(r2):
    """Omega(p+q) is contained in Omega(p) + Omega(q) (Minkowski): in the
    reference walk's points, and in the semiring's hulls."""
    ref = tuple_state_walk(r2, 8)
    for p in range(1, 5):
        for q in range(1, 5):
            mink = {tuple(map(add, s, t)) for s in ref[p] for t in ref[q]}
            assert ref[p + q] <= mink
            both = minkowski_sum(support_of_power(r2, p), support_of_power(r2, q))
            assert all(contains_point(both, v) for v in support_of_power(r2, p + q))


def _frozenset_powers(base, rank, p):
    """Entry supports of base^0..base^p over the set semiring, one Minkowski
    sum of frozensets at a time: the reference for _semiring_powers."""
    m = len(base)
    zero = (0,) * rank
    powers = [[[frozenset([zero]) if i == j else frozenset() for j in range(m)]
               for i in range(m)]]
    for _ in range(p):
        prev = powers[-1]
        powers.append([[frozenset(tuple(map(add, s, t))
                                  for k in range(m)
                                  for s in prev[i][k] for t in base[k][j])
                        for j in range(m)] for i in range(m)])
    return powers


@st.composite
def support_matrices(draw):
    """A random entry-support matrix: size 1-4, rank 1-2, shifts -3..3."""
    rank = draw(st.integers(1, 2))
    m = draw(st.integers(1, 4))
    shift = st.tuples(*[st.integers(-3, 3)] * rank)
    base = [[draw(st.frozensets(shift, max_size=3)) for _ in range(m)] for _ in range(m)]
    return rank, base


@settings(max_examples=60, deadline=None)
@given(support_matrices(), st.lists(st.integers(0, 11), min_size=1, max_size=4))
def test_hull_semiring_matches_frozenset_semiring(case, powers):
    """Hull-semiring hulls, read through a PowerMemo, are the hulls of the
    frozenset semiring's supports, for powers asked in any order and each
    asked twice; an empty power raises ValidationError on every request."""
    rank, base = case
    ref = _frozenset_powers(base, rank, max(powers))

    def union(p):
        return frozenset().union(*(e for row in ref[p] for e in row))

    semiring = PowerMemo(_semiring_powers(base, rank))
    for p in powers + powers:
        want = union(p)
        if not want:
            with pytest.raises(ValidationError):
                semiring(p)
            continue
        assert semiring(p) == tuple(convex_hull(want)), p


def _walked(base, rank, p):
    """Hulls of powers 0..p read from a PowerMemo over _semiring_powers, and
    what each of the walk's period searches returned, power by power."""
    searches, search = [], trackmap._column_period
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackmap, "_column_period",
                   lambda cols: searches.append(search(cols)) or searches[-1])
        memo = PowerMemo(_semiring_powers(base, rank))
        return [memo(q) for q in range(p + 1)], searches


def _period(searches):
    """(T, c, Q) with C_{T+c}(j) = C_T(j) ⊕ Q for every column j, from the
    first search that found it, or None; no search may follow it."""
    for q, found in enumerate(searches):
        if found:
            assert q == len(searches) - 1
            return q - found[0], found[0], found[1]
    return None


def test_semiring_periods(r1, r2):
    """The period each map's walk finds, after which it walks no column."""
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cases = ((r1, (1, 1, [(0,), (1,)])), (r1.inverse, (1, 1, [(-1,), (0,)])),
             (r2, (1, 2, square)), (single_edge_rose(), (0, 1, [(1,)])),
             (doubling_rose(), (0, 1, [(0,), (1,)])), (tilted_loop(), (0, 1, [(-1, 1)])),
             (unshifted_theta(), (0, 1, [(0,)])))
    for track, period in cases:
        _, searches = _walked(track.entry_supports, track.rank, 40)
        assert _period(searches) == period, track.edges


def test_walk_without_period_matches_oracle(r2):
    """r2's transposed entry supports have no period within the window, so
    the walk takes every power from its columns, which are r2's rows.  The
    union of the entries is r2's at every power, so the hulls are the path
    oracle's."""
    transposed = [list(col) for col in zip(*r2.entry_supports)]
    hulls, searches = _walked(transposed, 2, 200)
    assert searches == [None] * (PERIOD_WINDOW + 1)
    assert hulls == [r2.oracle(q) for q in range(201)]


def test_semiring_column_without_entries_stays_empty():
    """Column 1 of the matrix has no entries, so column 1 of every positive
    power is empty, while column 0 is not.  Power 1 is column 0's power 0
    summed with one hull, but column 1 does not stay as it was, so the
    period is found only from power 2, and every power's hull is the hull
    of the frozenset semiring's union."""
    base = [[{(1, 0)}, set()],
            [{(0, 1), (2, 2)}, set()]]
    ref = _frozenset_powers(base, 2, 6)
    assert not any(row[1] for row in ref[1]) and any(row[0] for row in ref[1])
    hulls, searches = _walked(base, 2, 6)
    assert _period(searches) == (1, 1, [(1, 0)])
    for q in range(7):
        want = frozenset().union(*(e for row in ref[q] for e in row))
        assert hulls[q] == tuple(convex_hull(want)), q


def _entry_hull_powers(base, rank):
    """Hulls of base^0, base^1, ... from one hull per matrix entry, the
    full-matrix walk: the reference for the column walk of _semiring_powers.
    A power with no entries yields None."""
    m = len(base)
    entries = [[[(0,) * rank] if i == j else [] for j in range(m)] for i in range(m)]
    while True:
        pts = [v for row in entries for h in row for v in h]
        yield tuple(convex_hull(pts)) if pts else None
        sums = [[[tuple(map(add, v, t)) for k in range(m) for t in base[k][j] for v in row[k]]
                 for j in range(m)] for row in entries]
        entries = [[convex_hull(s) if s else [] for s in row] for row in sums]


@settings(max_examples=60, deadline=None)
@given(support_matrices())
def test_column_walk_matches_full_matrix_walk(case):
    """The semiring memo and the full-matrix walk give the same hull at every
    power up to 40, and the same first empty power, whether or not the walk
    finds a period (about 40 % of draws have none)."""
    rank, base = case
    full = _entry_hull_powers(base, rank)
    want = list(takewhile(lambda hull: hull is not None, islice(full, 41)))
    hulls, searches = _walked(base, rank, len(want) - 1)
    event("period" if _period(searches) else "no period")
    assert hulls == want
    if len(want) <= 40:
        with pytest.raises(ValidationError):
            _walked(base, rank, len(want))


def _read_to(memo, p):
    """memo after reading powers 0..p, or up to its first empty power."""
    try:
        memo(p)
    except ValidationError:
        pass
    return memo


def _estimate_or_error(track, p_max):
    try:
        return estimate_dual_cone(track, p_max)
    except ValidationError:
        return "empty power"


@settings(max_examples=40, deadline=None)
@given(support_matrices(), st.one_of(st.none(), st.integers(1, 64)))
def test_closed_form_route_matches_the_column_walk(case, k0):
    """Past its period (T, c, Q) the semiring memo keeps no power and
    answers each one in closed form.  It equals the column walk, a memo
    that searches for no period, at every power up to 200, and at its first
    empty power, if any, both raise; a far power is H_p = H_{p-c} ⊕ Q.  A
    memo with no period walks its columns at every power itself.  On
    stand-in maps of either memo, whatever k0, the dual cone from the powers
    the estimate reads equals the every-power reference at every p_max up
    to 60 (at a few, around the period window, when there is no period and
    the estimate reads every power too)."""
    rank, base = case
    memo = _read_to(PowerMemo(_semiring_powers(base, rank)), 200)
    event("period" if memo.period else "no period")
    walk = memo
    if memo.period:
        T, c, Q = memo.period
        assert len(memo.kept) == T + c + 1
        far = 10 ** 9 + T
        assert memo(far) == tuple(minkowski_sum(memo(far - c), Q))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trackmap, "PERIOD_WINDOW", -1)
            walk = _read_to(PowerMemo(_semiring_powers(base, rank)), 200)
        assert walk.period is None and len(walk.kept) == 201
        assert [memo(p) for p in range(201)] == walk.kept
    elif len(memo.kept) <= 200:
        with pytest.raises(ValidationError):
            memo(len(memo.kept))
    fast = SimpleNamespace(rank=rank, k0=k0, semiring=memo)
    slow = SimpleNamespace(rank=rank, k0=k0, semiring=walk)
    for p_max in range(1, 61) if memo.period else (1, 2, 16, 17, 60):
        want = ("empty power" if p_max >= len(walk.kept)
                else every_power_estimate(slow, p_max))
        assert _estimate_or_error(fast, p_max) == want, p_max


def test_mirrored_word_is_rehulled():
    """The word of power -1 of a map with no inverse data, in mirror mode, is
    the negated hull of power 1, re-hulled to start from its lexicographically
    smallest vertex; on either route, the stand-in map holding only power 1."""
    def mirrored(rank, points, route):
        hull = tuple(convex_hull(points))
        track = SimpleNamespace(rank=rank, inverse=None, **{route: {1: hull}.__getitem__})
        return omega_of_word(track, -1, True, route)

    for route in ("semiring", "oracle"):
        assert mirrored(1, [(0,), (2,), (5,)], route) == ((-5,), (0,))
        square = [(0, 0), (2, 0), (0, 1), (1, 1)]
        assert mirrored(2, square, route) == ((-2, 0), (-1, -1), (0, -1), (0, 0))


def test_oracle_negative_power(r2):
    with pytest.raises(ValidationError):
        oracle_iterate(r2, -1)
    with pytest.raises(ValidationError):
        support_of_power(r2, -1)


def test_rank_3_map_is_refused_on_construction():
    """Exact hulls and lattices stop at rank 2, so a rank-3 map is refused
    where it is built, before any support is asked for."""
    with pytest.raises(CapabilityError, match="rank <= 2, got 3"):
        LiftedGraphMap(
            3, ("v",), (Edge("a", "v", "v", (1, 0, 0)),),
            {"v": ("v", (0, 0, 0))}, {"a": (("a", (0, 0, 0), 1),)},
        )


# -- word supports ------------------------------------------------------------

def test_omega_of_word_modes(r1, r2):
    assert omega_of_word(r1, 2) == support_of_power(r1, 2)
    assert omega_of_word(r2, 2) == support_of_power(r2, 2)
    assert omega_of_word(r2, -2, allow_mirror=True) == tuple(
        convex_hull(negate(tuple_state_walk(r2, 2)[2])))
    # r1's inverse is its exact mirror, so only the memos' calls show that
    # inverse data is taken before mirror mode.
    calls = []

    def recording(name, memo):
        return lambda p: calls.append((name, p)) or memo(p)

    track = SimpleNamespace(rank=1, semiring=recording("forward", r1.semiring),
                            inverse=SimpleNamespace(semiring=recording("inverse",
                                                                       r1.inverse.semiring)))
    assert omega_of_word(track, -2, allow_mirror=True) == support_of_power(r1.inverse, 2)
    assert calls == [("inverse", 2)]
    with pytest.raises(ValidationError, match="mirror"):
        omega_of_word(r2, -1)
    # A word's hull is the same on either route.
    for track, y in ((r1, 3), (r1, -3), (r2, -3)):
        assert omega_of_word(track, y, True, "oracle") == omega_of_word(track, y, True), \
            (track.rank, y)


def test_dataset_hash_ignores_map_metadata(r1):
    other = LiftedGraphMap(
        rank=r1.rank,
        vertices=r1.vertices,
        edges=r1.edges,
        vertex_images=r1.vertex_images,
        edge_images=r1.edge_images,
        inverse=r1.inverse,
        metadata={"name": "something-else"},
        euler_functional=r1.euler_functional,
    )
    assert dataset_hash(other) == dataset_hash(r1)
