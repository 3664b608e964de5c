from fractions import Fraction
from itertools import islice, takewhile
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fibercert import trackmap
from fibercert.dataio import dataset_hash
from fibercert.errors import CapabilityError, ValidationError
from fibercert.geometry import convex_hull, directional_extrema, negate
from fibercert.laurent import LaurentPoly, mat_pow
from fibercert.trackmap import (
    PERIOD_WINDOW,
    Edge,
    LiftedGraphMap,
    PowerMemo,
    SupportPolytope,
    _semiring_powers,
    build_transition_matrix,
    omega_of_word,
    oracle_iterate,
    support_of_power,
)


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
        assert [s.p for s in walk] == list(range(0, 201))
        for p in range(0, 201):
            assert walk[p].hull == support_of_power(track, p).hull, p


def _tuple_state_walk(track, p):
    """Supports of powers 0..p by a walk over (edge, shift-tuple) states,
    one substitution at a time: the reference for oracle_iterate."""
    zero = (0,) * track.rank
    frontier = {(e.name, zero) for e in track.edges}
    supports = [frozenset([zero])]
    for _ in range(p):
        frontier = {(name, tuple(map(add, shift, s2)))
                    for edge, shift in frontier
                    for name, s2, _ in track.edge_images[edge]}
        supports.append(frozenset(s for _, s in frontier))
    return supports


def _assert_oracle_matches_walk(track, p_top):
    """oracle_iterate(track, p) equals the reference walk, in points and
    hull, at every power of every p <= p_top."""
    ref = _tuple_state_walk(track, p_top)
    for p in range(p_top + 1):
        walk = oracle_iterate(track, p)
        assert [s.p for s in walk] == list(range(p + 1))
        for q, got in enumerate(walk):
            assert got.points == ref[q], (p, q)
            assert got.hull == tuple(convex_hull(ref[q], track.rank)), (p, q)


def test_oracle_matches_tuple_state_walk(r1, r2):
    for track in (r1, r1.inverse, r2):
        _assert_oracle_matches_walk(track, 40)


def test_oracle_on_small_maps():
    """Loops whose powers are single points, one of them tilted, a map with
    no shift at all, and a doubling rose."""
    for p in range(13):
        assert oracle_iterate(single_edge_rose(), p)[p].points == {(p,)}
        assert oracle_iterate(tilted_loop(), p)[p].points == {(-p, p)}
        assert oracle_iterate(unshifted_theta(), p)[p].points == {(0,)}
    for track in (single_edge_rose(), doubling_rose(), tilted_loop(), unshifted_theta()):
        _assert_oracle_matches_walk(track, 12)


def test_oracle_power_zero(r1, r2):
    for track in (r1, r2, tilted_loop(), unshifted_theta()):
        zero = (0,) * track.rank
        (only,) = oracle_iterate(track, 0)
        assert (only.p, only.hull, only.points) == (0, (zero,), {zero})


def test_support_semiring_matches_laurent_power(r1, r2):
    """Semiring supports equal the supports of the literal matrix power, in
    points and hull."""
    for track in (r1, r2):
        M = build_transition_matrix(track)
        for p in range(0, 9):
            Mp = mat_pow(M, p)
            want = set()
            for row in Mp.entries:
                for q in row:
                    want.update(q.terms)
            got = support_of_power(track, p)
            assert got.points == frozenset(want)
            assert got.hull == tuple(convex_hull(want, track.rank))


def test_support_is_subadditive(r2):
    """Omega(p+q) is contained in Omega(p) + Omega(q) (Minkowski)."""
    sup = {p: support_of_power(r2, p) for p in range(1, 9)}
    for p in range(1, 5):
        for q in range(1, 5):
            mink = {
                tuple(a + b for a, b in zip(s, t))
                for s in sup[p].points
                for t in sup[q].points
            }
            assert sup[p + q].points <= mink


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
    """Hull-semiring polytopes, read through a PowerMemo, are the hulls of the
    frozenset semiring's supports, for powers asked in any order and each
    asked twice; an empty power raises ValidationError on every request."""
    rank, base = case
    ref = _frozenset_powers(base, rank, max(powers))

    def union(p):
        return frozenset().union(*(e for row in ref[p] for e in row))

    semiring = PowerMemo(_semiring_powers(base, rank, union))
    for p in powers + powers:
        want = union(p)
        if not want:
            with pytest.raises(ValidationError):
                semiring(p)
            continue
        got = semiring(p)
        assert got.p == p
        assert got.hull == tuple(convex_hull(want, rank)), p
        assert got.points == want


def _walked(base, rank, p):
    """Hulls of powers 0..p read from a PowerMemo over _semiring_powers, and
    what each of the walk's period searches returned, power by power."""
    searches, search = [], trackmap._column_period
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trackmap, "_column_period",
                   lambda cols, rank: searches.append(search(cols, rank)) or searches[-1])
        memo = PowerMemo(_semiring_powers(base, rank, lambda q: ()))
        return [memo(q).hull for q in range(p + 1)], searches


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
    assert hulls == [r2.oracle(q).hull for q in range(201)]


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
        assert hulls[q] == tuple(convex_hull(want, 2)), q


def _entry_hull_powers(base, rank):
    """Hulls of base^0, base^1, ... from one hull per matrix entry, the
    full-matrix walk: the reference for the column walk of _semiring_powers.
    A power with no entries yields None."""
    m = len(base)
    entries = [[[(0,) * rank] if i == j else [] for j in range(m)] for i in range(m)]
    while True:
        pts = [v for row in entries for h in row for v in h]
        yield tuple(convex_hull(pts, rank)) if pts else None
        sums = [[[tuple(map(add, v, t)) for k in range(m) for t in base[k][j] for v in row[k]]
                 for j in range(m)] for row in entries]
        entries = [[convex_hull(s, rank) if s else [] for s in row] for row in sums]


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


def _polytope(rank, p, points):
    return SupportPolytope(p, tuple(convex_hull(points, rank)), lambda: points)


def test_support_polytope_basics():
    s = _polytope(1, 3, [(0,), (2,), (5,)])
    assert (s.p, s.hull) == (3, ((0,), (5,)))
    assert s.points == frozenset({(0,), (2,), (5,)})
    assert directional_extrema(s.hull, (1,)) == (0, 5)
    assert directional_extrema(s.hull, (-1,)) == (-5, 0)
    square = _polytope(2, 1, [(0, 0), (2, 0), (0, 1), (1, 1)])
    assert square.hull == ((0, 0), (2, 0), (1, 1), (0, 1))

    def mirrored(rank, supp):  # the word of power -1 of a map with no inverse data
        track = SimpleNamespace(rank=rank, inverse=None)
        return omega_of_word(track, -1, allow_mirror=True, support=lambda track, p: supp)

    assert mirrored(1, s) == ((-5,), (0,))
    assert mirrored(2, square) == ((-2, 0), (-1, -1), (0, -1), (0, 0))  # re-hulled


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
    assert omega_of_word(r1, 2) == support_of_power(r1, 2).hull
    assert omega_of_word(r2, 2) == support_of_power(r2, 2).hull
    assert omega_of_word(r2, -2, allow_mirror=True) == tuple(
        convex_hull(negate(support_of_power(r2, 2).points), 2))
    # r1's inverse is its exact mirror, so only the source's calls show that
    # inverse data is taken before mirror mode.
    calls = []

    def recording(track, p):
        calls.append((track, p))
        return support_of_power(track, p)

    assert omega_of_word(r1, -2, allow_mirror=True, support=recording) == \
        support_of_power(r1.inverse, 2).hull
    assert [(track is r1.inverse, p) for track, p in calls] == [(True, 2)]
    with pytest.raises(ValidationError, match="mirror"):
        omega_of_word(r2, -1)
    # The route is the same whichever source the supports come from.
    def oracle(track, p):
        return oracle_iterate(track, p)[p]

    for track, y in ((r1, 3), (r1, -3), (r2, -3)):
        assert omega_of_word(track, y, allow_mirror=True, support=oracle) == \
            omega_of_word(track, y, allow_mirror=True), (track.rank, y)


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
