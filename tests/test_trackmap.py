from fractions import Fraction

import pytest

from fibercert.errors import ValidationError
from fibercert.laurent import LaurentPoly, mat_pow
from fibercert.trackmap import (
    Edge,
    LiftedGraphMap,
    SupportPolytope,
    build_transition_matrix,
    mode_gap_constant,
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


def test_bundled_datasets_validate_and_are_primitive(r1, r2):
    assert r1.rank == 1 and r2.rank == 2
    assert r1.k0 == 1
    assert r2.k0 == 2
    assert r1.inverse is not None
    assert r2.inverse is None


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
    for track in (r1, r1.inverse, r2):
        walk = oracle_iterate(track, 32)
        assert [s.p for s in walk] == list(range(0, 33))
        for p in range(0, 33):
            want, got = support_of_power(track, p), walk[p]
            assert (got.points, got.hull) == (want.points, want.hull), p


def test_support_semiring_matches_laurent_power(r1, r2):
    """Set-semiring supports equal the supports of the literal matrix power."""
    for track in (r1, r2):
        M = build_transition_matrix(track)
        for p in range(0, 9):
            Mp = mat_pow(M, p)
            want = set()
            for row in Mp.entries:
                for q in row:
                    want.update(q.terms)
            assert support_of_power(track, p).points == frozenset(want)


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


def test_support_polytope_basics():
    s = SupportPolytope.from_points(1, 3, [(0,), (2,), (5,)])
    assert s.hull == ((0,), (5,))
    assert s.extent((1,)) == (0, 5)
    assert s.extent((-1,)) == (-5, 0)
    assert s.translate((10,)).points == frozenset({(10,), (12,), (15,)})
    assert s.mirror().points == frozenset({(0,), (-2,), (-5,)})
    assert s.mirror().p == -3
    with pytest.raises(ValidationError):
        SupportPolytope.from_points(1, 0, [])


def test_oracle_negative_power(r2):
    with pytest.raises(ValidationError):
        oracle_iterate(r2, -1)
    with pytest.raises(ValidationError):
        support_of_power(r2, -1)


# -- word supports ------------------------------------------------------------

def test_omega_of_word_modes(r1, r2):
    zero1, zero2 = (0,), (0, 0)
    assert omega_of_word(r1, (3,), 2).mode == "exact-forward"
    assert omega_of_word(r1, (3,), 2).points == frozenset(
        tuple(a + 3 for a in s) for s in support_of_power(r1, 2).points
    )
    assert omega_of_word(r1, zero1, -2).mode == "inverse-data"
    assert omega_of_word(r2, zero2, -2, allow_mirror=True).mode == "mirror"
    assert omega_of_word(r2, zero2, -2, allow_mirror=True).points == frozenset(
        tuple(-a for a in s) for s in support_of_power(r2, 2).points
    )
    with pytest.raises(ValidationError, match="mirror"):
        omega_of_word(r2, zero2, -1)
    # The route is the same whichever source the supports come from.
    def oracle(track, p):
        return oracle_iterate(track, p)[p]

    for track, y in ((r1, 3), (r1, -3), (r2, -3)):
        want = omega_of_word(track, (2,) * track.rank, y, allow_mirror=True)
        got = omega_of_word(track, (2,) * track.rank, y, allow_mirror=True, support=oracle)
        assert (got.points, got.hull, got.mode) == (want.points, want.hull, want.mode)
    with pytest.raises(ValidationError, match="length"):
        omega_of_word(r1, (0, 0), 1)


def test_mode_gap_vanishes_for_bundled_inverse(r1, r2):
    assert mode_gap_constant(r1, 6) == 0
    with pytest.raises(ValidationError):
        mode_gap_constant(r2)


def test_content_key_ignores_metadata(r1):
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
    assert other.content_key() == r1.content_key()
