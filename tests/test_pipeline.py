from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import ceil, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercert import pipeline, trackmap
from fibercert.errors import BudgetError, SubconeError, ValidationError
from fibercert.lattice import FiberedClass, perp_basis
from fibercert.pipeline import (
    _ceil_root_multiple,
    certify,
    decompose,
    enumerate_words,
    normalized_bound,
    sweep,
    verify_certificate,
)
from fibercert.trackmap import LiftedGraphMap


@pytest.fixture(scope="module")
def r1_cert(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    return certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash)


@pytest.fixture(scope="module")
def r2_cert(r2, r2_models, r2_hash):
    dual, cone, P = r2_models
    return certify(r2, dual, cone, P, FiberedClass((1, 7, 50)), 12, r2_hash,
                   allow_mirror=True)


# -- helpers -----------------------------------------------------------------

def test_ceil_root_multiple():
    assert _ceil_root_multiple(4, 7, 1) == 28
    assert _ceil_root_multiple(4, 5, 2) == 9   # ceil(4 sqrt 5)
    assert _ceil_root_multiple(4, 4, 2) == 8   # exact
    assert _ceil_root_multiple(1, 1, 2) == 1
    for kappa in range(0, 9):
        for n in range(1, 60):
            target = kappa * kappa * n
            m = 1
            while m * m < target:
                m += 1
            assert _ceil_root_multiple(kappa, n, 2) == m, (kappa, n)
    # Integers far beyond float range: m = ceil(4 sqrt(n)) exactly.
    n = 10 ** 310 + 1
    m = _ceil_root_multiple(4, n, 2)
    assert (m - 1) ** 2 < 16 * n <= m ** 2


def test_normalized_bound():
    assert normalized_bound(Fraction(0), 5, 1) == "0"
    assert normalized_bound(Fraction(2, 4), 4, 1) == "8.0"  # 1/2 * 4^2
    assert normalized_bound(Fraction(1, 2), 4, 2) == "4.00000000000"  # 1/2 * 4^(3/2)


# -- decomposition -----------------------------------------------------------

def test_decompose(r1, r1_models):
    _, cone, _ = r1_models
    n, L = decompose(FiberedClass((1, 3)), r1, cone)
    assert n == 3
    assert L.basis == ((3, -1),)
    with pytest.raises(ValidationError, match="primitive"):
        decompose(FiberedClass((2, 6)), r1, cone)
    with pytest.raises(ValidationError, match="exterior"):
        decompose(FiberedClass((-5, 1)), r1, cone)


def test_enumerate_words_is_complete():
    L = perp_basis(FiberedClass((1, 2)))  # kernel basis (2, -1)
    words = enumerate_words(L, 6)
    # All multiples c * (2, -1) with |2c| <= 6.
    assert sorted(w.coeffs for w in words) == [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)]
    for w in words:
        assert w.x == (2 * w.coeffs[0],)
        assert w.y == -w.coeffs[0]
    L2 = perp_basis(FiberedClass((1, 1, 3)))
    words2 = enumerate_words(L2, 5)
    got = {w.coeffs for w in words2}
    # Independent completeness scan over a generous coefficient box.
    for c0 in range(-30, 31):
        for c1 in range(-30, 31):
            vec = L2.word_vector((c0, c1))
            if all(abs(v) <= 5 for v in vec[:-1]):
                assert (c0, c1) in got
    with pytest.raises(BudgetError):
        enumerate_words(L2, 5, word_cap=3)


def _coeff_box(zeta, R_w: int) -> int:
    """A coefficient radius that holds every word in the box, by Cramer's rule.

    x = c Z, so c = x Z^-1 and |c_i| <= R_w * sum_j |Z^-1[j][i]|.
    """
    if len(zeta) == 1:
        inv = [[Fraction(1, zeta[0][0])]]
    else:
        (a, b), (c, d) = zeta
        det = a * d - b * c
        inv = [[Fraction(d, det), Fraction(-b, det)], [Fraction(-c, det), Fraction(a, det)]]
    return max(ceil(R_w * sum(abs(row[i]) for row in inv)) for i in range(len(zeta))) + 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=2),
    st.integers(1, 12),
    st.integers(0, 10),
    st.integers(1, 600),
)
def test_enumerate_words_matches_brute_force(p, n, R_w, word_cap):
    g = gcd(*p, n)
    alpha = FiberedClass(tuple(v // g for v in p) + (n // g,))
    L = perp_basis(alpha)
    zeta = L.zeta_basis
    r = len(zeta)
    assert all(zeta[j][i] == 0 for i in range(r) for j in range(i + 1, r))
    assert all(zeta[i][i] > 0 for i in range(r))
    bound = 1
    for i in range(r):
        bound *= 2 * R_w // zeta[i][i] + 1
    if bound > word_cap:
        with pytest.raises(BudgetError):
            enumerate_words(L, R_w, word_cap=word_cap)
        return
    words = enumerate_words(L, R_w, word_cap=word_cap)
    B = _coeff_box(zeta, R_w)
    expected = [
        cs for cs in product(range(-B, B + 1), repeat=r)
        if all(abs(v) <= R_w for v in L.word_vector(cs)[:-1])
    ]
    assert [w.coeffs for w in words] == expected
    assert len(words) <= bound
    for w in words:
        vec = L.word_vector(w.coeffs)
        assert (w.x, w.y) == (vec[:-1], vec[-1])


# -- certification ----------------------------------------------------------

def test_certify_r1(r1_cert, r1_models):
    cert = r1_cert
    assert cert.status == "ok"
    assert cert.mode == "certified"
    assert cert.K >= 1
    assert cert.bound == Fraction(2, cert.n * cert.K)
    assert cert.deep_dist2 > 0
    assert cert.n == 9
    # Words carry their provenance mode; negative powers used inverse data.
    modes = {w.mode for w in cert.words}
    assert "exact-forward" in modes
    assert "inverse-data" in modes or all(w.y >= 0 for w in cert.words)
    assert len(cert.obstacle_hulls) == len(cert.words)


def test_certify_r2_mirror(r2_cert):
    cert = r2_cert
    assert cert.status == "ok"
    assert cert.K >= 1
    assert cert.rank == 2
    assert any(w.mode == "mirror" for w in cert.words if w.y < 0) or all(
        w.y >= 0 for w in cert.words
    )


def test_certify_is_deterministic(r1, r1_models, r1_hash, r1_cert):
    dual, cone, P = r1_models
    again = certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash)
    assert again == r1_cert


def test_certify_requires_proper_subcone(r1, r1_models, r1_hash):
    dual, cone, _ = r1_models
    with pytest.raises(SubconeError, match="proper"):
        certify(r1, dual, cone, cone, FiberedClass((1, 9)), 12, r1_hash)


def test_certify_requires_interior_class(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    with pytest.raises(ValidationError, match="interior"):
        certify(r1, dual, cone, P, FiberedClass((2, 3)), 12, r1_hash)


def test_mirror_matches_inverse_data_when_gap_is_zero(r1, r1_models, r1_hash):
    """Stripping the bundled inverse and using mirror mode gives the same
    geometry because the bundled inverse is the exact mirror."""
    dual, cone, P = r1_models
    stripped = LiftedGraphMap(
        rank=r1.rank, vertices=r1.vertices, edges=r1.edges,
        vertex_images=r1.vertex_images, edge_images=r1.edge_images,
        inverse=None, metadata=r1.metadata,
        euler_functional=r1.euler_functional,
    )
    a = certify(r1, dual, cone, P, FiberedClass((1, 9)), 10, r1_hash)
    b = certify(stripped, dual, cone, P, FiberedClass((1, 9)), 10, r1_hash,
                allow_mirror=True)
    assert a.obstacle_hulls == b.obstacle_hulls
    assert a.deep_point == b.deep_point
    assert a.K == b.K and a.bound == b.bound


# -- verification -----------------------------------------------------------

def test_verify_passes(r1, r1_cert, r1_hash, r2, r2_cert, r2_hash):
    assert verify_certificate(r1_cert, r1, r1_hash).status == "pass"
    assert verify_certificate(r2_cert, r2, r2_hash).status == "pass"


def test_verify_never_reads_semiring_supports(r1, r1_cert, r1_hash, monkeypatch):
    """verify takes every exact support from the path oracle, so the oracle
    and the semiring route stay independent cross-checks."""

    def forbidden(track, p):
        raise AssertionError("verify read the semiring route")

    monkeypatch.setattr(pipeline, "support_of_power", forbidden)
    monkeypatch.setattr(trackmap, "support_of_power", forbidden)
    assert verify_certificate(r1_cert, r1, r1_hash).status == "pass"


def test_verify_rejects_wrong_dataset(r1, r1_cert):
    res = verify_certificate(r1_cert, r1, "0" * 64)
    assert res.status == "fail" and res.reason == "dataset-hash"
    assert not res


@pytest.mark.parametrize("edit", [
    {"rank": 2},
    {"alpha": (1, 9, 0)},
    {"deep_point": (-4, 0)},
], ids=["rank", "alpha", "deep-point"])
def test_verify_rejects_rank_mismatch(r1, r1_cert, r1_hash, edit):
    """A certificate whose rank, class or deep point does not have the
    dataset's dimensions fails by name instead of crashing the geometry."""
    res = verify_certificate(replace(r1_cert, **edit), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "rank-mismatch")


def test_verify_rejects_inconclusive(r1, r1_cert, r1_hash):
    res = verify_certificate(replace(r1_cert, status="inconclusive"), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "certificate-inconclusive")


def test_verify_power_cap(r1, r1_cert, r1_hash):
    res = verify_certificate(r1_cert, r1, r1_hash, power_cap=1)
    assert (res.status, res.reason) == ("unverifiable", "power-cap")


def test_verify_rejects_imprimitive_alpha(r1, r1_cert, r1_hash):
    doubled = tuple(2 * v for v in r1_cert.alpha)
    res = verify_certificate(replace(r1_cert, alpha=doubled), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "alpha-primitive")


def test_verify_rejects_n_mismatch(r1, r1_cert, r1_hash):
    res = verify_certificate(replace(r1_cert, n=r1_cert.n + 1), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "n-mismatch")


def test_verify_rejects_foreign_words(r1, r1_cert, r1_hash):
    """Words orthogonal to the certified class are not orthogonal to a
    different class of the same n."""
    res = verify_certificate(replace(r1_cert, alpha=(4, 9)), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "alpha-perp")


def test_verify_rejects_dropped_word(r1, r1_cert, r1_hash):
    pruned = tuple(w for w in r1_cert.words if any(w.coeffs))
    res = verify_certificate(replace(r1_cert, words=pruned), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "word-list-incomplete")


def test_verify_rejects_bad_deep_point(r1, r1_cert, r1_hash):
    # The zero word's obstacle contains the origin.
    res = verify_certificate(
        replace(r1_cert, deep_point=(0,) * r1_cert.rank), r1, r1_hash
    )
    assert (res.status, res.reason) == ("fail", "deep-point-in-obstacle")


def test_verify_rejects_k_beyond_pmax(r1, r1_cert, r1_hash):
    res = verify_certificate(
        replace(r1_cert, K=r1_cert.p_max + 1,
                bound=Fraction(2, r1_cert.n * (r1_cert.p_max + 1))),
        r1, r1_hash,
    )
    assert (res.status, res.reason) == ("fail", "k-exceeds-pmax")


def test_verify_rejects_inflated_k(r1, r1_cert, r1_hash):
    """K was chosen maximal, so claiming one power more must collide."""
    assert r1_cert.K < r1_cert.p_max
    res = verify_certificate(
        replace(r1_cert, K=r1_cert.K + 1,
                bound=Fraction(2, r1_cert.n * (r1_cert.K + 1))),
        r1, r1_hash,
    )
    assert (res.status, res.reason) == ("fail", "power-collision")


def test_verify_rejects_wrong_bound(r1, r1_cert, r1_hash):
    res = verify_certificate(replace(r1_cert, bound=Fraction(1)), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "bound-value")


# -- sweep --------------------------------------------------------------------

def test_sweep_skips_and_certifies(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    rows = sweep(r1, dual, cone, P, [(1, 9), (2, 18), (-5, 1), (5, 1)],
                 12, r1_hash)
    assert rows[0].status == "ok"
    assert rows[0].covol2 == 81 and rows[0].K >= 1
    # (2, 18) reduces to (1, 9): identical certificate content.
    assert rows[1].alpha == (1, 9)
    assert rows[1].bound == rows[0].bound
    assert rows[2].status == "skipped-exterior"
    assert rows[3].status == "skipped-exterior"  # outside the slope box
