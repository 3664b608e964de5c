import inspect
import json
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from itertools import product
from math import ceil, gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibercert import cones, geometry, lattice, pipeline, trackmap
from fibercert.errors import BudgetError, PowerCapError, SubconeError, ValidationError
from fibercert.cones import epsilon_of_subcone, estimate_dual_cone, fibered_cone_from_dual
from fibercert.dataio import emit_certificate, load_dataset, parse_certificate
from fibercert.lattice import BaseHull, FiberedClass, Obstacles, perp_basis, systole
from fibercert.pipeline import (
    POWER_CAP,
    _ceil_root_multiple,
    build_obstacles,
    certify,
    decompose,
    enumerate_words,
    normalized_bound,
    sweep,
    verify_certificate,
    word_power_bound,
    word_radius,
)
from fibercert.trackmap import LiftedGraphMap, omega_of_word, support_of_power

from conftest import place_every_word, pool_strip, within_reach
from test_lattice import _brute_deep_point, _placed_translates, _symmetric_translates
from test_trackmap import doubling_rose, single_edge_rose


@pytest.fixture(scope="module")
def r1_cert(r1, r1_models, r1_hash):
    dual, cone, P = r1_models
    return certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash)


@pytest.fixture(scope="module")
def r1_cert_29(r1, r1_models, r1_hash):
    """The honest r1 certificate for alpha = (1, 29) at p_max 32: K = 11,
    bound 2/319, box radius 116."""
    dual, cone, P = r1_models
    cert = certify(r1, dual, cone, P, FiberedClass((1, 29)), 32, r1_hash)
    assert (cert.K, cert.bound, cert.box_radius) == (11, Fraction(2, 319), 116)
    return cert


@pytest.fixture(scope="module")
def r2_cert(r2, r2_models, r2_hash):
    dual, cone, P = r2_models
    return certify(r2, dual, cone, P, FiberedClass((1, 7, 50)), 12, r2_hash,
                   allow_mirror=True)


@pytest.fixture(scope="module")
def far_words_cert(r1, r1_hash):
    """r1 alpha = (1, 9) with p_max and cone_p_max 4: some kernel words have
    powers past p_max, and their obstacles are exact supports too."""
    dual = estimate_dual_cone(r1, 4)
    cone = fibered_cone_from_dual(dual)
    P = cone.subcone_slope(Fraction(1, 2))
    return certify(r1, dual, cone, P, FiberedClass((1, 9)), 4, r1_hash)


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


def _power_normalized(bound: Fraction, n: int, r: int) -> str:
    """normalized_bound through the fractional power n^(1/r) at 30 digits,
    as it was before rank 2 took Decimal.sqrt: the reference it is checked
    against."""
    if bound == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 30
        val = (Decimal(bound.numerator) / Decimal(bound.denominator) * Decimal(n)
               * Decimal(n) ** (Decimal(1) / Decimal(r)))
        return format(val, ".12g")


def test_normalized_bound_matches_the_fractional_power():
    """Byte for byte the fractional power's rendering, in both ranks: for
    every n up to 60,000, with K cycling through 1..33, and for 5,000
    random n up to 10^13 and K up to POWER_CAP.  Perfect squares, where
    the bare square root is exact and would print fewer digits (4.0, not
    4.00000000000, for n = 4), are among them."""
    cases = [(n, n % 33 + 1) for n in range(1, 60_001)]
    rng = random.Random(0)
    cases += [(rng.randrange(1, 10 ** 13), rng.randrange(1, POWER_CAP + 1))
              for _ in range(5_000)]
    cases += [(q * q, q % 7 + 1) for q in (2, 4, 5, 10 ** 6, 3_162_277)]
    for n, K in cases:
        bound = Fraction(2, n * K)
        for r in (1, 2):
            assert normalized_bound(bound, n, r) == _power_normalized(bound, n, r), (n, K, r)


# -- decomposition -----------------------------------------------------------

def test_decompose(r1_models):
    _, cone, _ = r1_models
    n, L = decompose(FiberedClass((1, 3)), cone)
    assert n == 3
    assert L.basis == ((3, -1),)
    with pytest.raises(ValidationError, match="primitive"):
        decompose(FiberedClass((2, 6)), cone)
    with pytest.raises(ValidationError, match="exterior"):
        decompose(FiberedClass((-5, 1)), cone)
    for alpha in ((1, 0), (1, -3)):  # n <= 0 is exterior to every cone
        with pytest.raises(ValidationError, match="exterior"):
            decompose(FiberedClass(alpha), cone)


def test_enumerate_words_is_complete():
    L = perp_basis(FiberedClass((1, 2)))  # kernel basis (2, -1)
    words = enumerate_words(L, 6)
    # All multiples c * (2, -1) with |2c| <= 6, in ascending c.
    assert words == [((2 * c,), -c) for c in range(-3, 4)]
    L2 = perp_basis(FiberedClass((1, 1, 3)))
    words2 = enumerate_words(L2, 5)
    got = set(words2)
    # Independent completeness scan over a generous coefficient box.
    for c0 in range(-30, 31):
        for c1 in range(-30, 31):
            *x, y = _word_vector(L2, (c0, c1))
            if all(abs(v) <= 5 for v in x):
                assert (tuple(x), y) in got
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "WORD_CAP", 3)
        with pytest.raises(BudgetError, match="word enumeration bound 44 exceeds cap 3"):
            enumerate_words(L2, 5)


def _word_vector(L, coeffs) -> tuple[int, ...]:
    """The kernel vector with these coefficients over the perp basis."""
    return tuple(sum(c * row[i] for c, row in zip(coeffs, L.basis))
                 for i in range(len(L.alpha.vector)))


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
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "WORD_CAP", word_cap)
        if bound > word_cap:
            with pytest.raises(BudgetError):
                enumerate_words(L, R_w)
            return
        words = enumerate_words(L, R_w)
    B = _coeff_box(zeta, R_w)
    expected = [
        cs for cs in product(range(-B, B + 1), repeat=r)
        if all(abs(v) <= R_w for v in _word_vector(L, cs)[:-1])
    ]
    # A word's shift x fixes its coefficients (zeta_basis is nonsingular),
    # so the words are the expected coefficient vectors' words, in order.
    assert words == [(vec[:-1], vec[-1]) for vec in (_word_vector(L, cs) for cs in expected)]
    assert len(words) <= bound


# alpha = (1, 7, 50) has d = 50 and e = 7, so at R = 10 no c1 serves c0 = 2;
# spot 0 puts the cap below Y = 1, where the closed form runs.
@example(p=[1, 7], n=50, R=10, spot=0)
@example(p=[3], n=-7, R=0, spot=0)
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=2),
    st.integers(-60, 60).filter(bool),
    st.integers(0, 40),
    st.integers(0, 5),
)
def test_word_power_bound_refuses_exactly_above_the_cap(p, n, R, spot):
    """word_power_bound(L, R) raises PowerCapError exactly when the largest
    |y| over enumerate_words(L, R) is above POWER_CAP, naming that |y|.
    Otherwise it returns Y = (sum |x_alpha_i|) R // |n| when Y is within the
    cap, and that |y| when only Y is above it; Y bounds every |y|.  Ranks 1
    and 2, R = 0, and rank-2 classes with d > 2R, where some c0 have no c1;
    ``spot`` puts the cap below, at and between the largest |y| and Y, and
    at and above Y."""
    g = gcd(*p, n)
    p, n = [v // g for v in p], n // g
    L = perp_basis(FiberedClass((*p, n)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "POWER_CAP", 10 ** 9)
        top = max(abs(y) for _, y in enumerate_words(L, R))
    Y = sum(map(abs, p)) * R // abs(n)
    assert Y >= top
    cap = max(0, [top - 1, top, (top + Y) // 2, Y - 1, Y, Y + 1][spot])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "POWER_CAP", cap)
        if top > cap:
            with pytest.raises(PowerCapError,
                               match=f"^kernel word power {top} exceeds the power cap {cap}$"):
                word_power_bound(L, R)
        else:
            assert word_power_bound(L, R) == (Y if Y <= cap else top)


# -- certification ----------------------------------------------------------

def test_certify_r1(r1_cert, r1_models):
    cert = r1_cert
    assert cert.status == "ok"
    assert cert.mode == "certified"
    assert cert.K >= 1
    assert cert.bound == Fraction(2, cert.n * cert.K)
    assert cert.deep_dist2 > 0
    assert cert.n == 9
    # The declared parameters verify re-derives everything else from.
    dual, _, P = r1_models
    assert (cert.p_max, cert.cone_p_max, cert.slope_cap, cert.mirror) == (
        12, dual.p_max, P.slope_cap, False)
    assert max(abs(c) for c in cert.deep_point) <= cert.box_radius


def test_certify_r2_mirror(r2, r2_cert):
    cert = r2_cert
    assert cert.status == "ok"
    assert cert.K >= 1
    assert cert.rank == 2
    assert cert.mirror is True
    # r2 has no inverse data: negative powers need mirror mode allowed.
    words = enumerate_words(perp_basis(FiberedClass(cert.alpha)), 60)
    assert any(y < 0 for _, y in words)
    with pytest.raises(ValidationError, match="mirror"):
        build_obstacles(r2, words, cert.safety, False)


def test_certify_words_past_p_max(far_words_cert):
    """Words whose power exceeds p_max take exact supports like every other
    word, so the certificate is certified: K = 1, bound 2/9."""
    cert = far_words_cert
    assert (cert.mode, cert.status) == ("certified", "ok")
    assert (cert.p_max, cert.cone_p_max) == (4, 4)
    assert (cert.K, cert.bound) == (1, Fraction(2, 9))


def test_certify_doubles_a_covered_box(r1, r1_models, r1_hash):
    """A box fully covered by obstacles is doubled before the K-scan."""
    dual, cone, P = r1_models
    cert = certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash,
                   box_radius=1)
    assert cert.box_radius == 2
    assert cert.diagnostics[0] == "box radius 1 fully covered by obstacles; doubling"


def test_certify_records_last_searched_box(r1, r1_models, r1_hash):
    """When every attempt finds the box covered, the certificate records the
    last radius searched, 1 doubled three times, and no further doubling."""
    dual, cone, P = r1_models
    cert = certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash,
                   safety=40, box_radius=1)
    assert (cert.status, cert.K, cert.box_radius) == ("inconclusive", 0, 8)
    assert cert.diagnostics[:4] == (
        "box radius 1 fully covered by obstacles; doubling",
        "box radius 2 fully covered by obstacles; doubling",
        "box radius 4 fully covered by obstacles; doubling",
        "box radius 8 fully covered by obstacles",
    )


@pytest.mark.parametrize("box_radius", [0, -1, -100])
def test_certify_refuses_a_box_radius_below_1(r1, r1_models, r1_hash, monkeypatch,
                                             box_radius):
    """A box radius below 1 is refused with a named error before any word is
    enumerated (a negative one left the word list empty)."""
    def no_words(*args):
        raise AssertionError("words were enumerated for a box radius below 1")

    monkeypatch.setattr(pipeline, "enumerate_words", no_words)
    dual, cone, P = r1_models
    with pytest.raises(ValidationError, match=f"box radius must be >= 1, got {box_radius}"):
        certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash, box_radius=box_radius)


def test_certify_is_deterministic(r1, r1_models, r1_hash, r1_cert):
    dual, cone, P = r1_models
    again = certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash)
    assert again == r1_cert


def test_certify_requires_proper_subcone(r1, r1_models, r1_hash):
    """epsilon is the one place that asks for the slope cap."""
    dual, cone, _ = r1_models
    with pytest.raises(SubconeError, match="proper subcone: give a slope cap"):
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
    words = enumerate_words(perp_basis(FiberedClass((1, 9))), 60)
    assert any(y < 0 for _, y in words)
    assert build_obstacles(r1, words, 1, False) == build_obstacles(stripped, words, 1, True)
    a = certify(r1, dual, cone, P, FiberedClass((1, 9)), 10, r1_hash)
    b = certify(stripped, dual, cone, P, FiberedClass((1, 9)), 10, r1_hash,
                allow_mirror=True)
    assert (a.deep_point, a.deep_dist2) == (b.deep_point, b.deep_dist2)
    assert a.K == b.K and a.bound == b.bound


def _reference_scan(track, dual, P, cert):
    """The deep point's squared distance and K with no placements, boxes or
    reach: every word's obstacle materialized as its own dilated hull, and
    each candidate power tested exactly against all of them."""
    eps = epsilon_of_subcone(P, dual)
    words = enumerate_words(perp_basis(FiberedClass(cert.alpha)),
                            word_radius(eps, cert.box_radius, cert.p_max, cert.safety))
    hulls = [geometry.dilate(geometry.translate(omega_of_word(track, y, cert.mirror), x),
                             cert.safety)
             for x, y in words]
    dist2 = min(geometry.point_hull_dist2(cert.deep_point, h) for h in hulls)
    for K in range(cert.p_max, 0, -1):
        moved = geometry.dilate(geometry.translate(
            support_of_power(track, K), cert.deep_point), cert.safety)
        if all(geometry.hulls_disjoint(moved, h) for h in hulls):
            return dist2, K
    return dist2, 0


def test_kscan_matches_exhaustive_reference(r1, r1_models, r1_cert, r2, r2_models,
                                            r2_cert, far_words_cert):
    """certify's reach-filtered K-scan over placed obstacles finds the K
    that testing every materialized obstacle finds: r1 with inverse data,
    r2 in mirror mode, and r1 with words past p_max."""
    dual4 = estimate_dual_cone(r1, 4)
    P4 = fibered_cone_from_dual(dual4).subcone_slope(Fraction(1, 2))
    cases = [(r1, r1_models, r1_cert), (r2, r2_models, r2_cert),
             (r1, (dual4, None, P4), far_words_cert)]
    for track, (dual, _, P), cert in cases:
        assert cert.K >= 1
        assert _reference_scan(track, dual, P, cert) == (cert.deep_dist2, cert.K), cert.alpha


def test_kscan_tests_obstacles_at_full_reach():
    """An obstacle whose box gap from the point equals the moved body's
    reach still gets its exact test, and the test places it by its shift."""
    def seen(point, dot, x):
        return Obstacles([(dot, x)]).seen_from(point)

    dot = BaseHull.of([(0,)])
    body = BaseHull.of([(0,), (2,)])  # reach 2 from the point 0
    assert not seen((0,), dot, (2,)).misses(body)
    assert seen((0,), dot, (3,)).misses(body)
    assert not seen((0,), dot, (3,)).misses(BaseHull.of(geometry.dilate(body.hull, 1)))
    dot = BaseHull.of([(0, 0)])
    diagonal = BaseHull.of([(0, 0), (2, 2)])  # its box meets both dots, the segment only one
    assert seen((5, 5), dot, (7, 5)).misses(diagonal)
    assert not seen((5, 5), dot, (6, 6)).misses(diagonal)
    # Full reach along both axes: the dot's box sits at gap 2 on each.
    assert not seen((5, 5), dot, (7, 7)).misses(diagonal)


def test_certify_copies_hulls_per_power_not_per_word(r2, r2_models, r2_hash, monkeypatch):
    """One certify dilates one hull per distinct power and one per candidate
    power scanned, and translates one per exact test: no hull is copied per
    word."""
    calls = Counter()
    words, powers = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("translate", "dilate", "hulls_disjoint"):
        monkeypatch.setattr(geometry, name, counted(name, getattr(geometry, name)))
    enumerate_words_ = pipeline.enumerate_words

    def recorded(*args):
        found = enumerate_words_(*args)
        words.extend(found)
        powers.append(len({y for _, y in found}))
        return found

    monkeypatch.setattr(pipeline, "enumerate_words", recorded)
    dual, cone, P = r2_models
    cert = certify(r2, dual, cone, P, FiberedClass((1, 7, 50)), 12, r2_hash,
                   allow_mirror=True)
    scanned = cert.p_max - cert.K + 1
    assert calls["dilate"] <= sum(powers) + scanned, (calls, powers, scanned)
    assert calls["translate"] <= calls["hulls_disjoint"], calls
    assert 10 * (calls["translate"] + calls["dilate"]) < len(words), (calls, len(words))


# The sweep-r2 benchmark's seed-0 classes; other seeds draw quarter turns of
# their p-parts (_quarter_turns).
SWEEP_R2 = [(1, j, j * j + 1) for j in range(7, 21)]
# The verify-r1 benchmark's classes at every seed, p_max 32.
VERIFY_R1 = [(s, 2 * j + 9) for j in range(20) for s in (1, -1)]


def _quarter_turns(alpha):
    a, b, n = alpha
    for _ in range(4):
        yield (a, b, n)
        a, b = -b, a


def _first_box_words(track, models, alpha, p_max, safety=1, kappa=4):
    """The kernel words of the first box certify searches for alpha."""
    dual, _, P = models
    R = _ceil_root_multiple(kappa, alpha[-1], track.rank)
    return enumerate_words(FiberedClass(alpha).lattice,
                           word_radius(epsilon_of_subcone(P, dual), R, p_max, safety))


def test_kernel_words_are_closed_under_negation(r1, r1_models, r2, r2_models):
    """Word N-1-i is word i negated, the order Obstacles.symmetric checks."""
    cases = [(r1, r1_models, alpha, 32) for alpha in VERIFY_R1]
    cases += [(r2, r2_models, alpha, 16) for alpha in SWEEP_R2]
    for track, models, alpha, p_max in cases:
        words = _first_box_words(track, models, alpha, p_max)
        assert words[::-1] == [(tuple(-c for c in x), -y) for x, y in words], alpha


def test_build_obstacles_marks_sweep_r2_symmetric(r2, r2_models):
    """Mirror mode reflects every negative power's hull, so every index the
    sweep-r2 benchmark builds, at any seed, is marked point-symmetric."""
    for alpha in SWEEP_R2:
        for turned in _quarter_turns(alpha):
            words = _first_box_words(r2, r2_models, turned, 16)
            assert Obstacles(build_obstacles(r2, words, 1, True)).symmetric, turned


def test_strip_check_passes_on_the_r2_acceptance_sweep(r2, r2_models, r2_hash, monkeypatch):
    """Every deep-point search of the r2 acceptance sweep, (1, j, j^2 + 1)
    for j = 7..20, passes the period-strip check, so none falls back to the
    full box unseen; with the strip forced off, the sweep's certificates
    are byte-identical."""
    dual, cone, P = r2_models
    searched = _spy(monkeypatch, "deep_point")
    rows = sweep(r2, dual, cone, P, SWEEP_R2, 16, r2_hash, allow_mirror=True)
    assert len(searched) == len(SWEEP_R2)
    assert all(args[0].strip is not None for args, _ in searched)
    monkeypatch.setattr(Obstacles, "strip", None)
    again = sweep(r2, dual, cone, P, SWEEP_R2, 16, r2_hash, allow_mirror=True)
    assert all(args[0].strip is None for args, _ in searched[len(SWEEP_R2):])
    assert [emit_certificate(row.certificate) for row in rows] == \
        [emit_certificate(row.certificate) for row in again]


def test_obstacle_boxes_match_the_zip_form(r1, r1_cert, r1_hash, r2, r2_models, r2_hash,
                                           monkeypatch):
    """Every index the sweep-r2 seed-0 certificates and an r1 verify build
    holds each obstacle's shift as a rank-2 point and its box doubled as the
    per-coordinate form over the base's box and the shift gives them:
    2 (e + t)."""
    built = _spy(monkeypatch, "Obstacles")
    dual, cone, P = r2_models
    sweep(r2, dual, cone, P, SWEEP_R2, 16, r2_hash, allow_mirror=True)
    assert verify_certificate(r1_cert, r1, r1_hash).status == "pass"
    assert len(built) > len(SWEEP_R2)
    for _, index in built:
        shifts = [(*x, 0)[:2] for _, x in index.placed]
        assert index.shifts == shifts
        assert index.doubled == [tuple(2 * (e + t) for e, t in zip(base.box, (sx, sx, sy, sy)))
                                 for (base, _), (sx, sy) in zip(index.placed, shifts)]


def test_build_obstacles_leaves_a_non_mirror_inverse_unmarked(r1, r1_models):
    """r1's bundled inverse is the exact mirror, so its index is marked; an
    inverse that is the forward map itself gives negative powers unreflected
    hulls, so that index is not, and deep_point finds the full box's deep
    point."""
    forward = replace(r1, inverse=None)
    words = _first_box_words(r1, r1_models, (1, 9), 12)
    assert any(y < 0 for _, y in words)
    assert Obstacles(build_obstacles(r1, words, 1, False)).symmetric
    index = Obstacles(build_obstacles(replace(r1, inverse=forward), words, 1, False))
    assert not index.symmetric
    R = _ceil_root_multiple(4, 9, 1)
    translates = [geometry.translate(base.hull, x) for base, x in index.placed]
    best = None
    for y in range(-R, R + 1):
        d = min(geometry.point_hull_dist2((y,), t) for t in translates)
        if best is None or d > best.dist2:
            best = lattice.DeepPoint((y,), d)
    assert lattice.deep_point(index, R, 1) == best


def test_k_bisection_matches_the_scan(r1, r1_models, r1_hash, r2, r2_models, r2_hash):
    """Both bundled maps have nested supports, so certify bisects for K; on
    every sweep-r2 seed-0 class and every verify-r1 class it finds the K
    that testing every power from p_max down finds."""
    assert r1.nested_supports and r2.nested_supports
    cases = [(r1, r1_models, r1_hash, alpha, 32, False) for alpha in VERIFY_R1]
    cases += [(r2, r2_models, r2_hash, alpha, 16, True) for alpha in SWEEP_R2]
    for track, (dual, cone, P), ds_hash, alpha, p_max, mirror in cases:
        cert = certify(track, dual, cone, P, FiberedClass(alpha), p_max, ds_hash,
                       allow_mirror=mirror)
        words = enumerate_words(FiberedClass(alpha).lattice, word_radius(
            epsilon_of_subcone(P, dual), cert.box_radius, p_max, cert.safety))
        seen = Obstacles(build_obstacles(track, words, cert.safety, mirror)).seen_from(
            cert.deep_point)
        scan = next((K for K in range(p_max, 0, -1) if seen.misses(
            pipeline.dilated_base(track, "semiring", K, cert.safety, mirror))), 0)
        assert (cert.status, cert.K) == ("ok", scan), alpha


def test_k_scan_without_nested_supports():
    """single_edge_rose's power p is the point p, so 0 is not in R_1 = {1}
    and its supports are not nested: the K search scans down from p_max and
    finds 8 past an obstacle at 4, below which bisection would stop.
    doubling_rose's R_1 is [0, 1], so its supports are nested."""
    shift = single_edge_rose()
    assert not shift.nested_supports
    obstacles = Obstacles([(BaseHull.of([(4,)]), (0,))])
    assert pipeline.largest_missing_power(shift, obstacles, (0,), 8, 0, False) == 8
    assert pipeline.largest_missing_power(shift, obstacles, (0,), 3, 0, False) == 3
    assert doubling_rose().nested_supports


# -- reach filter -------------------------------------------------------------

def _certify_outcome(args, kwargs, cap, reference):
    """certify's certificate bytes, or the type and message of its refusal,
    with POWER_CAP at ``cap``; and per deep-point search, the kept
    obstacles in order, the strip verdict and the deep point.  With
    ``reference``, every word within the word radius R_w is enumerated and
    placed, and the reach filter alone chooses what the searches read."""
    searches, search = [], pipeline.deep_point

    def recorded(obstacles, R, r):
        dp = search(obstacles, R, r)
        searches.append(([(base.hull, x) for base, x in obstacles.placed],
                         obstacles.strip, dp))
        return dp

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "deep_point", recorded)
        m.setattr(pipeline, "POWER_CAP", cap)
        if reference:
            m.setattr(pipeline, "_reach_radius", lambda track, L, R, D, R_w, *rest: R_w)
        try:
            out = emit_certificate(certify(*args, **kwargs))
        except (BudgetError, PowerCapError, ValidationError) as exc:
            out = (type(exc).__name__, str(exc))
    return out, searches


def _certify_checked(monkeypatch, track, models, ds_hash, alpha, p_max, **kwargs):
    """certify alpha, and again with the reach filter off: every word within
    the word radius R_w enumerated and its obstacle placed and searched.
    The two certificates must be byte-identical."""
    dual, cone, P = models
    args = (track, dual, cone, P, FiberedClass(alpha), p_max, ds_hash)
    got = certify(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_reach_radius", lambda track, L, R, D, R_w, *rest: R_w)
        m.setattr(pipeline, "build_obstacles", lambda *args, reach: build_obstacles(*args))
        want = certify(*args, **kwargs)
    assert emit_certificate(got) == emit_certificate(want), alpha
    return got


def _spy(monkeypatch, name):
    """Record every call of pipeline.<name>: its arguments, in the order of
    its parameters and defaults filled in, and its result."""
    calls, fn = [], getattr(pipeline, name)
    signature = inspect.signature(fn)

    def spied(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((tuple(bound.arguments.values()), fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, name, spied)
    return calls


def test_reach_filter_keeps_sweep_r2_certificates(r2, r2_models, r2_hash, monkeypatch):
    """Every sweep-r2 seed-0 class in all four quarter turns, the classes
    every seed draws from, certifies byte for byte as with every obstacle
    placed.  Counted against the words within the word radius R_w of each
    search, it keeps about a fifth of them (6,642 of 32,888) and enumerates
    about a third (10,504), each search placing them in one pass with its
    reach (R, D)."""
    radii = _spy(monkeypatch, "_reach_radius")
    placed = _spy(monkeypatch, "build_obstacles")
    for alpha in SWEEP_R2:
        for turned in _quarter_turns(alpha):
            _certify_checked(monkeypatch, r2, r2_models, r2_hash, turned, 16,
                             allow_mirror=True)
    assert len(radii) == len(placed)
    assert all(args[5] is not None for args, _ in placed)
    full = sum(len(enumerate_words(args[1], args[4])) for args, _ in radii)
    assert sum(len(kept) for _, kept in placed) < 0.25 * full
    assert sum(len(args[1]) for args, _ in placed) < 0.35 * full


def test_reach_filter_keeps_verify_r1_certificates(r1, r1_models, r1_hash, monkeypatch):
    """Every verify-r1 class of either sign certifies byte for byte as with
    every obstacle placed."""
    for alpha in VERIFY_R1:
        _certify_checked(monkeypatch, r1, r1_models, r1_hash, alpha, 32)


def test_reach_filter_without_nested_supports(r1_models, r1_hash, monkeypatch):
    """single_edge_rose's supports are not nested, so the filter's gap
    covers the body of every power up to p_max, not p_max's alone."""
    shift = single_edge_rose()
    assert not shift.nested_supports
    for alpha, p_max, safety in (((1, 9), 12, 1), ((1, 29), 7, 0), ((-1, 21), 4, 1)):
        cert = _certify_checked(monkeypatch, shift, r1_models, r1_hash, alpha, p_max,
                                safety=safety, allow_mirror=True)
        assert cert.status == "ok", alpha


def _swap_map(m: int) -> LiftedGraphMap:
    """Edges a: u -> v and b: v -> u, each mapped to the other by deck
    shifts m and -m: odd powers have support [-m, m], even powers {0}, so
    0 is in no row hull R_1 and power 2 reaches less far than power 1."""
    return LiftedGraphMap(
        rank=1,
        vertices=("u", "v"),
        edges=(trackmap.Edge("a", "u", "v", (2 * m,)), trackmap.Edge("b", "v", "u", (0,))),
        vertex_images={"u": ("v", (m,)), "v": ("u", (-m,))},
        edge_images={"a": (("b", (m,), 1),), "b": (("a", (-m,), 1),)},
    )


def test_reach_filter_covers_a_lower_power_that_reaches_farther(r1_models, r1_hash,
                                                                monkeypatch):
    """On _swap_map(40) at p_max 2, power 1's dilated body reaches 41 and
    power 2's only 1, below r1 (1, 9)'s systole 9: the gap certify filters
    with is at least 41."""
    swap = _swap_map(40)
    assert not swap.nested_supports
    assert [support_of_power(swap, q) for q in (1, 2)] == [((-40,), (40,)), ((0,),)]
    gaps = _spy(monkeypatch, "build_obstacles")
    _certify_checked(monkeypatch, swap, r1_models, r1_hash, (1, 9), 2, allow_mirror=True)
    reach = [max(map(abs, pipeline.dilated_base(swap, "semiring", q, 1, True).box))
             for q in (1, 2)]
    assert reach == [41, 1]
    assert gaps and min(args[5][1] for args, _ in gaps) >= 41


def test_reach_filter_with_an_unsymmetric_inverse(r1, r1_models, r1_hash, monkeypatch):
    """r1 with the forward map as its inverse: negative powers get
    unreflected hulls, so the placed obstacles are not point-symmetric and
    deep_point searches the full box, with the same certificate."""
    forward = replace(r1, inverse=None)
    track = replace(r1, inverse=forward)
    placed = _spy(monkeypatch, "deep_point")
    for alpha in ((1, 9), (1, 29), (-1, 15)):
        _certify_checked(monkeypatch, track, r1_models, r1_hash, alpha, 12)
    assert placed and not any(args[0].symmetric for args, _ in placed)


def test_reach_filter_widens_and_searches_again(r2, r2_models, r2_hash, monkeypatch):
    """r2 (1, 0, 50)'s kernel lattice has systole 1 and its rows lie 50
    apart, so the first deep point lies farther than the first gap, 10,
    the reach of power 16: certify widens the gap to ceil(sqrt(784)) = 28,
    places more obstacles and searches once more, finding the deep point
    of every obstacle."""
    placed = _spy(monkeypatch, "deep_point")
    cert = _certify_checked(monkeypatch, r2, r2_models, r2_hash, (1, 0, 50), 16,
                            allow_mirror=True)
    (first, first_dp), (again, again_dp) = placed[:2]
    assert first_dp.dist2 == 784 > 10 ** 2
    assert len(again[0]) > len(first[0])
    assert again_dp.dist2 == cert.deep_dist2 == 529 <= 28 ** 2


def _kept_within_reach(placed, R, D):
    """What build_obstacles keeps of placed translates on any bases, given
    the reach (R, D): each distinct base stands for a power of a stub map
    whose memo holds it, where dilated_base looks it up."""
    powers = {}
    for base, _ in placed:
        powers.setdefault(id(base), (len(powers), base))
    stub = SimpleNamespace(derived={("semiring", "base", y, 0, False): base
                                    for y, base in powers.values()})
    words = [(x, powers[id(base)][0]) for base, x in placed]
    return build_obstacles(stub, words, 0, False, reach=(R, D))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reach_filter_keeps_the_deep_point_of_placed_translates(data, r1, r2):
    """Whenever the deep point over the obstacles within gap D of the box
    lies within D, it is the brute-force deep point of every obstacle: a
    dropped one is farther than D from every point of the box."""
    placed, translates, R, rank = data.draw(_placed_translates({1: r1, 2: r2}))
    D = data.draw(st.integers(0, 8))
    kept = _kept_within_reach(placed, R, D)
    assume(kept)
    dp = lattice.deep_point(Obstacles(kept), R, rank)
    if dp.dist2 <= D * D:
        assert dp == _brute_deep_point(translates, R, rank)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reach_filter_keeps_symmetric_translates_symmetric(data, r1, r2):
    """The gap is measured from the full box, so the obstacles kept out of
    a point-symmetric set are point-symmetric too."""
    placed, _, R, rank = data.draw(_symmetric_translates({1: r1, 2: r2}))
    D = data.draw(st.integers(0, 8))
    kept = _kept_within_reach(placed, R, D)
    assert not kept or Obstacles(kept).symmetric


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_placement_matches_the_reference(data, r1, r2):
    """build_obstacles given a reach (R, D) keeps the obstacles, in order
    and from the same base objects, that placing every word and filtering
    them kept (conftest's place_every_word and within_reach); without a
    reach it places every word as the reference does.  Indexed with the
    enumeration radius R_e, the kept obstacles get the strip verdict of
    the check against every placed obstacle (pool_strip), both ways as R_e
    falls below or covers the kept obstacles' partners.  Ranks 1 and 2 on
    both routes: r1 with inverse data and without, r2, and
    single_edge_rose, whose supports do not nest, so certify enumerates to
    R_e = R_w on it; mirror mode on or off, so that a negative power with
    neither inverse data nor mirror mode raises the reference's
    ValidationError, with or without a reach."""
    kind = data.draw(st.sampled_from(("r1", "r1-bare", "r2", "r2", "shift")), "kind")
    if kind == "r2":
        track = r2
        alpha = (data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4)),
                 data.draw(st.integers(3, 40)))
    else:
        track = {"r1": r1, "r1-bare": replace(r1, inverse=None),
                 "shift": single_edge_rose()}[kind]
        alpha = (data.draw(st.integers(-4, 4)), data.draw(st.integers(3, 30)))
    assume(gcd(*alpha) == 1)
    L = FiberedClass(alpha).lattice
    R, D = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 5))
    R_e = max(0, R + D + data.draw(st.integers(-3, 14)))
    words = enumerate_words(L, R_e)
    assume(max(abs(y) for _, y in words) <= 40)
    args = (track, words, data.draw(st.integers(0, 1)), data.draw(st.booleans()),
            data.draw(st.sampled_from(("semiring", "oracle"))))
    try:
        every = place_every_word(*args)
    except ValidationError as exc:
        for reach in (None, (R, D)):
            with pytest.raises(ValidationError) as raised:
                build_obstacles(*args, reach=reach)
            assert str(raised.value) == str(exc)
        return
    for got, want in ((build_obstacles(*args), every),
                      (build_obstacles(*args, reach=(R, D)), within_reach(every, R, D))):
        assert [(id(base), x) for base, x in got] == [(id(base), x) for base, x in want]
    kept = within_reach(every, R, D)
    assert Obstacles(kept, L.period, R_e).strip == pool_strip(kept, L.period, every)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reach_radius_matches_placing_every_word(data, r1, r1_models, r1_hash, r2,
                                                 r2_models, r2_hash):
    """On small classes, certify enumerating to its reach radius R_e keeps
    the obstacles (in order), strip verdicts, deep points and certificate,
    K included, that placing every word within R_w gives, and refuses in
    the same cases with the same message.  Maps: r1 with inverse data and
    without (mirror mode or not), r2 in mirror mode or not, every quarter
    turn and b = 0 among its classes, and single_edge_rose, whose supports
    do not nest.  POWER_CAP is sometimes lowered under the word powers.  A
    box radius of 10^6 or 10^7 is refused before any word is built: for a
    word power above the cap, or for too many words to enumerate."""
    kind = data.draw(st.sampled_from(("r1", "r1-mirror", "r2", "shift")), "kind")
    if kind == "r2":
        track, models, ds_hash, p_max = r2, r2_models, r2_hash, data.draw(st.integers(1, 12))
        a, b = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        for _ in range(data.draw(st.integers(0, 3))):
            a, b = -b, a
        alpha = (a, b, data.draw(st.integers(3, 80)))
    else:
        track = {"r1": r1, "r1-mirror": replace(r1, inverse=None),
                 "shift": single_edge_rose()}[kind]
        models, ds_hash, p_max = r1_models, r1_hash, data.draw(st.integers(1, 24))
        alpha = (data.draw(st.integers(-4, 4)), data.draw(st.integers(3, 30)))
    dual, cone, P = models
    assume(gcd(*alpha) == 1 and P.membership(alpha).status == "interior")
    kwargs = {"safety": data.draw(st.integers(0, 1)),
              "allow_mirror": data.draw(st.booleans()),
              "box_radius": data.draw(st.sampled_from((None, None, None, 10 ** 6, 10 ** 7))
                                      | st.integers(1, 12))}
    cap = data.draw(st.one_of(st.just(POWER_CAP), st.integers(16, 40)))
    args = (track, dual, cone, P, FiberedClass(alpha), p_max, ds_hash)
    got = _certify_outcome(args, kwargs, cap, reference=False)
    assert got == _certify_outcome(args, kwargs, cap, reference=True), (kind, alpha)


def test_reach_radius_reads_the_word_powers_past_p_max(r1, r1_models, r1_hash):
    """r1 (1, 3) at p_max 1 and safety 0 searches the box of radius 12 with
    gap D = 3, and power 1's body reaches only 1; but the words at -21 and
    21, of power 7 and -7, have the hulls [0, 7] and [-7, 0], whose boxes
    lie within D of the box.  certify's enumeration radius reads the word
    powers' bases, not p_max's, so it keeps them, as placing every word
    within the word radius does."""
    dual, cone, P = r1_models
    args = (r1, dual, cone, P, FiberedClass((1, 3)), 1, r1_hash)
    got = _certify_outcome(args, {"safety": 0}, POWER_CAP, reference=False)
    assert got == _certify_outcome(args, {"safety": 0}, POWER_CAP, reference=True)
    ((kept, _, _),) = got[1]
    assert (((0,), (7,)), (-21,)) in kept and (((-7,), (0,)), (21,)) in kept


def test_certify_caps_word_powers_the_filter_drops(r1, r1_hash, monkeypatch):
    """certify reads every word's power before it places or filters any:
    r1 (1, 9) at cone p_max and p_max 4 places no word above power 5, yet
    with the cap at 9 its words of power 10, at shifts -90 and 90, raise
    PowerCapError before any support is walked; a box too large to
    enumerate raises BudgetError before it too."""
    dual = estimate_dual_cone(r1, 4)
    cone = fibered_cone_from_dual(dual)
    P = cone.subcone_slope(Fraction(1, 2))
    placed = _spy(monkeypatch, "build_obstacles")
    certify(r1, dual, cone, P, FiberedClass((1, 9)), 4, r1_hash)
    assert max(abs(x[0]) for _, kept in placed for _, x in kept) < 90

    def forbidden(*args):
        raise AssertionError("certify walked a support")

    monkeypatch.setattr(pipeline, "dilated_base", forbidden)
    monkeypatch.setattr(pipeline, "POWER_CAP", 9)
    with pytest.raises(PowerCapError, match="kernel word power 10 exceeds the power cap 9"):
        certify(r1, dual, cone, P, FiberedClass((1, 9)), 4, r1_hash)
    with pytest.raises(BudgetError, match="word enumeration bound"):
        certify(r1, dual, cone, P, FiberedClass((1, 9)), 4, r1_hash, box_radius=10 ** 7)


# -- verification -----------------------------------------------------------

def test_verify_passes(r1, r1_cert, r1_hash, r2, r2_cert, r2_hash, far_words_cert):
    assert verify_certificate(r1_cert, r1, r1_hash).status == "pass"
    assert verify_certificate(r2_cert, r2, r2_hash).status == "pass"
    assert verify_certificate(far_words_cert, r1, r1_hash).status == "pass"


def test_verify_never_reads_semiring_supports(r1_cert, r1_hash, r2_cert, r2_hash,
                                              far_words_cert, monkeypatch):
    """verify takes every exact support from the path oracle, the cone
    rebuild included, so the oracle and the semiring route stay independent
    cross-checks: on an r1 certificate with inverse data, an r2 certificate
    in mirror mode and an r1 one with words past p_max.  Fresh maps, so no
    memo built before holds a support, and the semiring walk that every
    semiring memo starts cannot run."""

    def forbidden(base, rank):
        raise AssertionError("verify read the semiring route")

    monkeypatch.setattr(trackmap, "_semiring_powers", forbidden)
    r1, r2 = _fresh_map("rose_r1.json"), _fresh_map("rose_r2.json")
    assert verify_certificate(r1_cert, r1, r1_hash).status == "pass"
    assert verify_certificate(r2_cert, r2, r2_hash).status == "pass"
    assert verify_certificate(far_words_cert, r1, r1_hash).status == "pass"


def test_verify_never_computes_the_reach_radius(r1, r1_cert, r1_hash, r2, r2_cert,
                                               r2_hash, far_words_cert, monkeypatch):
    """verify enumerates every word within the word radius R_w, with no
    reach bound, so a fault in certify's enumeration radius cannot hide a
    word from it: with certify's _reach_radius raising, verify passes an r1
    certificate with inverse data, an r2 one in mirror mode and an r1 one
    with words past p_max, and enumerates once per certificate, at exactly
    its word radius."""

    def forbidden(*args):
        raise AssertionError("verify computed certify's reach radius")

    monkeypatch.setattr(pipeline, "_reach_radius", forbidden)
    radii = _spy(monkeypatch, "enumerate_words")
    for cert, track, ds_hash in ((r1_cert, r1, r1_hash), (r2_cert, r2, r2_hash),
                                 (far_words_cert, r1, r1_hash)):
        radii.clear()
        assert verify_certificate(cert, track, ds_hash).status == "pass"
        dual, _, P = cones.subcone_models(track, cert.cone_p_max, cert.slope_cap)
        R_w = word_radius(epsilon_of_subcone(P, dual), cert.box_radius, cert.p_max,
                          cert.safety)
        assert [args[1] for args, _ in radii] == [R_w], cert.alpha


def _fresh_map(name):
    """A map loaded anew, with none of its memos built."""
    return load_dataset(str(resources.files("fibercert") / "data" / name))


def test_library_never_calls_the_cli_support_readers(r1_hash, r2_hash, monkeypatch):
    """support_of_power and oracle_iterate serve the omega and oracle
    commands; the library reads the maps' memos directly.  With both
    raising in every fibercert module that binds them, subcone_models,
    sweep (r1, and r2 in mirror mode) and verify_certificate give the
    models, rows and verdicts of unpatched runs, on fresh maps."""
    from fibercert import cli  # noqa: F401, so that its bindings are patched too

    runs = (("rose_r1.json", r1_hash, 16, [(1, 9), (1, 11), (1, 29)], False),
            ("rose_r2.json", r2_hash, 12, [(1, 7, 50), (1, 8, 65)], True))

    def run():
        out = []
        for name, ds_hash, cone_p_max, classes, mirror in runs:
            track = _fresh_map(name)
            dual, cone, P = cones.subcone_models(track, cone_p_max, Fraction(1, 2))
            rows = sweep(track, dual, cone, P, classes, 16, ds_hash, allow_mirror=mirror)
            verdicts = [verify_certificate(row.certificate, _fresh_map(name), ds_hash)
                        for row in rows]
            out.append(((dual, cone, P), rows, verdicts))
        return out

    want = run()
    assert all(v.status == "pass" for _, _, verdicts in want for v in verdicts)

    def forbidden(track, p):
        raise AssertionError("the library called a CLI support reader")

    patched = 0
    for name in ("support_of_power", "oracle_iterate"):
        original = getattr(trackmap, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "fibercert" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)
                patched += 1
    assert patched == 4  # trackmap and cli bind both
    assert run() == want


def test_each_route_builds_only_its_own_memo(r1_cert, r1_hash, r2_cert, r2_hash,
                                             far_words_cert, r1_models, r2_models):
    """verify builds a map's oracle memo and never its semiring memo; certify
    builds the semiring memo and never the oracle memo.  Fresh maps, since
    the session maps have been through both."""
    r1, r2 = _fresh_map("rose_r1.json"), _fresh_map("rose_r2.json")
    for cert, track, ds_hash in ((r1_cert, r1, r1_hash), (r2_cert, r2, r2_hash),
                                 (far_words_cert, r1, r1_hash)):
        assert verify_certificate(cert, track, ds_hash).status == "pass"
    assert "oracle" in vars(r1) and "oracle" in vars(r1.inverse) and "oracle" in vars(r2)
    for m in (r1, r1.inverse, r2):
        assert "semiring" not in vars(m)
    for m in (r1, r2):
        assert m.derived and all(key[0] == "oracle" for key in m.derived)
    r1, r2 = _fresh_map("rose_r1.json"), _fresh_map("rose_r2.json")
    dual, cone, P = r1_models
    assert certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash) == r1_cert
    dual, cone, P = r2_models
    assert certify(r2, dual, cone, P, FiberedClass((1, 7, 50)), 12, r2_hash,
                   allow_mirror=True) == r2_cert
    assert "semiring" in vars(r1) and "semiring" in vars(r1.inverse) and "semiring" in vars(r2)
    for m in (r1, r1.inverse, r2):
        assert "oracle" not in vars(m)
    for m in (r1, r2):
        assert m.derived and all(key[0] == "semiring" for key in m.derived)


def test_verify_walks_each_map_once(r1_cert, r1_cert_29, r1_hash, monkeypatch):
    """Certificates of one map share its oracle memo: verifying two of them
    (one twice) starts each map's hull walk once.  Both declare r1's period
    (T, c) = (1, 1) and its inverse's, checked at power T + c, so each
    map's walk draws powers 0..2, alone or shared, and the closed form
    answers the rest.  Without the declarations each certificate draws
    every power up to the highest one it needs, and the shared map the
    larger of the two."""
    starts, drawn = Counter(), Counter()
    edge_walk = trackmap._edge_walk

    def counted_walk(track, *args):
        starts[id(track)] += 1
        walk = edge_walk(track, *args)
        while True:
            try:
                hull = next(walk)
            except StopIteration as stop:
                return stop.value
            drawn[id(track)] += 1
            yield hull

    monkeypatch.setattr(trackmap, "_edge_walk", counted_walk)
    assert {cert.period[:2] + cert.inverse_period[:2]
            for cert in (r1_cert, r1_cert_29)} == {(1, 1, 1, 1)}
    undeclared = [replace(cert, period=(), inverse_period=()) for cert in (r1_cert, r1_cert_29)]
    maps = []  # maps stay referenced, so no two share an id
    # Undeclared, each map walks to cone_p_max 16 and the inverse to the
    # highest negative word power.
    for certs, want in (((r1_cert, r1_cert_29), [(3, 3), (3, 3)]),
                        (undeclared, [(17, 13), (17, 11)])):
        alone = []
        for cert in certs:
            maps.append(_fresh_map("rose_r1.json"))
            assert verify_certificate(cert, maps[-1], r1_hash).status == "pass"
            alone.append((drawn[id(maps[-1])], drawn[id(maps[-1].inverse)]))
        shared = _fresh_map("rose_r1.json")
        maps.append(shared)
        for cert in (*certs, certs[0]):
            assert verify_certificate(cert, shared, r1_hash).status == "pass"
        assert (starts[id(shared)], starts[id(shared.inverse)]) == (1, 1)
        assert (drawn[id(shared)], drawn[id(shared.inverse)]) == tuple(map(max, *alone))
        assert alone == want


def test_memo_cannot_sway_a_verdict(r1_cert, r1_hash, r2_cert, r2_hash):
    """A verdict does not depend on what the map's memo already holds: the
    honest r1 and r2 certificates and mutants of every declared value a memo
    key holds (cone_p_max, slope_cap, one of them failing subcone, safety
    and mirror), of K, of the deep point and of the declared periods (a
    wrong c and a wrong inverse's failing period, none at all, and a later
    T, which holds too), verified on one map in forward and in reverse
    order, get the verdicts each gets on a fresh map.  A failing subcone
    key stores nothing."""
    for cert, name, ds_hash in ((r1_cert, "rose_r1.json", r1_hash),
                                (r2_cert, "rose_r2.json", r2_hash)):
        T, c, *Q = cert.period
        edits = [{}, {"cone_p_max": cert.cone_p_max // 2}, {"slope_cap": Fraction(1, 3)},
                 {"slope_cap": Fraction(2)}, {"safety": 0}, {"safety": 2},
                 {"mirror": not cert.mirror}, {"K": cert.K + 1},
                 {"deep_point": tuple(c + 1 for c in cert.deep_point)},
                 {"period": (T, c + 1, *Q)}, {"inverse_period": cert.period},
                 {"period": (), "inverse_period": ()}, {"period": (T + 1, c, *Q)}]
        certs = [replace(cert, **edit) for edit in edits]
        alone = [verify_certificate(c, _fresh_map(name), ds_hash) for c in certs]
        assert alone[0].status == alone[-1].status == alone[-2].status == "pass"
        assert {"subcone", "deep-dist2", "power-collision", "period"} <= \
            {v.reason for v in alone}
        for order in (certs, certs[::-1]):
            shared = _fresh_map(name)
            verdicts = [verify_certificate(c, shared, ds_hash) for c in order]
            assert verdicts == (alone if order is certs else alone[::-1]), name
            assert ("oracle", "subcone", cert.cone_p_max, 2) not in shared.derived


def test_memo_keeps_the_mirror_flag(r2_models, r2_hash, r2_cert):
    """A base built in mirror mode is never handed to a certify without it:
    on one r2 map, the class certified with mirror is refused without it,
    by name, both before and after."""
    r2 = _fresh_map("rose_r2.json")
    dual, cone, P = r2_models
    for mirror in (False, True, False):
        run = lambda: certify(r2, dual, cone, P, FiberedClass((1, 7, 50)), 12, r2_hash,
                              allow_mirror=mirror)
        if mirror:
            assert run() == r2_cert
        else:
            with pytest.raises(ValidationError, match="mirror"):
                run()


def test_verify_batch_derives_once_per_map(r1, r1_models, r1_hash, monkeypatch):
    """verify-r1's 20 seed-0 certificates, verified on one map, rebuild the
    dual cone once and build each dilated base once, although every
    certificate asks for its words' bases and its K's."""
    dual, cone, P = r1_models
    rows = sweep(r1, dual, cone, P, [(1, 2 * j + 9) for j in range(20)], 32, r1_hash)
    certs = [parse_certificate(emit_certificate(row.certificate)) for row in rows]
    cone_calls, asked, built = Counter(), Counter(), Counter()
    estimate, base, omega = (cones.estimate_dual_cone, pipeline.dilated_base,
                             pipeline.omega_of_word)

    def counted_estimate(track, p_max, route="semiring"):
        cone_calls[p_max] += 1
        return estimate(track, p_max, route)

    def counted_base(track, *key):
        asked[key] += 1
        return base(track, *key)

    def counted_omega(track, y, allow_mirror, route):
        built[y, allow_mirror] += 1
        return omega(track, y, allow_mirror, route)

    monkeypatch.setattr(cones, "estimate_dual_cone", counted_estimate)
    monkeypatch.setattr(pipeline, "dilated_base", counted_base)
    monkeypatch.setattr(pipeline, "omega_of_word", counted_omega)
    track = _fresh_map("rose_r1.json")
    assert [verify_certificate(c, track, r1_hash).status for c in certs] == ["pass"] * 20
    assert cone_calls == {16: 1}
    assert set(built.values()) == {1}
    assert {key[:1] + key[2:] for key in track.derived if key[1] == "base"} == \
        {("oracle", y, 1, False) for y, _ in built} == set(asked)
    assert sum(asked.values()) > 10 * len(built)


def test_verify_rejects_wrong_dataset(r1, r1_cert):
    res = verify_certificate(r1_cert, r1, "0" * 64)
    assert res.status == "fail" and res.reason == "dataset-hash"


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


def test_verify_power_cap(r1, r1_cert, r1_hash, monkeypatch):
    """A declared power above POWER_CAP is unverifiable before any walk.
    The cap is read when verify runs, so a lowered cap applies at once."""
    for field in ("p_max", "cone_p_max", "K"):
        res = verify_certificate(replace(r1_cert, **{field: POWER_CAP + 1}), r1, r1_hash)
        assert (res.status, res.reason) == ("unverifiable", "power-cap"), field
    monkeypatch.setattr(pipeline, "POWER_CAP", 1)
    res = verify_certificate(r1_cert, r1, r1_hash)
    assert (res.status, res.reason) == ("unverifiable", "power-cap")


def test_verify_caps_word_powers_before_walking(r1, r1_hash):
    """A certificate whose box reaches words of power above the cap is
    unverifiable before the oracle walks them: r1 alpha = (250, 1001) at
    p_max 64 with its box radius forged up to 10^5 has words of power up to
    49,750, and the fresh map's oracle memos keep at most 2,001 powers."""
    dual, cone, P = cones.subcone_models(r1, 64, Fraction(1, 2))
    honest = certify(r1, dual, cone, P, FiberedClass((250, 1001)), 64, r1_hash)
    assert honest.status == "ok"
    fresh = _fresh_map("rose_r1.json")
    res = verify_certificate(replace(honest, box_radius=10 ** 5), fresh, r1_hash)
    assert (res.status, res.reason) == ("unverifiable", "power-cap")
    for m in (fresh, fresh.inverse):
        assert len(m.oracle.kept) <= 2_001


def test_certify_caps_word_powers_before_walking(r1_hash):
    """certify refuses what verify would call unverifiable (power-cap): r1
    alpha = (250, 1001) at p_max 64 and box radius 20,000 has words of power
    up to 10,000.  It raises before the semiring walks them, and the fresh
    map's semiring memo keeps at most 2,001 powers."""
    fresh = _fresh_map("rose_r1.json")
    dual, cone, P = cones.subcone_models(fresh, 64, Fraction(1, 2))
    with pytest.raises(PowerCapError, match="kernel word power 10000 exceeds the power cap 2000"):
        certify(fresh, dual, cone, P, FiberedClass((250, 1001)), 64, r1_hash,
                box_radius=20_000)
    for m in (fresh, fresh.inverse):
        assert len(m.semiring.kept) <= POWER_CAP + 1


def test_power_cap_refusals_build_no_word(r1, r1_models, r1_hash, r1_cert):
    """Both sides refuse a word power above the cap before any word is
    built: certify of r1 (1, 9) at box radius 10^6 names the largest power,
    and verify of its honest certificate with the box radius forged to 10^6
    is unverifiable (power-cap).  Their words, about 444,000 ((x,), y)
    pairs, take about 78 MB when built before the refusal; neither refusal
    allocates 1 MB at its peak."""
    dual, cone, P = r1_models
    verify_certificate(r1_cert, r1, r1_hash)  # the map's oracle memos, built beforehand
    tracemalloc.start()
    try:
        with pytest.raises(PowerCapError,
                           match="kernel word power 222226 exceeds the power cap 2000"):
            certify(r1, dual, cone, P, FiberedClass((1, 9)), 12, r1_hash, box_radius=10 ** 6)
        res = verify_certificate(replace(r1_cert, box_radius=10 ** 6), r1, r1_hash)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.reason) == ("unverifiable", "power-cap")
    assert peak < 2 ** 20, peak


def test_certify_caps_declared_powers(r1, r1_models, r1_hash, monkeypatch):
    """A p_max or a cone p_max above the cap is refused before any support
    is walked, as verify would call its certificate unverifiable.  The cap
    is read when certify runs, so a lowered cap applies at once."""
    dual, cone, P = r1_models
    alpha = FiberedClass((1, 9))
    with pytest.raises(PowerCapError, match="declared power 2001 exceeds the power cap 2000"):
        certify(r1, dual, cone, P, alpha, POWER_CAP + 1, r1_hash)
    with pytest.raises(PowerCapError, match="power cap 2000"):
        certify(r1, replace(dual, p_max=POWER_CAP + 1), cone, P, alpha, 32, r1_hash)
    assert certify(r1, dual, cone, P, alpha, 32, r1_hash).status == "ok"
    monkeypatch.setattr(pipeline, "POWER_CAP", 31)
    with pytest.raises(PowerCapError, match="declared power 32 exceeds the power cap 31"):
        certify(r1, dual, cone, P, alpha, 32, r1_hash)


def test_verify_rejects_imprimitive_alpha(r1, r1_cert, r1_hash):
    doubled = tuple(2 * v for v in r1_cert.alpha)
    res = verify_certificate(replace(r1_cert, alpha=doubled), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "alpha-primitive")


def test_verify_rejects_n_mismatch(r1, r1_cert, r1_hash):
    res = verify_certificate(replace(r1_cert, n=r1_cert.n + 1), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "n-mismatch")


def test_verify_rejects_foreign_words(r1, r1_cert, r1_hash):
    """verify derives the words of the class it is given: moved to (4, 9),
    a class of the same n, the kernel words and their obstacles change, and
    one of them covers the claimed deep point."""
    res = verify_certificate(replace(r1_cert, alpha=(4, 9)), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "deep-point-in-obstacle")


@pytest.mark.parametrize("edit, want", [
    # (a) once a trivial word list with word radius 0: a far deep point and
    # K = 32.  Outside the box it fails there; with the box widened to
    # reach it, the derived words put an obstacle nearer than claimed.
    ({"deep_point": (500,)}, "deep-point-outside-box"),
    ({"deep_point": (500,), "box_radius": 500}, "deep-dist2"),
    # (b) the honest word list kept, the deep point moved outside the box.
    ({"deep_point": (400,)}, "deep-point-outside-box"),
], ids=["a", "a-box-widened", "b"])
def test_verify_rejects_forgeries(r1, r1_cert_29, r1_hash, edit, want):
    """Certificates claiming 1/464 instead of 2/319 for alpha = (1, 29)."""
    forged = replace(r1_cert_29, K=32, bound=Fraction(1, 464), **edit)
    res = verify_certificate(forged, r1, r1_hash)
    assert (res.status, res.reason) == ("fail", want)


@pytest.mark.parametrize("edit, want", [
    ({"safety": 0}, ("fail", "deep-dist2")),
    ({"safety": 2}, ("fail", "deep-dist2")),
    ({"slope_cap": Fraction(1, 10)}, ("fail", "alpha-not-interior")),
    # A wider cap lowers epsilon, so the word radius grows; the extra words
    # are exact supports far from the deep point, and the claim holds.
    ({"slope_cap": Fraction(2, 3)}, ("pass", "")),
    ({"slope_cap": None}, ("fail", "subcone")),
], ids=["safety-0", "safety-2", "slope-cap-narrow", "slope-cap-wide",
        "slope-cap-none"])
def test_verify_rederives_declared_parameters(r1, r1_cert, r1_hash, edit, want):
    """verify derives the subcone, epsilon, the words and the obstacles from
    the declared parameters, so editing one changes what it checks against."""
    res = verify_certificate(replace(r1_cert, **edit), r1, r1_hash)
    assert (res.status, res.reason) == want


def test_verify_fails_a_declared_subcone_with_an_empty_slice(r2, r2_cert, r2_hash):
    """A slope cap of 0 or below declares an empty slope box: the subcone
    predicate fails by name, with no ValidationError."""
    for cap in (Fraction(0), Fraction(-1, 10)):
        res = verify_certificate(replace(r2_cert, slope_cap=cap), r2, r2_hash)
        assert (res.status, res.reason) == ("fail", "subcone")


def test_verify_rederives_cone_p_max(r2, r2_cert, r2_hash):
    """At cone_p_max 2 the r2 slope estimates are too loose for the slope-cap
    subcone to keep a positive epsilon.  (The r1 cone is exact at every
    truncation, so there cone_p_max does not change the derivation.)"""
    res = verify_certificate(replace(r2_cert, cone_p_max=2), r2, r2_hash)
    assert (res.status, res.reason) == ("fail", "subcone")


def test_verify_rejects_undeclared_mirror(r2, r2_cert, r2_hash):
    """r2 has no inverse data, so its negative powers need declared mirror mode."""
    res = verify_certificate(replace(r2_cert, mirror=False), r2, r2_hash)
    assert (res.status, res.reason) == ("fail", "word-mode")


def _first_failing_edge(track, T, c, Q):
    """The first edge, in edge order, whose visits at power T + c do not
    have the hull of its visits at power T summed with Q (no visits at
    either power must mean none at both), by a walk over (edge, shift)
    states: the reference for the oracle's per-edge hulls.  None if every
    edge has it."""
    zero = (0,) * track.rank
    states, seen = {(e.name, zero) for e in track.edges}, []
    for _ in range(T + c + 1):
        seen.append(states)
        states = {(name, tuple(a + b for a, b in zip(s, d)))
                  for edge, s in states for name, d, _ in track.edge_images[edge]}

    def hull(p, edge):
        pts = [s for name, s in seen[p] if name == edge]
        return geometry.convex_hull(pts) if pts else []

    for e in track.edges:
        a, b = hull(T, e.name), hull(T + c, e.name)
        if (geometry.minkowski_sum(a, Q) if a else []) != b:
            return e.name
    return None


# Forged declarations of a period (T, c, *Q): each gets fail period.
FORGED_PERIODS = {
    "wrong c": lambda d: (d[0], d[1] + 1, *d[2:]),
    "Q off by one vertex": lambda d: (*d[:-1], d[-1] + 1),
    "T one too small": lambda d: (d[0] - 1, *d[1:]),
    "no Q": lambda d: d[:2],
    "one entry too many": lambda d: (*d, 0),
}


@pytest.mark.parametrize("forge", FORGED_PERIODS.values(), ids=FORGED_PERIODS.keys())
def test_verify_rejects_forged_periods(r1_cert, r1_hash, r2_cert, r2_hash, forge):
    """A declared period that does not hold on the path oracle fails period,
    for the map and for the inverse's data, on a fresh map; the witness
    names the map and, where the declaration has a period's form, the first
    edge whose hulls differ."""
    cases = [(replace(r1_cert, period=forge(r1_cert.period)), "rose_r1.json", r1_hash, "map"),
             (replace(r1_cert, inverse_period=forge(r1_cert.inverse_period)),
              "rose_r1.json", r1_hash, "inverse"),
             (replace(r2_cert, period=forge(r2_cert.period)), "rose_r2.json", r2_hash, "map")]
    for cert, name, ds_hash, which in cases:
        track = _fresh_map(name)
        res = verify_certificate(cert, track, ds_hash)
        assert (res.status, res.reason) == ("fail", "period"), (which, res)
        assert res.witness.startswith(f"{which}: "), res.witness
        m, declared = ((track, cert.period) if which == "map"
                       else (track.inverse, cert.inverse_period))
        r = track.rank
        Q = [tuple(declared[i:i + r]) for i in range(2, len(declared), r)]
        if Q and (len(declared) - 2) % r == 0 and Q == geometry.convex_hull(Q):
            edge = _first_failing_edge(m, declared[0], declared[1], Q)
            assert edge is not None and f"edge {edge!r}" in res.witness, res.witness
        assert "oracle" not in vars(m) or m.oracle.period is None


def test_verify_rejects_an_inverse_period_in_mirror_mode(r2_cert, r2_hash):
    """r2 has no inverse data, so mirror mode reads the map's own supports:
    a period declared for the inverse fails period, naming the inverse."""
    assert r2_cert.mirror and r2_cert.inverse_period == ()
    res = verify_certificate(replace(r2_cert, inverse_period=r2_cert.period),
                             _fresh_map("rose_r2.json"), r2_hash)
    assert (res.status, res.reason) == ("fail", "period")
    assert res.witness.startswith("inverse: ")


def test_verify_checks_the_declared_periods(r1_cert, r1_hash, r2_cert, r2_hash):
    """Honest certificates declare the periods certify's semiring walk found
    (the inverse's only with inverse data); verify checks each on the path
    oracle and the map's oracle memo takes it, having walked to T + c.
    Re-emitted with empty declarations, they still pass, through the
    every-power walk, with no period taken."""
    square = (0, 0, 1, 0, 1, 1, 0, 1)
    assert (r1_cert.period, r1_cert.inverse_period) == ((1, 1, 0, 1), (1, 1, -1, 0))
    assert (r2_cert.period, r2_cert.inverse_period) == ((1, 2, *square), ())
    for cert, name, ds_hash in ((r1_cert, "rose_r1.json", r1_hash),
                                (r2_cert, "rose_r2.json", r2_hash)):
        track = _fresh_map(name)
        assert verify_certificate(cert, track, ds_hash).status == "pass"
        for m, declared in ((track, cert.period), (track.inverse, cert.inverse_period)):
            if m is not None:
                T, c = declared[:2]
                assert m.oracle.period[:2] == (T, c) and len(m.oracle.kept) == T + c + 1
        bare = parse_certificate(emit_certificate(replace(cert, period=(), inverse_period=())))
        track = _fresh_map(name)
        assert verify_certificate(bare, track, ds_hash).status == "pass"
        assert track.oracle.period is None and len(track.oracle.kept) > cert.cone_p_max


def test_verify_at_paper_scale_reads_few_powers(r2_hash, monkeypatch):
    """verify of r2 (1, 990, 980101) in mirror mode at p_max 1980, on a map
    loaded anew: its oracle memo holds at most T + c + 1 walked hulls, and
    _candidate_directions receives the ratio points of at most 5 powers,
    scaled by their lcm, not lcm(1..1980) (about 860 digits)."""
    r2 = _fresh_map("rose_r2.json")
    dual, cone, P = cones.subcone_models(r2, 1980, Fraction(1, 2))
    cert = certify(r2, dual, cone, P, FiberedClass((1, 990, 980101)), 1980, r2_hash,
                   allow_mirror=True)
    read, given = [], []
    powers_read, candidates = cones._powers_read, cones._candidate_directions

    def read_powers(hull_of, p_max):
        read.append(powers_read(hull_of, p_max))
        return read[-1]

    def spy(rank, ratio_points):
        given.append(ratio_points)
        return candidates(rank, ratio_points)

    monkeypatch.setattr(cones, "_powers_read", read_powers)
    monkeypatch.setattr(cones, "_candidate_directions", spy)
    track = _fresh_map("rose_r2.json")
    assert verify_certificate(cert, track, r2_hash).status == "pass"
    T, c = cert.period[:2]
    assert len(track.oracle.kept) <= T + c + 1
    (powers,), (points,) = read, given
    scale = lcm(*powers)
    assert len(powers) <= 5 and points == [(x * (scale // p), y * (scale // p))
                                           for p in powers for x, y in track.oracle(p)]
    assert max(abs(v) for pt in points for v in pt) < 10 ** 20


def test_verify_rejects_relabelled_mode(r1, r1_cert, r1_hash):
    """Every certificate is certified; any other mode fails by name."""
    res = verify_certificate(replace(r1_cert, mode="asymptotic"), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "mode-mismatch")


def test_verify_rejects_wrong_deep_dist2(r1, r1_cert, r1_hash):
    res = verify_certificate(
        replace(r1_cert, deep_dist2=r1_cert.deep_dist2 + 1), r1, r1_hash)
    assert (res.status, res.reason) == ("fail", "deep-dist2")


def test_verify_word_cap(r1, r1_cert, r1_hash):
    """A box too large to enumerate is unverifiable, not an exception."""
    res = verify_certificate(replace(r1_cert, box_radius=10 ** 7), r1, r1_hash)
    assert (res.status, res.reason) == ("unverifiable", "word-cap")


def test_verify_rejects_negative_safety(r1, r1_cert, r1_hash):
    with pytest.raises(ValidationError, match="safety"):
        verify_certificate(replace(r1_cert, safety=-1), r1, r1_hash)


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


def test_sweep_computes_each_lattice_once(r1, r1_models, r1_hash, monkeypatch):
    """A sweep builds the kernel lattice of each certified class once and
    shares it between certify and the row's covolume and systole."""
    calls = []

    def counted(alpha):
        calls.append(alpha.vector)
        return perp_basis(alpha)

    for module in (lattice, pipeline):  # every binding a sweep could call
        monkeypatch.setattr(module, "perp_basis", counted, raising=False)
    dual, cone, P = r1_models
    rows = sweep(r1, dual, cone, P, [(1, 9), (1, 11), (1, 13)], 16, r1_hash)
    assert [row.status for row in rows] == ["ok"] * 3
    assert calls == [(1, 9), (1, 11), (1, 13)]
    assert [row.covol2 for row in rows] == [81, 121, 169]


def test_sweep_computes_each_systole_once(r2, r2_models, r2_hash, monkeypatch):
    """A sweep finds the systole of each certified class's lattice once and
    shares it between certify's first reach guess and the row's systole2."""
    calls = []

    def counted(L):
        calls.append(L.alpha.vector)
        return systole(L)

    for module in (lattice, pipeline):  # every binding a sweep could call
        monkeypatch.setattr(module, "systole", counted, raising=False)
    dual, cone, P = r2_models
    classes = [(1, 7, 50), (1, 8, 65)]
    rows = sweep(r2, dual, cone, P, classes, 16, r2_hash, allow_mirror=True)
    assert [row.status for row in rows] == ["ok"] * 2
    assert calls == classes
    assert [row.systole2 for row in rows] == [
        systole(perp_basis(FiberedClass(c))).length2 for c in classes]


# -- fuzzed declarations ---------------------------------------------------------

VERIFY_REASONS = {
    "pass": {""},
    "fail": {
        "dataset-hash", "rank-mismatch", "certificate-inconclusive",
        "alpha-primitive", "n-mismatch", "k-exceeds-pmax", "subcone",
        "alpha-not-interior", "deep-point-outside-box", "word-mode",
        "mode-mismatch", "deep-point-in-obstacle", "deep-dist2",
        "power-collision", "bound-value",
    },
    "unverifiable": {"power-cap", "word-cap"},
}

_fractions = st.fractions(min_value=-1, max_value=2, max_denominator=12).map(
    lambda f: f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}")


@settings(max_examples=25, deadline=None)
@given(data=st.data(), which=st.sampled_from(["r1", "r2"]))
def test_verify_fuzzed_declarations(r1, r1_cert, r1_hash, r2, r2_cert, r2_hash,
                                    data, which):
    """Edited declared parameters give a named verdict or a ValidationError,
    never another exception."""
    track, cert, ds_hash = (r1, r1_cert, r1_hash) if which == "r1" else (r2, r2_cert, r2_hash)
    d = json.loads(emit_certificate(cert))
    box_top = 300 if which == "r1" else 60  # r2 words grow with the box squared
    edits = data.draw(st.fixed_dictionaries({}, optional={
        "p_max": st.integers(-2, 40),
        "cone_p_max": st.integers(-1, 20),
        "slope_cap": st.none() | _fractions,
        "safety": st.integers(-2, 4),
        "box_radius": st.integers(-3, box_top),
        "mirror": st.sampled_from([True, False, 0, "yes"]),
    }))
    d.update(edits)
    try:
        res = verify_certificate(parse_certificate(json.dumps(d)), track, ds_hash)
    except ValidationError:
        return
    assert res.reason in VERIFY_REASONS[res.status], res
