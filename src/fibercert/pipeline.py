"""The bound-certificate engine.

For a primitive class alpha interior to a proper subcone of the reconstructed
fibered cone, the pipeline assembles the kernel-word obstacle polytopes,
finds an exact deep point y among them, determines the largest power K whose
translated support stays disjoint from every obstacle, and emits the
translation-length upper bound 2/(nK) as a self-contained certificate that an
independent re-check can replay from the dataset alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import geometry
from .cones import DualConeModel, FiberedConeModel, epsilon_of_subcone
from .errors import BudgetError, SubconeError, ValidationError
from .lattice import FiberedClass, PerpLattice, deep_point, perp_basis, systole
from .trackmap import (
    LiftedGraphMap,
    SupportPolytope,
    omega_of_word,
    oracle_iterate,
    support_of_power,
)

TOOL_VERSION = "0.1.0"


def _ceil_root_multiple(kappa: int, n: int, r: int) -> int:
    """ceil(kappa * n^(1/r)) exactly, for r in (1, 2); at least 1 when r = 2."""
    if r == 1:
        return kappa * n
    return math.isqrt(max(kappa * kappa * n - 1, 0)) + 1


@dataclass(frozen=True)
class GammaWord:
    """A kernel word: coefficients over the perp basis and its (x, y) split."""

    coeffs: tuple[int, ...]
    x: tuple[int, ...]
    y: int
    mode: str = "exact-forward"


def decompose(
    alpha: FiberedClass, track: LiftedGraphMap, cone: FiberedConeModel
) -> tuple[int, PerpLattice]:
    """Split a class into its return-power n and kernel lattice."""
    if not alpha.is_primitive():
        raise ValidationError(
            "class is not primitive: divide by the gcd of its entries first"
        )
    verdict = cone.membership(alpha.vector)
    if verdict.status != "interior":
        raise ValidationError(
            f"class {alpha.vector} is {verdict.status} (margin {verdict.margin}); "
            "the pipeline needs an interior class"
        )
    if alpha.n < 1:
        raise ValidationError("class must have positive last coordinate")
    return alpha.n, perp_basis(alpha)


def enumerate_words(L: PerpLattice, R_w: int, word_cap: int = 500_000) -> list[GammaWord]:
    """All kernel words whose projection lands in the centered box of radius R_w.

    perp_basis returns a row Hermite normal form whose projection is
    nonsingular, so ``zeta_basis`` is upper triangular with a positive
    diagonal: coordinate i of a word's projection depends only on
    coefficients 0..i, and given those, coefficient i ranges over one exact
    interval.  Walking the nested intervals in ascending order yields exactly
    the qualifying words, in lexicographic coefficient order.  The product of
    ``2 R_w // d_i + 1`` over the diagonal bounds the number of words; a bound
    above ``word_cap`` raises BudgetError before any word is built.
    """
    zeta = L.zeta_basis
    diag = [row[i] for i, row in enumerate(zeta)]
    total = math.prod(max(0, 2 * R_w // d + 1) for d in diag)
    if total > word_cap:
        raise BudgetError(f"word enumeration bound {total} exceeds cap {word_cap}")

    def interval(prefix: tuple[int, ...], i: int) -> range:
        s = sum(c * zeta[j][i] for j, c in enumerate(prefix))
        return range(-((R_w + s) // diag[i]), (R_w - s) // diag[i] + 1)

    coeffs: list[tuple[int, ...]] = [()]
    for i in range(len(diag)):
        coeffs = [pre + (c,) for pre in coeffs for c in interval(pre, i)]
    words = []
    for cs in coeffs:
        vec = L.word_vector(cs)
        words.append(GammaWord(cs, vec[:-1], vec[-1]))
    return words


@dataclass(frozen=True)
class WordObstacle:
    word: GammaWord
    hull: tuple  # dilated obstacle hull vertices


@dataclass(frozen=True)
class BoundCertificate:
    alpha: tuple[int, ...]
    n: int
    rank: int
    mu: Fraction
    slope_cap: Optional[Fraction]
    p_max: int
    safety: int
    epsilon: Fraction
    box_radius: int
    word_radius: int
    words: tuple[GammaWord, ...]
    obstacle_hulls: tuple[tuple, ...]
    deep_point: tuple[int, ...]
    deep_dist2: Fraction
    K: int
    bound: Fraction
    mode: str  # certified | asymptotic
    status: str  # ok | inconclusive
    dataset_hash: str
    tool_version: str = TOOL_VERSION
    diagnostics: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = (
        "curves-as-domains: gamma and gamma' are essential simple closed "
        "curves each contained in a single fundamental-domain copy",
    )


def _build_obstacles(
    track: LiftedGraphMap,
    words: Sequence[GammaWord],
    p_max: int,
    safety: int,
    allow_mirror: bool,
    dual: Optional[DualConeModel],
) -> tuple[list[GammaWord], list[tuple]]:
    """Dilated obstacle hulls, one per word.

    The dilated base hull is computed once per distinct power and translated
    per word (translation commutes with hulls and dilation).
    """
    r = track.rank
    zero = (0,) * r
    base_cache: dict[int, tuple[str, tuple]] = {}
    tagged = []
    hulls = []
    for w in words:
        if w.y not in base_cache:
            if abs(w.y) <= p_max:
                supp = omega_of_word(track, zero, w.y, allow_mirror=allow_mirror)
                mode, hull = supp.mode, list(supp.hull)
            else:
                if dual is None:
                    raise ValidationError(
                        f"word power {w.y} exceeds exact cap {p_max} and no "
                        "cone model is available for the asymptotic fallback"
                    )
                verts = dual.slice_vertices(abs(w.y))
                pts = geometry.negate(verts) if w.y < 0 else verts
                mode, hull = "cone-approx", geometry.convex_hull(pts, r)
            base_cache[w.y] = (mode, tuple(geometry.dilate(hull, safety, r)))
        mode, base = base_cache[w.y]
        tagged.append(replace(w, mode=mode))
        hulls.append(tuple(tuple(q) for q in geometry.translate(base, w.x)))
    return tagged, hulls


def _bbox(hull: Sequence[tuple]) -> tuple[tuple, tuple]:
    """The (low, high) corners of the bounding box of a vertex list."""
    return tuple(map(min, zip(*hull))), tuple(map(max, zip(*hull)))


def _boxes_meet(a: tuple[tuple, tuple], b: tuple[tuple, tuple]) -> bool:
    """Whether two closed bounding boxes from _bbox intersect."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    return all(p <= s and r <= q for p, q, r, s in zip(a_lo, a_hi, b_lo, b_hi))


def certify(
    track: LiftedGraphMap,
    dual: DualConeModel,
    cone: FiberedConeModel,
    P: FiberedConeModel,
    alpha: FiberedClass,
    p_max: int,
    dataset_hash: str,
    safety: int = 1,
    kappa: int = 4,
    allow_mirror: bool = False,
    box_radius: Optional[int] = None,
    max_doublings: int = 3,
) -> BoundCertificate:
    """Run the full bound pipeline for one class."""
    if not P.is_proper:
        raise SubconeError(
            "certification needs a proper subcone (mu > 0 or a slope cap)"
        )
    if P.membership(alpha.vector).status != "interior":
        raise ValidationError(
            f"class {alpha.vector} is not interior to the chosen subcone"
        )
    n, L = decompose(alpha, track, cone)
    eps = epsilon_of_subcone(P, dual)
    r = track.rank
    R = box_radius if box_radius is not None else _ceil_root_multiple(kappa, n, r)

    diagnostics: list[str] = []
    for attempt in range(max_doublings + 1):
        reach = R + math.ceil(eps.rho * p_max) + eps.c_inf + 2 * safety
        R_w = math.ceil(Fraction(reach + eps.c_inf + safety + 1) / eps.epsilon)
        words = enumerate_words(L, R_w)
        tagged, hulls = _build_obstacles(track, words, p_max, safety, allow_mirror, dual)
        dp = deep_point(hulls, R, r)
        if dp.dist2 > 0:
            break
        diagnostics.append(f"box radius {R} fully covered by obstacles; doubling")
        R *= 2
    mode = "asymptotic" if any(w.mode == "cone-approx" for w in tagged) else "certified"

    K = 0
    if dp.dist2 > 0:
        # Hulls with disjoint bounding boxes are disjoint, so only obstacles
        # whose box meets the moved body's box need the exact test.
        boxes = [_bbox(h) for h in hulls]
        for cand in range(p_max, -1, -1):
            body = support_of_power(track, cand)
            moved = geometry.translate(body.hull, dp.point)
            moved = geometry.dilate(moved, safety, r)
            box = _bbox(moved)
            if all(geometry.hulls_disjoint(moved, h, r)
                   for h, h_box in zip(hulls, boxes) if _boxes_meet(box, h_box)):
                K = cand
                break
    status = "ok" if K >= 1 else "inconclusive"
    if K == 0:
        diagnostics.append(
            "no positive disjoint power found: enlarge the box radius or p_max"
        )
    bound = Fraction(2, n * K) if K >= 1 else Fraction(0)
    return BoundCertificate(
        alpha=alpha.vector,
        n=n,
        rank=r,
        mu=Fraction(P.mu),
        slope_cap=Fraction(P.slope_cap) if P.slope_cap is not None else None,
        p_max=p_max,
        safety=safety,
        epsilon=eps.epsilon,
        box_radius=R,
        word_radius=R_w,
        words=tuple(tagged),
        obstacle_hulls=tuple(tuple(tuple(v) for v in h) for h in hulls),
        deep_point=dp.point,
        deep_dist2=dp.dist2,
        K=K,
        bound=bound,
        mode=mode,
        status=status,
        dataset_hash=dataset_hash,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class VerifyResult:
    status: str  # pass | fail | unverifiable
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == "pass"


def verify_certificate(
    cert: BoundCertificate,
    track: LiftedGraphMap,
    dataset_hash: str,
    power_cap: int = 2_000,
) -> VerifyResult:
    """Independently re-check every predicate of a certificate.

    Supports are recomputed from scratch by the path oracle, never read from
    the semiring route that certification used; all comparisons are exact.
    A certificate whose p_max or K exceeds ``power_cap`` is unverifiable.
    """
    if cert.dataset_hash != dataset_hash:
        return VerifyResult("fail", "dataset-hash")
    r = track.rank
    if cert.rank != r or len(cert.alpha) != r + 1 or len(cert.deep_point) != r:
        return VerifyResult("fail", "rank-mismatch")
    if cert.status != "ok":
        return VerifyResult("fail", "certificate-inconclusive")
    if cert.p_max > power_cap or cert.K > power_cap:
        return VerifyResult("unverifiable", "power-cap")
    alpha = FiberedClass(cert.alpha)
    if not alpha.is_primitive():
        return VerifyResult("fail", "alpha-primitive")
    if alpha.n != cert.n:
        return VerifyResult("fail", "n-mismatch")
    L = perp_basis(alpha)
    for w in cert.words:
        vec = w.x + (w.y,)
        if sum(a * b for a, b in zip(vec, cert.alpha)) != 0:
            return VerifyResult("fail", "alpha-perp")
    expected = enumerate_words(L, cert.word_radius)
    have = {w.coeffs for w in cert.words}
    for w in expected:
        if w.coeffs not in have:
            return VerifyResult("fail", "word-list-incomplete")
    dual = None
    if any(abs(w.y) > cert.p_max for w in cert.words):
        from .cones import estimate_dual_cone

        dual = estimate_dual_cone(track, cert.p_max)
    memo: dict[tuple[bool, int], SupportPolytope] = {}

    def fresh(p: int, inverse: bool = False) -> SupportPolytope:
        if (inverse, p) not in memo:
            source = track.inverse if inverse else track
            if source is None:
                raise ValidationError("certificate used inverse data the dataset lacks")
            memo[(inverse, p)] = oracle_iterate(source, p)
        return memo[(inverse, p)]

    hulls = []
    for w in cert.words:
        if abs(w.y) > cert.p_max:
            verts = dual.slice_vertices(abs(w.y))
            pts = geometry.negate(verts) if w.y < 0 else verts
            supp = SupportPolytope.from_points(
                track.rank, w.y, geometry.translate(pts, w.x), "cone-approx"
            )
        elif w.y >= 0:
            supp = fresh(w.y).translate(w.x, "exact-forward")
        elif w.mode == "inverse-data":
            supp = fresh(-w.y, inverse=True).translate(w.x, "inverse-data")
        else:
            supp = fresh(-w.y).mirror().translate(w.x, "mirror")
        hulls.append(geometry.dilate(supp.hull, cert.safety, r))
    for h in hulls:
        if geometry.point_hull_dist2(cert.deep_point, h, r) <= 0:
            return VerifyResult("fail", "deep-point-in-obstacle")
    if not (1 <= cert.K <= cert.p_max):
        return VerifyResult("fail", "k-exceeds-pmax")
    body = fresh(cert.K)
    moved = geometry.dilate(geometry.translate(body.hull, cert.deep_point), cert.safety, r)
    for h in hulls:
        if not geometry.hulls_disjoint(moved, h, r):
            return VerifyResult("fail", "power-collision")
    if cert.bound != Fraction(2, cert.n * cert.K):
        return VerifyResult("fail", "bound-value")
    return VerifyResult("pass")


def normalized_bound(bound: Fraction, n: int, r: int) -> str:
    """bound * n^(1 + 1/r), rendered to 12 significant digits."""
    if bound == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 30
        val = (
            Decimal(bound.numerator)
            / Decimal(bound.denominator)
            * Decimal(n)
            * Decimal(n) ** (Decimal(1) / Decimal(r))
        )
        return format(val, ".12g")


@dataclass(frozen=True)
class SweepRow:
    alpha: tuple[int, ...]
    n: int
    covol2: int
    systole2: int
    deep_dist2: Fraction
    K: int
    bound: Fraction
    normalized: str
    k_truncated: bool
    status: str
    certificate: Optional[BoundCertificate] = None


def sweep(
    track: LiftedGraphMap,
    dual: DualConeModel,
    cone: FiberedConeModel,
    P: FiberedConeModel,
    classes: Sequence[Sequence[int]],
    p_max: int,
    dataset_hash: str,
    safety: int = 1,
    kappa: int = 4,
    allow_mirror: bool = False,
) -> list[SweepRow]:
    """Certify a sequence of classes in order; exterior classes are flagged and skipped."""

    def run_one(raw) -> SweepRow:
        alpha = FiberedClass(tuple(int(v) for v in raw))
        if not alpha.is_primitive():
            alpha = alpha.primitive_reduction()
        verdict = P.membership(alpha.vector)
        if verdict.status != "interior":
            return SweepRow(alpha.vector, alpha.n, 0, 0, Fraction(0), 0,
                            Fraction(0), "0", False, f"skipped-{verdict.status}")
        L = perp_basis(alpha)
        cert = certify(
            track, dual, cone, P, alpha, p_max, dataset_hash,
            safety=safety, kappa=kappa, allow_mirror=allow_mirror,
        )
        sv = systole(L)
        status = "ok" if cert.status == "ok" else "inconclusive"
        norm = normalized_bound(cert.bound, alpha.n, track.rank) if cert.K else "0"
        return SweepRow(
            alpha.vector, alpha.n, L.covol2, sv.length2, cert.deep_dist2,
            cert.K, cert.bound, norm, cert.K >= cert.p_max, status, cert,
        )

    return [run_one(c) for c in classes]
