"""The bound-certificate engine.

For a primitive class alpha interior to a proper subcone of the reconstructed
fibered cone, the pipeline assembles the kernel-word obstacle polytopes (each
the exact support of its word's power; the cone sets only the subcone and the
word radius), finds an exact deep point y among them, determines the largest
power K whose translated support stays disjoint from every obstacle, and
emits the translation-length upper bound 2/(nK) in a short certificate: the
class, the declared parameters and the two search results, from which verify
re-derives everything else out of the dataset alone.  certify searches
only the obstacles whose box lies within a checked L-inf gap D of the box;
the others cannot change either result.  It enumerates only the words
within the radius R_e at which an obstacle can still reach that gap, and
verify every word within the word radius R_w, with no reach bound (see
certify).  Both refuse a word list before a word is built (word_power_bound).
A certificate also declares the periods certify's semiring walk found;
verify checks each on the path oracle's own per-edge hulls, never
searching, and its oracle then answers every later power in closed form,
so its dual cone reads as few powers as certify's (_period_fault).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import geometry
from .cones import (
    DualConeModel,
    EpsilonBound,
    FiberedConeModel,
    epsilon_of_subcone,
    subcone_models,
)
from .errors import BudgetError, PowerCapError, SubconeError, ValidationError
from .lattice import (
    BaseHull,
    FiberedClass,
    Obstacle,
    Obstacles,
    PerpLattice,
    Vec,
    deep_point,
)
from .trackmap import PERIOD_WINDOW, LiftedGraphMap, omega_of_word, oracle_period_fault

TOOL_VERSION = "0.1.0"
MAX_DOUBLINGS = 3  # times certify doubles a box radius that obstacles cover
POWER_CAP = 2_000  # the highest map power certify walks and verify checks
WORD_CAP = 500_000  # the largest closed-form word count enumerate_words accepts

def _check_margins(safety: int, kappa: int) -> None:
    """Reject a negative obstacle dilation or a box multiple below 1."""
    if safety < 0:
        raise ValidationError("safety must be nonnegative")
    if kappa < 1:
        raise ValidationError(f"kappa must be >= 1, got {kappa}")


def _ceil_root_multiple(kappa: int, n: int, r: int) -> int:
    """ceil(kappa * n^(1/r)) exactly, for r in (1, 2); at least 1 when r = 2."""
    if r == 1:
        return kappa * n
    return math.isqrt(max(kappa * kappa * n - 1, 0)) + 1


Word = tuple[Vec, int]  # a kernel word (x, y): its shift x and its power y


def decompose(alpha: FiberedClass, cone: FiberedConeModel) -> tuple[int, PerpLattice]:
    """Split an interior class into its return-power n and kernel lattice;
    perp_basis refuses a class that is not primitive."""
    verdict = cone.membership(alpha.vector)
    if verdict.status != "interior":
        raise ValidationError(
            f"class {alpha.vector} is {verdict.status} (margin {verdict.margin}); "
            "the pipeline needs an interior class"
        )
    return alpha.n, alpha.lattice


def word_radius(eps: EpsilonBound, box_radius: int, p_max: int, safety: int) -> int:
    """The word radius R_w: by the comparison in EpsilonBound, the obstacle of
    a word outside the box of radius R_w, dilated by ``safety``, is out of
    reach of every power up to p_max moved into the deep-point box.  It
    bounds what verify enumerates and searches; both sides refuse at it.
    certify enumerates the words within R_e <= R_w, where an obstacle can
    still reach D, and searches those within D (see certify), often a
    small share, since the radius rests on epsilon alone."""
    reach = box_radius + math.ceil(eps.rho * p_max) + eps.c_inf + 2 * safety
    return math.ceil(Fraction(reach + eps.c_inf + safety + 1) / eps.epsilon)


def _c1_range(L: PerpLattice, R: int, c0: int) -> range:
    """Rank 2: the c1 with |c0 e + c1 d| <= R; empty for some c0 if d > 2R."""
    (_, e, _), (_, d, _) = L.basis
    return range(-((R + c0 * e) // d), (R - c0 * e) // d + 1)


def word_power_bound(L: PerpLattice, R: int) -> int:
    """Refuse the words within radius R before any is built, or bound their
    |y|.  BudgetError if the product of ``2 R // d_i + 1`` over the diagonal
    of ``zeta_basis``, which bounds their number, is above WORD_CAP.  A word
    (x, y) has <x_alpha, x> + n y = 0, so |y| <= Y = (sum |x_alpha_i|) R // |n|.
    Past POWER_CAP, Y gives way to the largest |y|: (R // m) |t| in rank 1;
    in rank 2, y = c0 t0 + c1 t1 is largest at an end of c1's range, over
    c0 >= 0 as the words are closed under negation.  PowerCapError names it
    if it is above the cap too.  Both caps are read at call time."""
    total = math.prod(max(0, 2 * R // row[i] + 1) for i, row in enumerate(L.zeta_basis))
    if total > WORD_CAP:
        raise BudgetError(f"word enumeration bound {total} exceeds cap {WORD_CAP}")
    *x, n = L.alpha.vector
    top = sum(map(abs, x)) * R // abs(n)
    if top > POWER_CAP:
        if len(L.basis) == 1:
            ((m, t),) = L.basis
            top = R // m * abs(t)
        else:
            (g, _, t0), (_, _, t1) = L.basis
            top = 0
            for c0 in range(R // g + 1):
                c1s = _c1_range(L, R, c0)
                if c1s:
                    top = max(top, abs(c0 * t0 + c1s[0] * t1), abs(c0 * t0 + c1s[-1] * t1))
        check_power_cap([top], "kernel word power")
    return top


def enumerate_words(L: PerpLattice, R: int) -> list[Word]:
    """All kernel words (x, y) whose projection x lands in the centered box
    of radius R, unless word_power_bound(L, R) refuses them first.

    perp_basis writes the basis in closed form: rows (m, t) in rank 1 and
    (g, e, t0), (0, d, t1) in rank 2, so ``zeta_basis`` is upper triangular
    with a positive diagonal.  Coordinate i of a word's projection depends
    only on coefficients 0..i, and given those, coefficient i ranges over
    one exact interval: c0 over |c0 g| <= R, then c1 over
    |c0 e + c1 d| <= R (_c1_range).  Walking the nested intervals in
    ascending order yields exactly the qualifying words, in lexicographic
    coefficient order.  Negating c0 negates c1's interval, so word N-1-i is
    word i negated, the order Obstacles.symmetric reads.
    """
    word_power_bound(L, R)
    if len(L.basis) == 1:
        ((m, t),) = L.basis
        return [((c * m,), c * t) for c in range(-(R // m), R // m + 1)]
    (g, e, t0), (_, d, t1) = L.basis
    return [((c0 * g, c0 * e + c1 * d), c0 * t0 + c1 * t1)
            for c0 in range(-(R // g), R // g + 1) for c1 in _c1_range(L, R, c0)]


def check_power_cap(powers: Sequence[int], what: str) -> None:
    """Raise PowerCapError if a power is above POWER_CAP in absolute value;
    the cap is read at call time."""
    top = max(map(abs, powers))
    if top > POWER_CAP:
        raise PowerCapError(f"{what} {top} exceeds the power cap {POWER_CAP}")


def dilated_base(track: LiftedGraphMap, route: str, y: int, safety: int,
                 allow_mirror: bool) -> BaseHull:
    """The hull of omega_of_word(track, y, allow_mirror) on ``route``'s
    supports, dilated by ``safety``, with its box.  Memoized per map in
    ``track.derived`` under (route, "base", y, safety, allow_mirror); the
    ValidationError of a negative power with neither inverse data nor
    mirror is raised again on every call, never stored."""
    key = (route, "base", y, safety, allow_mirror)
    base = track.derived.get(key)
    if base is None:
        hull = omega_of_word(track, y, allow_mirror, route)
        base = track.derived[key] = BaseHull.of(geometry.dilate(hull, safety))
    return base


def build_obstacles(track: LiftedGraphMap, words: Sequence[Word], safety: int,
                    allow_mirror: bool, route: str = "semiring",
                    reach: Optional[tuple[int, int]] = None) -> list[Obstacle]:
    """The obstacles in word order, each a placed translate (base, x): the
    word's shift x and dilated_base of its power y on ``route``'s supports,
    looked up once per power in a call.  verify places every word within
    the word radius R_w on the oracle route.  certify, on the semiring
    route, gives its reach (R, D), and the same pass keeps only the
    translates whose exact box lies within L-inf gap D of the full box
    [-R, R]^r (see certify).  Every word's base is looked up, kept or not,
    so a negative power with neither inverse data nor mirror mode raises
    ValidationError with or without a reach.  A base is built once per
    map, route, power, safety and mirror flag and shared by every word,
    certificate and class that needs it, so no per-word hull is copied:
    the obstacle is base.hull + x.
    """
    far = None if reach is None else reach[0] + reach[1]
    bases: dict[int, BaseHull] = {}
    placed = []
    for x, y in words:
        base = bases.get(y)
        if base is None:
            base = bases[y] = dilated_base(track, route, y, safety, allow_mirror)
        if far is not None:
            a, b, c, d = base.box
            sx, sy = x if len(x) == 2 else (x[0], 0)
            if not (-far <= b + sx and a + sx <= far and -far <= d + sy and c + sy <= far):
                continue
        placed.append((base, x))
    return placed


def _box_reach(track: LiftedGraphMap, y: int, safety: int, allow_mirror: bool) -> int:
    """The largest absolute box coordinate of power y's dilated_base on the
    semiring route."""
    return max(map(abs, dilated_base(track, "semiring", y, safety, allow_mirror).box))


def _reach_radius(track: LiftedGraphMap, L: PerpLattice, R: int, D: int, R_w: int,
                  top: int, safety: int, allow_mirror: bool) -> int:
    """certify's enumeration radius R_e = min(R_w, R + D + A + |v|_inf), v
    the lattice period (none in rank 1) and A the larger box reach of the
    dilated bases of powers top and -top, top bounding every word's |y|.
    When supports nest on the route serving each sign (the map's for
    y >= 0; for y < 0 the inverse's or, in mirror mode without one, the
    map's reflected), every word power's base lies in the base of top or
    -top, so A bounds its box reach.  Otherwise R_w (see certify)."""
    inverse = track.inverse
    backward = inverse.nested_supports if inverse is not None else allow_mirror
    if not (track.nested_supports and backward):
        return R_w
    A = max(_box_reach(track, y, safety, allow_mirror) for y in (top, -top))
    return min(R_w, R + D + A + max(map(abs, L.period or (0,))))


def largest_missing_power(track: LiftedGraphMap, obstacles: Obstacles, point: Vec,
                          p_max: int, safety: int, allow_mirror: bool) -> int:
    """The largest K <= p_max whose dilated_base on the semiring route,
    moved to ``point``, misses every obstacle; 0 if none does.  With
    nested supports (LiftedGraphMap.nested_supports) every dilated body
    holds the lower powers' bodies, so a power that misses makes every
    lower one miss too: misses holds up to K and fails above, and bisection
    finds K in about log2(p_max) tests.  Otherwise powers are tested from
    p_max down."""
    seen = obstacles.seen_from(point)

    def misses(cand: int) -> bool:
        return seen.misses(dilated_base(track, "semiring", cand, safety, allow_mirror))

    if not track.nested_supports:
        return next((cand for cand in range(p_max, 0, -1) if misses(cand)), 0)
    lo, hi = 0, p_max  # misses(lo) holds unless lo = 0, and K <= hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if misses(mid) else (lo, mid - 1)
    return lo


@dataclass(frozen=True)
class BoundCertificate:
    """A bound claim: the class, the declared parameters, the results of
    certify's two searches (the deep point and K), and the periods (T, c, Q)
    its semiring walk found, of the map and, when inverse data serves the
    negative powers, of the inverse (see _declared_period).
    verify_certificate checks the periods on the path oracle and
    re-derives everything else from the dataset.  It never reads
    tool_version, diagnostics or assumptions: they are notes for a reader,
    parsed for their type only, and no verdict depends on them."""

    alpha: tuple[int, ...]
    n: int
    rank: int
    p_max: int
    cone_p_max: int  # truncation of the dual-cone reconstruction
    slope_cap: Fraction  # the subcone P: the slope box |alpha_i| <= slope_cap * n
    safety: int
    box_radius: int
    mirror: bool  # mirror mode allowed for negative powers
    deep_point: tuple[int, ...]
    deep_dist2: Fraction
    K: int
    bound: Fraction
    mode: str  # always certified: every obstacle is an exact support
    status: str  # ok | inconclusive
    dataset_hash: str
    period: tuple[int, ...]  # (T, c) and Q's vertices, flattened: the map's period, or ()
    inverse_period: tuple[int, ...]  # the same for the inverse map's data, or ()
    tool_version: str = TOOL_VERSION
    diagnostics: tuple[str, ...] = ()
    assumptions: tuple[str, ...] = (
        "curves-as-domains: gamma and gamma' are essential simple closed "
        "curves each contained in a single fundamental-domain copy",
    )


def _declared_period(track: Optional[LiftedGraphMap]) -> tuple[int, ...]:
    """The period (T, c, Q) of a map's semiring walk as (T, c) followed by
    Q's vertices, walking to PERIOD_WINDOW first if it is not known yet; ()
    for no map or a map with no period in the window."""
    if track is None:
        return ()
    memo = track.semiring
    if memo.period is None:
        memo(PERIOD_WINDOW)
    if memo.period is None:
        return ()
    T, c, Q = memo.period
    return (T, c, *(a for v in Q for a in v))


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
) -> BoundCertificate:
    """Run the full bound pipeline for one class.  ValidationError, before
    any word, if a given box_radius is below 1.  PowerCapError if p_max,
    the cone's p_max or a kernel word's power is above POWER_CAP, and
    BudgetError if the words are too many to enumerate, both read at the
    word radius before any support is walked.  The obstacle bases and the
    body of every K tested are dilated_base's, memoized per map on the
    semiring route, so a sweep builds each once; so are epsilon, per value
    of (dual, P) (_subcone_epsilon), and each K test's sum of a body and a
    reflected base, per pair (BaseHull.sums).

    Only the obstacles whose exact box lies within L-inf gap D of the full
    box [-R, R]^r enter the two searches; dropping the others changes
    neither result.
    - Deep point: a dropped obstacle is at distance > D from every point of
      the box.  If the deep point over the kept ones has d* <= D^2, every
      point of the box lies within sqrt(d*) <= D of a kept obstacle, nearer
      than any dropped one, so its squared distance is the same over the
      kept obstacles as over all of them: the same maximum, attained at the
      same points, with the same lexicographically smallest one.  Measured
      from the full box, the kept set of a point-symmetric word set is
      point-symmetric too, so the half-box search still applies.  The kept
      set is indexed with the lattice's period and the enumeration radius
      R_e, so the period-strip search applies whenever each kept
      obstacle's partner was placed (Obstacles.strip); a placed partner
      left out lies farther than D, as deep_point's strip proof needs.
    - K: a body moved to a point of the box has its box within L-inf reach
      of the point, so it cannot meet a box at gap > D if D is at least
      that reach.  D is at least the box reach of the dilated body of every
      power up to p_max: power p_max's alone when supports nest
      (LiftedGraphMap.nested_supports), the largest of them all otherwise.
    D starts at the larger of that reach and isqrt of the lattice's squared
    systole, a guess at sqrt(d*) that is checked, never trusted: while
    d* > D^2, D widens to ceil(sqrt(d*)) and the search runs again.  Over
    the full box one redo suffices: the wider set's deep distance is at
    most the narrower set's d*, so it lies within the new D.  The strip
    search reports a distance above D^2 exactly when the full box's is
    (see deep_point), so the redo still fires when it must, and it stops
    only at an exact result; one redo sufficed on every class measured.
    The loop ends: a redo that keeps no new obstacle repeats its search,
    whose distance then lies within the widened D.

    The words are enumerated to R_e = min(R_w, R + D + A + |v|_inf), not
    the word radius R_w that verify enumerates to: v is the lattice
    period (none in rank 1), and A bounds the box reach of every word
    power's dilated base, read at the powers +-Y, Y the bound on |y| that
    word_power_bound returns at R_w, when the supports serving each sign
    nest (see _reach_radius); otherwise R_e = R_w.  Each redo that widens D
    widens R_e with it and enumerates again.  The result is byte-identical to
    enumerating to R_w:
    - A word with |x|_inf > R + D + A has its obstacle box inside
      x + [-A, A]^r, at an L-inf gap greater than D from [-R, R]^r, so
      build_obstacles' reach test drops it.
    - enumerate_words walks the same nested intervals at any radius, so
      the kept obstacles are the same, in the same lexicographic order,
      and Obstacles.symmetric is unchanged.
    - A kept obstacle (base, x) of word (x, y) has the partner word
      (x - v, y), as (v, 0) lies in the kernel, with
      |x - v|_inf <= R + D + A + |v|_inf.  Enumerating to any radius, the
      partner is placed exactly when |x - v|_inf is within it, from the
      same memoized base of power y.  So if the partner is a word within
      R_w at all, it is within R_e too, and Obstacles.strip, which checks
      |x - v|_inf <= R_e for every kept obstacle, gives the verdict it
      gives enumerating to R_w.
    Refusals read R_w before any support is walked or word built (see
    word_power_bound); at R_e <= R_w, where enumerate_words reads them
    again, they cannot fire.  D reads powers 1..p_max and A only powers a
    route serves, and no power of a map is empty, as no edge image is; so
    neither raises, and the ValidationError of a negative power without
    inverse data or mirror mode comes from build_obstacles at R_e = R_w,
    in the same cases as over every word.
    """
    _check_margins(safety, kappa)
    if box_radius is not None and box_radius < 1:
        raise ValidationError(f"box radius must be >= 1, got {box_radius}")
    check_power_cap((p_max, dual.p_max), "declared power")
    if P.membership(alpha.vector).status != "interior":
        raise ValidationError(
            f"class {alpha.vector} is not interior to the chosen subcone"
        )
    n, L = decompose(alpha, cone)
    eps = _subcone_epsilon(track, P, dual)
    r = track.rank
    R = box_radius if box_radius is not None else _ceil_root_multiple(kappa, n, r)

    diagnostics: list[str] = []
    for attempt in range(MAX_DOUBLINGS + 1):
        if attempt:
            R *= 2
        R_w = word_radius(eps, R, p_max, safety)
        top = word_power_bound(L, R_w)
        if not attempt:
            # The box reach of every body the K search may test (power
            # p_max's holds the others' when supports nest), and a guess.
            bodies = (p_max,) if track.nested_supports else range(1, p_max + 1)
            D = max([math.isqrt(L.shortest_vector.length2)]
                    + [_box_reach(track, q, safety, allow_mirror) for q in bodies])
        while True:
            R_e = _reach_radius(track, L, R, D, R_w, top, safety, allow_mirror)
            kept = build_obstacles(track, enumerate_words(L, R_e), safety, allow_mirror,
                                   reach=(R, D))
            obstacles = Obstacles(kept, L.period, R_e)
            dp = deep_point(obstacles, R, r)
            if dp.dist2 <= D * D:
                break
            D = math.isqrt(math.ceil(dp.dist2) - 1) + 1  # ceil(sqrt(d*))
        if dp.dist2 > 0:
            break
        diagnostics.append(f"box radius {R} fully covered by obstacles"
                           + ("; doubling" if attempt < MAX_DOUBLINGS else ""))

    K = 0
    if dp.dist2 > 0:
        K = largest_missing_power(track, obstacles, dp.point, p_max, safety, allow_mirror)
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
        p_max=p_max,
        cone_p_max=dual.p_max,
        slope_cap=P.slope_cap,
        safety=safety,
        box_radius=R,
        mirror=allow_mirror,
        deep_point=dp.point,
        deep_dist2=dp.dist2,
        K=K,
        bound=bound,
        mode="certified",
        status=status,
        dataset_hash=dataset_hash,
        period=_declared_period(track),
        inverse_period=_declared_period(track.inverse),
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class VerifyResult:
    status: str  # pass | fail | unverifiable
    reason: str = ""  # the failing predicate
    witness: str = ""  # for period: the map and what fails on it


def _period_fault(cert: BoundCertificate, track: LiftedGraphMap) -> str:
    """What fails first in the certificate's declared periods, naming the
    map ("map" or "inverse"), or '' if each holds on the path oracle (see
    trackmap.oracle_period_fault, which hands it to the map's oracle memo).
    A declaration must be (T, c) and Q's vertices, T >= 0, c >= 1,
    T + c <= POWER_CAP, Q nonempty in convex_hull's form, and the inverse's
    needs inverse data.  One that holds is memoized per map in
    ``track.derived`` under ("oracle", "period", declaration); a failure is
    never stored."""
    r = track.rank
    for which, declared, m in (("map", cert.period, track),
                               ("inverse", cert.inverse_period, track.inverse)):
        if not declared:
            continue
        if m is None:
            return f"{which}: a period declared without inverse data"
        key = ("oracle", "period", declared)
        if key in m.derived:
            continue
        if len(declared) < 2 + r or (len(declared) - 2) % r:
            return f"{which}: {len(declared)} entries, not T, c and vertices of rank {r}"
        T, c, *flat = declared
        Q = [tuple(flat[i:i + r]) for i in range(0, len(flat), r)]
        if T < 0 or c < 1 or T + c > POWER_CAP or Q != geometry.convex_hull(Q):
            return f"{which}: T = {T}, c = {c}, Q = {Q} is not a period's form"
        edge = oracle_period_fault(m, (T, c, tuple(Q)))
        if edge:
            return f"{which}: edge {edge!r} at power {T + c} is not its hull at {T} plus Q"
        m.derived[key] = True
    return ""


def _subcone_epsilon(track: LiftedGraphMap, P: FiberedConeModel,
                     dual: DualConeModel) -> EpsilonBound:
    """epsilon_of_subcone(P, dual), memoized per map in ``track.derived``
    under ("semiring", "epsilon", dual, P), keyed by the two models' values,
    so a sweep that certifies one class per call derives it once.  A
    SubconeError is raised again on every call, never stored."""
    key = ("semiring", "epsilon", dual, P)
    eps = track.derived.get(key)
    if eps is None:
        eps = track.derived[key] = epsilon_of_subcone(P, dual)
    return eps


def _verify_models(track: LiftedGraphMap, cone_p_max: int,
                   slope_cap: Fraction) -> tuple[DualConeModel, FiberedConeModel,
                                                 EpsilonBound]:
    """(dual, P, epsilon) on path-oracle supports, memoized per map in
    ``track.derived`` under ("oracle", "subcone", cone_p_max, slope_cap).
    A SubconeError is raised again on every call, never stored."""
    key = ("oracle", "subcone", cone_p_max, slope_cap)
    models = track.derived.get(key)
    if models is None:
        dual, _, P = subcone_models(track, cone_p_max, slope_cap, "oracle")
        models = track.derived[key] = (dual, P, epsilon_of_subcone(P, dual))
    return models


def verify_certificate(
    cert: BoundCertificate,
    track: LiftedGraphMap,
    dataset_hash: str,
) -> VerifyResult:
    """Re-derive a certificate's claim from the dataset and its declared parameters.

    Reruns certify's derivation (dual cone at ``cone_p_max``, subcone,
    epsilon, word radius, words, and obstacles by build_obstacles with the
    declared ``mirror``: per-power hulls placed by word shift) on
    path-oracle supports, never the semiring route certify used.  Each
    map's oracle memo walks it once per process: up to T + c when the
    certificate declares a period (T, c, Q), which is checked on the
    oracle's own per-edge hulls, never searched (_period_fault), and which
    the memo then takes, answering every later power in closed form; up to
    the highest power any certificate needs otherwise.  A checked period is
    a property of the map, so taking it changes how the memo computes a
    power, never what it returns: the memo depends on the map alone.  What
    verify derives is memoized per map on the oracle route, in
    ``track.derived``: (dual, P, epsilon) under ("oracle", "subcone",
    cone_p_max, slope_cap), the dilated base of every word power and of K
    under ("oracle", "base", y, safety, mirror), and each declared period
    that holds under ("oracle", "period", declaration).  Each key holds
    every value its entry depends on, and a failing period, a SubconeError
    or a ValidationError is found again on every call, never stored, so
    one certificate cannot sway another's verdict.  The searches are not rerun, their results are checked: the
    deep point lies in the box, outside every obstacle (scored nearest box
    first), at exactly the claimed squared distance, and the K-th power
    moved there misses every obstacle within its box reach.  Returns the
    first failing predicate:
    fail dataset-hash, rank-mismatch, certificate-inconclusive, mode-mismatch
    (a mode other than certified), alpha-primitive, n-mismatch,
    k-exceeds-pmax, period (a declared period that does not hold, with a
    witness naming the map and, if one differs, the first edge), subcone,
    alpha-not-interior, deep-point-outside-box, word-mode (a negative
    power with neither inverse data nor declared mirror),
    deep-point-in-obstacle, deep-dist2, power-collision or bound-value; unverifiable power-cap (a declared power, or a word's
    power, above POWER_CAP, caught before any word is built or walked) or
    word-cap (more than WORD_CAP words to enumerate).  A negative safety or
    a cone_p_max below 1 raises ValidationError.
    """
    if cert.dataset_hash != dataset_hash:
        return VerifyResult("fail", "dataset-hash")
    r = track.rank
    if cert.rank != r or len(cert.alpha) != r + 1 or len(cert.deep_point) != r:
        return VerifyResult("fail", "rank-mismatch")
    if cert.status != "ok":
        return VerifyResult("fail", "certificate-inconclusive")
    if cert.mode != "certified":
        return VerifyResult("fail", "mode-mismatch")
    if max(cert.p_max, cert.cone_p_max, cert.K) > POWER_CAP:
        return VerifyResult("unverifiable", "power-cap")
    if cert.safety < 0:
        raise ValidationError("certificate safety must be nonnegative")
    alpha = FiberedClass(cert.alpha)
    if not alpha.is_primitive():
        return VerifyResult("fail", "alpha-primitive")
    if alpha.n != cert.n:
        return VerifyResult("fail", "n-mismatch")
    if not (1 <= cert.K <= cert.p_max):
        return VerifyResult("fail", "k-exceeds-pmax")
    fault = _period_fault(cert, track)
    if fault:
        return VerifyResult("fail", "period", fault)

    try:
        _, P, eps = _verify_models(track, cert.cone_p_max, cert.slope_cap)
    except SubconeError:
        return VerifyResult("fail", "subcone")
    if P.membership(alpha.vector).status != "interior":
        return VerifyResult("fail", "alpha-not-interior")
    if max(abs(c) for c in cert.deep_point) > cert.box_radius:
        return VerifyResult("fail", "deep-point-outside-box")
    try:
        words = enumerate_words(alpha.lattice, word_radius(eps, cert.box_radius,
                                                           cert.p_max, cert.safety))
    except PowerCapError:
        return VerifyResult("unverifiable", "power-cap")
    except BudgetError:
        return VerifyResult("unverifiable", "word-cap")
    if min(y for _, y in words) < 0 and track.inverse is None and not cert.mirror:
        return VerifyResult("fail", "word-mode")
    obstacles = Obstacles(build_obstacles(track, words, cert.safety, cert.mirror, "oracle"))
    seen = obstacles.seen_from(cert.deep_point)
    dist2 = seen.dist2()
    if dist2 <= 0:
        return VerifyResult("fail", "deep-point-in-obstacle")
    if dist2 != cert.deep_dist2:
        return VerifyResult("fail", "deep-dist2")
    if not seen.misses(dilated_base(track, "oracle", cert.K, cert.safety, cert.mirror)):
        return VerifyResult("fail", "power-collision")
    if cert.bound != Fraction(2, cert.n * cert.K):
        return VerifyResult("fail", "bound-value")
    return VerifyResult("pass")


def normalized_bound(bound: Fraction, n: int, r: int) -> str:
    """bound * n^(1 + 1/r), rendered to 12 significant digits at 30-digit
    precision.  In rank 2 n^(1/2) is Decimal.sqrt, correctly rounded; where
    it is exact, it is padded to the 30 digits the fractional power n^0.5
    gave, so the trailing zeros print as they did."""
    if bound == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 30
        if r == 1:
            root = +Decimal(n)
        else:
            root = Decimal(n).sqrt()
            root = root.quantize(Decimal(1).scaleb(root.adjusted() + 1 - ctx.prec))
        val = Decimal(bound.numerator) / Decimal(bound.denominator) * Decimal(n) * root
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
    _check_margins(safety, kappa)

    def run_one(raw) -> SweepRow:
        alpha = FiberedClass(tuple(int(v) for v in raw))
        if not alpha.is_primitive():
            alpha = alpha.primitive_reduction()
        verdict = P.membership(alpha.vector)
        if verdict.status != "interior":
            return SweepRow(alpha.vector, alpha.n, 0, 0, Fraction(0), 0,
                            Fraction(0), "0", f"skipped-{verdict.status}")
        L = alpha.lattice
        cert = certify(
            track, dual, cone, P, alpha, p_max, dataset_hash,
            safety=safety, kappa=kappa, allow_mirror=allow_mirror,
        )
        norm = normalized_bound(cert.bound, alpha.n, track.rank)
        return SweepRow(
            alpha.vector, alpha.n, L.covol2, L.shortest_vector.length2, cert.deep_dist2,
            cert.K, cert.bound, norm, cert.status, cert,
        )

    return [run_one(c) for c in classes]
