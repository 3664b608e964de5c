"""Lifted train-track maps on Z^r covers and the hulls of their supports.

A map is given combinatorially: a finite graph with a Z^r voltage on every
edge (the edge copy (e, s) runs from (src(e), s) to (dst(e), s + w(e))),
a vertex image with a deck shift per vertex, and for every edge the image
edge-path as (edge, shift, orientation) steps.  The occupied fundamental
domain of a step is its shift.  A power's support is read only as its
hull, by two exact routes, each holding one hull per column of the powers
of the transition matrix M: the semiring route reads supp M from the
Laurent matrix and, once its columns repeat up to a checked period,
answers any later power in closed form, one Minkowski sum (certify); the
path oracle reads supp M from edge_images and walks every power (verify).
The occupied shifts themselves are never walked.  A kernel word's support
is the hull of its power's support, which the obstacle index places at the
word's integer shift.  Track-level and surface-level domains may differ by
a unit; mirror mode assumes, unchecked, that this discrepancy does not
change a negative power's support.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import count
from operator import add, or_
from typing import Generator, Iterable, Iterator, Optional, Sequence

from . import geometry
from .errors import CapabilityError, ValidationError
from .laurent import LaurentMatrix, LaurentPoly

Shift = tuple[int, ...]
Step = tuple[str, Shift, int]  # (edge, deck shift, orientation +1/-1)
Period = tuple[int, int, tuple[Shift, ...]]  # (T, c, Q): H_p = H_{p-c} ⊕ Q for p >= T + c

# The last power at which the semiring walk looks for a period.  Of 400
# random entry-support matrices (size <= 4, shifts in [-3, 3]^rank), each
# period found within 80 powers was found by power 12; searching to 16 slows
# the walk of a matrix with no period to power 80 by about 5 %.
PERIOD_WINDOW = 16


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    voltage: Shift


@dataclass(frozen=True)
class LiftedGraphMap:
    """A train-track self-map lifted to the Z^rank cover, validated on construction."""

    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    vertex_images: dict[str, tuple[str, Shift]]
    edge_images: dict[str, tuple[Step, ...]]
    inverse: Optional["LiftedGraphMap"] = None
    metadata: dict = field(default_factory=dict)
    euler_functional: Optional[tuple[int, ...]] = None

    # -- validation ---------------------------------------------------------

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        if self.rank > 2:
            raise CapabilityError(f"exact hulls are implemented for rank <= 2, got {self.rank}")
        edges = {e.name: e for e in self.edges}
        if not edges:
            raise ValidationError("a map needs at least one edge")
        if len(edges) != len(self.edges):
            raise ValidationError("duplicate edge names")
        for what, images, known in (("vertex", self.vertex_images, self.vertices),
                                    ("edge", self.edge_images, edges)):
            unknown = sorted(images.keys() - set(known))
            if unknown:
                raise ValidationError(f"{what} image of unknown {what} {unknown[0]!r}")
        for e in self.edges:
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise ValidationError(f"edge {e.name!r} has unknown endpoint")
            if len(e.voltage) != self.rank:
                raise ValidationError(f"edge {e.name!r} voltage has wrong length")
        for v in self.vertices:
            if v not in self.vertex_images:
                raise ValidationError(f"vertex {v!r} has no image")
            w, shift = self.vertex_images[v]
            if w not in self.vertices or len(shift) != self.rank:
                raise ValidationError(f"vertex image of {v!r} is malformed")
        for e in self.edges:
            path = self.edge_images.get(e.name)
            if not path:
                raise ValidationError(f"edge {e.name!r} has no image path")
            iv, iv_shift = self.vertex_images[e.src]
            wv, wv_shift = self.vertex_images[e.dst]
            expected_end = (wv, tuple(map(add, wv_shift, e.voltage)))
            cursor = (iv, tuple(iv_shift))
            for idx, (name, shift, orient) in enumerate(path):
                if orient not in (1, -1):
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx}: orientation must be +1/-1"
                    )
                if len(shift) != self.rank:
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx}: shift has wrong length"
                    )
                if name not in edges:
                    raise ValidationError(f"unknown edge {name!r}")
                f = edges[name]
                start, end = (f.src, tuple(shift)), (f.dst, tuple(map(add, shift, f.voltage)))
                if orient == -1:
                    start, end = end, start
                if start != cursor:
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx} ({name!r}): path breaks at {cursor}"
                    )
                cursor = end
            if cursor != expected_end:
                raise ValidationError(
                    f"edge {e.name!r} image path ends at {cursor}, expected {expected_end}"
                )

    # -- derived data, each computed on first read -----------------------------

    @cached_property
    def k0(self) -> Optional[int]:
        """First power making the integer incidence matrix strictly positive.

        None if no power up to Wielandt's bound (m-1)^2 + 1 is positive, so
        the matrix is not primitive; that disables the convergence-constant
        machinery but is only a warning.  Rows are bitmasks: row i of P·M is
        the OR of M's rows l over the bits l of P's row i.
        """
        m, idx = len(self.edges), {e.name: i for i, e in enumerate(self.edges)}
        M = [reduce(or_, (1 << idx[name] for name, _, _ in self.edge_images[e.name]))
             for e in self.edges]
        P, full = M, (1 << m) - 1
        for k in range(1, (m - 1) ** 2 + 2):
            if all(row == full for row in P):
                return k
            P = [reduce(or_, (M[l] for l in range(m) if row >> l & 1), 0) for row in P]
        return None

    @cached_property
    def entry_supports(self) -> list[list[Iterable[Shift]]]:
        """supp M_ij of the transition matrix M, row by row."""
        return [[q.terms for q in row] for row in build_transition_matrix(self).entries]

    @cached_property
    def semiring(self) -> "PowerMemo":
        """Certify's route: the hull of every power, from one hull per column
        of M^q over the transition matrix's entry supports up to a checked
        period, then of any later power in closed form, one Minkowski sum
        each; ``semiring.period`` is that period, (T, c, Q), once the walk
        has found it (see _semiring_powers and PowerMemo)."""
        return PowerMemo(_semiring_powers(self.entry_supports, self.rank))

    @cached_property
    def nested_supports(self) -> bool:
        """Whether 0 lies in the hull R_1(i) of the entry supports of every
        row i of M, which nests the supports of the powers: S_q within S_{q+1}.

        Let R_q(i) be the hull of the union over j of supp M^q_{ij}, so
        R_0(i) = {0} and S_q is the hull of the R_q(i).  M^{q+1} = M M^q,
        whose nonnegative products never cancel, makes R_{q+1}(i) the hull
        of the translates t + R_q(k) over k and the monomials t of M_{ik}:
        monotone in every R_q(k).  R_0(i) lies in R_1(i), so R_q(i) within
        R_{q+1}(i) gives R_{q+1}(i) within R_{q+2}(i)."""
        origin = (0,) * self.rank
        firsts = ([t for ts in row for t in ts] for row in self.entry_supports)
        return all(pts and geometry.contains_point(geometry.convex_hull(pts), origin)
                   for pts in firsts)

    @cached_property
    def oracle(self) -> "PowerMemo":
        """Verify's route: the hull of every power by the path oracle, one
        hull per edge over edge_images alone (see _edge_walk)."""
        return PowerMemo(_edge_walk(self))

    @cached_property
    def derived(self) -> dict:
        """pipeline's memo of what it derives from this map and a few
        declared values, so it dies with the map.  A key starts with the
        support route that built its value ("semiring" or "oracle") and
        holds every value the entry depends on."""
        return {}


def build_transition_matrix(track: LiftedGraphMap) -> LaurentMatrix:
    """Incidence matrix over Z[t_1^{±1},...]: entry (e, f) sums t^shift over
    occurrences of edge f (either orientation) in the image of e."""
    idx = {e.name: i for i, e in enumerate(track.edges)}
    m = len(track.edges)
    rows = [[LaurentPoly.zero(track.rank) for _ in range(m)] for _ in range(m)]
    for e in track.edges:
        for name, shift, _ in track.edge_images[e.name]:
            j = idx[name]
            rows[idx[e.name]][j] = rows[idx[e.name]][j] + LaurentPoly.monomial(
                track.rank, shift
            )
    return LaurentMatrix.from_rows(rows)


class PowerMemo:
    """The values of powers 0, 1, ..., taken from the iterator ``powers`` on
    demand and kept.  An error raised by ``powers`` ends it: that power and
    every later one raise the error again.  A negative power raises
    ValidationError.

    ``powers`` may end by returning a period (T, c, Q), once it has yielded
    power q = T + c, where H_p = H_{p-c} ⊕ Q for every p >= q (see
    _semiring_powers).  The memo keeps H_0..H_q and ``period``, and answers
    each later power in closed form, keeping none: with (k, r) =
    divmod(p - T, c), k >= 1 and T + r < q, H_p = H_{T+r} ⊕ kQ, as kQ, Q's
    vertices times k, is Q summed k times and still in convex_hull's form.
    ``period`` is None until then, and on a route that has none.
    """

    def __init__(self, powers: Iterator):
        self.powers, self.kept, self.period = powers, [], None
        self.end: Exception = ValidationError("no further powers")

    def __call__(self, p: int):
        if p < 0:
            raise ValidationError("power must be nonnegative")
        try:
            while p >= len(self.kept) and self.period is None:
                self.kept.append(next(self.powers))
        except StopIteration as stop:
            self.period = stop.value
        except Exception as exc:
            self.end = exc
            raise
        if p < len(self.kept):
            return self.kept[p]
        if self.period is None:
            raise self.end.with_traceback(None)
        T, c, Q = self.period
        k, r = divmod(p - T, c)
        kQ = [tuple(k * a for a in v) for v in Q]
        return tuple(geometry.minkowski_sum(self.kept[T + r], kQ))


def _semiring_powers(base: Sequence[Sequence[Iterable[Shift]]],
                     rank: int) -> Generator[tuple[Shift, ...], None, Period]:
    """Hulls of the supports of the powers of a matrix of entry supports.  An
    empty power, after which every power is empty, raises ValidationError.

    The walk keeps one hull per column: C_q(j) = hull of the union over i
    of supp M^q_{ij}, from C_0(j) = {0}.  Transition-matrix coefficients
    are nonnegative, so products never cancel, and M^{q+1} = M^q M makes
    C_{q+1}(j) the union of the translates t + C_q(k) over k and the
    monomials t of M_{kj}.  As hull(∪ (t + A)) = hull(∪ (t + hull A)), the
    column hulls suffice ([] for an empty column), and power q's hull H_q
    is the hull of its column hulls.

    Up to power PERIOD_WINDOW the walk looks for a period (see
    _column_period): C_q(j) = C_{q-c}(j) ⊕ Q for every column j.  The
    step from C_q to C_{q+1} commutes with ⊕ Q for a convex Q, so the
    period then holds at every later power, and so does H_p = H_{p-c} ⊕ Q,
    as hull(∪ (A_j ⊕ Q)) = hull(∪ A_j) ⊕ Q.  The walk then stops and
    returns (T, c, Q), T = q - c, from which PowerMemo answers every later
    power with one Minkowski sum; without a period it walks on.
    """
    entry_columns = list(zip(*base))  # column j of M: supp M_kj over k
    cols = deque([[[(0,) * rank] for _ in base]], maxlen=len(base) + 1)
    for q in count():
        if q:
            sums = ([tuple(map(add, v, t)) for ts, h in zip(col, cols[-1]) for t in ts for v in h]
                    for col in entry_columns)
            cols.append([geometry.convex_hull(pts) if pts else [] for pts in sums])
        yield tuple(geometry.convex_hull([v for h in cols[-1] for v in h]))
        period = _column_period(cols) if q <= PERIOD_WINDOW else None
        if period:
            c, Q = period
            return q - c, c, tuple(Q)


def _column_period(cols: Sequence[list[list[Shift]]]) -> Optional[tuple[int, list[Shift]]]:
    """(c, Q) with each of the last column hulls in ``cols`` equal to the one
    c powers before summed with Q, for the least c < len(cols); None if
    there is none.  Q is the Minkowski difference of the first column that
    the last power does not leave empty (it has one).  Every column is then
    summed and compared, and a column empty at either power must be empty
    at both."""
    j = next(j for j, b in enumerate(cols[-1]) if b)
    for c in range(1, len(cols)):
        Q = geometry.minkowski_difference(cols[-1][j], cols[-1 - c][j])
        if Q is not None and all((geometry.minkowski_sum(a, Q) if a else []) == b
                                 for a, b in zip(cols[-1 - c], cols[-1])):
            return c, Q
    return None


def support_of_power(track: LiftedGraphMap, p: int) -> tuple[Shift, ...]:
    """Hull of the support of the p-th power of the transition matrix, on the
    semiring route (see _semiring_powers for why it is exact).  The omega
    CLI reads it; the library reads track.semiring directly."""
    return track.semiring(p)


def _edge_walk(track: LiftedGraphMap) -> Iterator[tuple[Shift, ...]]:
    """Hulls of the supports of the powers 0, 1, ... by edge-path substitution.

    Per edge f the walk holds the hull of S(f), S(f) being the shifts at
    which the lifts of all edges based in domain 0 visit f.  One
    substitution makes S(f) the union of d + S(e) over the steps (f, d) in
    the image of each edge e, as a visit's image depends on neither its
    place in the path nor its orientation.  Keeping the hull is exact,
    since hull(∪ (d + A)) = hull(∪ (d + hull A)).
    """
    groups: dict[str, dict[str, set[Shift]]] = {e.name: {} for e in track.edges}
    for edge, path in track.edge_images.items():
        for name, shift, _ in path:
            groups[edge].setdefault(name, set()).add(tuple(shift))
    frontier = {e.name: [(0,) * track.rank] for e in track.edges}
    while True:
        yield tuple(geometry.convex_hull(set().union(*frontier.values())))
        nxt: dict[str, set[Shift]] = {}
        for edge, shifts in frontier.items():
            for name, ds in groups[edge].items():
                into = nxt.setdefault(name, set())
                for d in ds:  # a zero shift, the common case, adds the shifts as they are
                    into.update([tuple(map(add, v, d)) for v in shifts] if any(d) else shifts)
        frontier = {name: geometry.convex_hull(shifts) for name, shifts in nxt.items()}


def oracle_iterate(track: LiftedGraphMap, p: int) -> list[tuple[Shift, ...]]:
    """Hulls of the supports of every power 0..p by edge-path substitution.

    Independent of the matrix-algebra route; serves as its oracle.  Entry q
    is ``track.oracle(q)``, the path oracle's memo, which walks to p first
    (and rejects a negative p).  The oracle CLI reads it; the library reads
    track.oracle directly.
    """
    last = track.oracle(p)
    return [track.oracle(q) for q in range(p)] + [last]


def omega_of_word(track: LiftedGraphMap, y: int, allow_mirror: bool = False,
                  route: str = "semiring") -> tuple[Shift, ...]:
    """Hull of Omega(psi~^y), the support of the word h^x psi~^y up to its
    integer shift x, which the obstacle index applies.

    Negative y needs either bundled inverse-map data or explicitly enabled
    mirror mode, which applies the surface-level deck-commutation identity
    to track-level supports; that the track/surface discrepancy leaves the
    mirrored support valid is an unchecked assumption of mirror mode.
    ``route`` names the map's memo the hulls come from: "semiring" or
    "oracle".
    """
    if y >= 0:
        return getattr(track, route)(y)
    if track.inverse is not None:
        return getattr(track.inverse, route)(-y)
    if allow_mirror:
        return tuple(geometry.reflect(getattr(track, route)(-y)))
    raise ValidationError(
        "negative power requires inverse-map data or explicitly enabled mirror mode"
    )
