"""Lifted train-track maps on Z^r covers and their support polytopes.

A map is given combinatorially: a finite graph with a Z^r voltage on every
edge (the edge copy (e, s) runs from (src(e), s) to (dst(e), s + w(e))),
a vertex image with a deck shift per vertex, and for every edge the image
edge-path as (edge, shift, orientation) steps.  The occupied fundamental
domain of a step is its shift; the unit discrepancy between track-level and
surface-level domains is absorbed downstream by the safety margin.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import geometry
from .errors import ValidationError
from .laurent import LaurentMatrix, LaurentPoly

Shift = tuple[int, ...]
Step = tuple[str, Shift, int]  # (edge, deck shift, orientation +1/-1)

# Wielandt: a primitive m x m 0/1 matrix has a positive power <= (m-1)^2 + 1.
_PRIMITIVITY_CAP = 200


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    voltage: Shift


@dataclass(frozen=True, eq=False)
class SupportPolytope:
    """Occupied fundamental-domain indices of one map power (or word translate).

    Everything but ``omega``, ``mode_gap_constant`` and the tests needs only
    ``hull``; ``points`` is computed by ``decode`` on first read.
    """

    rank: int
    p: int
    hull: tuple[Shift, ...]
    decode: Callable[[], Iterable[Shift]] = field(repr=False)
    mode: str = "exact-forward"  # or inverse-data / mirror

    @cached_property
    def points(self) -> frozenset[Shift]:
        return frozenset(self.decode())

    def extent(self, u: Sequence[int]) -> tuple[int, int]:
        """(N'_2, N'_1) in direction u: min and max of <u, x> over the hull
        vertices, where both extremes of a linear function are attained."""
        return geometry.directional_extrema(self.hull, u)

    def translate(self, v: Sequence[int], mode: Optional[str] = None) -> "SupportPolytope":
        v = tuple(v)
        return SupportPolytope(
            self.rank, self.p, tuple(geometry.translate(self.hull, v)),
            lambda: geometry.translate(self.points, v), mode or self.mode,
        )

    def mirror(self) -> "SupportPolytope":
        # Negation reverses the vertex order; re-hull for the canonical start.
        hull = geometry.convex_hull(geometry.negate(self.hull), self.rank)
        return SupportPolytope(
            self.rank, -self.p, tuple(hull), lambda: geometry.negate(self.points), "mirror"
        )


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

    def __post_init__(self):
        self._validate()
        object.__setattr__(self, "_k0", self._primitivity_power())

    # -- validation ---------------------------------------------------------

    def _edge(self, name: str) -> Edge:
        for e in self.edges:
            if e.name == name:
                return e
        raise ValidationError(f"unknown edge {name!r}")

    def _step_endpoints(self, step: Step) -> tuple[tuple[str, Shift], tuple[str, Shift]]:
        name, shift, orient = step
        e = self._edge(name)
        start = (e.src, tuple(shift))
        end = (e.dst, tuple(a + b for a, b in zip(shift, e.voltage)))
        return (start, end) if orient == 1 else (end, start)

    def _validate(self):
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate edge names")
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
        zero = (0,) * self.rank
        for e in self.edges:
            path = self.edge_images.get(e.name)
            if not path:
                raise ValidationError(f"edge {e.name!r} has no image path")
            iv, iv_shift = self.vertex_images[e.src]
            expected_start = (iv, tuple(iv_shift))
            wv, wv_shift = self.vertex_images[e.dst]
            expected_end = (wv, tuple(a + b + c for a, b, c in zip(wv_shift, e.voltage, zero)))
            cursor = expected_start
            for idx, step in enumerate(path):
                name, shift, orient = step
                if orient not in (1, -1):
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx}: orientation must be +1/-1"
                    )
                if len(shift) != self.rank:
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx}: shift has wrong length"
                    )
                start, end = self._step_endpoints((name, tuple(shift), orient))
                if start != cursor:
                    raise ValidationError(
                        f"edge {e.name!r} image step {idx} ({name!r}): path breaks at {cursor}"
                    )
                cursor = end
            if cursor != expected_end:
                raise ValidationError(
                    f"edge {e.name!r} image path ends at {cursor}, expected {expected_end}"
                )

    def _primitivity_power(self) -> Optional[int]:
        """First power making the integer incidence matrix strictly positive.

        None if no power up to the Wielandt cap works; that disables the
        convergence-constant machinery but is only a warning.
        """
        m = len(self.edges)
        idx = {e.name: i for i, e in enumerate(self.edges)}
        M = [[0] * m for _ in range(m)]
        for e in self.edges:
            for name, _, _ in self.edge_images[e.name]:
                M[idx[e.name]][idx[name]] += 1
        cap = min((m - 1) ** 2 + 1 if m > 1 else 1, _PRIMITIVITY_CAP)
        P = M
        for k in range(1, cap + 1):
            if all(all(x > 0 for x in row) for row in P):
                return k
            P = [[sum(P[i][l] * M[l][j] for l in range(m)) for j in range(m)] for i in range(m)]
        return None

    # -- derived data --------------------------------------------------------

    @property
    def k0(self) -> Optional[int]:
        return self._k0

    @cached_property
    def semiring(self) -> "SemiringSupports":
        """support_of_power's memo, over the transition matrix's entry supports."""
        M = build_transition_matrix(self)
        return SemiringSupports([[frozenset(q.terms) for q in row] for row in M.entries],
                                self.rank)

    def content_key(self) -> tuple:
        """Canonical content identity (feeds the dataset hash in dataio)."""
        return (
            self.rank,
            self.vertices,
            tuple((e.name, e.src, e.dst, e.voltage) for e in self.edges),
            tuple(sorted((v, im) for v, im in self.vertex_images.items())),
            tuple(sorted((e, tuple(path)) for e, path in self.edge_images.items())),
            self.inverse.content_key() if self.inverse else None,
            self.euler_functional,
        )


# Reads the support of a map's p-th power: support_of_power or the path oracle.
SupportSource = Callable[[LiftedGraphMap, int], SupportPolytope]


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


def bitset_powers(base: Sequence[Sequence[Iterable[Shift]]], rank: int,
                  B: int) -> Iterator[list[list[int]]]:
    """Entry supports of the powers 0, 1, 2, ... of a matrix of supports.

    Transition-matrix coefficients are nonnegative occurrence counts, so
    products and sums never cancel and the support of a product is exactly
    the union of Minkowski sums of entry supports.  This avoids carrying the
    (exponentially large) integer coefficients when only supports matter.

    Each support is one int: with W = 2B+1, the point (a, b) is bit
    (a+B)*W + (b+B), and in rank 1 the point a is bit a+B.  A Minkowski step
    by a monomial is a shift and a union is an OR.  Power p is exact while
    B >= p * max|coordinate| over the base supports; past that, points wrap.
    """
    W = 2 * B + 1
    strides = [W ** (rank - 1 - i) for i in range(rank)]
    steps = [[[sum(c * w for c, w in zip(t, strides)) for t in entry] for entry in row]
             for row in base]
    m = len(steps)
    origin = B * sum(strides)
    cur = [[1 << origin if i == j else 0 for j in range(m)] for i in range(m)]
    while True:
        yield cur
        nxt = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = 0
                for k in range(m):
                    x = cur[i][k]
                    if x:
                        for d in steps[k][j]:
                            acc |= x << d if d >= 0 else x >> -d
                row.append(acc)
            nxt.append(row)
        cur = nxt


def bitset_points(bits: int, rank: int, B: int, row_extremes: bool = False) -> list[Shift]:
    """Decode a bitset of bitset_powers (rank 1 or 2) row by row, a row
    being the points with one first coordinate, or keep only each row's
    lowest and highest point, whose hull is the hull of all the points."""
    W = 2 * B + 1
    s = bin(bits)[:1:-1]  # s[i] is bit i
    pts: list[Shift] = []
    start = s.find("1")
    while start >= 0:
        row = start // W
        end = (row + 1) * W
        lead = (row - B,) if rank == 2 else ()  # rank 1 has the one row 0
        if row_extremes:
            cols = {start, s.rfind("1", start, end)}
        else:
            cols, col = [], start
            while col >= 0:
                cols.append(col)
                col = s.find("1", col + 1, end)
        pts.extend((*lead, col - row * W - B) for col in cols)
        start = s.find("1", end)
    return pts


class SemiringSupports:
    """Support polytopes of the powers of a matrix of entry supports, built
    by bitset_powers on demand and memoized.  The bound B starts at 8 and
    doubles whenever a power outgrows it; the bitset powers are then
    recomputed at the new bound."""

    def __init__(self, base: Sequence[Sequence[Iterable[Shift]]], rank: int):
        self.base, self.rank = base, rank
        self.reach = max((abs(c) for row in base for e in row for t in e for c in t), default=0)
        self.B = 0
        self.powers: Optional[Iterator[list[list[int]]]] = None
        self.supports: list[SupportPolytope] = []

    def power(self, p: int) -> SupportPolytope:
        if p < len(self.supports):
            return self.supports[p]
        if self.powers is None or p * self.reach > self.B:
            B = max(self.B, 8)
            while B < p * self.reach:
                B *= 2
            self.B, self.powers = B, bitset_powers(self.base, self.rank, B)
            for _ in self.supports:  # skip the powers already built
                next(self.powers)
        while len(self.supports) <= p:
            bits = 0
            for row in next(self.powers):
                for x in row:
                    bits |= x
            hull = geometry.convex_hull(bitset_points(bits, self.rank, self.B, True), self.rank)
            self.supports.append(SupportPolytope(
                self.rank, len(self.supports), tuple(hull),
                partial(bitset_points, bits, self.rank, self.B),
            ))
        return self.supports[p]


def support_of_power(track: LiftedGraphMap, p: int) -> SupportPolytope:
    """Occupied domains of the p-th power of the transition matrix."""
    if p < 0:
        raise ValidationError("power must be nonnegative")
    return track.semiring.power(p)


def oracle_iterate(track: LiftedGraphMap, p: int) -> list[SupportPolytope]:
    """Occupied domains of every power 0..p by edge-path substitution.

    Independent of the matrix-algebra route; serves as its oracle.  The lift
    of every edge based in domain 0 is substituted p times in one walk whose
    frontier keeps, per edge, only the set of shifts at which the path
    visits it: a visit's image depends on neither its position in the path
    nor its orientation, since a reversed step only reverses the order of
    its image, not which visits it contains.

    A shift s is held as the integer key sum (s_i + B) W^(r-1-i), with
    W = 2B+1, B = max(p * reach, 1) and reach the largest absolute
    step-shift coordinate.  After q <= p substitutions every |s_i| <= B, so
    keys never carry, and an image step is one (target edge, key offset)
    pair applied to a whole edge's set at once.  Sorted keys group into rows
    that share every coordinate but the last (k // W); the hull of power q
    is the hull of each row's lowest and highest key, and its points are
    decoded on first read.  Entry q of the result is the support of power q.
    """
    if p < 0:
        raise ValidationError("power must be nonnegative")
    r = track.rank
    reach = max((abs(c) for path in track.edge_images.values() for _, s, _ in path for c in s),
                default=0)
    B = max(p * reach, 1)
    W = 2 * B + 1
    strides = [W ** (r - 1 - i) for i in range(r)]
    steps = {edge: [(name, sum(c * w for c, w in zip(s, strides))) for name, s, _ in path]
             for edge, path in track.edge_images.items()}
    decode = partial(_decode_keys, strides=strides, B=B)
    frontier = {e.name: {B * sum(strides)} for e in track.edges}
    supports = []
    for q in range(p + 1):
        if q:
            nxt: dict[str, set[int]] = {}
            for edge, keys in frontier.items():
                for name, d in steps[edge]:
                    nxt.setdefault(name, set()).update([k + d for k in keys])
            frontier = nxt
        keys = sorted(set().union(*frontier.values()))
        ends, i = [], 0
        while i < len(keys):  # one row: the keys with equal k // W
            j = bisect_left(keys, (keys[i] // W + 1) * W, i)
            ends += keys[i], keys[j - 1]
            i = j
        hull = geometry.convex_hull(decode(ends), r)
        supports.append(SupportPolytope(r, q, tuple(hull), partial(decode, keys)))
    return supports


def _decode_keys(keys: Iterable[int], strides: Sequence[int], B: int) -> list[Shift]:
    """The shifts of oracle_iterate's integer keys at bound B."""
    W = 2 * B + 1
    return [tuple(k // w % W - B for w in strides) for k in keys]


def omega_of_word(track: LiftedGraphMap, x: Sequence[int], y: int, allow_mirror: bool = False,
                  support: Optional[SupportSource] = None) -> SupportPolytope:
    """Support of the word h^x psi~^y: the translate x + Omega(psi~^y).

    Negative y needs either bundled inverse-map data or explicitly enabled
    mirror mode (the deck-commutation identity at the surface level; the
    track-level discrepancy is absorbed by the safety margin downstream).
    ``support`` is the support source, support_of_power unless given.
    """
    x = tuple(int(v) for v in x)
    if len(x) != track.rank:
        raise ValidationError("translate vector has wrong length")
    support = support or support_of_power
    if y >= 0:
        return support(track, y).translate(x, "exact-forward")
    if track.inverse is not None:
        return support(track.inverse, -y).translate(x, "inverse-data")
    if allow_mirror:
        return support(track, -y).mirror().translate(x, "mirror")
    raise ValidationError(
        "negative power requires inverse-map data or explicitly enabled mirror mode"
    )


def mode_gap_constant(track: LiftedGraphMap, p_max: int = 6) -> int:
    """Measured C0: max over p <= p_max of the Hausdorff distance (rounded up)
    between inverse-data and mirror-mode supports.  Requires inverse data."""
    if track.inverse is None:
        raise ValidationError("no inverse data to compare against mirror mode")
    worst = 0
    for p in range(1, p_max + 1):
        inv = support_of_power(track.inverse, p)
        mir = support_of_power(track, p).mirror()
        d2 = geometry.hausdorff_dist2(inv.points, mir.points)
        c = math.isqrt(math.ceil(d2))
        while c * c < d2:
            c += 1
        worst = max(worst, c)
    return worst
