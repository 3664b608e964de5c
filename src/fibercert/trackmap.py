"""Lifted train-track maps on Z^r covers and their support polytopes.

A map is given combinatorially: a finite graph with a Z^r voltage on every
edge (the edge copy (e, s) runs from (src(e), s) to (dst(e), s + w(e))),
a vertex image with a deck shift per vertex, and for every edge the image
edge-path as (edge, shift, orientation) steps.  The occupied fundamental
domain of a step is its shift; the unit discrepancy between track-level and
surface-level domains is absorbed downstream by the safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

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

    Everything but ``omega``, ``oracle`` and the tests needs only ``hull``;
    ``points`` is computed by ``decode`` on first read.
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
                                self.rank, self.shift_walk)

    @cached_property
    def shift_walk(self) -> "ShiftWalk":
        """The memoized point walk that serves every support's ``points``."""
        return ShiftWalk(self)

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


class SemiringSupports:
    """Support polytopes of the powers of a matrix of entry supports, built
    on demand and memoized; ``walk(q)`` serves the points of power q.

    Transition-matrix coefficients are nonnegative, so products never cancel
    and entry (i, j) of power q+1 is the union of the translates
    supp M^q_{ik} + t over k and the monomials t of M_{kj}.  As
    hull(∪ (t + A)) = hull(∪ (t + hull A)), ``entries`` holds only the entry
    hulls of the highest power built ([] where empty), and power q's hull is
    the hull of its entry hulls.
    """

    def __init__(self, base: Sequence[Sequence[Iterable[Shift]]], rank: int,
                 walk: Callable[[int], Iterable[Shift]]):
        self.base, self.rank, self.walk = base, rank, walk
        m = len(base)
        self.entries = [[[(0,) * rank] if i == j else [] for j in range(m)] for i in range(m)]
        self.supports: list[SupportPolytope] = []

    def power(self, p: int) -> SupportPolytope:
        m, base = len(self.base), self.base
        while len(self.supports) <= p:
            q, entries = len(self.supports), self.entries
            if q:
                entries = []
                for row in self.entries:
                    entries.append([])
                    for j in range(m):
                        pts = [tuple(map(add, v, t))
                               for k in range(m) for t in base[k][j] for v in row[k]]
                        entries[-1].append(geometry.convex_hull(pts, self.rank) if pts else [])
            # An empty power raises ValidationError here, before anything is kept.
            hull = geometry.convex_hull([v for row in entries for h in row for v in h], self.rank)
            self.entries = entries
            self.supports.append(SupportPolytope(self.rank, q, tuple(hull), partial(self.walk, q)))
        return self.supports[p]


def support_of_power(track: LiftedGraphMap, p: int) -> SupportPolytope:
    """Support polytope of the p-th power of the transition matrix, from the
    hulls of its entries (see SemiringSupports for why that is exact)."""
    if p < 0:
        raise ValidationError("power must be nonnegative")
    return track.semiring.power(p)


def _edge_walk(track: LiftedGraphMap,
               keep: Callable[[set[Shift]], Collection[Shift]]) -> Iterator[Collection[Shift]]:
    """keep(occupied shifts) of the powers 0, 1, ... by edge-path substitution.

    Per edge f the walk holds keep(S(f)), S(f) being the shifts at which the
    lifts of all edges based in domain 0 visit f.  One substitution makes
    S(f) the union of d + S(e) over the steps (f, d) in the image of each
    edge e, as a visit's image depends on neither its place in the path nor
    its orientation.  Keeping the set or the hull is exact, since
    hull(∪ (d + A)) = hull(∪ (d + hull A)).
    """
    groups: dict[str, dict[str, set[Shift]]] = {e.name: {} for e in track.edges}
    for edge, path in track.edge_images.items():
        for name, shift, _ in path:
            groups[edge].setdefault(name, set()).add(tuple(shift))
    frontier = {e.name: [(0,) * track.rank] for e in track.edges}
    while True:
        yield keep(set().union(*frontier.values()))
        nxt: dict[str, set[Shift]] = {}
        for edge, shifts in frontier.items():
            for name, ds in groups[edge].items():
                into = nxt.setdefault(name, set())
                for d in ds:  # a zero shift, the common case, adds the shifts as they are
                    into.update([tuple(map(add, v, d)) for v in shifts] if any(d) else shifts)
        frontier = {name: keep(shifts) for name, shifts in nxt.items()}


def oracle_iterate(track: LiftedGraphMap, p: int) -> list[SupportPolytope]:
    """Support polytopes of every power 0..p by edge-path substitution.

    Independent of the matrix-algebra route; serves as its oracle.  It reads
    edge_images alone and carries one hull per edge, exact because the hull
    of a union of translates is the hull of the translated hulls (see
    _edge_walk).  Entry q is the support of power q; its points come from
    the map's ShiftWalk.
    """
    if p < 0:
        raise ValidationError("power must be nonnegative")
    r = track.rank
    walk = _edge_walk(track, lambda shifts: geometry.convex_hull(shifts, r))
    return [SupportPolytope(r, q, tuple(next(walk)), partial(track.shift_walk, q))
            for q in range(p + 1)]


class ShiftWalk:
    """The occupied shifts of every power of a map, walked on demand and
    memoized: the ``points`` of both support routes."""

    def __init__(self, track: LiftedGraphMap):
        self.walk, self.powers = _edge_walk(track, frozenset), []

    def __call__(self, p: int) -> frozenset[Shift]:
        while len(self.powers) <= p:
            self.powers.append(next(self.walk))
        return self.powers[p]


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

