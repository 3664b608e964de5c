import pytest
from fractions import Fraction
from importlib import resources
from math import lcm
from operator import add

from fibercert import geometry, pipeline, trackmap
from fibercert.cones import (
    DualConeModel,
    FacetDirection,
    _candidate_directions,
    estimate_dual_cone,
    fibered_cone_from_dual,
)
from fibercert.dataio import dataset_hash, load_dataset

DATA = resources.files("fibercert") / "data"
CONE_P_MAX = {"r1": 16, "r2": 12}  # p_max of each bundled map's dual cone


def tuple_state_walk(track, p):
    """Supports of powers 0..p, as sets of occupied shifts, by a walk over
    (edge, shift-tuple) states, one substitution at a time: the reference
    that both support routes' hulls are checked against."""
    zero = (0,) * track.rank
    frontier = {(e.name, zero) for e in track.edges}
    supports = [frozenset([zero])]
    for _ in range(p):
        frontier = {(name, tuple(map(add, shift, s2)))
                    for edge, shift in frontier
                    for name, s2, _ in track.edge_images[edge]}
        supports.append(frozenset(s for _, s in frontier))
    return supports


def checked_oracle(track):
    """The map, its oracle memo given the semiring route's period through
    the check verify runs (trackmap.oracle_period_fault); a map with no
    period in the window is returned as it is."""
    track.semiring(trackmap.PERIOD_WINDOW)
    period = track.semiring.period
    if period is not None:
        assert trackmap.oracle_period_fault(track, period) == ""
        assert track.oracle.period == period
    return track


def negate(points):
    """The points reflected through the origin, in their order: with
    convex_hull, the reference that geometry.reflect is checked against."""
    return [tuple(-a for a in p) for p in points]


def every_power_estimate(track, p_max, route="semiring"):
    """The dual cone from the support hulls of every power 1..p_max, their
    ratio points scaled by lcm(1..p_max): estimate_dual_cone as it was
    before it read only the powers that can set a facet, kept as the
    reference it is checked against."""
    hull_of = getattr(track, route)
    supports = [hull_of(p) for p in range(0, p_max + 1)]
    powers = range(1, p_max + 1)
    ratio_points = []
    if track.rank == 2:
        scale = lcm(*powers)
        ratio_points = [(x * m, y * m) for p in powers for m in (scale // p,)
                        for x, y in supports[p]]
    k0 = track.k0
    facets = []
    hulls = [[(*x, 0)[:2] for x in supports[p]] for p in powers]
    for u in _candidate_directions(track.rank, ratio_points):
        a, b = (*u, 0)[:2]
        tops = [max([a * x + b * y for x, y in h]) for h in hulls]
        top, q = tops[0], 1
        for p, hi in zip(powers, tops):
            if hi * q < top * p:
                top, q = hi, p
        slope = Fraction(top, q)
        if k0 is not None and k0 <= p_max:
            lo, hi = geometry.directional_extrema(supports[k0], u)
            c_window = hi - lo
        else:
            c_window = max(0, -min(geometry.dot(u, x) for p in powers
                                   for x in supports[p]))
        facets.append(FacetDirection(u, slope, c_window))
    return DualConeModel(track.rank, p_max, k0, tuple(facets),
                         low_confidence=k0 is None or p_max < k0)


def place_every_word(track, words, safety, allow_mirror, route="semiring"):
    """Each word's obstacle (dilated_base of its power, its shift), in word
    order, one memo lookup per word: build_obstacles as it was before it
    looked up each power once and took certify's reach, kept as the
    reference the one-pass placement is checked against."""
    return [(pipeline.dilated_base(track, route, y, safety, allow_mirror), x)
            for x, y in words]


def within_reach(placed, R, D):
    """The placed translates, in their order, whose exact box lies within
    L-inf gap D of the full box [-R, R]^r: the reach filter certify ran
    over every placed word before build_obstacles took its reach, kept as
    the reference."""
    far = R + D
    kept = []
    for base, x in placed:
        a, b, c, d = base.box
        sx, sy = (*x, 0)[:2]
        if -far <= b + sx and a + sx <= far and -far <= d + sy and c + sy <= far:
            kept.append((base, x))
    return kept


def pool_strip(kept, period, pool):
    """Obstacles.strip as it was before it read the enumeration radius: the
    period v oriented lexicographically negative when every kept obstacle
    (base, x) has (base, x - v) in the pool, placed from the same base
    object; None without a period or when a partner is missing."""
    if period is None:
        return None
    v = period if period < (0, 0) else tuple(-c for c in period)
    placed = {(id(base), x) for base, x in pool}
    if all((id(base), (x0 - v[0], x1 - v[1])) in placed for base, (x0, x1) in kept):
        return v
    return None


def load_map(name: str):
    """The bundled map rose_<name>, loaded anew: none of its memos built."""
    return load_dataset(str(DATA / f"rose_{name}.json"))


def _models(track, name: str):
    """(dual, cone, P) of a bundled map: its dual cone at CONE_P_MAX, the
    fibered cone and the subcone of slope cap 1/2."""
    dual = estimate_dual_cone(track, CONE_P_MAX[name])
    cone = fibered_cone_from_dual(dual)
    P = cone.subcone_slope(Fraction(1, 2))
    return dual, cone, P


@pytest.fixture(scope="session")
def r1():
    return load_map("r1")


@pytest.fixture(scope="session")
def r2():
    return load_map("r2")


@pytest.fixture(scope="session")
def r1_hash(r1):
    return dataset_hash(r1)


@pytest.fixture(scope="session")
def r2_hash(r2):
    return dataset_hash(r2)


@pytest.fixture(scope="session")
def r1_models(r1):
    return _models(r1, "r1")


@pytest.fixture(scope="session")
def r2_models(r2):
    return _models(r2, "r2")


@pytest.fixture
def fresh_map():
    """fresh_map("r1") loads that bundled map anew and returns
    (track, dual, cone, P) built as r1_models builds them, so nothing read
    from it was memoized by the session maps."""
    def make(name: str):
        track = load_map(name)
        return (track, *_models(track, name))
    return make
