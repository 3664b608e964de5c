import pytest
from fractions import Fraction
from importlib import resources
from math import lcm
from operator import add

from fibercert import geometry
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


def _load(name: str):
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
    return _load("r1")


@pytest.fixture(scope="session")
def r2():
    return _load("r2")


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
        track = _load(name)
        return (track, *_models(track, name))
    return make
