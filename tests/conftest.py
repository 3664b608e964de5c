import pytest
from fractions import Fraction
from importlib import resources
from operator import add

from fibercert.cones import estimate_dual_cone, fibered_cone_from_dual
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
