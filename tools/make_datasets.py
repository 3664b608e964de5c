"""Regenerate the bundled example datasets in src/fibercert/data/."""

import os
import sys

from fibercert.dataio import dataset_hash, save_dataset
from fibercert.trackmap import Edge, LiftedGraphMap

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "src", "fibercert", "data")


def rose_r1() -> LiftedGraphMap:
    """Rank-1 lift of the rose map a -> ab, b -> baba^{-1} with the
    fibration functional a -> 1, b -> 0, bundled with inverse-map data."""
    inverse = LiftedGraphMap(
        rank=1,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (-1,)), Edge("b", "v", "v", (0,))),
        vertex_images={"v": ("v", (0,))},
        edge_images={
            "a": (("a", (0,), 1), ("b", (-1,), 1)),
            "b": (("b", (0,), 1), ("a", (0,), 1), ("b", (-1,), 1), ("a", (0,), -1)),
        },
    )
    return LiftedGraphMap(
        rank=1,
        vertices=("v",),
        edges=(Edge("a", "v", "v", (1,)), Edge("b", "v", "v", (0,))),
        vertex_images={"v": ("v", (0,))},
        edge_images={
            "a": (("a", (0,), 1), ("b", (1,), 1)),
            "b": (("b", (0,), 1), ("a", (0,), 1), ("b", (1,), 1), ("a", (0,), -1)),
        },
        inverse=inverse,
        metadata={
            "name": "rose-r1",
            "description": "rank-1 lifted rose map with bundled inverse data",
        },
        euler_functional=(0, 2),
    )


def rose_r2() -> LiftedGraphMap:
    """Synthetic rank-2 lift of a three-petal rose map (no inverse data;
    negative powers need mirror mode)."""
    return LiftedGraphMap(
        rank=2,
        vertices=("v",),
        edges=(
            Edge("a", "v", "v", (1, 0)),
            Edge("b", "v", "v", (0, 1)),
            Edge("c", "v", "v", (0, 0)),
        ),
        vertex_images={"v": ("v", (0, 0))},
        edge_images={
            "a": (("a", (0, 0), 1), ("c", (1, 0), 1)),
            "b": (("b", (0, 0), 1), ("c", (0, 1), 1)),
            "c": (
                ("c", (0, 0), 1),
                ("a", (0, 0), 1),
                ("b", (1, 0), 1),
                ("a", (0, 1), -1),
                ("b", (0, 0), -1),
                ("c", (0, 0), 1),
            ),
        },
        metadata={
            "name": "rose-r2",
            "description": "synthetic rank-2 lifted rose map (mirror mode for negatives)",
        },
        euler_functional=(0, 0, 3),
    )


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for name, track in (("rose_r1", rose_r1()), ("rose_r2", rose_r2())):
        path = os.path.join(DATA, f"{name}.json")
        save_dataset(track, path)
        print(f"{name}: hash {dataset_hash(track)} k0={track.k0}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
