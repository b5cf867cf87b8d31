"""Seeded workload generators.

Each workload is a closed set drawn from the seed plus fixed resolutions and
lattices.  ``write_configs`` turns one into the three scenario configs the
CLI reads; the program sees nothing else of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HALF_WIDTH = 2.0  # every workload runs on the window [-2, 2]^n


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    primitives: Callable[[np.random.Generator], list]
    verify_resolution: int  # also the detection grid of `cover`
    analyze_resolution: int
    cover_bound: float  # cover lattice: step 1, slopes in [-bound, bound]
    cover_rest_resolution: int


# The seed moves each set by a little.  Uniform draws changed the number of
# detected samples, and so the work, by 14% to 130% from seed to seed.


def _points2d(rng: np.random.Generator) -> list:
    # One point near the centre of each cell of a staggered 4 x 2 partition
    # of [-1.5, 1.5]^2, moved by up to 15% of a cell width on each axis.
    xs = -1.5 + 0.75 * (np.arange(4)[:, None] + 0.5 + np.array([[-0.15, 0.15]]))
    ys = np.array([[-0.75, 0.75]]) + np.zeros((4, 1))
    base = np.stack([xs.ravel(), ys.ravel()], axis=1)
    pts = base + 0.75 * rng.uniform(-0.15, 0.15, size=base.shape)
    return [{"type": "point", "coords": p.tolist()} for p in pts]


def _polygon2d(rng: np.random.Generator) -> list:
    # A star loop: outer and inner radii alternate, all in [0.6, 1.6].  The
    # seed moves only the radii.  Turning a vertex turns the cone of grid
    # nodes that `grid_sweep` checks one by one, whose area in the window
    # then changes by up to 20%.
    k = np.arange(6)
    angles = 2.0 * math.pi * k / 6
    radii = np.where(k % 2 == 0, 1.4, 0.8) + rng.uniform(-0.02, 0.02, size=6)
    vertices = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return [{"type": "polygon", "vertices": vertices.tolist()}]


def _shells3d(rng: np.random.Generator) -> list:
    # Unit sphere at the origin, a point in one octant outside it and a
    # segment in the opposite octant, each moved by up to 0.15 per axis.  Both
    # sit far enough out that their branch gap to the sphere exceeds the
    # detector's 4 grid steps everywhere, so no bisector is half flagged.
    diag = np.ones(3) / math.sqrt(3.0)
    point = -2.4 * diag + rng.uniform(-0.15, 0.15, size=3)
    mid = 2.3 * diag + rng.uniform(-0.15, 0.15, size=3)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return [
        {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        {"type": "point", "coords": point.tolist()},
        {"type": "segment", "a": (mid - 0.4 * u).tolist(), "b": (mid + 0.4 * u).tolist()},
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("points2d", 2, _points2d, verify_resolution=32, analyze_resolution=128, cover_bound=2.0, cover_rest_resolution=7),
        Workload("polygon2d", 2, _polygon2d, verify_resolution=32, analyze_resolution=64, cover_bound=1.0, cover_rest_resolution=7),
        Workload("shells3d", 3, _shells3d, verify_resolution=16, analyze_resolution=24, cover_bound=1.0, cover_rest_resolution=5),
    )
}


def write_configs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write the verify, analyze and cover configs of one seeded instance."""
    shape = {"dimension": workload.dimension, "primitives": workload.primitives(np.random.default_rng(seed))}
    window = {"lower": [-HALF_WIDTH] * workload.dimension, "upper": [HALF_WIDTH] * workload.dimension}
    documents = {
        "verify": {"set": shape, "window": window, "grid_resolution": workload.verify_resolution, "seed": seed},
        "analyze": {"set": shape, "window": window, "grid_resolution": workload.analyze_resolution, "seed": seed},
        "cover": {
            "set": shape,
            "window": window,
            "grid_resolution": workload.verify_resolution,
            "lattice": {"step": 1.0, "bound": workload.cover_bound},
            "cover": {"rest_resolution": workload.cover_rest_resolution},
            "seed": seed,
        },
    }
    paths = {}
    for command, document in documents.items():
        paths[command] = directory / f"{command}.json"
        paths[command].write_text(json.dumps(document, indent=2) + "\n")
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
