"""Distance field of a closed set: evaluation, classification, reconstruction.

Every query runs on the set's packed capsule rows (see
:mod:`medialcover.geometry`).  ``distance`` is vectorized over query points.
``survey`` is the one kernel behind the grid sweep, the ambiguity detector
and the single-point query ``nearest_points``: per query point it returns
the distance, one nearest point, and the classification as lying in the set,
having a unique nearest point, or being ambiguous.  It measures every row;
only query points with two or more rows within ``tie_tolerance`` of the
minimum, or at the exact centre of a shell, get projections onto those rows,
and such a point is ambiguous when one tied projection lies more than
``separation`` from the first.

Each query point also gets its foot box: the coordinatewise minimum and
maximum of its nearest points.  Where no row ties it is the one projection;
at the exact centre of a shell it spans centre -+ R on every axis, because
the whole shell is nearest.

``distance`` and ``survey`` take the minimum over rows with
``np.minimum.reduce``, not ``ndarray.min``: the lift of
:mod:`medialcover.fields` calls ``distance`` on a few points at a time, where
the Python wrapper is a large share of each call.

``grid_sweep`` adds, on every grid node off the set, the gradient
(x - q) / d(x) of the distance field, q being the survey's projection, and
flags the node differentiable exactly when it is UNIQUE: off the set, d is
differentiable where the nearest point is unique.  The sweep works in blocks
of ``SWEEP_BLOCK_NODES`` nodes written into preallocated arrays, so its
temporaries do not grow with the grid.

``write_grid_csv`` writes a sweep through ``write_csv``, a columnar writer
that works one block of ``CSV_BLOCK_ROWS`` rows at a time and does not use
the ``csv`` module.  Each grid coordinate is formatted once per axis value,
not once per row, and every float is written as its ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ClosedSetSpec, Window, _batch

__all__ = [
    "Classification",
    "NearestResult",
    "GridSweep",
    "Survey",
    "distance",
    "survey",
    "nearest_points",
    "grid_sweep",
    "write_csv",
    "write_grid_csv",
    "DEFAULT_TIE_TOLERANCE",
    "DEFAULT_SEPARATION",
]

DEFAULT_TIE_TOLERANCE = 1e-9
DEFAULT_SEPARATION = 1e-6


class Classification(str, Enum):
    IN_SET = "in_set"
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class NearestResult:
    """Distance and classification of one query point."""

    distance: float
    classification: Classification


def distance(spec: ClosedSetSpec, x) -> float | np.ndarray:
    """dist(x, E): minimum over the set's packed rows.  Vectorized over points."""
    pts, single = _batch(x, spec.dimension)
    d = np.minimum.reduce(spec.row_distances(pts), axis=0)
    return float(d[0]) if single else d


@dataclass(frozen=True, eq=False)
class Survey:
    """Distance, one nearest point, the foot box (``foot_lo``, ``foot_hi``) and the class of each query point."""

    distance: np.ndarray
    projection: np.ndarray
    foot_lo: np.ndarray
    foot_hi: np.ndarray
    in_set: np.ndarray
    ambiguous: np.ndarray

    def classifications(self) -> list[Classification]:
        codes = np.where(self.in_set, 0, np.where(self.ambiguous, 2, 1))
        return [_BY_CODE[c] for c in codes.tolist()]


_BY_CODE = (Classification.IN_SET, Classification.UNIQUE, Classification.AMBIGUOUS)


def survey(
    spec: ClosedSetSpec,
    pts: np.ndarray,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
) -> Survey:
    """Classify a batch of query points (N, n) by the tie rule of the module docstring."""
    table = spec.row_distances(pts)
    best = table.argmin(axis=0)
    d = np.minimum.reduce(table, axis=0)
    in_set = d <= tie_tolerance
    tied = table <= d + tie_tolerance
    centre = np.zeros_like(tied)
    for k in np.flatnonzero(spec.radii):
        centre[k] = np.all(pts == spec.starts[k], axis=1)
    check = np.flatnonzero(((tied.sum(axis=0) >= 2) | (tied & centre).any(axis=0)) & ~in_set)
    ambiguous = np.zeros(len(d), dtype=bool)
    projection = spec.project_rows(pts, best)
    foot_lo, foot_hi = projection.copy(), projection.copy()
    if len(check):
        # (query, row) pairs in query order, rows ascending within each query.
        query, rows = np.nonzero(tied[:, check].T)
        cands = spec.project_rows(pts[check[query]], rows)
        first = np.flatnonzero(np.r_[True, query[1:] != query[:-1]])
        ref = np.repeat(cands[first], np.diff(np.r_[first, len(query)]), axis=0)
        apart = np.linalg.norm(cands - ref, axis=1) > separation
        at_centre = centre[rows, check[query]]
        ambiguous[check] = np.logical_or.reduceat(apart | at_centre, first)
        foot_lo[check] = np.minimum.reduceat(cands, first)
        foot_hi[check] = np.maximum.reduceat(cands, first)
        hit, shell = check[query[at_centre]], rows[at_centre]
        radius = spec.radii[shell][:, None]
        np.minimum.at(foot_lo, hit, spec.starts[shell] - radius)
        np.maximum.at(foot_hi, hit, spec.starts[shell] + radius)
    return Survey(d, projection, foot_lo, foot_hi, in_set, ambiguous)


def nearest_points(
    spec: ClosedSetSpec,
    x,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
) -> NearestResult:
    """:func:`survey` of the one query point ``x``."""
    surveyed = survey(spec, _batch(x, spec.dimension)[0], tie_tolerance, separation)
    return NearestResult(float(surveyed.distance[0]), surveyed.classifications()[0])


@dataclass(frozen=True, eq=False)
class GridSweep:
    """Vectorized distance-field evaluation over a full window grid.

    ``gradients`` holds (x - q) / d(x) at every node outside the set, q being
    the node's survey projection; nodes in the set have NaN gradients.
    ``differentiable`` holds exactly at the UNIQUE nodes.  At an ambiguous
    node the gradient is the one-sided gradient toward q, and the flag is
    false.
    """

    points: np.ndarray
    values: np.ndarray
    classifications: list[Classification]
    gradients: np.ndarray
    differentiable: np.ndarray
    resolution: int


# At most this many nodes per block of the grid sweep.  The survey of a block
# holds a few (M, block) and (block, n) temporaries, so the sweep's transient
# memory stays flat as the grid grows.
SWEEP_BLOCK_NODES = 4096


def grid_sweep(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    *,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
) -> GridSweep:
    """Survey the grid nodes block by block into preallocated arrays.

    A block is the largest whole number of the kernel's row blocks (see
    ``ClosedSetSpec.row_distances``) that holds at most ``SWEEP_BLOCK_NODES``
    nodes, so no block leaves a short row block behind.  Each node's values
    depend on that node alone, so the block size does not change a bit of
    the result.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    pts = window.grid_points(resolution)
    count, n = pts.shape
    values = np.empty(count)
    gradients = np.empty((count, n))
    differentiable = np.empty(count, dtype=bool)
    classifications: list[Classification] = []
    size = max(1, SWEEP_BLOCK_NODES // spec._block) * spec._block
    for lo in range(0, count, size):
        block = slice(lo, lo + size)
        surveyed = survey(spec, pts[block], tie_tolerance, separation)
        off = ~surveyed.in_set
        values[block] = surveyed.distance
        gradients[block] = np.nan
        offsets = pts[block] - surveyed.projection
        np.divide(offsets, surveyed.distance[:, None], out=gradients[block], where=off[:, None])
        differentiable[block] = off & ~surveyed.ambiguous
        classifications += surveyed.classifications()
    return GridSweep(
        points=pts,
        values=values,
        classifications=classifications,
        gradients=gradients,
        differentiable=differentiable,
        resolution=resolution,
    )


# 512 rows of a 3-D grid are about 75 KB of text.  Blocks of 1,024 rows
# (about 150 KB) raised the peak RSS of a 35 s shells3d benchmark run by
# about 2 MB more than blocks of 512 did.
CSV_BLOCK_ROWS = 512

_FLAGS = ("false", "true")


def write_csv(path, header: list[str], count: int, columns) -> None:
    """Write ``header`` and ``count`` rows as CSV with CRLF line ends.

    ``columns(lo, hi)`` returns rows ``lo`` to ``hi - 1`` as one list of
    strings per column; a float cell is the ``repr`` of a Python float,
    the text the ``csv`` module writes for it.  The writer works one block of
    ``CSV_BLOCK_ROWS`` rows at a time without that module: it joins the
    block's cells with ``","`` and its rows with ``"\r\n"`` and writes the
    block with one call, so the text of the whole table is never held in
    memory.  It quotes nothing, so no cell may contain a comma, a quote or a
    line break; header names, classification values, flags and float reprs
    never do.  An empty table is an empty file, without the header.
    """
    with open(path, "w", newline="") as fh:
        if not count:
            return
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, count, CSV_BLOCK_ROWS):
            block = columns(lo, min(lo + CSV_BLOCK_ROWS, count))
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_grid_csv(sweep: GridSweep, path) -> None:
    """Write the sweep one row per grid node, in the order of ``Window.grid_points``.

    A grid has ``resolution`` values per axis, so each axis value is
    formatted once; a row's value on axis ``i`` is the
    ``(row // resolution**(n - 1 - i)) % resolution``-th, last axis fastest.
    """
    res, n = sweep.resolution, sweep.points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["d", "classification"]
    header += [f"grad_{i + 1}" for i in range(n)] + ["differentiable_flag"]
    strides = [res ** (n - 1 - i) for i in range(n)]
    # The axis values as they stand in the grid: the node of index k on axis i.
    labels = [list(map(repr, sweep.points[::stride][:res, i].tolist())) for i, stride in enumerate(strides)]

    def columns(lo: int, hi: int) -> list[list[str]]:
        rows = np.arange(lo, hi)
        coords = [list(map(axis.__getitem__, (rows // stride % res).tolist())) for axis, stride in zip(labels, strides)]
        grads = [list(map(repr, col)) for col in sweep.gradients[lo:hi].T.tolist()]
        flags = list(map(_FLAGS.__getitem__, sweep.differentiable[lo:hi].tolist()))
        # Classification members are str, so the join writes their values.
        return [*coords, list(map(repr, sweep.values[lo:hi].tolist())), sweep.classifications[lo:hi], *grads, flags]

    write_csv(path, header, len(sweep.points), columns)
