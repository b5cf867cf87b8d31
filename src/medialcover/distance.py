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

``distance`` and ``survey`` take the minimum over rows with
``np.minimum.reduce``, not ``ndarray.min``: the lift of
:mod:`medialcover.fields` calls ``distance`` on a few points at a time, where
the Python wrapper is a large share of each call.

``grid_sweep`` adds, on every grid node, the gradient of the distance field
by central finite differences and whether the field looks differentiable
there; where it does, the unique nearest point is  x - d(x) * grad d(x).
It works in blocks of ``SWEEP_BLOCK_NODES`` nodes written into preallocated
arrays, so its temporaries do not grow with the grid.

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
    "DEFAULT_FD_STEP",
]

DEFAULT_TIE_TOLERANCE = 1e-9
DEFAULT_SEPARATION = 1e-6
DEFAULT_FD_STEP = 1e-5


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


@dataclass(frozen=True)
class Survey:
    """Distance, one nearest point and the classification of each query point."""

    distance: np.ndarray
    projection: np.ndarray
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
    if len(check):
        # (query, row) pairs in query order, rows ascending within each query.
        query, rows = np.nonzero(tied[:, check].T)
        cands = spec.project_rows(pts[check[query]], rows)
        first = np.flatnonzero(np.r_[True, query[1:] != query[:-1]])
        ref = np.repeat(cands[first], np.diff(np.r_[first, len(query)]), axis=0)
        apart = np.linalg.norm(cands - ref, axis=1) > separation
        ambiguous[check] = np.logical_or.reduceat(apart | centre[rows, check[query]], first)
    return Survey(distance=d, projection=spec.project_rows(pts, best), in_set=in_set, ambiguous=ambiguous)


def nearest_points(
    spec: ClosedSetSpec,
    x,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
) -> NearestResult:
    """:func:`survey` of the one query point ``x``."""
    surveyed = survey(spec, _batch(x, spec.dimension)[0], tie_tolerance, separation)
    return NearestResult(float(surveyed.distance[0]), surveyed.classifications()[0])


def _fd_tables(spec: ClosedSetSpec, pts: np.ndarray, d0: np.ndarray, step: float):
    """Per-axis one-sided and central differences of the distance field around ``d0``.

    Returns (central_h, central_h2, onesided_gap) arrays of shape (N, n).
    """
    n = spec.dimension
    N = pts.shape[0]
    central_h = np.empty((N, n))
    central_h2 = np.empty((N, n))
    gap = np.empty((N, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dp = distance(spec, pts + step * e)
        dm = distance(spec, pts - step * e)
        dp2 = distance(spec, pts + 0.5 * step * e)
        dm2 = distance(spec, pts - 0.5 * step * e)
        central_h[:, i] = (dp - dm) / (2.0 * step)
        central_h2[:, i] = (dp2 - dm2) / step
        fwd = (dp - d0) / step
        bwd = (d0 - dm) / step
        gap[:, i] = np.abs(fwd - bwd)
    return central_h, central_h2, gap


@dataclass(frozen=True)
class GridSweep:
    """Vectorized distance-field evaluation over a full window grid.

    ``differentiable`` holds at a node outside the set when, on every axis,
    forward and backward one-sided differences agree within 10*step, central
    differences at step and step/2 agree within 10*step, and the gradient
    norm does not exceed 1 + 10*step (the field is 1-Lipschitz).  Nodes in
    the set have NaN gradients.
    """

    points: np.ndarray
    values: np.ndarray
    classifications: list[Classification]
    gradients: np.ndarray
    differentiable: np.ndarray
    resolution: int


# At most this many nodes per block of the grid sweep.  The survey and the
# finite-difference tables of a block hold a few (M, block) and (block, n)
# temporaries, so the sweep's transient memory stays flat as the grid grows.
SWEEP_BLOCK_NODES = 4096


def grid_sweep(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    *,
    step: float = DEFAULT_FD_STEP,
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
        d, in_set = surveyed.distance, surveyed.in_set
        c1, c2, gap = _fd_tables(spec, pts[block], d, step)
        residual = np.maximum(gap.max(axis=1), np.abs(c1 - c2).max(axis=1))
        norms = np.linalg.norm(c2, axis=1)
        values[block] = d
        gradients[block] = np.where(in_set[:, None], np.nan, c2)
        differentiable[block] = (residual <= 10.0 * step) & (norms <= 1.0 + 10.0 * step) & ~in_set
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
