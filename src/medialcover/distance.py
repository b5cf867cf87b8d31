"""Distance field of a closed set: evaluation, classification, reconstruction.

Every query runs on the set's packed capsule rows (see
:mod:`medialcover.geometry`).  ``survey`` is the package's classifying
query, behind the grid sweep and the single-point query
``nearest_points``: per query point it returns the distance, one nearest
point (its projection onto the first row at the minimum), and the
classification as lying in the set, having a unique nearest point, or being
ambiguous.  Callers that need no classification read
``ClosedSetSpec.row_distances`` directly: the ambiguity detector, the lift
of :mod:`medialcover.convex` and ``parse_config``'s reach check.
``survey`` measures every row; only query points with two or more rows
within ``TIE_TOLERANCE`` (1e-9) of the minimum, or at the exact centre of a
shell, get projections onto those rows, and such a point is ambiguous when
one tied projection lies more than ``SEPARATION`` (1e-6) from the first.
The two are constants of the method; ``survey`` and ``nearest_points`` take
them as parameters that default to them.

``grid_sweep`` adds, on every grid node off the set, the gradient
(x - q) / d(x) of the distance field, q being the survey's projection.  It
stores each node's class as one int8 code, the index of the class in
``Classification``; off the set, d is differentiable exactly at the UNIQUE
nodes, where the nearest point is unique.  The sweep walks the grid in
``ClosedSetSpec.grid_blocks``, into preallocated arrays, so its nodes and
temporaries do not grow with the grid.

``write_grid_csv`` and ``write_samples_csv`` write a sweep and the points of
a ``verify`` report through ``write_csv``, a columnar writer that works one
block of ``CSV_BLOCK_ROWS`` rows at a time and does not use the ``csv``
module.  Every float is written as its ``repr``: each grid coordinate once
per axis value, and each other distinct float once per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ClosedSetSpec, Window

__all__ = [
    "Classification",
    "NearestResult",
    "GridSweep",
    "Survey",
    "survey",
    "nearest_points",
    "grid_sweep",
    "write_csv",
    "write_grid_csv",
    "write_samples_csv",
    "TIE_TOLERANCE",
    "SEPARATION",
]

TIE_TOLERANCE = 1e-9
SEPARATION = 1e-6


class Classification(str, Enum):
    IN_SET = "in_set"
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class NearestResult:
    """Distance and classification of one query point."""

    distance: float
    classification: Classification


@dataclass(frozen=True, eq=False)
class Survey:
    """Distance, one nearest point and the class of each query point."""

    distance: np.ndarray
    projection: np.ndarray
    in_set: np.ndarray
    ambiguous: np.ndarray

    def classifications(self) -> list[Classification]:
        return [_BY_CODE[c] for c in _class_codes(self).tolist()]


_BY_CODE = tuple(Classification)


def _class_codes(surveyed: Survey) -> np.ndarray:
    """Each query point's index in ``_BY_CODE``, as int8: 0 in the set, 1 unique, 2 ambiguous."""
    return np.where(surveyed.in_set, 0, np.where(surveyed.ambiguous, 2, 1)).astype(np.int8)


def survey(
    spec: ClosedSetSpec,
    pts: np.ndarray,
    tie_tolerance: float = TIE_TOLERANCE,
    separation: float = SEPARATION,
) -> Survey:
    """Classify a batch of query points (N, n) by the tie rule of the module docstring."""
    table = spec.row_distances(pts)
    d = np.minimum.reduce(table, axis=0)
    in_set = d <= tie_tolerance
    tied = table <= d + tie_tolerance
    centre = np.zeros_like(tied)
    for k in np.flatnonzero(spec.radii):
        centre[k] = np.all(pts == spec.starts[k], axis=1)
    check = np.flatnonzero(((tied.sum(axis=0) >= 2) | (tied & centre).any(axis=0)) & ~in_set)
    ambiguous = np.zeros(len(d), dtype=bool)
    projection = spec.project_rows(pts, table.argmin(axis=0))
    if len(check):
        # (query, row) pairs in query order, rows ascending within each query.
        query, rows = np.nonzero(tied[:, check].T)
        cands = spec.project_rows(pts[check[query]], rows)
        first = np.flatnonzero(np.r_[True, query[1:] != query[:-1]])
        ref = np.repeat(cands[first], np.diff(np.r_[first, len(query)]), axis=0)
        apart = np.linalg.norm(cands - ref, axis=1) > separation
        at_centre = centre[rows, check[query]]
        ambiguous[check] = np.logical_or.reduceat(apart | at_centre, first)
    return Survey(d, projection, in_set, ambiguous)


def _batch(x: np.ndarray, dimension: int) -> np.ndarray:
    """Coerce ``x`` to shape (N, dimension); a single point becomes one row."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise ValueError(f"expected points of dimension {dimension}, got shape {arr.shape}")
    return arr


def nearest_points(
    spec: ClosedSetSpec,
    x,
    tie_tolerance: float = TIE_TOLERANCE,
    separation: float = SEPARATION,
) -> NearestResult:
    """:func:`survey` of the one query point ``x``."""
    surveyed = survey(spec, _batch(x, spec.dimension), tie_tolerance, separation)
    return NearestResult(float(surveyed.distance[0]), surveyed.classifications()[0])


@dataclass(frozen=True, eq=False)
class GridSweep:
    """Vectorized distance-field evaluation over a full window grid.

    Row k of each array is node k of the grid, ``window.nodes(resolution, k)``.
    ``classes`` holds each node's class as its index in ``Classification``
    (0 in the set, 1 unique, 2 ambiguous); the field is differentiable
    exactly at the unique nodes.  ``gradients`` holds (x - q) / d(x) at every
    node outside the set, q being the node's survey projection; nodes in the
    set have NaN gradients.  At an ambiguous node the gradient is the
    one-sided gradient toward q.
    """

    window: Window
    resolution: int
    values: np.ndarray
    classes: np.ndarray
    gradients: np.ndarray


def grid_sweep(spec: ClosedSetSpec, window: Window, resolution: int) -> GridSweep:
    """Survey the grid nodes one kernel row block at a time (see ``ClosedSetSpec.grid_blocks``) into preallocated arrays.

    A block's nodes and survey are a few (M, block) and (block, n)
    temporaries, so the sweep's transient memory stays flat as the grid
    grows.  Each node's values depend on that node alone, so the block size
    does not change a bit of the result.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    count, n = resolution**window.dimension, window.dimension
    values = np.empty(count)
    gradients = np.empty((count, n))
    classes = np.empty(count, dtype=np.int8)
    for block, nodes in spec.grid_blocks(window, resolution):
        surveyed = survey(spec, nodes)
        off = ~surveyed.in_set
        values[block] = surveyed.distance
        gradients[block] = np.nan
        offsets = nodes - surveyed.projection
        np.divide(offsets, surveyed.distance[:, None], out=gradients[block], where=off[:, None])
        classes[block] = _class_codes(surveyed)
    return GridSweep(window=window, resolution=resolution, values=values, classes=classes, gradients=gradients)


# 512 rows of a 3-D grid are about 75 KB of text.  Blocks of 1,024 rows
# (about 150 KB) raised the peak RSS of a 35 s shells3d benchmark run by
# about 2 MB more than blocks of 512 did.
CSV_BLOCK_ROWS = 512

# The classification and differentiable_flag cells of each class code.
_CLASS_TEXT = tuple(c.value for c in _BY_CODE)
_FLAG_TEXT = ("false", "true", "false")


def _float_columns(block: np.ndarray) -> list[list[str]]:
    """The ``repr`` text of a (rows, k) float block, one list per column.

    Each distinct bit pattern of the block is formatted once: a block with no
    repeat is formatted cell by cell, any other through ``np.unique``.  Bits,
    not values, are the key, so ``0.0`` and ``-0.0`` keep their own text;
    every NaN prints ``nan``.
    """
    cols = np.ascontiguousarray(block.T, dtype=np.float64)
    bits = cols.view(np.int64).ravel()
    ordered = np.sort(bits)
    if (ordered[1:] != ordered[:-1]).all():
        return [list(map(repr, col)) for col in cols.tolist()]
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = list(map(repr, distinct.view(np.float64).tolist()))
    # ``bits`` is flat because NumPy 1.x and 2.x shape the inverse of a 2-D input differently.
    return [list(map(text.__getitem__, col)) for col in inverse.reshape(cols.shape).tolist()]


def write_csv(path, header: list[str], count: int, columns) -> None:
    """Write ``header`` and ``count`` rows as CSV with CRLF line ends.

    ``columns(lo, hi)`` returns rows ``lo`` to ``hi - 1`` as one list of
    strings per column; a float cell is the ``repr`` of a Python float,
    the text the ``csv`` module writes for it.  Both table writers format
    their float cells with ``_float_columns``, which formats each distinct
    float of a block once.  The writer works one block of
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
    """Write the sweep one row per grid node, in the order of ``Window.nodes``.

    A grid has ``resolution`` values per axis, so each axis value is
    formatted once; a row's value on each axis is the tick that
    ``np.unravel_index`` gives for its flat index, last axis fastest.
    The distance and gradient cells of a block go through
    ``_float_columns``, so each distinct float of a block is formatted once;
    symmetric grids and sets repeat many of them.
    """
    res, n = sweep.resolution, sweep.window.dimension
    header = [f"x{i + 1}" for i in range(n)] + ["d", "classification"]
    header += [f"grad_{i + 1}" for i in range(n)] + ["differentiable_flag"]
    # ``Window.nodes`` copies these axis values into its nodes unchanged.
    labels = [list(map(repr, axis.tolist())) for axis in sweep.window.axes(res)]

    def columns(lo: int, hi: int) -> list[list[str]]:
        cells = np.unravel_index(np.arange(lo, hi), (res,) * n)
        coords = [list(map(axis.__getitem__, cell.tolist())) for axis, cell in zip(labels, cells)]
        d, *grads = _float_columns(np.column_stack([sweep.values[lo:hi], sweep.gradients[lo:hi]]))
        codes = sweep.classes[lo:hi].tolist()
        return [*coords, d, list(map(_CLASS_TEXT.__getitem__, codes)), *grads, list(map(_FLAG_TEXT.__getitem__, codes))]

    write_csv(path, header, len(sweep.values), columns)


def write_samples_csv(points: np.ndarray, path) -> None:
    """Write the (K, n) sample points to ``path`` as CSV, each distinct float of a block formatted once; K = 0 writes an empty file."""
    header = [f"x{i + 1}" for i in range(points.shape[1])]
    write_csv(path, header, len(points), lambda lo, hi: _float_columns(points[lo:hi]))
