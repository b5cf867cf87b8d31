"""Distance field of a closed set: evaluation, classification, reconstruction.

Every batch query runs on the set's packed capsule rows (see
:mod:`medialcover.geometry`).  ``distance`` and ``project`` are vectorized
over query points.  ``survey`` is the one kernel behind the grid sweep and
the ambiguity detector: per query point it returns the distance, one nearest
point, and the classification as lying in the set, having a unique nearest
point, or being ambiguous.  It measures every row; only query points with
two or more rows within ``tie_tolerance`` of the minimum, or at the exact
centre of a shell, get projections onto those rows, and such a point is
ambiguous when one tied projection lies more than ``separation`` from the
first.

``nearest_points`` is the scalar reference for the same rule: it asks each
primitive on its own for its nearest points and keeps the separated ones.

``grad_distance_fd`` estimates the gradient of the distance field by central
finite differences and reports whether the field looks differentiable at the
query point; where it does, ``reconstruct_nearest`` recovers the unique
nearest point from the identity  p = x - d(x) * grad d(x).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ClosedSetSpec, Window

__all__ = [
    "Classification",
    "NearestResult",
    "GradientEstimate",
    "GridSweep",
    "Survey",
    "distance",
    "project",
    "survey",
    "nearest_points",
    "grad_distance_fd",
    "reconstruct_nearest",
    "grid_sweep",
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
    """Distance plus all (deduplicated) nearest points and their classification."""

    distance: float
    nearest: tuple[np.ndarray, ...]
    classification: Classification
    tie_tolerance: float
    infinite_set: bool = False


@dataclass(frozen=True)
class GradientEstimate:
    """Central finite-difference gradient with a differentiability verdict.

    ``differentiable`` holds when, on every axis, forward and backward
    one-sided differences agree within 10*step, central differences at step
    and step/2 agree within 10*step, and the gradient norm does not exceed
    1 + 10*step (the field is 1-Lipschitz).
    """

    vector: np.ndarray
    step: float
    differentiable: bool
    agreement_residual: float


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    return (arr[None, :] if single else arr), single


def distance(spec: ClosedSetSpec, x) -> float | np.ndarray:
    """dist(x, E): minimum over the set's packed rows.  Vectorized over points."""
    pts, single = _as_batch(x)
    d = spec.row_distances(pts).min(axis=0)
    return float(d[0]) if single else d


def project(spec: ClosedSetSpec, x) -> np.ndarray:
    """One representative nearest point per query point (the first nearest row)."""
    pts, single = _as_batch(x)
    out = spec.project_rows(pts, spec.row_distances(pts).argmin(axis=0))
    return out[0] if single else out


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
    """Classify a batch of query points (N, n) by the rule of :func:`nearest_points`."""
    table = spec.row_distances(pts)
    best = table.argmin(axis=0)
    d = table.min(axis=0)
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
    """Collect every nearest-point candidate within ``tie_tolerance`` of the minimum.

    Candidates closer than ``separation`` to an already kept point are treated
    as floating-point duplicates and dropped.  Classification:

    * ``IN_SET``     -- distance <= tie_tolerance;
    * ``AMBIGUOUS``  -- at least two kept points (pairwise separation is then
      > ``separation`` by construction), or an infinite nearest set was
      flagged (a shell queried exactly at its center);
    * ``UNIQUE``     -- otherwise.
    """
    if tie_tolerance <= 0:
        raise ValueError("tie_tolerance must be positive")
    x = np.asarray(x, dtype=float)
    per = [(float(p.distance(x)[0]), p) for p in spec.primitives]
    dmin = min(d for d, _ in per)
    kept: list[np.ndarray] = []
    infinite = False
    for d, p in per:
        if d > dmin + tie_tolerance:
            continue
        points, inf_flag = p.nearest(x)
        infinite = infinite or inf_flag
        for cand in points:
            if all(np.linalg.norm(cand - q) > separation for q in kept):
                kept.append(np.asarray(cand, dtype=float))
    if dmin <= tie_tolerance:
        cls = Classification.IN_SET
    elif infinite or len(kept) >= 2:
        cls = Classification.AMBIGUOUS
    else:
        cls = Classification.UNIQUE
    return NearestResult(
        distance=dmin,
        nearest=tuple(kept),
        classification=cls,
        tie_tolerance=tie_tolerance,
        infinite_set=infinite,
    )


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


def grad_distance_fd(
    spec: ClosedSetSpec,
    x,
    step: float = DEFAULT_FD_STEP,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> GradientEstimate:
    """Finite-difference gradient of the distance field at a point outside the set."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    d0 = distance(spec, x[None, :])
    if float(d0[0]) <= tie_tolerance:
        raise ValueError("gradient of the distance field is undefined on the set itself")
    c1, c2, gap = _fd_tables(spec, x[None, :], d0, step)
    vector = c2[0]
    residual = float(max(gap[0].max(), np.abs(c1[0] - c2[0]).max()))
    ok = residual <= 10.0 * step and float(np.linalg.norm(vector)) <= 1.0 + 10.0 * step
    return GradientEstimate(vector=vector, step=step, differentiable=bool(ok), agreement_residual=residual)


def reconstruct_nearest(spec: ClosedSetSpec, x, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Recover the unique nearest point as x - d(x) * grad d(x).

    Refuses when the differentiability check fails: a non-differentiable
    distance field means the nearest point may not be unique.
    """
    x = np.asarray(x, dtype=float)
    est = grad_distance_fd(spec, x, step=step)
    if not est.differentiable:
        raise ValueError("distance field not differentiable here; nearest point may be ambiguous")
    return x - float(distance(spec, x)) * est.vector


@dataclass(frozen=True)
class GridSweep:
    """Vectorized distance-field evaluation over a full window grid."""

    points: np.ndarray
    values: np.ndarray
    classifications: list[Classification]
    gradients: np.ndarray
    differentiable: np.ndarray
    resolution: int


def grid_sweep(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    *,
    step: float = DEFAULT_FD_STEP,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
) -> GridSweep:
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    pts = window.grid_points(resolution)
    surveyed = survey(spec, pts, tie_tolerance, separation)
    d, in_set = surveyed.distance, surveyed.in_set
    c1, c2, gap = _fd_tables(spec, pts, d, step)
    residual = np.maximum(gap.max(axis=1), np.abs(c1 - c2).max(axis=1))
    norms = np.linalg.norm(c2, axis=1)
    diff = (residual <= 10.0 * step) & (norms <= 1.0 + 10.0 * step) & ~in_set
    grads = np.where(in_set[:, None], np.nan, c2)
    return GridSweep(
        points=pts,
        values=d,
        classifications=surveyed.classifications(),
        gradients=grads,
        differentiable=diff,
        resolution=resolution,
    )


def write_grid_csv(sweep: GridSweep, path) -> None:
    n = sweep.points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["d", "classification"]
    header += [f"grad_{i + 1}" for i in range(n)] + ["differentiable_flag"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(sweep.points.shape[0]):
            row = [repr(v) for v in sweep.points[k]]
            row.append(repr(float(sweep.values[k])))
            row.append(sweep.classifications[k].value)
            row.extend(repr(v) for v in sweep.gradients[k])
            row.append("true" if sweep.differentiable[k] else "false")
            writer.writerow(row)
