"""Scalar nearest-point queries, one primitive at a time: the reference for the packed kernel.

The package answers every distance, projection and classification question
through the packed capsule rows of :class:`medialcover.ClosedSetSpec`.  This
module asks each :class:`Point`, :class:`Segment` and :class:`Ball` on its own,
with its own closed form, so a test that compares the two does not check the
kernel against itself.

``distance``, ``project`` and ``nearest`` take one primitive and query points;
``nearest_points`` takes a whole set and one query point, keeps every
primitive whose distance is within ``tie_tolerance`` of the minimum, and
deduplicates their nearest points at ``separation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from medialcover import Ball, Classification, ClosedSetSpec, Point, Segment
from medialcover.distance import DEFAULT_SEPARATION, DEFAULT_TIE_TOLERANCE


def _rows(x) -> np.ndarray:
    """Query points as an (N, n) array; one point is one row."""
    return np.atleast_2d(np.asarray(x, dtype=float))


def _ball_witness(b: Ball) -> np.ndarray:
    """The one shell point that stands for the whole shell at its centre: centre + R e_1."""
    w = b.center.copy()
    w[0] += b.radius
    return w


def distance(p, x) -> np.ndarray:
    """Distances (N,) from query points to the primitive ``p``."""
    x = _rows(x)
    if isinstance(p, Point):
        return np.linalg.norm(x - p.coords, axis=1)
    if isinstance(p, Segment):
        return np.linalg.norm(x - project(p, x), axis=1)
    return np.abs(np.linalg.norm(x - p.center, axis=1) - p.radius)


def project(p, x) -> np.ndarray:
    """One nearest point (N, n) of the primitive ``p`` per query point."""
    x = _rows(x)
    if isinstance(p, Point):
        return np.broadcast_to(p.coords, x.shape).copy()
    if isinstance(p, Segment):
        d = p.b - p.a
        t = np.clip((x - p.a) @ d / (d @ d), 0.0, 1.0)
        return p.a + t[:, None] * d
    u = x - p.center
    rho = np.linalg.norm(u, axis=1)
    out = np.empty_like(x)
    degenerate = rho == 0.0
    safe = ~degenerate
    out[safe] = p.center + (p.radius / rho[safe])[:, None] * u[safe]
    out[degenerate] = _ball_witness(p)
    return out


def nearest(p, x) -> tuple[list[np.ndarray], bool]:
    """The nearest points of ``p`` to one query point, and whether there are infinitely many.

    A point and a segment (convex) have one; a shell of positive radius queried
    exactly at its centre has the whole shell, given as one witness point.
    """
    if isinstance(p, Point):
        return [p.coords.copy()], False
    if isinstance(p, Segment):
        return [project(p, x)[0]], False
    if p.radius == 0.0:
        return [p.center.copy()], False
    u = _rows(x)[0] - p.center
    rho = float(np.linalg.norm(u))
    if rho == 0.0:
        return [_ball_witness(p)], True
    return [p.center + (p.radius / rho) * u], False


@dataclass(frozen=True)
class NearestResult:
    """Distance plus all (deduplicated) nearest points and their classification."""

    distance: float
    nearest: tuple[np.ndarray, ...]
    classification: Classification
    tie_tolerance: float
    infinite_set: bool = False


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
    x = np.asarray(x, dtype=float)
    per = [(float(distance(p, x)[0]), p) for p in spec.primitives]
    dmin = min(d for d, _ in per)
    kept: list[np.ndarray] = []
    infinite = False
    for d, p in per:
        if d > dmin + tie_tolerance:
            continue
        points, inf_flag = nearest(p, x)
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
