"""Independent planar Voronoi-skeleton oracle for finite point sets.

The 1-skeleton of the Voronoi diagram of m sites is built directly: for each
pair of sites the perpendicular bisector is intersected with the half-plane
constraints imposed by every other site and with the window, leaving a
(possibly empty) segment per pair.  O(m^3), which is fine at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from medialcover.geometry import Window

_EPS = 1e-12


@dataclass(frozen=True)
class SkeletonSegment:
    """A maximal piece of the Voronoi edge shared by two sites, clipped to the window."""

    start: np.ndarray
    end: np.ndarray
    sites: tuple[int, int]

    def distance_to(self, x) -> float:
        chord = self.end - self.start
        t = np.clip(float((np.asarray(x) - self.start) @ chord) / float(chord @ chord), 0.0, 1.0)
        return float(np.linalg.norm(np.asarray(x) - (self.start + t * chord)))


def _restrict(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """Intersect [lo, hi] with {t : a * t <= b}; an empty result has lo > hi."""
    if abs(a) <= _EPS:
        return (lo, hi) if b >= -_EPS else (1.0, 0.0)
    if a > 0:
        return lo, min(hi, b / a)
    return max(lo, b / a), hi


def voronoi_medial_axis_2d(points, window: Window) -> list[SkeletonSegment]:
    """Voronoi 1-skeleton of a finite planar point set, clipped to the window.

    The result is exactly the locus of window points with two or more nearest
    sites.  Coincident sites are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("sites must form an (m, 2) array with m >= 2")
    if window.dimension != 2:
        raise ValueError("window must be two-dimensional")
    m = pts.shape[0]
    segments: list[SkeletonSegment] = []
    for i in range(m):
        for j in range(i + 1, m):
            chord = pts[j] - pts[i]
            if np.linalg.norm(chord) <= _EPS:
                raise ValueError(f"sites {i} and {j} coincide")
            mid = 0.5 * (pts[i] + pts[j])
            direction = np.array([-chord[1], chord[0]])
            direction /= np.linalg.norm(direction)
            # Feasible parameter interval along x(t) = mid + t * direction.
            t_lo, t_hi = -np.inf, np.inf
            for k in range(m):
                if k in (i, j):
                    continue
                # |x - p_i|^2 <= |x - p_k|^2 is linear in x.
                normal = pts[k] - pts[i]
                a = 2.0 * float(direction @ normal)
                b = float(pts[k] @ pts[k] - pts[i] @ pts[i] - 2.0 * (mid @ normal))
                t_lo, t_hi = _restrict(a, b, t_lo, t_hi)
            for d in range(2):
                t_lo, t_hi = _restrict(direction[d], float(window.upper[d] - mid[d]), t_lo, t_hi)
                t_lo, t_hi = _restrict(-direction[d], float(mid[d] - window.lower[d]), t_lo, t_hi)
            if t_hi - t_lo > _EPS:
                segments.append(SkeletonSegment(mid + t_lo * direction, mid + t_hi * direction, (i, j)))
    return segments
