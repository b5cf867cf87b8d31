"""Scalar nearest-point queries, one record at a time: the reference for the packed kernel.

The package answers every distance, projection and classification question
through the packed capsule rows of
:class:`medialcover.geometry.ClosedSetSpec`, which keeps no records.  This
module reads the JSON records that a test declares
(``{"type": "point", "coords": ...}``, ``"segment"`` with ``a`` and ``b``,
``"polygon"`` with ``vertices``, ``"ball"`` with ``center`` and ``radius``)
and applies its own closed form to each, without the package's packers, so
a test that compares the two does not check the kernel, or the packing,
against itself.

``dimension`` reads the number of coordinates of a record.  ``distance``,
``project`` and ``nearest`` take one point, segment or ball record and query
points.  ``edges`` splits a polygon record into its edge
segment records, and ``expand`` does so for every loop of a list of records,
in the order of the packed rows.  ``nearest_points`` takes the records of a
set and one query point, keeps every expanded record whose distance is
within ``tie_tolerance`` of the minimum, and deduplicates their nearest
points at ``separation``.

``project_rows`` keeps the boolean-mask form of
:meth:`ClosedSetSpec.project_rows` on the packed rows, the byte-level oracle of
the masked-write form that the package uses.

``asplund_field`` is the unfused convex field |x|^2 - dist(x, E)^2 of a set,
and ``strongify`` adds |x|^2 to a field, which makes a convex field strongly
convex with modulus 1: ``strongify(asplund_field(spec))`` is the bit
reference of :func:`medialcover.convex.asplund_lift`.  ``blend`` is a seeded
C^2 test field, a quadratic form plus sine ripples, that is no lift of a set.

The finite-difference estimates of first-order data are kept here too, as
the oracles of the exact values that the package reads off the feet:
``one_sided`` and ``fd_witnesses`` for the one-sided partials and witnesses
of a convex field, and ``fd_gradients`` for the gradient of the distance
field on a grid.

``convexity_probe`` samples the midpoint inequality of a field, the check
that the lift and its marginal functions are convex; and
``reference_marginal_inf`` is the scalar bracket-doubling and golden-section
search, the bit reference of :func:`medialcover.convex.marginal_inf_rows`.

``reference_flagged_edges`` is the whole-grid form of the flag rule of
``verify._flagged_edges``: one (M, N) distance table, every node projected
and every edge measured.  It is the bit and order reference of the blocked
form that projects only the ends of edges whose nearest rows differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from medialcover.convex import CoercivityError
from medialcover.distance import SEPARATION, TIE_TOLERANCE, Classification, survey
from medialcover.geometry import ClosedSetSpec
from medialcover.verify import _SEPARATION_FACTOR


def _rows(x) -> np.ndarray:
    """Query points as an (N, n) array; one point is one row."""
    return np.atleast_2d(np.asarray(x, dtype=float))


def _vector(record: dict, key: str) -> np.ndarray:
    return np.array(record[key], dtype=float)


def dimension(p: dict) -> int:
    """The number of coordinates of a record's points."""
    key = {"point": "coords", "segment": "a", "polygon": "vertices", "ball": "center"}[p["type"]]
    return np.shape(p[key])[-1]


def _ball_witness(b: dict) -> np.ndarray:
    """The one shell point that stands for the whole shell at its centre: centre + R e_1."""
    w = _vector(b, "center")
    w[0] += b["radius"]
    return w


def distance(p: dict, x) -> np.ndarray:
    """Distances (N,) from query points to the point, segment or ball record ``p``."""
    x = _rows(x)
    if p["type"] == "point":
        return np.linalg.norm(x - _vector(p, "coords"), axis=1)
    if p["type"] == "segment":
        return np.linalg.norm(x - project(p, x), axis=1)
    return np.abs(np.linalg.norm(x - _vector(p, "center"), axis=1) - p["radius"])


def project(p: dict, x) -> np.ndarray:
    """One nearest point (N, n) of the point, segment or ball record ``p`` per query point."""
    x = _rows(x)
    if p["type"] == "point":
        return np.broadcast_to(_vector(p, "coords"), x.shape).copy()
    if p["type"] == "segment":
        a = _vector(p, "a")
        d = _vector(p, "b") - a
        t = np.clip((x - a) @ d / (d @ d), 0.0, 1.0)
        return a + t[:, None] * d
    center = _vector(p, "center")
    u = x - center
    rho = np.linalg.norm(u, axis=1)
    out = np.empty_like(x)
    degenerate = rho == 0.0
    safe = ~degenerate
    out[safe] = center + (p["radius"] / rho[safe])[:, None] * u[safe]
    out[degenerate] = _ball_witness(p)
    return out


def edges(p: dict) -> list[dict]:
    """The closed loop of a polygon record as segment records: vertex k to vertex k + 1, the last back to the first."""
    v = _vector(p, "vertices")
    m = len(v)
    return [{"type": "segment", "a": v[k], "b": v[(k + 1) % m]} for k in range(m)]


def expand(records) -> list[dict]:
    """The records with each polygon loop replaced by its edges: one record per packed row."""
    return [q for p in records for q in (edges(p) if p["type"] == "polygon" else [p])]


def project_rows(spec: ClosedSetSpec, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The nearest point of packed row ``rows[k]`` to ``pts[k]``, with boolean-mask gathers and scatters."""
    foot = spec.starts[rows]
    if spec._has_segments:
        d = spec.directions[rows]
        t = np.add.reduce((pts - foot) * d, axis=1) / spec._lengths2[rows]
        np.maximum(0.0, t, out=t)
        np.minimum(t, 1.0, out=t)
        foot += t[:, None] * d
    if spec._has_shells:
        r = spec.radii[rows]
        u = pts - foot
        rho = np.sqrt(np.add.reduce(u * u, axis=1))
        radial = (r > 0.0) & (rho > 0.0)
        foot[radial] += (r[radial] / rho[radial])[:, None] * u[radial]
        centre = (r > 0.0) & (rho == 0.0)
        foot[centre, 0] += r[centre]
    return foot


def nearest(p: dict, x) -> tuple[list[np.ndarray], bool]:
    """The nearest points of the record ``p`` to one query point, and whether there are infinitely many.

    A point and a segment (convex) have one; a shell of positive radius queried
    exactly at its centre has the whole shell, given as one witness point.
    """
    if p["type"] == "point":
        return [_vector(p, "coords")], False
    if p["type"] == "segment":
        return [project(p, x)[0]], False
    center = _vector(p, "center")
    if p["radius"] == 0.0:
        return [center], False
    u = _rows(x)[0] - center
    rho = float(np.linalg.norm(u))
    if rho == 0.0:
        return [_ball_witness(p)], True
    return [center + (p["radius"] / rho) * u], False


@dataclass(frozen=True)
class NearestResult:
    """Distance plus all (deduplicated) nearest points and their classification."""

    distance: float
    nearest: tuple[np.ndarray, ...]
    classification: Classification
    tie_tolerance: float
    infinite_set: bool = False


def nearest_points(
    records,
    x,
    tie_tolerance: float = TIE_TOLERANCE,
    separation: float = SEPARATION,
) -> NearestResult:
    """Collect every nearest-point candidate of the set ``records`` within ``tie_tolerance`` of the minimum.

    Candidates closer than ``separation`` to an already kept point are treated
    as floating-point duplicates and dropped.  Classification:

    * ``IN_SET``     -- distance <= tie_tolerance;
    * ``AMBIGUOUS``  -- at least two kept points (pairwise separation is then
      > ``separation`` by construction), or an infinite nearest set was
      flagged (a shell queried exactly at its center);
    * ``UNIQUE``     -- otherwise.
    """
    x = np.asarray(x, dtype=float)
    per = [(float(distance(p, x)[0]), p) for p in expand(records)]
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


Field = Callable[[np.ndarray], np.ndarray]


def asplund_field(spec: ClosedSetSpec) -> Field:
    """|x|^2 - dist(x, E)^2, convex for any nonempty closed E."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, spec.dimension)
        d = np.minimum.reduce(spec.row_distances(flat), axis=0)
        out = np.add.reduce(flat * flat, axis=-1) - d * d
        return out.reshape(x.shape[:-1])

    return evaluate


def strongify(field: Field) -> Field:
    """Add |x|^2; for convex input the result is strongly convex with modulus 1."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        return field(x) + np.add.reduce(x * x, axis=-1)

    return evaluate


def blend(dimension: int, seed: int) -> Field:
    """A seeded C^2 test field: x^T A x plus per-coordinate sine ripples."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(dimension, dimension))
    quad = 0.5 * (m + m.T)
    amps = rng.uniform(-1.0, 1.0, size=dimension)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dimension)

    def evaluate(x: np.ndarray) -> np.ndarray:
        q = np.einsum("...i,ij,...j->...", x, quad, x)
        return q + np.sum(amps * np.sin(x + phases), axis=-1)

    return evaluate


def one_sided(field, points, step=1e-4) -> tuple[np.ndarray, np.ndarray]:
    """(minus, plus) partials, each (K, n), along every axis at the K rows of ``points``.

    For a convex field the secant (f(x + t e) - f(x)) / t is nondecreasing in
    t, so the secants at t = +-h, +-h/2, +-h/4 bracket the one-sided limits;
    their Richardson extrapolations are clipped back into that bracket.  Two
    field calls: one for the K base values, one for the 6 * n * K shifted
    points.
    """
    points = np.asarray(points, dtype=float)
    count, n = points.shape
    ts = np.array([sign * step / div for sign in (1.0, -1.0) for div in (1, 2, 4)])  # h, h/2, h/4, -h, ...
    offsets = ts[None, :, None] * np.eye(n)[:, None, :]  # (n, 6, n): t * e
    f0 = field(points)
    shifted = field((points[:, None, None, :] + offsets).reshape(-1, n)).reshape(count, n, 6)
    s = (shifted - f0[:, None, None]) / ts
    # Eliminates the O(t) and O(t^2) terms of the secant expansion.
    plus = (8.0 * s[..., 2] - 6.0 * s[..., 1] + s[..., 0]) / 3.0
    minus = (8.0 * s[..., 5] - 6.0 * s[..., 4] + s[..., 3]) / 3.0
    sp_h4, sm_h4 = s[..., 2], s[..., 5]
    monotone = sm_h4 <= sp_h4  # skip the clip for non-convex diagnostics

    def clip(v):
        v = np.where(monotone & (sm_h4 > v), sm_h4, v)
        return np.where(monotone & (sp_h4 < v), sp_h4, v)

    return clip(minus), clip(plus)


def lattice_witness(minus, plus, lattice) -> tuple[int, float, float] | None:
    """The package's lattice rule on one point's per-axis partials.

    The witness is on the first axis whose gap holds a lattice pair at least
    half a step inside it, and it is the widest such pair.
    """
    margin = lattice.step / 2.0
    for axis, (m, p) in enumerate(zip(minus, plus)):
        lo = max(math.ceil((m + margin) / lattice.step - 1e-12), -lattice.max_index)
        hi = min(math.floor((p - margin) / lattice.step + 1e-12), lattice.max_index)
        if hi > lo:
            return (axis, lo * lattice.step, hi * lattice.step)
    return None


def fd_witnesses(field, points, lattice, step=1e-4) -> list[tuple[int, float, float] | None]:
    """The witness (axis, alpha, beta) of each row of ``points`` from the partials of :func:`one_sided`."""
    points = np.asarray(points, dtype=float)
    if not len(points):
        return []
    minus, plus = one_sided(field, points, step)
    return [lattice_witness(m, p, lattice) for m, p in zip(minus.tolist(), plus.tolist())]


def fd_gradients(spec, pts, step=1e-5, tie_tolerance=TIE_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (N, n) of the distance field, and where the field looks differentiable.

    A node off the set looks differentiable when, on every axis, forward and
    backward differences agree within 10*step, central differences at step
    and step/2 agree within 10*step, and the gradient norm is at most
    1 + 10*step (the field is 1-Lipschitz).  Nodes in the set get NaN.
    """
    pts = np.asarray(pts, dtype=float)

    def d(x):
        return survey(spec, x).distance

    d0 = d(pts)
    central_h, central_h2, gap = (np.empty(pts.shape) for _ in range(3))
    for i, e in enumerate(np.eye(pts.shape[1])):
        dp, dm = d(pts + step * e), d(pts - step * e)
        dp2, dm2 = d(pts + 0.5 * step * e), d(pts - 0.5 * step * e)
        central_h[:, i] = (dp - dm) / (2.0 * step)
        central_h2[:, i] = (dp2 - dm2) / step
        gap[:, i] = np.abs((dp - d0) / step - (d0 - dm) / step)
    in_set = d0 <= tie_tolerance
    residual = np.maximum(gap.max(axis=1), np.abs(central_h - central_h2).max(axis=1))
    norms = np.linalg.norm(central_h2, axis=1)
    differentiable = (residual <= 10.0 * step) & (norms <= 1.0 + 10.0 * step) & ~in_set
    return np.where(in_set[:, None], np.nan, central_h2), differentiable


def convexity_probe(field, window, num_samples=10000, seed=0) -> tuple[float, float, bool]:
    """(violation, tolerance, passed) of the midpoint inequality f(lx + (1-l)y) <= l f(x) + (1-l) f(y).

    The violation is the worst over ``num_samples`` random pairs of the window
    and random l in [0, 1]; it passes within 1e-9 of the largest |f| sampled.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = np.random.default_rng(seed)
    x = window.sample(rng, num_samples)
    y = window.sample(rng, num_samples)
    lam = rng.uniform(0.0, 1.0, size=num_samples)
    fx = np.asarray(field(x), dtype=float)
    fy = np.asarray(field(y), dtype=float)
    mid = np.asarray(field(lam[:, None] * x + (1.0 - lam[:, None]) * y), dtype=float)
    violation = float(np.max(mid - (lam * fx + (1.0 - lam) * fy)))
    tolerance = 1e-9 * (1.0 + float(max(np.abs(fx).max(), np.abs(fy).max())))
    return violation, tolerance, violation <= tolerance


def reference_marginal_inf(field, axis, slope, x_rest, xtol=1e-7):
    """The scalar bracket doubling and golden-section search that the batched kernel replaced."""
    point = np.insert(np.asarray(x_rest, dtype=float), axis, 0.0)

    def phi(t):
        point[axis] = t
        return float(field(point)) - slope * t

    half, f_center = 1.0, phi(0.0)
    for _ in range(1 + 60):  # the first bracket, then up to 60 doublings
        if phi(-half) > f_center and phi(half) > f_center:
            break
        half *= 2.0
    else:
        raise CoercivityError(f"bracket for axis {axis}, slope {slope} still open")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -half, half
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    while (b - a) > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    return min(fc, fd)


def reference_flagged_edges(spec: ClosedSetSpec, window, resolution: int):
    """The flag rule of :func:`medialcover.verify._flagged_edges`, on whole-grid arrays.

    Every node's nearest row is the plain ``row_distances`` argmin of the
    whole (M, N) table, every node is projected onto its row, and every edge
    of every axis has its feet's distance measured.  An edge is flagged when
    its end rows differ and its feet lie more than ``_SEPARATION_FACTOR``
    edge lengths apart.  Returns ``(a, b, proj_a, proj_b, row_a, row_b)``,
    axis by axis in grid order.
    """
    n = spec.dimension
    axes = window.axes(resolution)
    pts = window.grid_points(resolution)
    nearest = spec.row_distances(pts).argmin(axis=0)
    shape = (resolution,) * n
    P = spec.project_rows(pts, nearest).reshape(shape + (n,))
    R = nearest.reshape(shape)
    X = pts.reshape(shape + (n,))
    parts = []
    for k in range(n):
        sa = (slice(None),) * k + (slice(0, -1),)
        sb = (slice(None),) * k + (slice(1, None),)
        step = axes[k][1] - axes[k][0]
        flag = (R[sa] != R[sb]) & (np.linalg.norm(P[sa] - P[sb], axis=-1) > _SEPARATION_FACTOR * step)
        parts.append(tuple(v[flag] for v in (X[sa], X[sb], P[sa], P[sb], R[sa], R[sb])))
    return tuple(np.concatenate(column) for column in zip(*parts))
