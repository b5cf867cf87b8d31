"""End-to-end certification that detected ambiguous points are covered.

``detect_ambiguous`` reads the nearest row and its foot at every node of a
window grid from the set's packed rows (a polygon loop is one segment row
per edge there), and flags the grid edges whose endpoints have different
nearest rows with feet on genuinely different branches of the set.
Illinois regula falsi on the difference of the distances to its two end rows
takes each flagged edge to the point where the two rows tie to within a few
ulp, with no projection.  Where a third row is strictly nearer there, the
edge passes through that row's region, and a next round follows it on one
half of the bracket.  The flagged edges of all axes form one batch that
shares each lockstep loop, and each bracket stops on its own tests.  Every
sample is such a refined point, and carries its feet as a box: the
coordinatewise minimum and maximum of its projections onto its two rows.
``certify_cover`` then runs the detected samples through the convex-lift
pipeline: the derivative-gap witness read off the feet, covering graph
(axis, alpha, beta), vertical deviation, and the marginal-value identities,
and returns the report dict that the ``verify`` command serializes.  Samples
whose derivative gap is too small for the slope lattice are reported as
unresolved rather than failed.
"""

from __future__ import annotations

import numpy as np

from .convex import SlopeLattice, asplund_lift, marginal_inf_rows, nondiff_witnesses
from .cover import graph_coordinate, graph_key
from .distance import _float_columns, write_csv
from .geometry import ClosedSetSpec, Window

__all__ = [
    "detect_ambiguous",
    "certify_cover",
    "write_samples_csv",
    "write_overlay_svg",
]

# A sample is covered when its graph passes within this vertical distance of it.
_COVERAGE_TOL = 1e-6
# The two projections of a flagged edge lie more than _SEPARATION_FACTOR edge
# lengths apart.
_SEPARATION_FACTOR = 4.0
# At most this many rounds of regula falsi per flagged edge; each round after
# the first follows a row that is strictly nearer at the last round's finish.
_MAX_ROUNDS = 16
# At most this many regula falsi steps per bracket.
_MAX_FALSI_STEPS = 32
# Regula falsi stops where the two rows' distances differ by at most this many
# units in the last place of the larger one.
_FALSI_ULPS = 4


def _flagged_edges(spec, window, resolution):
    """The grid edges that cross from one branch of the set to another, as one batch.

    Each grid node's nearest row is the first row at the minimum of
    ``row_distances``, and its foot is its projection onto that row.  An edge
    is flagged when its two endpoints have different nearest rows AND their
    feet lie more than ``_SEPARATION_FACTOR`` edge lengths apart.  Within one
    row the foot is unique, except at a shell's centre, so an edge whose ends
    share a nearest row holds no crossing of two rows.  The separation test
    rejects the tangential projection drift that any curve primitive induces
    on edges running parallel to it, which is not a branch change.  The edges
    come as one batch ``(a, b, proj_a, proj_b, row_a, row_b)`` of (K, n)
    points and (K,) packed rows, axis by axis in grid order; K is 0 when no
    edge is flagged.
    """
    n = spec.dimension
    axes = window.axes(resolution)
    pts = window.grid_points(resolution)
    nearest = spec.row_distances(pts).argmin(axis=0)

    shape = (resolution,) * n
    P = spec.project_rows(pts, nearest).reshape(shape + (n,))
    R = nearest.reshape(shape)
    X = pts.reshape(shape + (n,))

    parts = []  # (a, b, proj_a, proj_b, row_a, row_b) of each axis
    for k in range(n):
        sl_a = [slice(None)] * n
        sl_b = [slice(None)] * n
        sl_a[k] = slice(0, -1)
        sl_b[k] = slice(1, None)
        sa, sb = tuple(sl_a), tuple(sl_b)
        xa, xb = X[sa], X[sb]
        pa, pb = P[sa], P[sb]
        ra, rb = R[sa], R[sb]
        step = axes[k][1] - axes[k][0]
        flag = (ra != rb) & (np.linalg.norm(pa - pb, axis=-1) > _SEPARATION_FACTOR * step)
        parts.append(tuple(v[flag] for v in (xa, xb, pa, pb, ra, rb)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _regula_falsi(spec, a, b, ra, rb):
    """Illinois regula falsi on f = d_ra - d_rb along each bracket [a, b].

    ``ra`` is the nearest row at ``a`` and ``rb`` at ``b``, two different
    rows, so f <= 0 at ``a`` and f >= 0 at ``b``.  A step moves the end where
    f has the sign of the new point's value to that point; an end kept twice
    in a row has its value halved (Dowell & Jarratt 1971).  One
    ``row_distances`` call measures both ends of every bracket, and every
    step makes one more on the brackets still open; none projects.  A bracket
    stops when |f| is at most ``_FALSI_ULPS`` units in the last place of the
    two distances, when no float lies strictly between its ends, or after
    ``_MAX_FALSI_STEPS`` steps.  Returns the last point x of every bracket
    and the row strictly nearer at x than ra and rb, the nearest row there,
    or -1 where there is none.
    """
    point, nearer = np.empty_like(a), np.empty(len(a), dtype=int)
    rows = np.arange(len(a))  # the rows of ``point`` whose brackets are still open
    ends = spec.row_distances(np.concatenate([a, b]))
    at_a, at_b = rows, rows + len(a)
    fa, fb = ends[ra, at_a] - ends[rb, at_a], ends[ra, at_b] - ends[rb, at_b]
    kept = np.zeros(len(a), dtype=int)  # the end kept by the last step: -1 a, 1 b, 0 none yet
    for step in range(1, _MAX_FALSI_STEPS + 1):
        x = a + (fa / (fa - fb))[:, None] * (b - a)
        table = spec.row_distances(x)
        cols = np.arange(len(rows))
        da, db = table[ra, cols], table[rb, cols]
        f = da - db
        to_b = f > 0.0
        fa, fb = np.where(to_b, np.where(kept == -1, 0.5 * fa, fa), f), np.where(to_b, f, np.where(kept == 1, 0.5 * fb, fb))
        kept = np.where(to_b, -1, 1)
        a, b = np.where(to_b[:, None], a, x), np.where(to_b[:, None], x, b)
        mid = 0.5 * (a + b)
        unsplit = np.all((mid == a) | (mid == b), axis=1)
        done = (np.abs(f) <= _FALSI_ULPS * np.spacing(np.maximum(da, db))) | unsplit | (step == _MAX_FALSI_STEPS)
        if done.any():
            nearest = table[:, done].argmin(axis=0)
            point[rows[done]] = x[done]
            nearer[rows[done]] = np.where(table[nearest, cols[done]] < np.minimum(da, db)[done], nearest, -1)
            keep = ~done
            rows, a, b, ra, rb, fa, fb, kept = (v[keep] for v in (rows, a, b, ra, rb, fa, fb, kept))
        if not len(rows):
            break
    return point, nearer


def _refine_edges(spec, edges):
    """Refine a batch of flagged edges to points where their two nearest rows tie.

    ``edges`` is the batch ``(a, b, proj_a, proj_b, row_a, row_b)`` that
    :func:`_flagged_edges` returns; it is left as it was.  Each round runs
    :func:`_regula_falsi` on the open brackets.  A finish x with no strictly
    nearer row is the sample.  Where a row rc is, the bracket continues on
    [x, b] with rows (rc, rb) and feet (pc, proj_b), pc the foot of x on rc,
    if pc lies at least as near proj_a as proj_b, else on [a, x] with rows
    (ra, rc) and feet (proj_a, pc); each end keeps its nearest row.  After
    ``_MAX_ROUNDS`` rounds the last finish is the sample.  A sample comes
    with the coordinatewise minimum and maximum of its projections onto its
    two rows.  No sample depends on the other brackets of the batch.
    Returns one (K, 3, n) array in the order given.
    """
    a, b, pa, pb, ra, rb = edges
    point, row_a, row_b = np.empty_like(a), np.empty_like(ra), np.empty_like(rb)
    rows = np.arange(len(a))  # the rows of ``point`` whose brackets are still open
    for round_ in range(1, _MAX_ROUNDS + 1):
        x, rc = _regula_falsi(spec, a, b, ra, rb)
        done = (rc < 0) | (round_ == _MAX_ROUNDS)
        point[rows[done]], row_a[rows[done]], row_b[rows[done]] = x[done], ra[done], rb[done]
        keep = ~done
        if not keep.any():
            break
        rows, a, b, pa, pb, ra, rb, x, rc = (v[keep] for v in (rows, a, b, pa, pb, ra, rb, x, rc))
        pc = spec.project_rows(x, rc)
        on_b = np.linalg.norm(pc - pa, axis=1) <= np.linalg.norm(pc - pb, axis=1)  # continue on [x, b]
        a, pa, ra = np.where(on_b[:, None], x, a), np.where(on_b[:, None], pc, pa), np.where(on_b, rc, ra)
        b, pb, rb = np.where(on_b[:, None], b, x), np.where(on_b[:, None], pb, pc), np.where(on_b, rb, rc)
    foot_a, foot_b = spec.project_rows(point, row_a), spec.project_rows(point, row_b)
    return np.stack([point, np.minimum(foot_a, foot_b), np.maximum(foot_a, foot_b)], axis=1)


def detect_ambiguous(spec: ClosedSetSpec, window: Window, resolution: int) -> np.ndarray:
    """Sample points of the ambiguous locus found on a window grid, with their feet.

    The samples are one refined point per grid edge whose endpoints have
    different nearest rows and project to different branches of the set, in
    deterministic grid order (see :func:`_flagged_edges` and
    :func:`_refine_edges`).  A grid node is never a sample itself, so a
    shell's centre is not sampled.  Returns one (K, 3, n) array: ``[:, 0]``
    is the sample, ``[:, 1]`` and ``[:, 2]`` the coordinatewise minimum and
    maximum of its feet.
    """
    if resolution < 8:
        raise ValueError("grid resolution must be at least 8 per axis")
    return _refine_edges(spec, _flagged_edges(spec, window, resolution))


def certify_cover(spec: ClosedSetSpec, found: np.ndarray, lattice: SlopeLattice) -> dict:
    """Certify that covering graphs pass through the detected samples.

    ``found`` is the (K, 3, n) stack of samples and feet that
    :func:`detect_ambiguous` returns.  Pipeline per sample: read the exact
    one-sided derivative gap of the strongly convex lift |x|^2 - d^2 + |x|^2
    off its feet, pick a lattice slope pair inside the gap, and record the
    vertical deviation of the covering graph (axis, alpha, beta) plus the two
    marginal-value identities.  One lift call evaluates all resolved samples
    and one two-row search gives each sample's two marginal infima, so a
    sample's record does not depend on the other samples.  Samples without a
    resolvable gap are reported as unresolved.  A record is covered when its
    deviation is at most ``_COVERAGE_TOL``, and the report passes when every
    record is covered.  Returns the report as the ``verify`` command writes
    it: the counts, the per-sample ``records`` and the ``unresolved_points``.
    """
    lift = asplund_lift(spec)
    witnesses = nondiff_witnesses(found, lattice)
    resolved = [w is not None for w in witnesses]
    lift_values = iter(lift(found[resolved, 0]).tolist())
    records: list[dict] = []
    unresolved: list[list[float]] = []
    for point, witness in zip(found[:, 0], witnesses):
        if witness is None:
            unresolved.append(point.tolist())
            continue
        axis, alpha, beta = witness
        coord = float(point[axis])
        value_alpha, value_beta = marginal_inf_rows(lift, [axis] * 2, [alpha, beta], [point, point]).tolist()
        lift_value = next(lift_values)
        records.append(
            {
                "point": point.tolist(),
                "axis": axis,
                "alpha": alpha,
                "beta": beta,
                "deviation": abs(coord - graph_coordinate(alpha, beta, value_alpha, value_beta)),
                "graph": graph_key(axis, alpha, beta),
                "residual_alpha": abs(value_alpha - (lift_value - alpha * coord)),
                "residual_beta": abs(value_beta - (lift_value - beta * coord)),
            }
        )
    max_deviation = max((r["deviation"] for r in records), default=0.0)
    covered = sum(1 for r in records if r["deviation"] <= _COVERAGE_TOL)
    return {
        "samples": len(records),
        "covered": covered,
        "max_deviation": max_deviation,
        "tolerance": _COVERAGE_TOL,
        "unresolved": len(unresolved),
        "pass": covered == len(records),
        "records": records,
        "unresolved_points": unresolved,
    }


def write_samples_csv(points: np.ndarray, path) -> None:
    """Write the (K, n) sample points to ``path`` as CSV; K = 0 writes an empty file.

    Each distinct float of a block of rows is formatted once (see
    ``distance.write_csv``).
    """
    header = [f"x{i + 1}" for i in range(points.shape[1])]
    write_csv(path, header, len(points), lambda lo, hi: _float_columns(points[lo:hi]))


# Width and height of the SVG overlay, in pixels.
_SVG_SIZE = 640


def write_overlay_svg(spec: ClosedSetSpec, window: Window, samples: np.ndarray, path) -> None:
    """Render the set's packed rows and the (K, 2) sample points as SVG to ``path``.

    A row with a direction is drawn as a line from its start to start +
    direction, a row with a radius as a shell, and any other row as a black
    dot.  Each axis of the window is stretched to the full width or height,
    so a shell is drawn as an ellipse with one radius per axis.
    """
    if spec.dimension != 2:
        raise ValueError("SVG overlay is only available in two dimensions")
    lo, span, size = window.lower, window.extent, _SVG_SIZE

    def to_px(p):
        x = (p[0] - lo[0]) / span[0] * size
        y = size - (p[1] - lo[1]) / span[1] * size
        return f"{x:.2f}", f"{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    for start, direction, radius in zip(spec.starts, spec.directions, spec.radii.tolist()):
        if direction.any():
            (x1, y1), (x2, y2) = to_px(start), to_px(start + direction)
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"/>')
        elif radius > 0.0:
            cx, cy = to_px(start)
            rx, ry = radius / span[0] * size, radius / span[1] * size
            parts.append(
                f'<ellipse cx="{cx}" cy="{cy}" rx="{rx:.2f}" ry="{ry:.2f}" fill="none" stroke="black" stroke-width="2"/>'
            )
        else:  # a point, or a shell of radius 0, which is its centre
            cx, cy = to_px(start)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
    for p in samples:
        cx, cy = to_px(p)
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="#c03030"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
