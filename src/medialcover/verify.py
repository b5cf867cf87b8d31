"""End-to-end certification that detected ambiguous points are covered.

``detect_ambiguous`` surveys a window grid with the packed kernel of
:func:`medialcover.distance.survey` (a polygon loop is one segment row per
edge there), keeps the grid nodes it classifies as ambiguous, flags edges whose
endpoints project to genuinely different branches of the set, and localizes
each branch crossing by bisection on the kernel's projections.  It uses the
kernel's constant tie tolerance and separation, and bisects a bracket down
to ``REFINE_TOL`` (1e-8).  The flagged edges of all axes form one batch that
shares one lockstep bisection, so each step costs one distance and one
projection call of the packed kernel; each bracket stops on its own width,
whatever else is in the batch.  Every sample carries its feet as a box: the
coordinatewise minimum and maximum of its nearest points, from the survey
for a grid node and from the final bracket projections for a refined point.
``certify_cover`` then runs the detected samples through the convex-lift
pipeline: the derivative-gap witness read off the feet, covering graph
(axis, alpha, beta), vertical deviation, and the marginal-value identities,
and returns the report dict that the ``verify`` command serializes.  Samples
whose derivative gap is too small for the slope lattice are reported as
unresolved rather than failed.
"""

from __future__ import annotations

import numpy as np

from .convex import SlopeLattice, marginal_inf_rows, nondiff_witnesses
from .cover import graph_coordinate, graph_key
from .distance import _float_columns, survey, write_csv
from .fields import asplund_lift
from .geometry import ClosedSetSpec, Window

__all__ = [
    "detect_ambiguous",
    "certify_cover",
    "write_samples_csv",
    "write_overlay_svg",
    "REFINE_TOL",
]

# A refined sample's bracket is at most this wide.
REFINE_TOL = 1e-8
# A sample is covered when its graph passes within this vertical distance of it.
_COVERAGE_TOL = 1e-6
# A flagged edge has an endpoint whose projection is suboptimal for the other
# endpoint by more than _JUMP_FRACTION edge lengths, and its two projections
# lie more than _SEPARATION_FACTOR edge lengths apart.
_JUMP_FRACTION = 0.25
_SEPARATION_FACTOR = 4.0
# At most this many bisection steps per flagged edge.
_MAX_BISECTIONS = 64


def _flagged_edges(spec, window, resolution):
    """Grid survey returning directly ambiguous nodes, with their feet, and branch-crossing edges.

    An edge is a branch crossing when one endpoint's projection is clearly
    suboptimal for the other endpoint (more than ``_JUMP_FRACTION`` edge
    lengths) AND the two projections are separated by more than
    ``_SEPARATION_FACTOR`` edge lengths.  The second condition rejects the
    tangential projection drift that any curve primitive induces on edges
    running parallel to it, which is not a branch change.  The edges come as
    one batch ``(a, b, proj_a, proj_b)`` of (K, n) arrays, axis by axis in
    grid order; K is 0 when no edge is flagged.
    """
    n = spec.dimension
    axes = window.axes(resolution)
    pts = window.grid_points(resolution)
    surveyed = survey(spec, pts)
    hit = surveyed.ambiguous
    direct = np.stack([pts[hit], surveyed.foot_lo[hit], surveyed.foot_hi[hit]], axis=1)

    shape = (resolution,) * n
    D = surveyed.distance.reshape(shape)
    P = surveyed.projection.reshape(shape + (n,))
    X = pts.reshape(shape + (n,))

    parts = []  # (a, b, proj_a, proj_b) of each axis
    for k in range(n):
        sl_a = [slice(None)] * n
        sl_b = [slice(None)] * n
        sl_a[k] = slice(0, -1)
        sl_b[k] = slice(1, None)
        sa, sb = tuple(sl_a), tuple(sl_b)
        xa, xb = X[sa], X[sb]
        pa, pb = P[sa], P[sb]
        da, db = D[sa], D[sb]
        # How suboptimal is each endpoint's projection for the other endpoint?
        sub_ab = np.linalg.norm(xb - pa, axis=-1) - db
        sub_ba = np.linalg.norm(xa - pb, axis=-1) - da
        step = axes[k][1] - axes[k][0]
        branch_gap = np.linalg.norm(pa - pb, axis=-1)
        flag = (np.maximum(sub_ab, sub_ba) > _JUMP_FRACTION * step) & (branch_gap > _SEPARATION_FACTOR * step)
        parts.append(tuple(v[flag] for v in (xa, xb, pa, pb)))
    return direct, tuple(np.concatenate(column) for column in zip(*parts))


def _refine_edges(spec, edges):
    """Bisect a batch of flagged edges in one lockstep loop.

    ``edges`` is the batch ``(a, b, proj_a, proj_b)`` of (K, n) arrays that
    :func:`_flagged_edges` returns; it is left as it was.  Every step bisects
    all brackets still open with one ``row_distances`` and one
    ``project_rows`` call.  A bracket leaves the loop once its own width is
    at most ``REFINE_TOL``, or after ``_MAX_BISECTIONS`` steps, so its row
    does not depend on the other brackets of the batch.  Returns one
    (K, 3, n) array in the order given: each bracket's midpoint with the
    coordinatewise minimum and maximum of its two end projections.
    """
    a, b, pa, pb = edges
    refined = np.empty((len(a), 3, spec.dimension))
    open_rows = np.arange(len(a))  # the rows of ``refined`` whose brackets are still open
    for step in range(_MAX_BISECTIONS + 1):
        w = b - a
        mid = 0.5 * (a + b)
        done = (np.sqrt(np.add.reduce(w * w, axis=1)) <= REFINE_TOL) | (step == _MAX_BISECTIONS)
        if done.any():
            refined[open_rows[done]] = np.stack([mid[done], np.minimum(pa, pb)[done], np.maximum(pa, pb)[done]], axis=1)
            keep = ~done
            open_rows, a, b, pa, pb, mid = open_rows[keep], a[keep], b[keep], pa[keep], pb[keep], mid[keep]
        if not len(open_rows):
            break
        pm = spec.project_rows(mid, spec.row_distances(mid).argmin(axis=0))
        # Norms, not squared norms: two squared norms that differ can round to one norm.
        to_a, to_b = pm - pa, pm - pb
        on_a = np.sqrt(np.add.reduce(to_a * to_a, axis=1)) <= np.sqrt(np.add.reduce(to_b * to_b, axis=1))
        on_a = on_a[:, None]
        a, pa = np.where(on_a, mid, a), np.where(on_a, pm, pa)
        b, pb = np.where(on_a, b, mid), np.where(on_a, pb, pm)
    return refined


def detect_ambiguous(spec: ClosedSetSpec, window: Window, resolution: int) -> np.ndarray:
    """Sample points of the ambiguous locus found on a window grid, with their feet.

    The samples are the directly ambiguous grid nodes plus one
    bisection-refined point per grid edge whose endpoints project to
    different branches of the set, in deterministic grid order.  Returns one
    (K, 3, n) array: ``[:, 0]`` is the sample, ``[:, 1]`` and ``[:, 2]`` the
    coordinatewise minimum and maximum of its feet.
    """
    if resolution < 8:
        raise ValueError("grid resolution must be at least 8 per axis")
    direct, edges = _flagged_edges(spec, window, resolution)
    return np.concatenate([direct, _refine_edges(spec, edges)])


def certify_cover(
    spec: ClosedSetSpec,
    found: np.ndarray,
    lattice: SlopeLattice,
    *,
    fault_offset: float,
) -> dict:
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
    deviation is at most ``_COVERAGE_TOL``.  Returns the report as the
    ``verify`` command writes it: the counts, the per-sample ``records`` and
    the ``unresolved_points``.

    ``fault_offset`` shifts every graph coordinate and exists solely so the
    negative-control test can prove the certification can fail.
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
                "deviation": abs(coord - graph_coordinate(alpha, beta, value_alpha, value_beta, fault_offset)),
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
        "pass": covered == len(records) and max_deviation <= _COVERAGE_TOL,
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
