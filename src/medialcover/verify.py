"""End-to-end certification that detected ambiguous points are covered.

``detect_ambiguous`` surveys a window grid with the packed kernel of
:func:`medialcover.distance.survey` (polygon loops are already edge segments
there), keeps the grid nodes it classifies as ambiguous, flags edges whose
endpoints project to genuinely different branches of the set, and localizes
each branch crossing by bisection on the kernel's projections.
``certify_cover`` then runs every detected sample through the convex-lift
pipeline: derivative-gap witness, covering graph, vertical deviation, and
the marginal-value identities.  Samples whose derivative gap is too small
for the slope lattice are reported as unresolved rather than failed.

``estimate_measure`` is a desk-scale box-counting proxy for the
(n-1)-dimensional measure of the detected locus.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .convex import SlopeLattice, nondiff_witness, DEFAULT_PARTIAL_STEP
from .cover import CcGraph
from .distance import DEFAULT_SEPARATION, DEFAULT_TIE_TOLERANCE, project, survey
from .fields import ScalarField, asplund_field, strongify
from .geometry import Ball, ClosedSetSpec, Point, Segment, Window

__all__ = [
    "detect_ambiguous",
    "ambiguous_cell_fraction",
    "SampleRecord",
    "CoverageReport",
    "certify_cover",
    "MeasureEstimate",
    "estimate_measure",
    "write_samples_csv",
    "write_overlay_svg",
    "DEFAULT_JUMP_FRACTION",
    "DEFAULT_SEPARATION_FACTOR",
    "DEFAULT_REFINE_TOL",
    "DEFAULT_COVERAGE_TOL",
]

DEFAULT_JUMP_FRACTION = 0.25
DEFAULT_SEPARATION_FACTOR = 4.0
DEFAULT_REFINE_TOL = 1e-8
DEFAULT_COVERAGE_TOL = 1e-6


def _flagged_edges(spec, window, resolution, jump_fraction, tie_tolerance, separation, separation_factor):
    """Grid survey returning directly ambiguous nodes and branch-crossing edges.

    An edge is a branch crossing when each endpoint's projection is clearly
    suboptimal for the other endpoint (more than ``jump_fraction`` edge
    lengths) AND the two projections are separated by more than
    ``separation_factor`` edge lengths.  The second condition rejects the
    tangential projection drift that any curve primitive induces on edges
    running parallel to it, which is not a branch change.
    """
    n = spec.dimension
    axes = window.axes(resolution)
    pts = window.grid_points(resolution)
    surveyed = survey(spec, pts, tie_tolerance, separation)
    direct = pts[surveyed.ambiguous]

    shape = (resolution,) * n
    D = surveyed.distance.reshape(shape)
    P = surveyed.projection.reshape(shape + (n,))
    X = pts.reshape(shape + (n,))

    edges = []  # (a, b, proj_a, proj_b) stacked per axis
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
        flag = (np.maximum(sub_ab, sub_ba) > jump_fraction * step) & (branch_gap > separation_factor * step)
        mask = flag.ravel()
        if mask.any():
            edges.append(
                (
                    k,
                    np.argwhere(flag),
                    xa.reshape(-1, n)[mask],
                    xb.reshape(-1, n)[mask],
                    pa.reshape(-1, n)[mask],
                    pb.reshape(-1, n)[mask],
                )
            )
    return direct, edges


def _refine_edges(spec, edges, refine_tol, max_iterations=64):
    """Lockstep bisection of all flagged edges down to ``refine_tol``."""
    refined = []
    for _, _, a, b, pa, pb in edges:
        a, b, pa, pb = a.copy(), b.copy(), pa.copy(), pb.copy()
        for _ in range(max_iterations):
            if np.max(np.linalg.norm(b - a, axis=1)) <= refine_tol:
                break
            mid = 0.5 * (a + b)
            pm = project(spec, mid)
            on_a_branch = np.linalg.norm(pm - pa, axis=1) <= np.linalg.norm(pm - pb, axis=1)
            a[on_a_branch] = mid[on_a_branch]
            pa[on_a_branch] = pm[on_a_branch]
            b[~on_a_branch] = mid[~on_a_branch]
            pb[~on_a_branch] = pm[~on_a_branch]
        refined.append(0.5 * (a + b))
    return refined


def detect_ambiguous(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    *,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
    jump_fraction: float = DEFAULT_JUMP_FRACTION,
    separation_factor: float = DEFAULT_SEPARATION_FACTOR,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> np.ndarray:
    """Sample points of the ambiguous locus found on a window grid.

    Returns directly ambiguous grid nodes plus one bisection-refined point
    per grid edge whose endpoints project to different branches of the set,
    as a (K, n) array in deterministic grid order.
    """
    if resolution < 8:
        raise ValueError("grid resolution must be at least 8 per axis")
    direct, edges = _flagged_edges(
        spec, window, resolution, jump_fraction, tie_tolerance, separation, separation_factor
    )
    refined = _refine_edges(spec, edges, refine_tol)
    chunks = [c for c in (direct, *refined) if len(c)]
    if not chunks:
        return np.empty((0, spec.dimension))
    return np.vstack(chunks)


def ambiguous_cell_fraction(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    *,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    jump_fraction: float = DEFAULT_JUMP_FRACTION,
    separation_factor: float = DEFAULT_SEPARATION_FACTOR,
) -> float:
    """Fraction of grid cells touched by a branch-crossing edge."""
    if resolution < 8:
        raise ValueError("grid resolution must be at least 8 per axis")
    n = spec.dimension
    _, edges = _flagged_edges(
        spec, window, resolution, jump_fraction, tie_tolerance, DEFAULT_SEPARATION, separation_factor
    )
    cells = np.zeros((resolution - 1,) * n, dtype=bool)
    for axis, coords, *_ in edges:
        for node in coords:
            base = list(node)
            other_axes = [d for d in range(n) if d != axis]
            for offsets in itertools.product((0, -1), repeat=len(other_axes)):
                cell = base.copy()
                for d, off in zip(other_axes, offsets):
                    cell[d] += off
                if all(0 <= cell[d] <= resolution - 2 for d in range(n)):
                    cells[tuple(cell)] = True
    return float(cells.sum()) / cells.size


@dataclass(frozen=True)
class SampleRecord:
    """Per-sample certification outcome."""

    point: np.ndarray
    axis: int
    alpha: float
    beta: float
    deviation: float
    graph_key: str
    residual_alpha: float
    residual_beta: float


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of the detected ambiguous locus by witness-built covering graphs."""

    samples: int
    covered: int
    max_deviation: float
    tolerance: float
    records: tuple[SampleRecord, ...]
    unresolved_points: tuple[np.ndarray, ...]
    passed: bool

    @property
    def unresolved(self) -> int:
        return len(self.unresolved_points)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "covered": self.covered,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "unresolved": self.unresolved,
            "pass": self.passed,
            "records": [
                {
                    "point": r.point.tolist(),
                    "axis": r.axis,
                    "alpha": r.alpha,
                    "beta": r.beta,
                    "deviation": r.deviation,
                    "graph": r.graph_key,
                    "residual_alpha": r.residual_alpha,
                    "residual_beta": r.residual_beta,
                }
                for r in self.records
            ],
            "unresolved_points": [p.tolist() for p in self.unresolved_points],
        }


def certify_cover(
    spec: ClosedSetSpec,
    window: Window,
    resolution: int,
    lattice: SlopeLattice,
    *,
    coverage_tolerance: float = DEFAULT_COVERAGE_TOL,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    separation: float = DEFAULT_SEPARATION,
    jump_fraction: float = DEFAULT_JUMP_FRACTION,
    separation_factor: float = DEFAULT_SEPARATION_FACTOR,
    refine_tol: float = DEFAULT_REFINE_TOL,
    partial_step: float = DEFAULT_PARTIAL_STEP,
    marginal_xtol: float = 1e-7,
    fault_offset: float = 0.0,
) -> CoverageReport:
    """Detect the ambiguous locus and certify that covering graphs pass through it.

    Pipeline per detected sample: estimate the one-sided derivative gap of
    the strongly convex lift |x|^2 - d^2 + |x|^2, pick a lattice slope pair
    inside the gap, build (or reuse) the corresponding covering graph, and
    record the vertical deviation plus the two marginal-value identities.
    Samples without a resolvable gap are reported as unresolved.

    ``fault_offset`` biases every graph evaluation and exists solely so the
    negative-control test can prove the certification can fail.
    """
    samples = detect_ambiguous(
        spec,
        window,
        resolution,
        tie_tolerance=tie_tolerance,
        separation=separation,
        jump_fraction=jump_fraction,
        separation_factor=separation_factor,
        refine_tol=refine_tol,
    )
    lift = strongify(asplund_field(spec))
    graphs: dict[tuple[int, float, float], CcGraph] = {}
    records: list[SampleRecord] = []
    unresolved: list[np.ndarray] = []
    for point in samples:
        witness = nondiff_witness(lift, point, lattice, step=partial_step)
        if witness is None:
            unresolved.append(point)
            continue
        key = (witness.axis, witness.alpha, witness.beta)
        graph = graphs.get(key)
        if graph is None:
            graph = CcGraph(
                axis=witness.axis,
                alpha=witness.alpha,
                beta=witness.beta,
                base=lift,
                xtol=marginal_xtol,
                bias=fault_offset,
            )
            graphs[key] = graph
        coord = float(point[witness.axis])
        rest = np.delete(point, witness.axis)
        value_alpha, value_beta = graph.marginal_values(rest)
        graph_value = (value_alpha - value_beta) / (witness.beta - witness.alpha) + graph.bias
        lift_value = float(lift(point))
        records.append(
            SampleRecord(
                point=point,
                axis=witness.axis,
                alpha=witness.alpha,
                beta=witness.beta,
                deviation=abs(coord - graph_value),
                graph_key=graph.key,
                residual_alpha=abs(value_alpha - (lift_value - witness.alpha * coord)),
                residual_beta=abs(value_beta - (lift_value - witness.beta * coord)),
            )
        )
    max_deviation = max((r.deviation for r in records), default=0.0)
    covered = sum(1 for r in records if r.deviation <= coverage_tolerance)
    passed = covered == len(records) and max_deviation <= coverage_tolerance
    return CoverageReport(
        samples=len(records),
        covered=covered,
        max_deviation=max_deviation,
        tolerance=coverage_tolerance,
        records=tuple(records),
        unresolved_points=tuple(unresolved),
        passed=passed,
    )


@dataclass(frozen=True)
class MeasureEstimate:
    """Box-counting proxy count(eps) * eps^(n-1) over a shrinking size sweep."""

    probe_dimension: int
    sizes: tuple[float, ...]
    counts: tuple[int, ...]
    proxies: tuple[float, ...]
    measure: float
    finite_flag: bool

    def to_dict(self) -> dict:
        return {
            "probe_dimension": self.probe_dimension,
            "sizes": list(self.sizes),
            "counts": list(self.counts),
            "proxies": list(self.proxies),
            "measure": self.measure,
            "finite_flag": self.finite_flag,
        }


def estimate_measure(points, window: Window, sizes) -> MeasureEstimate:
    """Box-count the point cloud over a decreasing sweep of box sizes.

    The proxy stabilizing within 20% across the two finest sizes indicates a
    finite (n-1)-dimensional measure; a box count that stopped growing under
    refinement indicates a measure-zero locus, which is finite trivially.
    """
    sizes = [float(s) for s in sizes]
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive")
    if any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly decreasing")
    pts = np.asarray(points, dtype=float)
    n = window.dimension
    counts = []
    for eps in sizes:
        if pts.size == 0:
            counts.append(0)
            continue
        idx = np.floor((pts - window.lower) / eps).astype(int)
        counts.append(int(np.unique(idx, axis=0).shape[0]))
    proxies = [c * eps ** (n - 1) for c, eps in zip(counts, sizes)]
    if len(sizes) < 2:
        finite = True
    else:
        a, b = proxies[-2], proxies[-1]
        stabilized = abs(b - a) <= 0.2 * max(a, b, 1e-300)
        collapsed = counts[-1] <= counts[-2]
        finite = stabilized or collapsed
    return MeasureEstimate(
        probe_dimension=n - 1,
        sizes=tuple(sizes),
        counts=tuple(counts),
        proxies=tuple(proxies),
        measure=proxies[-1],
        finite_flag=finite,
    )


def write_samples_csv(points, path) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if pts.size == 0:
            return
        writer.writerow([f"x{i + 1}" for i in range(pts.shape[1])])
        for row in pts:
            writer.writerow([repr(v) for v in row])


def write_overlay_svg(
    spec: ClosedSetSpec,
    window: Window,
    samples,
    segments=None,
    path=None,
    size: int = 640,
) -> str:
    """Render the set, detected samples, and optional skeleton segments as SVG."""
    if spec.dimension != 2:
        raise ValueError("SVG overlay is only available in two dimensions")
    lo, span = window.lower, window.extent

    def to_px(p):
        x = (p[0] - lo[0]) / span[0] * size
        y = size - (p[1] - lo[1]) / span[1] * size
        return f"{x:.2f}", f"{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    for p in spec.primitives:
        if isinstance(p, Point):
            cx, cy = to_px(p.coords)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
        elif isinstance(p, Segment):
            (x1, y1), (x2, y2) = to_px(p.a), to_px(p.b)
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"/>')
        elif isinstance(p, Ball):
            cx, cy = to_px(p.center)
            r = p.radius / span[0] * size
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r:.2f}" fill="none" stroke="black" stroke-width="2"/>')
    for seg in segments or []:
        (x1, y1), (x2, y2) = to_px(seg.start), to_px(seg.end)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#2060c0" stroke-width="1.5"/>')
    for p in np.atleast_2d(np.asarray(samples, dtype=float)) if len(np.atleast_1d(samples)) else []:
        cx, cy = to_px(p)
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="#c03030"/>')
    parts.append("</svg>")
    text = "\n".join(parts)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
