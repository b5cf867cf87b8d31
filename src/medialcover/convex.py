"""Convex-analysis machinery for scalar fields.

This module reads non-differentiability witnesses of the distance lift off
a lattice of candidate slopes, computes marginal infima of strongly convex
fields by bracketed golden-section search, and provides a randomized
convexity probe plus the C^2 difference-of-convex decomposition.

Numerical conventions
---------------------
* The one-sided partials of the lift F = 2|x|^2 - d(x, E)^2 are exact: F is
  convex (Asplund 1973) with the subdifferential conv{2x + 2q : q a nearest
  point of x} (Danskin's theorem), so along axis i they are
  2(x_i + min q_i) and 2(x_i + max q_i) over the feet q of x.  No field is
  evaluated for them.
* A non-differentiability witness needs a derivative gap of at least two
  lattice steps; the chosen pair is the widest one whose members sit at
  least half a lattice step inside the gap, which makes the choice
  deterministic and robust to rounding.
* Marginal infima expand a symmetric bracket by doubling until both ends
  exceed the center value (guaranteed by strong convexity), then run
  golden-section search to an absolute coordinate resolution of 1e-7.
  :func:`marginal_inf_rows` runs R such searches in lockstep, one evaluator
  call per step on the rows still open: each row doubles its own bracket and
  leaves the golden-section arrays once its own b - a is at most 1e-7, so a
  row's value does not depend on the other rows of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .geometry import Window

__all__ = [
    "SlopeLattice",
    "CoercivityError",
    "ProbeReport",
    "CcDecomposition",
    "nondiff_witnesses",
    "marginal_inf_rows",
    "convexity_probe",
    "radial_cutoff",
    "sampled_hessian_bound",
    "cc_decompose_c2",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Marginal-infimum bracket: half-width at the start, doublings before giving up.
_INITIAL_HALFWIDTH = 1.0
_MAX_DOUBLINGS = 60
# Golden-section resolution of every marginal infimum.
_MARGINAL_XTOL = 1e-7
# Golden-section steps that the widest bracket needs to shrink to _MARGINAL_XTOL,
# plus one for rounding; a row still open after them sits where one ulp of t
# exceeds _MARGINAL_XTOL, so its bracket would never close.
_MAX_GOLDEN_STEPS = 1 + math.ceil(
    math.log(2.0 * _INITIAL_HALFWIDTH * 2.0**_MAX_DOUBLINGS / _MARGINAL_XTOL) / -math.log(_INVPHI)
)


class CoercivityError(RuntimeError):
    """A marginal-infimum bracket never closed: the objective does not look strongly convex at its scale."""


@dataclass(frozen=True)
class SlopeLattice:
    """Evenly spaced candidate slopes {k * step : |k * step| <= bound}."""

    step: float = 0.125
    bound: float = 64.0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("lattice step must be positive")
        if self.bound < self.step:
            raise ValueError("lattice bound must be at least one step")
        if not math.isfinite(self.bound / self.step):
            raise ValueError(f"lattice bound / step overflows: {self.bound!r} / {self.step!r}")

    @property
    def max_index(self) -> int:
        return int(math.floor(self.bound / self.step + 1e-9))

    def points(self) -> np.ndarray:
        k = self.max_index
        return self.step * np.arange(-k, k + 1)

    @property
    def size(self) -> int:
        return 2 * self.max_index + 1

    def pair_count(self) -> int:
        m = self.size
        return m * (m - 1) // 2


def nondiff_witnesses(found, lattice: SlopeLattice) -> list[tuple[int, float, float] | None]:
    """The witness (axis, alpha, beta) of each sample of the lift 2|x|^2 - d(x, E)^2.

    ``found`` is the (K, 3, n) stack that ``detect_ambiguous`` returns: each
    sample x with the coordinatewise minimum and maximum of its feet.  Along
    axis i the lift's one-sided partials at x are 2(x_i + foot_lo_i) and
    2(x_i + foot_hi_i).  A sample's witness is on its first axis with a
    derivative gap resolvable on the lattice: the widest lattice pair
    alpha < beta lying at least half a lattice step inside that gap.  It is
    None when no axis has a gap of at least two lattice steps.
    """
    found = np.asarray(found, dtype=float)
    if not len(found):
        return []
    margin = lattice.step / 2.0
    k_max = lattice.max_index
    x, foot_lo, foot_hi = found[:, 0], found[:, 1], found[:, 2]
    minus, plus = 2.0 * (x + foot_lo), 2.0 * (x + foot_hi)
    lo = np.maximum(np.ceil((minus + margin) / lattice.step - 1e-12), -k_max)
    hi = np.minimum(np.floor((plus - margin) / lattice.step + 1e-12), k_max)
    resolved = hi > lo
    witnesses: list[tuple[int, float, float] | None] = []
    for r, axis in enumerate(np.argmax(resolved, axis=1).tolist()):
        if resolved[r, axis]:
            witnesses.append((axis, int(lo[r, axis]) * lattice.step, int(hi[r, axis]) * lattice.step))
        else:
            witnesses.append(None)
    return witnesses


def marginal_inf_rows(field: ScalarField, axes, slopes, points) -> np.ndarray:
    """inf over t of  field(x) - slope * t  for R rows at once, one field call per search step.

    In row r, x is ``points[r]`` with coordinate ``axes[r]`` set to t (the
    given ``axes[r]`` coordinate is ignored) and the slope is ``slopes[r]``.
    Requires a strongly convex field, which makes every objective coercive:
    each row doubles its bracket [-w, w] until both ends exceed the value at
    the center, then golden-section search localizes the minimizer to
    ``_MARGINAL_XTOL``.  The field's dimension is checked once; every step
    then makes one ``field.evaluator`` call on the rows still open.  The
    golden-section arrays hold only those rows: each step computes the
    bracket widths once, and when the narrowest is not wider than
    ``_MARGINAL_XTOL`` (or is NaN), the rows at most that wide are written
    to the output and dropped.  Otherwise each row moves its bracket and
    takes its one new abscissa, c when it kept the left part and d when it
    kept the right, all in one ``field.evaluator`` call.  Raises
    :class:`CoercivityError`, naming the first row still open, if a bracket
    does not close within ``_MAX_DOUBLINGS`` doublings or
    ``_MAX_GOLDEN_STEPS`` golden-section steps, which signals a precondition
    violation or values too large for the resolution.
    """
    points = np.array(points, dtype=float)
    axes = np.asarray(axes, dtype=int)
    slopes = np.asarray(slopes, dtype=float)
    if points.ndim != 2 or axes.shape != slopes.shape or axes.shape != points.shape[:1]:
        raise ValueError(
            f"need (R, n) points with R axes and R slopes, got {points.shape}, {axes.shape}, {slopes.shape}"
        )
    if points.shape[1] != field.dimension:
        raise ValueError(f"field {field.tag!r} expects dimension {field.dimension}, got shape {points.shape}")
    rows = np.arange(len(points))
    if not rows.size:
        return np.empty(0)
    on_axis = np.arange(field.dimension) == axes[:, None]  # each row's search coordinate

    def phi_rows(idx: np.ndarray, *ts: np.ndarray) -> list[np.ndarray]:
        """The objective at several abscissae per row of ``idx``, as slices of one field call."""
        k, idx, t = len(idx), np.concatenate([idx] * len(ts)), np.concatenate(ts)
        f = field.evaluator(np.where(on_axis[idx], t[:, None], points[idx])) - slopes[idx] * t
        return [f[j * k : (j + 1) * k] for j in range(len(ts))]

    half = np.full(len(rows), _INITIAL_HALFWIDTH)
    f_center, fa, fb = phi_rows(rows, np.zeros(len(rows)), -half, half)
    open_rows = rows[~((fa > f_center) & (fb > f_center))]
    doublings = 0
    while open_rows.size:
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            r = open_rows[0]
            raise CoercivityError(
                f"bracket for axis {int(axes[r])}, slope {float(slopes[r])} still open after {_MAX_DOUBLINGS} "
                "doublings; the field does not look strongly convex"
            )
        half[open_rows] *= 2.0
        fa, fb = phi_rows(open_rows, -half[open_rows], half[open_rows])
        open_rows = open_rows[~((fa > f_center[open_rows]) & (fb > f_center[open_rows]))]

    a, b = -half, half
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = phi_rows(rows, c, d)
    out = np.empty(len(rows))
    x, on, sl = points, on_axis, slopes  # from here on, with ``rows``, the open rows only
    steps = 0  # taken by every row still open
    while rows.size:
        w = b - a
        if not np.minimum.reduce(w) > _MARGINAL_XTOL:  # some row is done, or NaN
            keep = w > _MARGINAL_XTOL
            out[rows[~keep]] = np.where(fd < fc, fd, fc)[~keep]  # Python's min(fc, fd): fc on ties, signed zeros included
            rows, a, b, c, d, fc, fd, x, on, sl = (v[keep] for v in (rows, a, b, c, d, fc, fd, x, on, sl))
            continue
        if steps == _MAX_GOLDEN_STEPS:
            r = rows[0]
            raise CoercivityError(
                f"golden-section bracket for axis {int(axes[r])}, slope {float(slopes[r])} still wider than "
                f"{_MARGINAL_XTOL} after {_MAX_GOLDEN_STEPS} steps, at t = {float(a[0])}; "
                "the field does not look strongly convex at this scale"
            )
        steps += 1
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _INVPHI * (b - a)
        t = np.where(left, b - step, a + step)  # the new abscissa: c on the left, d on the right
        c, d = np.where(left, t, d), np.where(left, c, t)
        f = field.evaluator(np.where(on, t[:, None], x)) - sl * t
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    return out


@dataclass(frozen=True)
class ProbeReport:
    """Worst sampled violation of a convexity-type inequality."""

    max_violation: float
    tolerance: float
    passed: bool


def convexity_probe(field: ScalarField, window: Window, num_samples: int = 10000, seed: int = 0) -> ProbeReport:
    """Sample the midpoint inequality f(lx + (1-l)y) <= l f(x) + (1-l) f(y)."""
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
    scale = float(max(np.abs(fx).max(), np.abs(fy).max()))
    tol = 1e-9 * (1.0 + scale)
    return ProbeReport(violation, tol, violation <= tol)


def radial_cutoff(x: np.ndarray, radius: float) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 for |x| <= radius, 0 for |x| >= 2*radius, C^2 throughout."""
    rho = np.sqrt(np.sum(np.square(x), axis=-1))
    u = np.clip((rho - radius) / radius, 0.0, 1.0)
    return 1.0 - u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


# Hessian sampling of `cc_decompose_c2`: grid nodes per axis, difference
# step on a box of half-width at least 1, and the factor on the sampled bound.
_HESSIAN_GRID = 17
_HESSIAN_STEP = 1e-3
_HESSIAN_SAFETY = 1.5


def sampled_hessian_bound(field: ScalarField, radius: float) -> float:
    """Max spectral norm of the finite-difference Hessian over a grid on [-radius, radius]^n.

    The difference step shrinks with a box smaller than [-1, 1]^n, so it stays
    inside the box; it does not grow with a larger box, where a coarse step
    would miss the curvature between grid nodes.
    """
    n = field.dimension
    step = _HESSIAN_STEP * min(1.0, radius)
    axes = [np.linspace(-radius, radius, _HESSIAN_GRID)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    hess = np.empty((pts.shape[0], n, n))
    # Non-finite samples are reported below as an error, not as warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        f0 = np.asarray(field(pts), dtype=float)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = step
            hess[:, i, i] = (field(pts + ei) - 2.0 * f0 + field(pts - ei)) / step**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = step
                mixed = (
                    field(pts + ei + ej) - field(pts + ei - ej) - field(pts - ei + ej) + field(pts - ei - ej)
                ) / (4.0 * step**2)
                hess[:, i, j] = mixed
                hess[:, j, i] = mixed
    if not np.all(np.isfinite(hess)):
        raise ValueError("non-finite second differences while sampling the Hessian")
    # Where the step is under half an ulp of the box's corner, x + step rounds
    # to x there and the second differences read 0 however curved the field.
    if radius + step == radius:
        raise ValueError(f"the Hessian difference step {step:g} is lost in rounding on the box [-{radius:g}, {radius:g}]^{n}")
    eigs = np.linalg.eigvalsh(hess)
    return float(np.abs(eigs).max())


@dataclass(frozen=True)
class CcDecomposition:
    """f = convex_part - subtracted_quadratic on |x| <= radius, both parts convex and C^2."""

    convex_part: ScalarField
    subtracted_quadratic: ScalarField
    coefficient: float


def cc_decompose_c2(field: ScalarField, radius: float) -> CcDecomposition:
    """Split a C^2 field into a difference of two convex C^2 fields on |x| <= radius.

    The field is multiplied by a radial cutoff that is 1 on |x| <= radius and
    0 outside |x| <= 2*radius; a quadratic C|x|^2 with C at least half the
    sampled Hessian spectral bound (times a safety factor) is added to make the
    windowed product convex.  The decomposition reproduces the field exactly
    inside the radius: (cutoff*f + C|x|^2) - C|x|^2 = f there.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not field.smooth_c2:
        raise ValueError(f"field {field.tag!r} does not have a C^2 evaluator")

    def windowed(x: np.ndarray) -> np.ndarray:
        return radial_cutoff(x, radius) * field.evaluator(x)

    windowed_field = ScalarField(windowed, field.dimension, tag=f"cutoff({field.tag})", smooth_c2=True)
    coefficient = 0.5 * sampled_hessian_bound(windowed_field, 2.0 * radius) * _HESSIAN_SAFETY

    def convex_part(x: np.ndarray) -> np.ndarray:
        return windowed(x) + coefficient * np.sum(np.square(x), axis=-1)

    def quadratic(x: np.ndarray) -> np.ndarray:
        return coefficient * np.sum(np.square(x), axis=-1)

    g = ScalarField(convex_part, field.dimension, tag=f"cc-convex({field.tag})", smooth_c2=True)
    h = ScalarField(quadratic, field.dimension, tag=f"cc-quadratic({field.tag})", smooth_c2=True)
    return CcDecomposition(convex_part=g, subtracted_quadratic=h, coefficient=coefficient)
