"""Convex-analysis machinery for scalar fields.

This module estimates one-sided partial derivatives of convex fields by
monotone secant extrapolation, detects non-differentiability witnesses on a
lattice of candidate slopes, computes marginal infima of strongly convex
fields by bracketed golden-section search, and provides randomized convexity
and strong-convexity probes plus the C^2 difference-of-convex decomposition.

Numerical conventions
---------------------
* One-sided partials use secants at t = +-h, +-h/2, +-h/4 and Richardson
  extrapolation, clipped into the monotone bracket [s(-h/4), s(h/4)] that
  convexity guarantees.
* A non-differentiability witness needs a derivative gap of at least two
  lattice steps; the chosen pair is the widest one whose members sit at
  least half a lattice step inside the estimated gap, which makes the
  choice deterministic and robust to estimation error.
* Marginal infima expand a symmetric bracket by doubling until both ends
  exceed the center value (guaranteed by strong convexity), then run
  golden-section search to an absolute coordinate resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .geometry import Window

__all__ = [
    "SlopeLattice",
    "OneSidedGradient",
    "SubgradientBox",
    "NondiffWitness",
    "CoercivityError",
    "ProbeReport",
    "CcDecomposition",
    "one_sided_partials",
    "subgradient_box",
    "nondiff_witness",
    "marginal_inf",
    "convexity_probe",
    "strong_convexity_probe",
    "radial_cutoff",
    "sampled_hessian_bound",
    "cc_decompose_c2",
    "DEFAULT_PARTIAL_STEP",
]

DEFAULT_PARTIAL_STEP = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class CoercivityError(RuntimeError):
    """Bracket expansion failed: the objective does not look coercive."""


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


@dataclass(frozen=True)
class OneSidedGradient:
    """Estimated left/right partial derivatives along one axis."""

    axis: int
    minus: float
    plus: float
    step: float

    @property
    def gap(self) -> float:
        return self.plus - self.minus


@dataclass(frozen=True)
class SubgradientBox:
    """Per-axis intervals [minus_i, plus_i]; an outer box around the subdifferential."""

    intervals: np.ndarray  # shape (n, 2)

    def minus(self, axis: int) -> float:
        return float(self.intervals[axis, 0])

    def plus(self, axis: int) -> float:
        return float(self.intervals[axis, 1])


@dataclass(frozen=True)
class NondiffWitness:
    """A lattice pair (alpha, beta) certifying a one-sided derivative gap on an axis."""

    axis: int
    alpha: float
    beta: float
    minus: float
    plus: float


def one_sided_partials(field: ScalarField, x, axis: int, step: float = DEFAULT_PARTIAL_STEP) -> OneSidedGradient:
    """Estimate the left and right partial derivatives along ``axis``.

    For a convex field the secant (f(x + t e) - f(x)) / t is nondecreasing in
    t, so the samples bracket the one-sided limits; the extrapolated values
    are clipped back into that bracket.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    e = np.zeros(field.dimension)
    e[axis] = 1.0
    f0 = float(field(x))

    def secant(t: float) -> float:
        return (float(field(x + t * e)) - f0) / t

    def extrapolate(sign: float) -> tuple[float, float]:
        s_h = secant(sign * step)
        s_h2 = secant(sign * step / 2)
        s_h4 = secant(sign * step / 4)
        # Eliminates the O(t) and O(t^2) terms of the secant expansion.
        return (8.0 * s_h4 - 6.0 * s_h2 + s_h) / 3.0, s_h4

    plus, sp_h4 = extrapolate(1.0)
    minus, sm_h4 = extrapolate(-1.0)
    if sm_h4 <= sp_h4:  # monotone bracket; skip for non-convex diagnostics
        plus = min(max(plus, sm_h4), sp_h4)
        minus = min(max(minus, sm_h4), sp_h4)
    return OneSidedGradient(axis=axis, minus=minus, plus=plus, step=step)


def subgradient_box(field: ScalarField, x, step: float = DEFAULT_PARTIAL_STEP) -> SubgradientBox:
    """Per-axis one-sided derivative intervals at ``x``.

    For each axis i and any s in [minus_i, plus_i], the supporting-line
    inequality f(x + t e_i) >= f(x) + s t holds for all t when the field is
    convex.
    """
    rows = []
    for axis in range(field.dimension):
        g = one_sided_partials(field, x, axis, step)
        rows.append((g.minus, g.plus))
    return SubgradientBox(intervals=np.asarray(rows, dtype=float))


def nondiff_witness(
    field: ScalarField,
    x,
    lattice: SlopeLattice,
    step: float = DEFAULT_PARTIAL_STEP,
    margin: float | None = None,
) -> NondiffWitness | None:
    """Find the first axis with a derivative gap resolvable on the lattice.

    Returns the widest lattice pair alpha < beta lying at least ``margin``
    (default: half a lattice step) inside [minus, plus], or None when no axis
    has a gap of at least two lattice steps.
    """
    if margin is None:
        margin = lattice.step / 2.0
    k_max = lattice.max_index
    for axis in range(field.dimension):
        g = one_sided_partials(field, x, axis, step)
        lo = math.ceil((g.minus + margin) / lattice.step - 1e-12)
        hi = math.floor((g.plus - margin) / lattice.step + 1e-12)
        lo = max(lo, -k_max)
        hi = min(hi, k_max)
        if hi > lo:
            return NondiffWitness(
                axis=axis,
                alpha=lo * lattice.step,
                beta=hi * lattice.step,
                minus=g.minus,
                plus=g.plus,
            )
    return None


def _golden_min(phi, a: float, b: float, xtol: float) -> float:
    """Golden-section minimum value of a unimodal function on [a, b]."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = phi(c), phi(d)
    while (b - a) > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = phi(d)
    return min(fc, fd)


def marginal_inf(
    field: ScalarField,
    axis: int,
    slope: float,
    x_rest,
    *,
    xtol: float = 1e-7,
    initial_halfwidth: float = 1.0,
    max_doublings: int = 60,
) -> float:
    """inf over the ``axis`` coordinate of  field(x) - slope * x_axis.

    Requires a strongly convex field, which makes the objective coercive for
    every slope: the bracket [-w, w] is doubled until both ends exceed the
    value at the center, then golden-section search localizes the minimizer
    to ``xtol``.  Raises :class:`CoercivityError` if the bracket never
    closes, which signals a precondition violation.
    """
    x_rest = np.atleast_1d(np.asarray(x_rest, dtype=float))
    if x_rest.shape != (field.dimension - 1,):
        raise ValueError(f"x_rest must have shape ({field.dimension - 1},), got {x_rest.shape}")
    rest_axes = [i for i in range(field.dimension) if i != axis]
    template = np.empty(field.dimension)
    template[rest_axes] = x_rest

    def phi(t: float) -> float:
        point = template.copy()
        point[axis] = t
        return float(field(point)) - slope * t

    half = float(initial_halfwidth)
    f_center = phi(0.0)
    fa, fb = phi(-half), phi(half)
    doublings = 0
    while not (fa > f_center and fb > f_center):
        doublings += 1
        if doublings > max_doublings:
            raise CoercivityError(
                f"bracket for axis {axis}, slope {slope} still open after {max_doublings} doublings; "
                "the field does not look strongly convex"
            )
        half *= 2.0
        fa, fb = phi(-half), phi(half)
    return _golden_min(phi, -half, half, xtol)


@dataclass(frozen=True)
class ProbeReport:
    """Worst sampled violation of a convexity-type inequality."""

    max_violation: float
    tolerance: float
    passed: bool
    samples: int
    seed: int


def _probe_samples(field: ScalarField, window: Window, num_samples: int, seed: int):
    rng = np.random.default_rng(seed)
    x = window.sample(rng, num_samples)
    y = window.sample(rng, num_samples)
    lam = rng.uniform(0.0, 1.0, size=num_samples)
    fx = np.asarray(field(x), dtype=float)
    fy = np.asarray(field(y), dtype=float)
    mid = np.asarray(field(lam[:, None] * x + (1.0 - lam[:, None]) * y), dtype=float)
    return x, y, lam, fx, fy, mid


def convexity_probe(field: ScalarField, window: Window, num_samples: int = 10000, seed: int = 0) -> ProbeReport:
    """Sample the midpoint inequality f(lx + (1-l)y) <= l f(x) + (1-l) f(y)."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    _, _, lam, fx, fy, mid = _probe_samples(field, window, num_samples, seed)
    violation = float(np.max(mid - (lam * fx + (1.0 - lam) * fy)))
    scale = float(max(np.abs(fx).max(), np.abs(fy).max()))
    tol = 1e-9 * (1.0 + scale)
    return ProbeReport(violation, tol, violation <= tol, num_samples, seed)


def strong_convexity_probe(
    field: ScalarField,
    window: Window,
    num_samples: int = 10000,
    seed: int = 0,
    modulus: float = 1.0,
) -> ProbeReport:
    """Like :func:`convexity_probe` with the quadratic improvement term of modulus ``modulus``."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    x, y, lam, fx, fy, mid = _probe_samples(field, window, num_samples, seed)
    gap = np.sum((x - y) ** 2, axis=1)
    bound = lam * fx + (1.0 - lam) * fy - modulus * lam * (1.0 - lam) * gap
    violation = float(np.max(mid - bound))
    scale = float(max(np.abs(fx).max(), np.abs(fy).max()))
    tol = 1e-9 * (1.0 + scale)
    return ProbeReport(violation, tol, violation <= tol, num_samples, seed)


def radial_cutoff(x: np.ndarray, radius: float) -> np.ndarray:
    """Quintic-smoothstep cutoff: 1 for |x| <= radius, 0 for |x| >= 2*radius, C^2 throughout."""
    rho = np.sqrt(np.sum(np.square(x), axis=-1))
    u = np.clip((rho - radius) / radius, 0.0, 1.0)
    return 1.0 - u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def sampled_hessian_bound(
    field: ScalarField,
    radius: float,
    grid_resolution: int = 17,
    step: float = 1e-3,
) -> float:
    """Max spectral norm of the finite-difference Hessian over a grid on [-radius, radius]^n."""
    n = field.dimension
    axes = [np.linspace(-radius, radius, grid_resolution)] * n
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
    eigs = np.linalg.eigvalsh(hess)
    return float(np.abs(eigs).max())


@dataclass(frozen=True)
class CcDecomposition:
    """f = convex_part - subtracted_quadratic on |x| <= radius, both parts convex and C^2."""

    convex_part: ScalarField
    subtracted_quadratic: ScalarField
    coefficient: float
    radius: float


def cc_decompose_c2(
    field: ScalarField,
    radius: float,
    hessian_bound: float | None = None,
    *,
    safety: float = 1.5,
    grid_resolution: int = 17,
    fd_step: float = 1e-3,
) -> CcDecomposition:
    """Split a C^2 field into a difference of two convex C^2 fields on |x| <= radius.

    The field is multiplied by a radial cutoff that is 1 on |x| <= radius and
    0 outside |x| <= 2*radius; a quadratic C|x|^2 with C at least half the
    sampled Hessian spectral bound (times ``safety``) is added to make the
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
    if hessian_bound is None:
        hessian_bound = sampled_hessian_bound(
            windowed_field, 2.0 * radius, grid_resolution=grid_resolution, step=fd_step
        )
    coefficient = 0.5 * float(hessian_bound) * safety

    def convex_part(x: np.ndarray) -> np.ndarray:
        return windowed(x) + coefficient * np.sum(np.square(x), axis=-1)

    def quadratic(x: np.ndarray) -> np.ndarray:
        return coefficient * np.sum(np.square(x), axis=-1)

    g = ScalarField(convex_part, field.dimension, tag=f"cc-convex({field.tag})", smooth_c2=True)
    h = ScalarField(quadratic, field.dimension, tag=f"cc-quadratic({field.tag})", smooth_c2=True)
    return CcDecomposition(convex_part=g, subtracted_quadratic=h, coefficient=coefficient, radius=radius)
