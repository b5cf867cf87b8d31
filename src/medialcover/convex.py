"""Convex-analysis machinery for the lift of a set.

``asplund_lift`` evaluates the lift F = 2|x|^2 - dist(x, E)^2 of a set: the
convex |x|^2 - dist(x, E)^2 (Asplund 1973) plus |x|^2, strongly convex with
modulus 1.  ``verify`` calls it some ten thousand times, a few points each,
so it is fused: one Python frame per call, |x|^2 computed once, and a
straight run of ufunc calls (``np.add.reduce``, ``np.minimum.reduce``,
in-place ``np.maximum``/``np.minimum`` clamps in the packed kernel) without
NumPy's Python-level wrappers such as ``np.sum`` or ``np.clip``.  It forms
(|x|^2 - d^2) + |x|^2, convex part first.

The module also reads non-differentiability witnesses of the lift off a
lattice of candidate slopes and computes its marginal infima by bracketed
golden-section search, from which the covering graphs are built.

Numerical conventions
---------------------
* The one-sided partials of F are exact: its subdifferential is
  conv{2x + 2q : q a nearest point of x} (Danskin's theorem), so along axis
  i they are 2(x_i + min q_i) and 2(x_i + max q_i) over the feet q of x.
  No field is evaluated for them.
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
from typing import Callable

import numpy as np

from .geometry import ClosedSetSpec

__all__ = [
    "SlopeLattice",
    "CoercivityError",
    "nondiff_witnesses",
    "asplund_lift",
    "marginal_inf_rows",
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


def asplund_lift(spec: ClosedSetSpec) -> Callable[[np.ndarray], np.ndarray]:
    """2|x|^2 - dist(x, E)^2: the convex |x|^2 - dist(x, E)^2 plus |x|^2, as one evaluator."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, spec.dimension)
        s = np.add.reduce(flat * flat, axis=-1)
        d = np.minimum.reduce(spec.row_distances(flat), axis=0)
        return ((s - d * d) + s).reshape(x.shape[:-1])

    return evaluate


def marginal_inf_rows(field: Callable[[np.ndarray], np.ndarray], axes, slopes, points) -> np.ndarray:
    """inf over t of  field(x) - slope * t  for R rows at once, one field call per search step.

    ``field`` is a plain function from (R, n) points to (R,) values, such as
    :func:`asplund_lift`; n is the width of ``points``, and nothing checks
    the field's dimension.  In row r, x is ``points[r]`` with coordinate
    ``axes[r]`` set to t (the given ``axes[r]`` coordinate is ignored) and
    the slope is ``slopes[r]``.  Requires a strongly convex field, which
    makes every objective coercive: each row doubles its bracket [-w, w]
    until both ends exceed the value at the center, then golden-section
    search localizes the minimizer to ``_MARGINAL_XTOL``, one ``field`` call
    per step on the rows still open.  The golden-section arrays hold only
    those rows: each step computes the bracket widths once, and when the
    narrowest is not wider than ``_MARGINAL_XTOL`` (or is NaN), the rows at
    most that wide are written to the output and dropped.  Otherwise each
    row moves its bracket and takes its one new abscissa, c when it kept the
    left part and d when it kept the right, all in one ``field`` call.
    Raises :class:`CoercivityError`, naming the first row still open, if a
    bracket does not close within ``_MAX_DOUBLINGS`` doublings or
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
    rows = np.arange(len(points))
    if not rows.size:
        return np.empty(0)
    on_axis = np.arange(points.shape[1]) == axes[:, None]  # each row's search coordinate

    def phi_rows(idx: np.ndarray, *ts: np.ndarray) -> list[np.ndarray]:
        """The objective at several abscissae per row of ``idx``, as slices of one field call."""
        k, idx, t = len(idx), np.concatenate([idx] * len(ts)), np.concatenate(ts)
        f = field(np.where(on_axis[idx], t[:, None], points[idx])) - slopes[idx] * t
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
        f = field(np.where(on, t[:, None], x)) - sl * t
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    return out
