"""Scalar fields: the strongly convex lift of a set.

A field is a plain evaluator over points, vectorized over a trailing
coordinate axis: input shape (..., n), output shape (...).

``asplund_lift`` is the one evaluator of the lift 2|x|^2 - dist(x, E)^2 of
a set that ``verify`` and ``cover`` search: |x|^2 - dist(x, E)^2 is convex
for any nonempty closed E (Asplund 1973), and the lift adds |x|^2, which
makes it strongly convex with modulus 1.  ``verify`` calls it some ten
thousand times, a few points each, so it computes |x|^2 once and takes the
minimum over ``row_distances`` itself: one Python frame per call, and a
straight run of ufunc calls (``np.add.reduce``, ``np.minimum.reduce``,
in-place ``np.maximum``/``np.minimum`` clamps in the packed kernel) without
NumPy's Python-level wrappers such as ``np.sum`` or ``np.clip``.  It forms
(|x|^2 - d^2) + |x|^2, convex part first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ClosedSetSpec

__all__ = ["ScalarField", "asplund_lift"]


@dataclass(frozen=True)
class ScalarField:
    """A real-valued field over R^n with a descriptive tag."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    dimension: int
    tag: str = ""

    def __call__(self, x) -> float | np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != self.dimension:
            raise ValueError(f"field {self.tag!r} expects dimension {self.dimension}, got shape {arr.shape}")
        out = self.evaluator(arr)
        if arr.ndim == 1:
            return float(out)
        return np.asarray(out, dtype=float)


def asplund_lift(spec: ClosedSetSpec) -> ScalarField:
    """2|x|^2 - dist(x, E)^2: the convex |x|^2 - dist(x, E)^2 plus |x|^2, as one evaluator."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, spec.dimension)
        s = np.add.reduce(flat * flat, axis=-1)
        d = np.minimum.reduce(spec.row_distances(flat), axis=0)
        return ((s - d * d) + s).reshape(x.shape[:-1])

    return ScalarField(evaluate, spec.dimension, tag="asplund+sq")
