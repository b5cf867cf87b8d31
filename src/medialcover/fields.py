"""Scalar fields: the strongly convex lift of a set and analytic test fields.

Every field is a plain evaluator over points, vectorized over a trailing
coordinate axis: input shape (..., n), output shape (...).  ``strongify``
adds |x|^2, which makes any convex field strongly convex with modulus 1.

``asplund_lift`` is the one evaluator of the lift 2|x|^2 - dist(x, E)^2 of
a set that ``verify`` and ``cover`` search: |x|^2 - dist(x, E)^2 is convex
for any nonempty closed E, and the lift adds |x|^2.  ``verify`` calls it some
ten thousand times, a few points each, so it computes |x|^2 once and takes
the minimum over ``row_distances`` itself: one Python frame per call, and a
straight run of ufunc calls (``np.add.reduce``, ``np.minimum.reduce``,
in-place ``np.maximum``/``np.minimum`` clamps in the packed kernel) without
NumPy's Python-level wrappers such as ``np.sum`` or ``np.clip``.  It forms
(|x|^2 - d^2) + |x|^2, the order in which ``strongify`` adds |x|^2.

``named_field`` resolves the analytic test fields by their config names:
``abs`` (|x_1|), ``norm`` (|x|), ``sq_norm`` (|x|^2) and ``sin1`` (sin x_1)
from one table of evaluators, and ``blend:<seed>``, a seeded quadratic plus
sine ripples.  Each field's tag is its name.  The command line resolves
``asplund[:set]`` to the lift of the config's set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ClosedSetSpec

__all__ = [
    "ScalarField",
    "asplund_lift",
    "strongify",
    "named_field",
    "NAMED_FIELDS",
]


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


def _sq(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * x, axis=-1)


def strongify(field: ScalarField) -> ScalarField:
    """Add |x|^2; for convex input the result is strongly convex with modulus 1."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        return field.evaluator(x) + _sq(x)

    return ScalarField(evaluate, field.dimension, tag=f"{field.tag}+sq")


def asplund_lift(spec: ClosedSetSpec) -> ScalarField:
    """2|x|^2 - dist(x, E)^2: ``strongify`` of the convex |x|^2 - dist(x, E)^2, as one evaluator."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, spec.dimension)
        s = np.add.reduce(flat * flat, axis=-1)
        d = np.minimum.reduce(spec.row_distances(flat), axis=0)
        return ((s - d * d) + s).reshape(x.shape[:-1])

    return ScalarField(evaluate, spec.dimension, tag="asplund+sq")


def _blend(dimension: int, seed: int) -> ScalarField:
    """A seeded C^2 test field: x^T A x plus per-coordinate sine ripples."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(dimension, dimension))
    quad = 0.5 * (m + m.T)
    amps = rng.uniform(-1.0, 1.0, size=dimension)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dimension)

    def evaluate(x: np.ndarray) -> np.ndarray:
        q = np.einsum("...i,ij,...j->...", x, quad, x)
        return q + np.sum(amps * np.sin(x + phases), axis=-1)

    return ScalarField(evaluate, dimension, tag=f"blend:{seed}")


# The one table of analytic fields: each name is also the field's tag.
_EVALUATORS = {
    "abs": lambda x: np.abs(x[..., 0]),
    "norm": lambda x: np.sqrt(_sq(x)),
    "sq_norm": _sq,
    "sin1": lambda x: np.sin(x[..., 0]),
}

# The field names a config may give; the command line resolves ``asplund[:set]``.
NAMED_FIELDS = (*_EVALUATORS, "blend:<seed>", "asplund[:set]")


def named_field(name: str, dimension: int) -> ScalarField:
    """Resolve an analytic field by its config name."""
    if name in _EVALUATORS:
        return ScalarField(_EVALUATORS[name], dimension, tag=name)
    if name.startswith("blend:"):
        return _blend(dimension, int(name.split(":", 1)[1]))
    raise ValueError(f"unknown field name {name!r}; known names: {', '.join(NAMED_FIELDS)}")
