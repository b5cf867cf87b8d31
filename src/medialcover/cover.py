"""Covering graphs built from marginal infima of a strongly convex field.

For a strongly convex field F, an axis i and two slopes alpha < beta, the
graph  { x : x_i = (g_alpha(x_rest) - g_beta(x_rest)) / (beta - alpha) }
(with g_s the marginal infimum of F(x) - s * x_i over x_i) contains every
point whose one-sided derivative gap along axis i brackets [alpha, beta].
The evaluator is a difference of two convex functions of x_rest.

Graphs of one family share their marginal rows: over a rest grid,
:func:`cover_family_to_dict` computes g_s once per (axis, slope), all of
them in one batched search (:func:`medialcover.convex.marginal_inf_rows`),
and every graph with that slope reads its row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .convex import SlopeLattice, marginal_inf_rows
from .fields import ScalarField

__all__ = [
    "FamilyBudgetError",
    "CcGraph",
    "CoverFamily",
    "enumerate_cover",
    "cover_family_to_dict",
]


class FamilyBudgetError(ValueError):
    """Requested cover family exceeds the configured combination budget."""


@dataclass(frozen=True)
class CcGraph:
    """One covering graph in the direction of ``axis``.

    ``bias`` is a fault-injection hook used by the negative-control test: it
    shifts every graph value and must be 0 in normal operation.
    """

    axis: int
    alpha: float
    beta: float
    base: ScalarField
    bias: float = 0.0

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got {self.alpha} >= {self.beta}")
        if not 0 <= self.axis < self.base.dimension:
            raise ValueError(f"axis {self.axis} out of range for dimension {self.base.dimension}")

    @property
    def key(self) -> str:
        return f"axis{self.axis}:{self.alpha:g}:{self.beta:g}"

    def value(self, value_alpha: float, value_beta: float) -> float:
        """The graph coordinate x_axis from the two marginal values at a node."""
        return (value_alpha - value_beta) / (self.beta - self.alpha) + self.bias


@dataclass(frozen=True)
class CoverFamily:
    """A finite, deterministically ordered family of covering graphs."""

    graphs: tuple[CcGraph, ...]
    provenance: str
    axes: tuple[int, ...]


def enumerate_cover(
    base: ScalarField,
    axes,
    lattice: SlopeLattice,
    cap: int,
) -> CoverFamily:
    """All (axis, alpha < beta) combinations, axis-major then alpha then beta ascending."""
    axes = tuple(int(a) for a in axes)
    for a in axes:
        if not 0 <= a < base.dimension:
            raise ValueError(f"axis {a} out of range for dimension {base.dimension}")
    total = len(axes) * lattice.pair_count()
    if total > cap:
        raise FamilyBudgetError(f"family would need {total} graphs, exceeding the cap of {cap}")
    slopes = lattice.points()
    graphs = [
        CcGraph(axis=a, alpha=float(alpha), beta=float(beta), base=base)
        for a in axes
        for alpha, beta in itertools.combinations(slopes, 2)
    ]
    return CoverFamily(graphs=tuple(graphs), provenance=base.tag, axes=axes)


def cover_family_to_dict(family: CoverFamily, rest_nodes: np.ndarray) -> list[dict]:
    """Serialize each graph with its values over the given x_rest nodes."""
    rest_nodes = np.atleast_2d(np.asarray(rest_nodes, dtype=float))
    # (axis, slope) keys in first-use order, per base field
    groups: dict[ScalarField, dict[tuple[int, float], None]] = {}
    for graph in family.graphs:
        keys = groups.setdefault(graph.base, {})
        for slope in (graph.alpha, graph.beta):
            keys[graph.axis, slope] = None
    count = len(rest_nodes)
    rows: dict[tuple, list[float]] = {}
    for base, keys in groups.items():
        points = np.concatenate([np.insert(rest_nodes, axis, 0.0, axis=1) for axis, _ in keys])
        axes = np.repeat([axis for axis, _ in keys], count)
        slopes = np.repeat([slope for _, slope in keys], count)
        values = marginal_inf_rows(base, axes, slopes, points).reshape(len(keys), count).tolist()
        rows.update(((base, *key), row) for key, row in zip(keys, values))

    out = []
    for graph in family.graphs:
        setting = (graph.base, graph.axis)
        pairs = zip(rest_nodes, rows[(*setting, graph.alpha)], rows[(*setting, graph.beta)])
        grid = [[*node.tolist(), graph.value(va, vb)] for node, va, vb in pairs]
        out.append({"axis": graph.axis, "alpha": graph.alpha, "beta": graph.beta, "grid": grid})
    return out
