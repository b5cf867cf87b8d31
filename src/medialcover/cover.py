"""Covering graphs built from marginal infima of a strongly convex field.

For a strongly convex field F, an axis i and two slopes alpha < beta, the
graph  { x : x_i = (g_alpha(x_rest) - g_beta(x_rest)) / (beta - alpha) }
(with g_s the marginal infimum of F(x) - s * x_i over x_i) contains every
point whose one-sided derivative gap along axis i brackets [alpha, beta].
The evaluator is a difference of two convex functions of x_rest.

Graphs of one family share their marginal rows: over a rest grid,
:func:`cover_family_to_dict` computes g_s once per (axis, slope) and every
graph with that slope reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .convex import SlopeLattice, marginal_inf
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
    xtol: float = 1e-7
    bias: float = 0.0

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got {self.alpha} >= {self.beta}")
        if not 0 <= self.axis < self.base.dimension:
            raise ValueError(f"axis {self.axis} out of range for dimension {self.base.dimension}")

    @property
    def key(self) -> str:
        return f"axis{self.axis}:{self.alpha:g}:{self.beta:g}"

    def marginal_values(self, x_rest) -> tuple[float, float]:
        """(g_alpha, g_beta) at one x_rest node."""
        return (
            marginal_inf(self.base, self.axis, self.alpha, x_rest, xtol=self.xtol),
            marginal_inf(self.base, self.axis, self.beta, x_rest, xtol=self.xtol),
        )

    def value(self, value_alpha: float, value_beta: float) -> float:
        """The graph coordinate x_axis from the two marginal values at a node."""
        return (value_alpha - value_beta) / (self.beta - self.alpha) + self.bias


@dataclass(frozen=True)
class CoverFamily:
    """A finite, deterministically ordered family of covering graphs."""

    graphs: tuple[CcGraph, ...]
    provenance: str
    lattice: SlopeLattice
    axes: tuple[int, ...]


def enumerate_cover(
    base: ScalarField,
    axes,
    lattice: SlopeLattice,
    cap: int,
    xtol: float = 1e-7,
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
        CcGraph(axis=a, alpha=float(alpha), beta=float(beta), base=base, xtol=xtol)
        for a in axes
        for alpha, beta in itertools.combinations(slopes, 2)
    ]
    return CoverFamily(graphs=tuple(graphs), provenance=base.tag, lattice=lattice, axes=axes)


def cover_family_to_dict(family: CoverFamily, rest_nodes: np.ndarray) -> list[dict]:
    """Serialize each graph with its values over the given x_rest nodes."""
    rest_nodes = np.atleast_2d(np.asarray(rest_nodes, dtype=float))
    rows: dict[tuple, list[float]] = {}

    def row(graph: CcGraph, slope: float) -> list[float]:
        key = (graph.base, graph.axis, slope, graph.xtol)
        if key not in rows:
            rows[key] = [marginal_inf(graph.base, graph.axis, slope, node, xtol=graph.xtol) for node in rest_nodes]
        return rows[key]

    out = []
    for graph in family.graphs:
        pairs = zip(rest_nodes, row(graph, graph.alpha), row(graph, graph.beta))
        grid = [[*node.tolist(), graph.value(va, vb)] for node, va, vb in pairs]
        out.append({"axis": graph.axis, "alpha": graph.alpha, "beta": graph.beta, "grid": grid})
    return out
