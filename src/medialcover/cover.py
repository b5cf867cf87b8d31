"""Covering graphs built from marginal infima of a strongly convex field.

For a strongly convex field F, an axis i and two slopes alpha < beta, the
graph  { x : x_i = (g_alpha(x_rest) - g_beta(x_rest)) / (beta - alpha) }
(with g_s the marginal infimum of F(x) - s * x_i over x_i) contains every
point whose one-sided derivative gap along axis i brackets [alpha, beta].
The evaluator is a difference of two convex functions of x_rest.

A graph is its triple ``(axis, alpha, beta)`` over one field F:
:func:`graph_key` names it in reports and :func:`graph_coordinate` computes
its x_i from the two marginal values.  On the window grid with the graph's
axis left out, :func:`cover_family_to_dict` computes g_s once per (axis,
slope) of a family, all of them in one batched search
(:func:`medialcover.convex.marginal_inf_rows`), and every graph with that
slope reads its row.
"""

from __future__ import annotations

import itertools

import numpy as np

from .convex import SlopeLattice, marginal_inf_rows
from .fields import ScalarField
from .geometry import Window

__all__ = [
    "FamilyBudgetError",
    "enumerate_cover",
    "cover_family_to_dict",
    "graph_key",
    "graph_coordinate",
]


class FamilyBudgetError(ValueError):
    """Requested cover family exceeds the configured combination budget."""


def graph_key(axis: int, alpha: float, beta: float) -> str:
    """The name of the graph (axis, alpha, beta) in reports."""
    return f"axis{axis}:{alpha:g}:{beta:g}"


def graph_coordinate(alpha: float, beta: float, value_alpha: float, value_beta: float, offset: float = 0.0) -> float:
    """The graph coordinate x_axis from the two marginal values at a node.

    ``offset`` shifts the coordinate; it is 0 except in the negative control
    (the ``fault_offset`` of a verify config), which proves that the
    certification can fail.  Adding a zero offset turns a -0.0 into 0.0.
    """
    return (value_alpha - value_beta) / (beta - alpha) + offset


def enumerate_cover(dimension: int, lattice: SlopeLattice, cap: int) -> list[tuple[int, float, float]]:
    """All (axis, alpha < beta) triples over every axis, axis-major then alpha then beta ascending."""
    total = dimension * lattice.pair_count()
    if total > cap:
        raise FamilyBudgetError(f"family would need {total} graphs, exceeding the cap of {cap}")
    slopes = lattice.points()
    return [(a, float(alpha), float(beta)) for a in range(dimension) for alpha, beta in itertools.combinations(slopes, 2)]


def cover_family_to_dict(base: ScalarField, graphs, window: Window, resolution: int) -> list[dict]:
    """Serialize each (axis, alpha, beta) graph of ``base`` with its values over the x_rest grid of its axis.

    The x_rest grid of axis i is the window's ``resolution`` grid with axis i left out.
    """
    if not graphs:
        return []
    # (axis, slope) keys in first-use order
    keys = list(dict.fromkeys((axis, slope) for axis, alpha, beta in graphs for slope in (alpha, beta)))
    # The rest grid of each axis, last axis fastest; in 1-D, one node with no coordinates and no axis ticked.
    ticks = window.axes(resolution) if window.dimension > 1 else []
    rest = {axis: np.array(list(itertools.product(*ticks[:axis], *ticks[axis + 1 :]))) for axis in {a for a, _, _ in graphs}}
    count = resolution ** (window.dimension - 1)
    points = np.concatenate([np.insert(rest[axis], axis, 0.0, axis=1) for axis, _ in keys])
    axes = np.repeat([axis for axis, _ in keys], count)
    slopes = np.repeat([slope for _, slope in keys], count)
    values = marginal_inf_rows(base, axes, slopes, points).reshape(len(keys), count).tolist()
    rows = dict(zip(keys, values))

    out = []
    for axis, alpha, beta in graphs:
        pairs = zip(rest[axis], rows[axis, alpha], rows[axis, beta])
        grid = [[*node.tolist(), graph_coordinate(alpha, beta, va, vb)] for node, va, vb in pairs]
        out.append({"axis": axis, "alpha": alpha, "beta": beta, "grid": grid})
    return out
