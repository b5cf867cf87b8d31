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
(:func:`medialcover.convex.marginal_inf_rows`) that starts each node at the
window's centre on the searched axis, and every graph with that slope reads
its row; :func:`graph_coordinate` takes a graph's two rows as arrays, so
each graph's grid is built in one call, with no loop over nodes.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .convex import SlopeLattice, marginal_inf_rows
from .geometry import Window

__all__ = [
    "FamilyBudgetError",
    "enumerate_cover",
    "cover_family_to_dict",
    "graph_key",
    "graph_coordinate",
]


# The most graphs ``enumerate_cover`` lists.
_MAX_GRAPHS = 64


class FamilyBudgetError(ValueError):
    """The requested cover family has more than ``_MAX_GRAPHS`` graphs."""


def graph_key(axis: int, alpha: float, beta: float) -> str:
    """The name of the graph (axis, alpha, beta) in reports."""
    return f"axis{axis}:{alpha:g}:{beta:g}"


def graph_coordinate(alpha: float, beta: float, value_alpha: float | np.ndarray, value_beta: float | np.ndarray) -> float | np.ndarray:
    """The graph coordinate x_axis from the two marginal values at a node, or at each node of two arrays.

    Plain float arithmetic, so an array gives the scalar call's bits at every
    node; adding 0.0 turns a -0.0 into 0.0.
    """
    return (value_alpha - value_beta) / (beta - alpha) + 0.0


def enumerate_cover(dimension: int, lattice: SlopeLattice) -> list[tuple[int, float, float]]:
    """All (axis, alpha < beta) triples over every axis, axis-major then alpha then beta ascending.

    The lattice's 2k + 1 slopes make k(2k + 1) pairs per axis.  The count is
    a Python integer, so a family above ``_MAX_GRAPHS`` is refused before
    any slope is allocated, however many there are.
    """
    k = lattice.max_index
    total = dimension * k * (2 * k + 1)
    if total > _MAX_GRAPHS:
        raise FamilyBudgetError(f"family would need {total} graphs, exceeding the cap of {_MAX_GRAPHS}")
    slopes = lattice.step * np.arange(-k, k + 1)
    return [(a, float(alpha), float(beta)) for a in range(dimension) for alpha, beta in itertools.combinations(slopes, 2)]


def cover_family_to_dict(field: Callable[[np.ndarray], np.ndarray], graphs, window: Window, resolution: int) -> list[dict]:
    """Serialize each (axis, alpha, beta) graph of ``field`` with its values over the x_rest grid of its axis.

    ``field`` is F, a plain function from (R, n) points to (R,) values such as ``convex.asplund_lift``.
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
    centre = (window.lower + window.upper) / 2.0  # each search starts at the window's centre on its axis
    points = np.concatenate([np.insert(rest[axis], axis, centre[axis], axis=1) for axis, _ in keys])
    axes = np.repeat([axis for axis, _ in keys], count)
    slopes = np.repeat([slope for _, slope in keys], count)
    rows = dict(zip(keys, marginal_inf_rows(field, axes, slopes, points).reshape(len(keys), count)))

    out = []
    for axis, alpha, beta in graphs:
        coordinates = graph_coordinate(alpha, beta, rows[axis, alpha], rows[axis, beta])
        grid = np.column_stack([rest[axis], coordinates]).tolist()
        out.append({"axis": axis, "alpha": alpha, "beta": beta, "grid": grid})
    return out
