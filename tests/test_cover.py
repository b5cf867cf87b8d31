"""Covering-graph families: enumeration order, budget, and serialized values."""

import itertools

import numpy as np
import pytest

from test_convex import reference_marginal_inf

from medialcover.convex import SlopeLattice
from medialcover.cover import CcGraph, CoverFamily, FamilyBudgetError, cover_family_to_dict, enumerate_cover
from medialcover.fields import asplund_field, strongify
from medialcover.geometry import Ball, ClosedSetSpec, Point, Window

LIFT = strongify(asplund_field(ClosedSetSpec([Point([-1.0, 0.0]), Point([1.0, 0.0])], 2)))
LATTICE = SlopeLattice(step=1.0, bound=2.0)
LIFT_3D = strongify(asplund_field(ClosedSetSpec([Ball([0.0, 0.0, 0.0], 1.0), Point([-1.4, -1.3, -1.5])], 3)))


def test_grid_values_are_the_graph_formula_on_direct_marginal_infima():
    cases = [
        (LIFT, (0, 1), LATTICE, np.linspace(-2.0, 2.0, 5)[:, None]),
        (LIFT_3D, (0, 1, 2), SlopeLattice(step=1.0, bound=1.0), Window([-2.0, -2.0], [2.0, 2.0]).grid_points(3)),
    ]
    for lift, axes, lattice, rest_nodes in cases:
        family = enumerate_cover(lift, axes, lattice, cap=64)
        entries = cover_family_to_dict(family, rest_nodes)
        assert len(entries) == len(family.graphs)
        for graph, entry in zip(family.graphs, entries):
            assert (entry["axis"], entry["alpha"], entry["beta"]) == (graph.axis, graph.alpha, graph.beta)
            for node, (*coords, value) in zip(rest_nodes, entry["grid"]):
                va = reference_marginal_inf(lift, graph.axis, graph.alpha, node)
                vb = reference_marginal_inf(lift, graph.axis, graph.beta, node)
                assert coords == node.tolist()
                assert value == (va - vb) / (graph.beta - graph.alpha)


def test_enumeration_is_axis_major_then_alpha_then_beta():
    family = enumerate_cover(LIFT, (1, 0), LATTICE, cap=64)
    slopes = LATTICE.points().tolist()
    expected = [(a, lo, hi) for a in (1, 0) for lo, hi in itertools.combinations(slopes, 2)]
    assert [(g.axis, g.alpha, g.beta) for g in family.graphs] == expected
    assert family.axes == (1, 0)


def test_family_one_graph_over_the_cap_is_refused():
    total = 2 * LATTICE.pair_count()
    assert len(enumerate_cover(LIFT, (0, 1), LATTICE, cap=total).graphs) == total
    with pytest.raises(FamilyBudgetError):
        enumerate_cover(LIFT, (0, 1), LATTICE, cap=total - 1)


@pytest.mark.parametrize("axis, alpha, beta", [(0, 1.0, 1.0), (0, 2.0, 1.0), (-1, 0.0, 1.0), (2, 0.0, 1.0)])
def test_graph_rejects_bad_slopes_and_axes(axis, alpha, beta):
    with pytest.raises(ValueError):
        CcGraph(axis=axis, alpha=alpha, beta=beta, base=LIFT)


def test_a_family_that_mixes_search_settings_reads_each_graphs_own_rows():
    first = enumerate_cover(LIFT, (0,), LATTICE, cap=64).graphs[0]
    # the same axis and slopes on another base field must not reuse the first graph's rows
    other = CcGraph(axis=0, alpha=first.alpha, beta=first.beta, base=strongify(LIFT))
    mixed = CoverFamily(graphs=(first, other), provenance="mixed", axes=(0,))
    rest_nodes = np.linspace(-2.0, 2.0, 5)[:, None]
    for graph, entry in zip(mixed.graphs, cover_family_to_dict(mixed, rest_nodes)):
        expected = [
            graph.value(*(reference_marginal_inf(graph.base, 0, s, node) for s in (graph.alpha, graph.beta)))
            for node in rest_nodes
        ]
        assert [value for _, value in entry["grid"]] == expected
    assert cover_family_to_dict(CoverFamily((), "empty", ()), np.zeros((1, 1))) == []
