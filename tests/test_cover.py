"""Covering-graph families: enumeration order, budget, serialized values, and agreement with verify."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from reference import reference_marginal_inf

from medialcover import cover
from medialcover.cli import main
from medialcover.config import load_config
from medialcover.convex import SlopeLattice, asplund_lift, nondiff_witnesses
from medialcover.cover import FamilyBudgetError, cover_family_to_dict, enumerate_cover, graph_coordinate, graph_key
from medialcover.geometry import ClosedSetSpec, Window
from medialcover.verify import detect_ambiguous

FIXTURES = Path(__file__).parent / "fixtures"

LIFT = asplund_lift(ClosedSetSpec([{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}], 2))
LATTICE = SlopeLattice(step=1.0, bound=2.0)
LIFT_3D = asplund_lift(
    ClosedSetSpec([{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, {"type": "point", "coords": [-1.4, -1.3, -1.5]}], 3)
)


def test_grid_values_are_the_graph_formula_on_direct_marginal_infima():
    # On a square window every axis has the same rest grid.
    cases = [
        (LIFT, LATTICE, Window([-2.0, -2.0], [2.0, 2.0]), 5, np.linspace(-2.0, 2.0, 5)[:, None]),
        (LIFT_3D, SlopeLattice(step=1.0, bound=1.0), Window([-2.0] * 3, [2.0] * 3), 3, Window([-2.0, -2.0], [2.0, 2.0]).grid_points(3)),
    ]
    for lift, lattice, window, resolution, rest_nodes in cases:
        graphs = enumerate_cover(window.dimension, lattice)
        entries = cover_family_to_dict(lift, graphs, window, resolution)
        assert len(entries) == len(graphs)
        for (axis, alpha, beta), entry in zip(graphs, entries):
            assert (entry["axis"], entry["alpha"], entry["beta"]) == (axis, alpha, beta)
            for node, (*coords, value) in zip(rest_nodes, entry["grid"]):
                va = reference_marginal_inf(lift, axis, alpha, node)
                vb = reference_marginal_inf(lift, axis, beta, node)
                assert coords == node.tolist()
                assert value == (va - vb) / (beta - alpha)


def test_graph_coordinate_on_arrays_is_the_scalar_call_at_every_node():
    """Bit for bit, and a -0.0 quotient becomes 0.0 on both paths."""
    rng = np.random.default_rng(7)
    value_alpha = np.concatenate([rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50), [0.0, -0.0, 1e-320]])
    value_beta = np.concatenate([rng.normal(size=50), [0.0, 0.0, -3e-320]])
    for alpha, beta in [(-1.0, 1.0), (0.5, 2.0), (-2.0, -1.0)]:
        got = graph_coordinate(alpha, beta, value_alpha, value_beta)
        want = np.array([graph_coordinate(alpha, beta, va, vb) for va, vb in zip(value_alpha.tolist(), value_beta.tolist())])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    # (-0.0 - 0.0) / 2.0 is -0.0 before the 0.0 is added.
    assert np.signbit((-0.0 - 0.0) / 2.0)
    assert not np.signbit(graph_coordinate(-1.0, 1.0, np.array([-0.0]), np.array([0.0]))).any()
    assert not np.signbit(graph_coordinate(-1.0, 1.0, -0.0, 0.0))


def test_enumeration_is_axis_major_then_alpha_then_beta():
    slopes = [-2.0, -1.0, 0.0, 1.0, 2.0]
    expected = [(a, lo, hi) for a in (0, 1) for lo, hi in itertools.combinations(slopes, 2)]
    assert enumerate_cover(2, LATTICE) == expected


def test_family_one_graph_over_the_cap_is_refused(monkeypatch):
    # 2 axes of 10 slope pairs each.
    monkeypatch.setattr(cover, "_MAX_GRAPHS", 20)
    assert len(enumerate_cover(2, LATTICE)) == 20
    monkeypatch.setattr(cover, "_MAX_GRAPHS", 19)
    with pytest.raises(FamilyBudgetError, match="family would need 20 graphs, exceeding the cap of 19"):
        enumerate_cover(2, LATTICE)


# A lattice of 2k + 1 slopes gives n k (2k + 1) graphs, so no family has 64
# or 65: the nearest sizes are 63 (21 axes of 3 pairs) and 66 (22 axes).
@pytest.mark.parametrize(
    "dimension, bound, total",
    [(21, 1.0, 63), (22, 1.0, 66), (1, 5.0, 55), (2, 4.0, 72), (3, 2.0, 30), (1, 6.0, 78)],
)
def test_a_family_of_more_than_64_graphs_is_refused(dimension, bound, total):
    lattice = SlopeLattice(step=1.0, bound=bound)
    assert cover._MAX_GRAPHS == 64
    if total <= 64:
        assert len(enumerate_cover(dimension, lattice)) == total
    else:
        with pytest.raises(FamilyBudgetError, match=f"family would need {total} graphs, exceeding the cap of 64"):
            enumerate_cover(dimension, lattice)


def test_an_empty_family_serializes_to_nothing():
    assert cover_family_to_dict(LIFT, [], Window([-2.0, -2.0], [2.0, 2.0]), 1) == []


# The family spans every axis, so it holds the witness graph of every sample
# whose derivative gap the cover lattice resolves.  The fixtures, then the
# benchmark workloads at seed 303.
WITNESSES = {"cover_two_point": 64, "cover_star": 1, "cover_shells": 21, "points2d": 35, "polygon2d": 1, "shells3d": 14}


@pytest.mark.parametrize("name, count", list(WITNESSES.items()), ids=list(WITNESSES))
def test_the_witness_counts_add_up_to_the_resolved_samples(name, count, tmp_path, monkeypatch, capsys):
    config_path = FIXTURES / f"{name}.json"
    if not config_path.exists():
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.workloads import WORKLOADS, write_configs

        config_path = write_configs(WORKLOADS[name], 303, tmp_path)["cover"]
    report = tmp_path / "report.json"
    assert main(["cover", str(config_path), "--output", str(report)]) == 0
    config, _ = load_config(config_path)
    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    resolved = sum(w is not None for w in nondiff_witnesses(found, config.lattice))
    assert sum(graph["witness_points"] for graph in json.loads(report.read_text())["graphs"]) == resolved == count


@pytest.mark.parametrize("fixture", ["verify_two_point", "verify_shells"])
def test_the_cover_graph_of_each_certified_sample_is_off_it_by_the_reported_deviation(fixture, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", str(FIXTURES / f"{fixture}.json"), "--output", str(report_path), "--allow-unresolved"]) == 0
    records = json.loads(report_path.read_text())["report"]["records"]
    assert records
    config, _ = load_config(FIXTURES / f"{fixture}.json")
    lift = asplund_lift(config.set_spec)
    for record in records:
        point, axis, alpha, beta = record["point"], record["axis"], record["alpha"], record["beta"]
        # A one-node grid: the window's lower corner is the sample.
        (entry,) = cover_family_to_dict(lift, [(axis, alpha, beta)], Window(point, np.add(point, 1.0)), 1)
        *rest, coordinate = entry["grid"][0]
        assert rest == np.delete(point, axis).tolist()
        assert abs(point[axis] - coordinate) == record["deviation"]
        assert record["graph"] == graph_key(axis, alpha, beta)


# Sets on windows whose axes have different ranges, so each axis has its own rest grid.
NON_SQUARE = [
    (
        {"dimension": 2, "primitives": [{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}]},
        [-4.0, -1.0],
        [4.0, 1.0],
    ),
    (
        {
            "dimension": 3,
            "primitives": [
                {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                {"type": "point", "coords": [-1.4, -1.3, -1.5]},
            ],
        },
        [-3.0, -2.0, -1.0],
        [3.0, 2.0, 1.0],
    ),
]


@pytest.mark.parametrize("shape, lower, upper", NON_SQUARE, ids=["2d", "3d"])
def test_the_rest_grid_of_each_axis_is_the_window_grid_without_that_axis(shape, lower, upper, tmp_path, capsys):
    config, report = tmp_path / "cover.json", tmp_path / "report.json"
    document = {
        "set": shape,
        "window": {"lower": lower, "upper": upper},
        "grid_resolution": 8,
        "lattice": {"step": 1.0, "bound": 1.0},
        "cover": {"rest_resolution": 3},
    }
    config.write_text(json.dumps(document))
    assert main(["cover", str(config), "--output", str(report)]) == 0
    graphs = json.loads(report.read_text())["graphs"]
    assert sorted({g["axis"] for g in graphs}) == list(range(len(lower)))
    lift = asplund_lift(ClosedSetSpec.from_dict(shape))
    for graph in graphs:
        axis, alpha, beta = graph["axis"], graph["alpha"], graph["beta"]
        ticks = [np.linspace(lo, hi, 3).tolist() for i, (lo, hi) in enumerate(zip(lower, upper)) if i != axis]
        assert [row[:-1] for row in graph["grid"]] == [list(node) for node in itertools.product(*ticks)]
        for *node, value in graph["grid"]:
            va = reference_marginal_inf(lift, axis, alpha, node)
            vb = reference_marginal_inf(lift, axis, beta, node)
            assert value == (va - vb) / (beta - alpha)
