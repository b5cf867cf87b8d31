import csv
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialcover import geometry
import medialcover.distance
from medialcover.distance import TIE_TOLERANCE, Classification, grid_sweep, nearest_points, survey, write_grid_csv
from medialcover.geometry import ClosedSetSpec, Window
from medialcover.verify import _flagged_edges
import reference

# The records of each set, read by the per-record queries of `reference`.
TWO_SITES = [{"type": "point", "coords": [-1, 0]}, {"type": "point", "coords": [1, 0]}]
UNIT_CIRCLE = [{"type": "ball", "center": [0, 0], "radius": 1.0}]
THREE_SITES = [{"type": "point", "coords": [0, 0]}, {"type": "point", "coords": [1, 0]}, {"type": "point", "coords": [0, 1]}]
TWO_POINTS = ClosedSetSpec(TWO_SITES, 2)
CIRCLE = ClosedSetSpec(UNIT_CIRCLE, 2)
THREE_POINTS = ClosedSetSpec(THREE_SITES, 2)
WINDOW = Window([-2, -2], [2, 2])
SHELLS_SET = json.loads((Path(__file__).parent / "fixtures" / "shells_set.json").read_text())
SHELLS = ClosedSetSpec.from_dict(SHELLS_SET)
# The grid sweep's class codes: each class's index in Classification.
IN_SET, UNIQUE, AMBIGUOUS = range(3)
WINDOW3 = Window([-2.0] * 3, [2.0] * 3)


def distances(spec, *points):
    """The survey's distances of the given query points."""
    return survey(spec, np.array(points, dtype=float)).distance


def test_the_module_is_not_hidden_by_a_function_of_its_name():
    assert medialcover.distance.survey is survey


class TestDistance:
    def test_two_point_midpoint(self):
        assert distances(TWO_POINTS, [0.0, 0.0]) == pytest.approx([1.0])

    def test_circle_center(self):
        assert distances(CIRCLE, [0.0, 0.0]) == pytest.approx([1.0])

    def test_two_point_offset(self):
        assert distances(TWO_POINTS, [0.5, 0.0]) == pytest.approx([0.5])

    def test_batch_evaluation(self):
        vals = distances(TWO_POINTS, [0.0, 0.0], [0.5, 0.0])
        assert np.allclose(vals, [1.0, 0.5])

    def test_points_of_the_wrong_dimension_are_refused(self):
        with pytest.raises(ValueError, match="dimension 2"):
            nearest_points(TWO_POINTS, [[0.5], [0.3]])
        for x in ([0.5, 0.3, 0.1], np.zeros((1, 1, 2))):  # a single point of three coordinates; a 3-D array
            with pytest.raises(ValueError, match="expected points of dimension 2"):
                nearest_points(TWO_POINTS, x)


class TestNearestPoints:
    def test_bisector_is_ambiguous(self):
        res = nearest_points(TWO_POINTS, [0.0, 1.0])
        assert res.distance == pytest.approx(np.sqrt(2))
        assert res.classification is Classification.AMBIGUOUS
        assert len(reference.nearest_points(TWO_SITES, [0.0, 1.0]).nearest) == 2

    def test_off_bisector_is_unique(self):
        res = nearest_points(TWO_POINTS, [0.3, 0.0])
        assert res.classification is Classification.UNIQUE
        assert np.allclose(reference.nearest_points(TWO_SITES, [0.3, 0.0]).nearest[0], [1.0, 0.0])

    def test_circumcenter_sees_three_nearest(self):
        # Brute-force check first: the circumcenter is equidistant to all sites.
        center = np.array([0.5, 0.5])
        dists = [np.linalg.norm(center - p["coords"]) for p in THREE_SITES]
        assert max(dists) - min(dists) < 1e-15
        res = nearest_points(THREE_POINTS, center)
        assert res.classification is Classification.AMBIGUOUS
        assert len(reference.nearest_points(THREE_SITES, center).nearest) == 3

    def test_point_on_set_is_in_set(self):
        res = nearest_points(TWO_POINTS, [1.0, 0.0])
        assert res.classification is Classification.IN_SET
        assert res.distance <= TIE_TOLERANCE

    def test_shell_center_raises_infinite_flag(self):
        res = nearest_points(CIRCLE, [0.0, 0.0])
        assert reference.nearest_points(UNIT_CIRCLE, [0.0, 0.0]).infinite_set
        assert res.classification is Classification.AMBIGUOUS

    def test_all_listed_points_attain_distance(self):
        res = reference.nearest_points(THREE_SITES, [0.5, 0.5])
        for p in res.nearest:
            assert abs(np.linalg.norm(np.array([0.5, 0.5]) - p) - res.distance) <= res.tie_tolerance


def differentiable_nodes(spec, window=WINDOW, resolution=17):
    """The grid sweep's nodes where the distance field looks differentiable, with d and grad d there."""
    sweep = grid_sweep(spec, window, resolution)
    keep = sweep.classes == UNIQUE
    return window.grid_points(resolution)[keep], sweep.values[keep], sweep.gradients[keep]


def reconstruct(spec, window=WINDOW, resolution=17):
    """x - d(x) grad d(x) at every differentiable node, with the nodes and their projections."""
    x, d, grad = differentiable_nodes(spec, window, resolution)
    return x, x - d[:, None] * grad, survey(spec, x).projection


class TestGradient:
    def test_single_point_gradient(self):
        x, _, grad = differentiable_nodes(ClosedSetSpec([{"type": "point", "coords": [0, 0]}], 2), Window([-5, -5], [5, 5]), 11)
        at = np.flatnonzero(np.all(x == [3.0, 4.0], axis=1))
        assert len(at) == 1
        assert np.allclose(grad[at[0]], [0.6, 0.8], atol=1e-6)

    def test_bisector_point_is_not_differentiable(self):
        # resolution 17 puts grid lines exactly on the bisector x1 = 0
        sweep = grid_sweep(TWO_POINTS, WINDOW, 17)
        on_bisector = WINDOW.grid_points(17)[:, 0] == 0.0
        assert on_bisector.sum() == 17
        assert not (sweep.classes[on_bisector] == UNIQUE).any()

    def test_unique_point_gradient_matches_closed_form(self):
        x, _, grad = differentiable_nodes(TWO_POINTS)
        p = np.where(x[:, :1] > 0, [1.0, 0.0], [-1.0, 0.0])
        expected = (x - p) / np.linalg.norm(x - p, axis=1)[:, None]
        assert len(x) == 17 * 17 - 17 - 2  # every node off the bisector and off the set
        assert np.allclose(grad, expected, atol=1e-6)

    def test_rejects_points_on_the_set(self):
        sweep = grid_sweep(TWO_POINTS, WINDOW, 9)
        on_set = np.flatnonzero(sweep.classes == IN_SET)
        assert len(on_set) == 2
        assert not (sweep.classes[on_set] == UNIQUE).any()

    def test_ambiguous_implies_not_differentiable(self):
        for spec in (TWO_POINTS, THREE_POINTS, CIRCLE):
            sweep = grid_sweep(spec, WINDOW, 17)
            ambiguous = sweep.classes == AMBIGUOUS
            assert any(ambiguous)
            assert not (sweep.classes[ambiguous] == UNIQUE).any()


    @pytest.mark.parametrize(
        "spec, window, resolution",
        [(TWO_POINTS, WINDOW, 17), (SHELLS, WINDOW3, 16), (THREE_POINTS, WINDOW, 33), (CIRCLE, WINDOW, 33)],
        ids=["analyze_two_point", "analyze_shells", "three_points", "circle"],
    )
    def test_gradients_agree_with_the_finite_difference_oracle(self, spec, window, resolution):
        sweep = grid_sweep(spec, window, resolution)
        fd_gradients, fd_differentiable = reference.fd_gradients(spec, window.grid_points(resolution))
        assert fd_differentiable.sum() > resolution
        assert (sweep.classes[fd_differentiable] == UNIQUE).all()
        assert np.abs(sweep.gradients[fd_differentiable] - fd_gradients[fd_differentiable]).max() <= 1e-8

    def test_unique_nodes_next_to_a_site_are_differentiable(self):
        # Within 0.1 of a site the curvature 1/d of the field pulls forward and
        # backward differences more than 10 steps apart, so the finite-difference
        # flag calls such nodes not differentiable.
        sweep = grid_sweep(TWO_POINTS, WINDOW, 81)
        points = WINDOW.grid_points(81)
        sites = np.where(points[:, :1] > 0, [1.0, 0.0], [-1.0, 0.0])
        offset = points - sites
        r = np.linalg.norm(offset, axis=1)
        near = (r > 0.0) & (r < 0.1)
        assert near.sum() >= 16  # at least the eight nodes around each site
        assert (sweep.classes[near] == UNIQUE).all()
        assert not reference.fd_gradients(TWO_POINTS, points[near])[1].all()
        assert np.abs(sweep.gradients[near] - offset[near] / r[near, None]).max() <= 1e-12


class TestReconstruction:
    def test_point_site(self):
        _, rec, proj = reconstruct(ClosedSetSpec([{"type": "point", "coords": [0, 0]}], 2))
        assert np.allclose(rec, proj, atol=1e-4) and np.all(proj == 0.0)

    def test_segment_foot(self):
        x, rec, proj = reconstruct(ClosedSetSpec([{"type": "segment", "a": [0, 0], "b": [2, 0]}], 2))
        assert np.allclose(rec, proj, atol=1e-4)
        at = np.all(x == [1.0, 1.0], axis=1)
        assert at.sum() == 1 and np.allclose(rec[at], [[1.0, 0.0]], atol=1e-4)

    def test_circle_radial_projection(self):
        x, rec, proj = reconstruct(CIRCLE)
        # radial oracle: the projection onto the unit circle
        assert np.allclose(rec, x / np.linalg.norm(x, axis=1)[:, None], atol=1e-4)
        assert np.allclose(rec, proj, atol=1e-4)

    def test_refuses_ambiguous_points(self):
        # no reconstruction is offered on the bisector, where the nearest point is not unique
        x, _, _ = reconstruct(TWO_POINTS)
        assert len(x) and not np.any(x[:, 0] == 0.0)

    def test_matches_nearest_points_on_random_samples(self):
        # the nodes of grids over randomly drawn windows
        rng = np.random.default_rng(3)
        for lower in rng.uniform(-2.5, -0.5, size=(3, 2)):
            window = Window(lower, lower + rng.uniform(1.0, 4.0, size=2))
            x, rec, _ = reconstruct(TWO_POINTS, window, 9)
            assert len(x) > 40
            for node, point in zip(x, rec):
                res = reference.nearest_points(TWO_SITES, node)
                assert res.classification is Classification.UNIQUE
                assert np.linalg.norm(point - res.nearest[0]) <= 100 * 1e-5


def test_distance_decays_linearly_toward_nearest_point():
    rng = np.random.default_rng(11)
    records = [{"type": "point", "coords": [-1, 0]}, {"type": "segment", "a": [0.5, -1], "b": [0.5, 1]}]
    spec = ClosedSetSpec(records, 2)
    checked = 0
    while checked < 100:
        x = WINDOW.sample(rng, 1)[0]
        res = reference.nearest_points(records, x)
        if res.classification is not Classification.UNIQUE or res.distance < 1e-3:
            continue
        p = res.nearest[0]
        for t in (0.1, 0.5, 0.9):
            y = x + t * (p - x)
            assert abs(distances(spec, y)[0] - (1 - t) * res.distance) <= 1e-12
        checked += 1


coords = st.tuples(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(x=coords, y=coords)
def test_distance_field_is_one_lipschitz(x, y):
    x, y = np.array(x), np.array(y)
    dx, dy = distances(THREE_POINTS, x, y)
    assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-12


class TestGridSweep:
    def test_ambiguous_only_on_the_bisector(self):
        # resolution 17 puts grid lines exactly on x1 = 0
        sweep = grid_sweep(TWO_POINTS, WINDOW, 17)
        points = WINDOW.grid_points(17)
        for point, cls in zip(points, sweep.classes):
            if cls == AMBIGUOUS:
                assert abs(point[0]) < 1e-12
        on_axis = [
            cls
            for point, cls in zip(points, sweep.classes)
            if abs(point[0]) < 1e-12
        ]
        assert AMBIGUOUS in on_axis

    def test_in_set_rows_have_nan_gradient(self):
        sweep = grid_sweep(TWO_POINTS, WINDOW, 17)
        for k, cls in enumerate(sweep.classes):
            if cls == IN_SET:
                assert np.isnan(sweep.gradients[k]).all()

    def test_csv_export(self, tmp_path):
        sweep = grid_sweep(TWO_POINTS, WINDOW, 9)
        path = tmp_path / "grid.csv"
        write_grid_csv(sweep, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "d", "classification", "grad_1", "grad_2", "differentiable_flag"]
        assert len(rows) == 1 + 81

    def test_transient_memory_does_not_grow_with_the_grid(self):
        # 48**3 nodes: the whole-grid sweep held about 20 MB of temporaries
        # on top of the arrays it returns; the blocked one holds about 2 MB.
        tracemalloc.start()
        try:
            sweep = grid_sweep(SHELLS, WINDOW3, 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (sweep.values, sweep.gradients, sweep.classes))
        assert peak - returned < 6e6

    def test_a_3d_sweep_returns_8n_plus_9_bytes_per_node(self):
        # d and n gradient components as float64, and one int8 class code.
        sweep = grid_sweep(SHELLS, WINDOW3, 16)
        assert [f.name for f in dataclasses.fields(sweep)] == ["window", "resolution", "values", "classes", "gradients"]
        returned = sum(a.nbytes for a in (sweep.values, sweep.gradients, sweep.classes))
        assert returned == (8 * 3 + 9) * 16**3

    @pytest.mark.parametrize(
        "description, window, resolution",
        [(SHELLS_SET, WINDOW3, 13), ({"dimension": 2, "primitives": THREE_SITES}, WINDOW, 60)],
        ids=["3d", "2d"],
    )
    def test_block_size_does_not_change_a_bit(self, description, window, resolution, monkeypatch):
        """The sweep and the flagged edges of detection, with the kernel block varied before the set is packed."""
        count, default = resolution ** description["dimension"], geometry._BLOCK_ELEMENTS

        def run(elements):
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
            spec = ClosedSetSpec.from_dict(description)
            sweep = grid_sweep(spec, window, resolution)
            edges = _flagged_edges(spec, window, resolution)
            assert len(edges[0])
            return spec._block, [a.tobytes() for a in (sweep.values, sweep.gradients, sweep.classes, *edges)]

        whole_block, whole = run(1 << 40)
        assert whole_block >= count  # one block
        row_elements = ClosedSetSpec.from_dict(description).directions.size
        for elements in (default, 7 * row_elements):
            block, blocked = run(elements)
            assert count % block and count > block  # blocks that do not divide the node count
            assert blocked == whole


def test_project_returns_a_nearest_point():
    rng = np.random.default_rng(5)
    pts = WINDOW.sample(rng, 200)
    proj = survey(THREE_POINTS, pts).projection
    d = survey(THREE_POINTS, pts).distance
    assert np.allclose(np.linalg.norm(pts - proj, axis=1), d, atol=1e-12)


@pytest.mark.parametrize("spec", [TWO_POINTS, THREE_POINTS, CIRCLE, SHELLS], ids=["two-points", "three-points", "circle", "shells"])
def test_the_survey_row_is_the_first_row_at_the_minimum(spec):
    """The survey's nearest point is the projection onto the first row at the minimum distance."""
    rng = np.random.default_rng(7)
    window = WINDOW if spec.dimension == 2 else WINDOW3
    # Random points, the grid (whose middle axis value is 0 on both axes:
    # exact ties on every bisector through the origin) and the set's own rows.
    pts = np.concatenate([window.sample(rng, 300), window.grid_points(9 if spec.dimension == 2 else 5), spec.starts])
    first = spec.row_distances(pts).argmin(axis=0)
    assert np.array_equal(survey(spec, pts).projection, spec.project_rows(pts, first))


def test_the_survey_row_of_an_exact_tie_is_the_first():
    assert survey(TWO_POINTS, np.array([[0.0, 0.0], [0.0, 1.5]])).projection.tolist() == [[-1.0, 0.0]] * 2
    assert survey(THREE_POINTS, np.array([[0.5, 0.5]])).projection.tolist() == [THREE_POINTS.starts[0].tolist()]


# ROADMAP item 3: a tie measured as a length.  At the `polygon2d` node
# (1.6129, 0.3226) of seed 2, the two edges through vertex 0 are within
# TIE_TOLERANCE in distance, but their feet are 2.03e-5 apart and the
# node lies 1.01e-5 from the bisector of the two feet: its nearest point is
# unique, and `survey` calls it AMBIGUOUS.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="survey compares distances, not the distance to the feet's bisector")
def test_a_node_beside_a_polygon_vertex_is_not_a_false_tie(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import WORKLOADS

    primitives = WORKLOADS["polygon2d"].primitives(np.random.default_rng(2))
    spec = ClosedSetSpec(primitives, 2)
    axis = WINDOW.axes(32)[0]
    x = np.array([[axis[28], axis[18]]])
    table = spec.row_distances(x)[:, 0]
    rows = np.flatnonzero(table <= table.min() + TIE_TOLERANCE)
    q1, q2 = spec.project_rows(np.repeat(x, len(rows), axis=0), rows)
    gap = np.linalg.norm(q1 - q2)
    off_bisector = abs(np.sum((x[0] - q1) ** 2) - np.sum((x[0] - q2) ** 2)) / (2.0 * gap)
    assert len(rows) == 2
    assert gap == pytest.approx(2.03e-5, rel=0.01)
    assert off_bisector == pytest.approx(1.01e-5, rel=0.01)
    assert not survey(spec, x).ambiguous[0]
