import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialcover.distance import Classification, grid_sweep, nearest_points, survey
from medialcover.geometry import ClosedSetSpec, Window
import reference

UNIT_SQUARE = {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
# A polygon is answered through the rows it packs into: one per edge.
SQUARE_SET = ClosedSetSpec([UNIT_SQUARE], 2)


def test_point_distance():
    p = {"type": "point", "coords": [0.0, 0.0]}
    assert reference.distance(p, np.array([3.0, 4.0]))[0] == pytest.approx(5.0)


def test_segment_distance_interior_foot():
    s = {"type": "segment", "a": [0, 0], "b": [2, 0]}
    assert reference.distance(s, np.array([1.0, 1.0]))[0] == pytest.approx(1.0)


def test_segment_distance_clamps_to_endpoint():
    s = {"type": "segment", "a": [0, 0], "b": [2, 0]}
    assert reference.distance(s, np.array([3.0, 0.0]))[0] == pytest.approx(1.0)
    assert np.allclose(reference.project(s, np.array([3.0, 4.0]))[0], [2.0, 0.0])


def test_ball_radial_distance():
    b = {"type": "ball", "center": [0, 0], "radius": 1.0}
    assert reference.distance(b, np.array([3.0, 0.0]))[0] == pytest.approx(2.0)
    # inside the shell the distance is measured to the shell, not zero
    assert reference.distance(b, np.array([0.25, 0.0]))[0] == pytest.approx(0.75)


def test_ball_zero_radius_degenerates_to_point():
    b = {"type": "ball", "center": [1, 2], "radius": 0.0}
    assert reference.distance(b, np.array([1.0, 0.0]))[0] == pytest.approx(2.0)
    pts, infinite = reference.nearest(b, np.array([5.0, 2.0]))
    assert not infinite
    assert np.allclose(pts[0], [1, 2])


def test_point_nearest():
    pts, infinite = reference.nearest({"type": "point", "coords": [1.0, 0.0]}, np.array([0.0, 0.0]))
    assert not infinite
    assert np.allclose(pts[0], [1.0, 0.0])


def test_segment_nearest_foot():
    pts, infinite = reference.nearest({"type": "segment", "a": [-1, 0], "b": [1, 0]}, np.array([0.0, 1.0]))
    assert not infinite
    assert np.allclose(pts[0], [0.0, 0.0])


def test_ball_center_query_flags_infinite_set():
    b = {"type": "ball", "center": [0, 0], "radius": 1.0}
    pts, infinite = reference.nearest(b, np.array([0.0, 0.0]))
    assert infinite
    assert len(pts) == 1
    assert np.linalg.norm(pts[0]) == pytest.approx(1.0)


def test_polygon_distance_and_corner_projection():
    assert survey(SQUARE_SET, np.array([[0.5, -1.0], [2.0, 2.0]])).distance == pytest.approx([1.0, np.sqrt(2)])
    assert np.allclose(survey(SQUARE_SET, np.array([[2.0, 2.0]])).projection[0], [1.0, 1.0])


def test_polygon_center_has_four_nearest_points():
    res = reference.nearest_points([UNIT_SQUARE], [0.5, 0.5])
    assert not res.infinite_set
    assert len(res.nearest) == 4
    for p in res.nearest:
        assert np.linalg.norm(p - [0.5, 0.5]) == pytest.approx(0.5)


def test_polygon_tie_candidate_on_diagonal():
    x = np.array([[0.5, 0.5], [0.5, -0.9]])
    assert survey(SQUARE_SET, x).ambiguous.tolist() == [True, False]


def test_polygon_loop_expands_into_its_edges():
    assert len(SQUARE_SET.starts) == 4 and SQUARE_SET.directions.any(axis=1).all()  # four segment rows
    assert (SQUARE_SET.starts + SQUARE_SET.directions).tolist() == [[1, 0], [1, 1], [0, 1], [0, 0]]
    assert SQUARE_SET.starts.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert SQUARE_SET.directions.tolist() == [[1, 0], [0, 1], [-1, 0], [0, -1]]
    assert SQUARE_SET.radii.tolist() == [0, 0, 0, 0]
    corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
    loop = ClosedSetSpec([{"type": "polygon", "vertices": corners}], 2)
    edges = ClosedSetSpec([{"type": "segment", "a": a, "b": b} for a, b in zip(corners, corners[1:] + corners[:1])], 2)
    for rows in ("starts", "directions", "radii"):
        assert getattr(loop, rows).tobytes() == getattr(edges, rows).tobytes()


# sha256 of the bytes of `starts`, `directions` and `radii` of each fixture
# set and of each benchmark workload's set at seed 303, computed when every
# record was still expanded into per-edge segments before it was packed.
GOLDEN_ROWS = {
    "shells_set": (
        "b0ecdd4d93dad9b90eb0b54ce6431f8c5793f846103a92169a1ee16f0fb3f8f9",
        "e8090cac11ddc2b5aa8f0cf7b21b2d1284b67e128dd5ba828bea12ddfd4095b1",
        "725c4777db328932b197731b1c986c84913a069a2090deb3667b697624551c8b",
    ),
    "star_set": (
        "d7ea71efa11c35395cb9c4c3df750bb47d59b5d643a1754d39fa051e90b788fd",
        "c3cff74fc23c08c346c00437ab10fcd63274c0bb24301c99d7ed1a6eb94fd430",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    ),
    "two_point_set": (
        "09601fe2fdc09f985d57706d8d8d3100984457940645e3ba3b1bba5c2d15be67",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ),
    "points2d": (
        "508fcb3ad0cec7626ab1f366ff703a373667e2bc159afb5b930b5b6757570bd3",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
    ),
    "polygon2d": (
        "de2073841955d7c8d04f0aab4bd0621c5897cf73ef4b9aaa059bf5b640addbc9",
        "e44a986196ee62b126f82781ff11d94646691721b7331775d57d17af18c20fad",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
    ),
    "shells3d": (
        "87f658cc1c3c45b1b9ea1c3596cc1b3033c6fa956b4a4a64921d8d176be1b0fd",
        "0d373e62070eb2113309def693411a40de1daa564a619ce0d58d6f251bf82463",
        "725c4777db328932b197731b1c986c84913a069a2090deb3667b697624551c8b",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_ROWS))
def test_packed_rows_match_their_golden_digest(name, monkeypatch):
    path = Path(__file__).parent / "fixtures" / f"{name}.json"
    if path.exists():
        spec = ClosedSetSpec.from_dict(json.loads(path.read_text()))
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[name]
        primitives = workload.primitives(np.random.default_rng(303))
        spec = ClosedSetSpec.from_dict({"dimension": workload.dimension, "primitives": primitives})
    digests = tuple(hashlib.sha256(getattr(spec, rows).tobytes()).hexdigest() for rows in ("starts", "directions", "radii"))
    assert digests == GOLDEN_ROWS[name]


@pytest.mark.parametrize("t", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_unit_square_diagonals_are_ambiguous(t):
    # A 1e-10 offset keeps the two edge distances within the tie tolerance.
    for x in ([t, t], [t, t + 1e-10], [t, 1.0 - t], [t + 1e-10, 1.0 - t]):
        assert nearest_points(SQUARE_SET, x).classification is Classification.AMBIGUOUS
    # Outside the loop both edges at a corner end in the same vertex.
    assert nearest_points(SQUARE_SET, [1.0 + t, 1.0 + t]).classification is Classification.UNIQUE


PRIMITIVES = [
    {"type": "point", "coords": [0.3, -0.7]},
    {"type": "segment", "a": [-1, -1], "b": [1, 0.5]},
    {"type": "ball", "center": [0.2, 0.1], "radius": 0.8},
    UNIT_SQUARE,
]


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_nearest_points_attain_the_distance(primitive):
    spec = ClosedSetSpec([primitive], 2)
    rng = np.random.default_rng(42)
    xs = rng.uniform(-2, 2, size=(50, 2))
    for x, d in zip(xs, survey(spec, xs).distance.tolist()):
        pts = reference.nearest_points([primitive], x).nearest
        best = min(np.linalg.norm(x - p) for p in pts)
        assert abs(best - d) <= 1e-12 * (1 + d)
        for p in pts:
            assert abs(np.linalg.norm(x - p) - d) <= 1e-12 * (1 + d)


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_primitive_distance_is_one_lipschitz(primitive):
    spec = ClosedSetSpec([primitive], 2)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=(10_000, 2))
    y = rng.uniform(-3, 3, size=(10_000, 2))
    dx = survey(spec, x).distance
    dy = survey(spec, y).distance
    assert np.all(np.abs(dx - dy) <= np.linalg.norm(x - y, axis=1) + 1e-12)


coords = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
)


@settings(max_examples=100, deadline=None)
@given(x=coords, y=coords)
def test_segment_lipschitz_property(x, y):
    s = {"type": "segment", "a": [-1, 0], "b": [1, 1]}
    x, y = np.array(x), np.array(y)
    assert abs(reference.distance(s, x[None])[0] - reference.distance(s, y[None])[0]) <= np.linalg.norm(x - y) + 1e-12


def pack(record, dimension=2):
    return ClosedSetSpec([record], dimension)


class TestValidation:
    def test_segment_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="distinct"):
            pack({"type": "segment", "a": [1, 1], "b": [1, 1]})

    # Its direction b - a overflows; a segment of length 1e154 squares to 1e308.
    def test_segment_length_must_square_to_a_float(self):
        with pytest.raises(ValueError, match="segment too long"):
            pack({"type": "segment", "a": [-1e308, 0.0], "b": [1e308, 0.0]})
        assert pack({"type": "segment", "a": [0.0, 0.0], "b": [1e154, 0.0]}).directions.tolist() == [[1e154, 0.0]]

    def test_polygon_edge_length_must_square_to_a_float(self):
        with pytest.raises(ValueError, match="polygon edge too long"):
            pack({"type": "polygon", "vertices": [[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]]})

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="3 vertices"):
            pack({"type": "polygon", "vertices": [[0, 0], [1, 1]]})

    def test_polygon_rejects_repeated_vertices(self):
        with pytest.raises(ValueError, match="coincide"):
            pack({"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 0], [0, 1]]})

    @pytest.mark.parametrize("seed", range(24))
    def test_repeated_vertices_name_the_first_pair_of_a_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 4), rng.integers(3, 30)
        # Coordinates on a 5-point grid, so that vertices repeat by chance; in
        # half the loops one vertex is also planted on another.
        vertices = rng.integers(-2, 3, size=(m, n)).astype(float)
        if seed % 2:
            vertices[rng.integers(m)] = vertices[rng.integers(m)]
        vertices = np.where((vertices == 0.0) & (rng.random(vertices.shape) < 0.5), -0.0, vertices)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if np.array_equal(vertices[i], vertices[j])]
        loop = {"type": "polygon", "vertices": vertices}
        if not pairs:
            assert pack(loop, n).starts.tobytes() == vertices.tobytes()
            return
        with pytest.raises(ValueError) as info:
            pack(loop, n)
        assert str(info.value) == f"primitives[0]: polygon vertices {pairs[0][0]} and {pairs[0][1]} coincide"

    def test_a_5000_vertex_loop_validates_in_under_2_s(self):
        angles = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
        start = time.perf_counter()
        pack({"type": "polygon", "vertices": np.stack([np.cos(angles), np.sin(angles)], axis=1)})
        assert time.perf_counter() - start < 2.0

    def test_ball_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            pack({"type": "ball", "center": [0, 0], "radius": -1.0})

    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pack({"type": "point", "coords": [np.nan, 0.0]})

    def test_set_needs_primitives(self):
        with pytest.raises(ValueError, match="at least one"):
            ClosedSetSpec([], 2)

    def test_set_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            pack({"type": "point", "coords": [0, 0, 0]})

    def test_set_dimension_range(self):
        with pytest.raises(ValueError, match="1, 2 or 3"):
            pack({"type": "point", "coords": [0]}, 4)

    def test_window_orders_corners(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Window([1, 0], [0, 1])

    def test_packed_rows_are_read_only(self):
        spec = pack({"type": "ball", "center": [1.0, 2.0], "radius": 0.5})
        for rows in (spec.starts, spec.directions, spec.radii):
            with pytest.raises(ValueError):
                rows[0] = 5.0

    def test_a_set_packs_its_own_copy_not_the_callers_array(self):
        coords, vertices = np.array([1.0, 2.0]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        spec = ClosedSetSpec([{"type": "point", "coords": coords}, {"type": "polygon", "vertices": vertices}], 2)
        coords[0], vertices[1, 0] = 5.0, 7.0
        assert spec.starts.tolist() == [[1.0, 2.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert spec.directions.tolist() == [[0.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]


class TestJson:
    def test_unknown_primitive_type_rejected(self):
        doc = {"dimension": 2, "primitives": [{"type": "blob"}]}
        with pytest.raises(ValueError, match="unknown primitive type 'blob'"):
            ClosedSetSpec.from_dict(doc)

    def test_missing_field_named_in_error(self):
        doc = {"dimension": 2, "primitives": [{"type": "ball", "center": [0, 0]}]}
        with pytest.raises(ValueError, match="radius"):
            ClosedSetSpec.from_dict(doc)

    def test_missing_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            ClosedSetSpec.from_dict({"primitives": [{"type": "point", "coords": [0, 0]}]})


def test_window_grid_and_sampling():
    w = Window([-2, -2], [2, 2])
    pts = w.grid_points(5)
    assert pts.shape == (25, 2)
    assert np.allclose(pts[0], [-2, -2]) and np.allclose(pts[-1], [2, 2])
    rng = np.random.default_rng(0)
    sample = w.sample(rng, 100)
    assert sample.shape == (100, 2)
    assert np.all((sample >= w.lower) & (sample <= w.upper))


# Non-square windows, and a resolution per dimension, so no two axes share ticks.
GRID_WINDOWS = [
    (Window([-1.5], [2.5]), 7),
    (Window([-2.0, -0.5], [3.0, 1.0]), 6),
    (Window([-2.0, -1.0, 0.25], [2.0, 3.0, 0.5]), 5),
]


@pytest.mark.parametrize("window, resolution", GRID_WINDOWS, ids=["1d", "2d", "3d"])
def test_grid_points_are_the_meshgrid_layout(window, resolution):
    mesh = np.meshgrid(*window.axes(resolution), indexing="ij")
    expected = np.stack([m.ravel() for m in mesh], axis=1)
    got = window.grid_points(resolution)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_grid_points_peak_at_their_own_size():
    """At 48^3 nodes: stacking the meshgrid copies once peaked at twice the result."""
    tracemalloc.start()
    try:
        pts = Window([-2.0] * 3, [2.0] * 3).grid_points(48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.nbytes == 48**3 * 3 * 8
    assert peak <= 1.1 * pts.nbytes


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    def build():
        spec = ClosedSetSpec([{"type": "point", "coords": [0.0, 0.0]}, {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}], 2)
        window = Window([-1.0, -1.0], [1.0, 1.0])
        return [
            spec,
            window,
            survey(spec, np.array([[0.5, 0.5]])),
            grid_sweep(spec, window, 3),
        ]

    for record, twin in zip(build(), build()):
        assert record == record and hash(record) == hash(record)
        assert record != twin and len({record, twin}) == 2
