import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialcover import (
    Ball,
    Classification,
    ClosedSetSpec,
    Point,
    PolygonBoundary,
    Segment,
    Window,
    distance,
    grid_sweep,
    nearest_points,
    survey,
)
import reference

UNIT_SQUARE = PolygonBoundary([[0, 0], [1, 0], [1, 1], [0, 1]])
# A polygon is answered through the set it expands into: its four edges.
SQUARE_SET = ClosedSetSpec([UNIT_SQUARE], 2)


def test_point_distance():
    p = Point([0.0, 0.0])
    assert reference.distance(p, np.array([3.0, 4.0]))[0] == pytest.approx(5.0)


def test_segment_distance_interior_foot():
    s = Segment([0, 0], [2, 0])
    assert reference.distance(s, np.array([1.0, 1.0]))[0] == pytest.approx(1.0)


def test_segment_distance_clamps_to_endpoint():
    s = Segment([0, 0], [2, 0])
    assert reference.distance(s, np.array([3.0, 0.0]))[0] == pytest.approx(1.0)
    assert np.allclose(reference.project(s, np.array([3.0, 4.0]))[0], [2.0, 0.0])


def test_ball_radial_distance():
    b = Ball([0, 0], 1.0)
    assert reference.distance(b, np.array([3.0, 0.0]))[0] == pytest.approx(2.0)
    # inside the shell the distance is measured to the shell, not zero
    assert reference.distance(b, np.array([0.25, 0.0]))[0] == pytest.approx(0.75)


def test_ball_zero_radius_degenerates_to_point():
    b = Ball([1, 2], 0.0)
    assert reference.distance(b, np.array([1.0, 0.0]))[0] == pytest.approx(2.0)
    pts, infinite = reference.nearest(b, np.array([5.0, 2.0]))
    assert not infinite
    assert np.allclose(pts[0], [1, 2])


def test_point_nearest():
    pts, infinite = reference.nearest(Point([1.0, 0.0]), np.array([0.0, 0.0]))
    assert not infinite
    assert np.allclose(pts[0], [1.0, 0.0])


def test_segment_nearest_foot():
    pts, infinite = reference.nearest(Segment([-1, 0], [1, 0]), np.array([0.0, 1.0]))
    assert not infinite
    assert np.allclose(pts[0], [0.0, 0.0])


def test_ball_center_query_flags_infinite_set():
    b = Ball([0, 0], 1.0)
    pts, infinite = reference.nearest(b, np.array([0.0, 0.0]))
    assert infinite
    assert len(pts) == 1
    assert np.linalg.norm(pts[0]) == pytest.approx(1.0)


def test_polygon_distance_and_corner_projection():
    assert distance(SQUARE_SET, [0.5, -1.0]) == pytest.approx(1.0)
    assert distance(SQUARE_SET, [2.0, 2.0]) == pytest.approx(np.sqrt(2))
    assert np.allclose(survey(SQUARE_SET, np.array([[2.0, 2.0]])).projection[0], [1.0, 1.0])


def test_polygon_center_has_four_nearest_points():
    res = reference.nearest_points(SQUARE_SET, [0.5, 0.5])
    assert not res.infinite_set
    assert len(res.nearest) == 4
    for p in res.nearest:
        assert np.linalg.norm(p - [0.5, 0.5]) == pytest.approx(0.5)


def test_polygon_tie_candidate_on_diagonal():
    x = np.array([[0.5, 0.5], [0.5, -0.9]])
    assert survey(SQUARE_SET, x).ambiguous.tolist() == [True, False]


def test_polygon_loop_expands_into_its_edges():
    assert [type(p) for p in SQUARE_SET.primitives] == [Segment] * 4
    assert [p.b.tolist() for p in SQUARE_SET.primitives] == [[1, 0], [1, 1], [0, 1], [0, 0]]
    assert SQUARE_SET.starts.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert SQUARE_SET.directions.tolist() == [[1, 0], [0, 1], [-1, 0], [0, -1]]
    assert SQUARE_SET.radii.tolist() == [0, 0, 0, 0]
    corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
    loop = ClosedSetSpec.from_dict({"dimension": 2, "primitives": [{"type": "polygon", "vertices": corners}]})
    edges = ClosedSetSpec([Segment(a, b) for a, b in zip(corners, corners[1:] + corners[:1])], 2)
    for rows in ("starts", "directions", "radii"):
        assert getattr(loop, rows).tobytes() == getattr(edges, rows).tobytes()


@pytest.mark.parametrize("t", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_unit_square_diagonals_are_ambiguous(t):
    # A 1e-10 offset keeps the two edge distances within the tie tolerance.
    for x in ([t, t], [t, t + 1e-10], [t, 1.0 - t], [t + 1e-10, 1.0 - t]):
        assert nearest_points(SQUARE_SET, x).classification is Classification.AMBIGUOUS
    # Outside the loop both edges at a corner end in the same vertex.
    assert nearest_points(SQUARE_SET, [1.0 + t, 1.0 + t]).classification is Classification.UNIQUE


@pytest.mark.parametrize(
    "primitive",
    [
        Point([0.3, -0.7]),
        Segment([-1, -1], [1, 0.5]),
        Ball([0.2, 0.1], 0.8),
        UNIT_SQUARE,
    ],
)
def test_nearest_points_attain_the_distance(primitive):
    spec = ClosedSetSpec([primitive], 2)
    rng = np.random.default_rng(42)
    for x in rng.uniform(-2, 2, size=(50, 2)):
        d = distance(spec, x)
        pts = reference.nearest_points(spec, x).nearest
        best = min(np.linalg.norm(x - p) for p in pts)
        assert abs(best - d) <= 1e-12 * (1 + d)
        for p in pts:
            assert abs(np.linalg.norm(x - p) - d) <= 1e-12 * (1 + d)


@pytest.mark.parametrize(
    "primitive",
    [Point([0.3, -0.7]), Segment([-1, -1], [1, 0.5]), Ball([0.2, 0.1], 0.8), UNIT_SQUARE],
)
def test_primitive_distance_is_one_lipschitz(primitive):
    spec = ClosedSetSpec([primitive], 2)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3, 3, size=(10_000, 2))
    y = rng.uniform(-3, 3, size=(10_000, 2))
    dx = distance(spec, x)
    dy = distance(spec, y)
    assert np.all(np.abs(dx - dy) <= np.linalg.norm(x - y, axis=1) + 1e-12)


coords = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
)


@settings(max_examples=100, deadline=None)
@given(x=coords, y=coords)
def test_segment_lipschitz_property(x, y):
    s = Segment([-1, 0], [1, 1])
    x, y = np.array(x), np.array(y)
    assert abs(reference.distance(s, x[None])[0] - reference.distance(s, y[None])[0]) <= np.linalg.norm(x - y) + 1e-12


class TestValidation:
    def test_segment_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="distinct"):
            Segment([1, 1], [1, 1])

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="3 vertices"):
            PolygonBoundary([[0, 0], [1, 1]])

    def test_polygon_rejects_repeated_vertices(self):
        with pytest.raises(ValueError, match="coincide"):
            PolygonBoundary([[0, 0], [1, 0], [0, 0], [0, 1]])

    def test_ball_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Ball([0, 0], -1.0)

    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Point([np.nan, 0.0])

    def test_set_needs_primitives(self):
        with pytest.raises(ValueError, match="at least one"):
            ClosedSetSpec([], 2)

    def test_set_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            ClosedSetSpec([Point([0, 0, 0])], 2)

    def test_set_dimension_range(self):
        with pytest.raises(ValueError, match="1, 2 or 3"):
            ClosedSetSpec([Point([0])], 4)

    def test_window_orders_corners(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Window([1, 0], [0, 1])

    def test_primitive_arrays_are_read_only(self):
        p = Point([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coords[0] = 5.0

    def test_a_record_freezes_its_own_copy_not_the_callers_array(self):
        coords = np.array([1.0, 2.0])
        p = Point(coords)
        coords[0] = 5.0
        assert p.coords.tolist() == [1.0, 2.0]


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


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    def build():
        spec = ClosedSetSpec([Point([0.0, 0.0]), Ball([0.0, 0.0], 1.0)], 2)
        window = Window([-1.0, -1.0], [1.0, 1.0])
        return [
            Point([0.0, 0.0]),
            Segment([0.0, 0.0], [1.0, 0.0]),
            PolygonBoundary([[0, 0], [1, 0], [0, 1]]),
            Ball([0.0, 0.0], 1.0),
            spec,
            window,
            survey(spec, np.array([[0.5, 0.5]])),
            grid_sweep(spec, window, 3),
        ]

    for record, twin in zip(build(), build()):
        assert record == record and hash(record) == hash(record)
        assert record != twin and len({record, twin}) == 2
