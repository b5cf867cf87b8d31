"""The packed survey kernel against the per-primitive queries of `tests/reference.py`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialcover.distance import grid_sweep, nearest_points, survey
from medialcover.geometry import ClosedSetSpec, Window
import reference

TIE = 1e-9


def random_records(rng, n):
    """Points, segments, a polygon loop and shells of radius 0 and > 0, in random order."""
    prims = [{"type": "point", "coords": rng.uniform(-1.5, 1.5, n)} for _ in range(rng.integers(1, 4))]
    prims += [{"type": "segment", "a": rng.uniform(-1.5, 1.5, n), "b": rng.uniform(-1.5, 1.5, n)} for _ in range(rng.integers(1, 3))]
    prims.append({"type": "polygon", "vertices": rng.uniform(-1.5, 1.5, size=(rng.integers(3, 6), n))})
    prims.append({"type": "ball", "center": rng.uniform(-1.0, 1.0, n), "radius": 0.0})
    prims.append({"type": "ball", "center": rng.uniform(-1.0, 1.0, n), "radius": rng.uniform(0.2, 1.2)})
    order = rng.permutation(len(prims))
    return [prims[k] for k in order]


def packed(records):
    """The set of the declared records, whose rows the tests check against the records themselves."""
    return ClosedSetSpec(records, reference.dimension(records[0]))


def declared(sets):
    """The declared sets as test parameters with ids spec0, spec1, ..."""
    return [pytest.param(records, id=f"spec{k}") for k, records in enumerate(sets)]


def queries(spec, rng):
    """300 random points and a 9^n grid on [-2, 2]^n, then the start of every row without a direction.

    Those starts are the point sites and the shell centres, where every shell
    point is nearest.
    """
    n = spec.dimension
    window = Window([-2.0] * n, [2.0] * n)
    return np.vstack([window.sample(rng, 300), window.grid_points(9), spec.starts[~spec.directions.any(axis=1)]])


def reference_table(records, pts):
    return np.stack([reference.distance(p, pts) for p in reference.expand(records)])


MIXED = [random_records(np.random.default_rng(seed), n) for n in (2, 3) for seed in range(6)]
SQUARE = [{"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}]
STAR = [{"type": "polygon", "vertices": [[1.4, 0.0], [0.4, 0.7], [-0.7, 1.2], [-0.8, 0.0], [-0.7, -1.2], [0.4, -0.7]]}]


@pytest.mark.parametrize("records", declared(MIXED))
def test_distances_match_the_primitives(records):
    spec = packed(records)
    pts = queries(spec, np.random.default_rng(1))
    ref = reference_table(records, pts)
    assert np.all(np.abs(spec.row_distances(pts) - ref) <= 1e-12 * (1.0 + ref))
    d = ref.min(axis=0)
    assert np.all(np.abs(survey(spec, pts).distance - d) <= 1e-12 * (1.0 + d))
    assert nearest_points(spec, pts[0]).distance == pytest.approx(d[0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("records", declared(MIXED))
def test_projections_match_where_the_runner_up_is_clear(records):
    spec = packed(records)
    pts = queries(spec, np.random.default_rng(2))
    ref = reference_table(records, pts)
    ranked = np.sort(ref, axis=0)
    clear = ranked[1] - ranked[0] > TIE
    best = ref.argmin(axis=0)
    rows = reference.expand(records)
    expected = np.array([reference.project(rows[j], x)[0] for j, x in zip(best, pts)])
    got = spec.project_rows(pts, best)
    assert clear.sum() > len(pts) // 2
    assert np.allclose(got[clear], expected[clear], rtol=0.0, atol=1e-12)
    assert np.allclose(survey(spec, pts).projection[clear], expected[clear], rtol=0.0, atol=1e-12)


# Point feet of -0.0 that no segment part rounds to +0.0, next to a shell.
SIGNED_ZEROS = [
    {"type": "point", "coords": [-0.0, 0.5]},
    {"type": "point", "coords": [0.5, -0.0]},
    {"type": "ball", "center": [-0.0, 0.0], "radius": 1.0},
]


@pytest.mark.parametrize("records", declared(MIXED + [SIGNED_ZEROS]))
def test_project_rows_gives_the_bytes_of_the_mask_form(records):
    spec = packed(records)
    rng = np.random.default_rng(4)
    pts = queries(spec, rng)  # the point sites and shell centres are the last rows
    pts = np.vstack([pts, np.where(rng.random(pts.shape) < 0.3, -0.0, pts)])
    rows = np.repeat(np.arange(len(spec.radii)), len(pts))  # every packed row at every point
    pts = np.tile(pts, (len(spec.radii), 1))
    assert np.any((spec.radii[rows] > 0.0) & np.all(pts == spec.starts[rows], axis=1))  # exact shell centres
    assert spec.project_rows(pts, rows).tobytes() == reference.project_rows(spec, pts, rows).tobytes()


@pytest.mark.parametrize("records", declared(MIXED + [SQUARE, STAR]))
def test_classes_match_nearest_points_row_by_row(records):
    spec = packed(records)
    pts = queries(spec, np.random.default_rng(3))
    if records is SQUARE or records is STAR:
        pts = np.vstack([pts, Window([-2, -2], [2, 2]).grid_points(17), [[0.0, 0.0], [0.3, 0.3]]])
    got = survey(spec, pts, TIE).classifications()
    expected = [reference.nearest_points(records, x, TIE).classification for x in pts]
    assert got == expected


def test_shell_centre_is_ambiguous_only_when_the_shell_is_nearest():
    shell = {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    alone = ClosedSetSpec([shell], 3)
    with_point = ClosedSetSpec([{"type": "point", "coords": [0.2, 0.0, 0.0]}, shell], 3)
    centre = np.zeros((1, 3))
    assert survey(alone, centre).ambiguous.tolist() == [True]
    assert survey(with_point, centre).ambiguous.tolist() == [False]
    assert np.allclose(survey(alone, centre).projection[0], [1.0, 0.0, 0.0])


def test_square_bisector_nodes_are_ambiguous():
    # The loop's medial axis is its two diagonals inside the square; outside it is empty.
    pts = Window([-2, -2], [2, 2]).grid_points(17)
    inside = np.all(np.abs(pts) < 1.0, axis=1)
    on_diagonal = np.abs(pts[:, 0]) == np.abs(pts[:, 1])
    assert np.array_equal(survey(packed(SQUARE), pts).ambiguous, inside & on_diagonal)


def test_separation_decides_between_close_feet():
    # Two sites 1e-4 apart: ambiguous under a 1e-6 separation, one point under 1e-3.
    spec = ClosedSetSpec([{"type": "point", "coords": [0.0, -5e-5]}, {"type": "point", "coords": [0.0, 5e-5]}], 2)
    x = np.array([[1.0, 0.0]])
    assert survey(spec, x, TIE, 1e-6).ambiguous.tolist() == [True]
    assert survey(spec, x, TIE, 1e-3).ambiguous.tolist() == [False]


def test_segment_clamp_keeps_the_sign_of_a_zero_parameter():
    # x - A = (-5e-324, 0) along D = (2, 0) gives t = -1e-323 / 4, which
    # rounds to -0.0.  np.clip(t, 0, 1) keeps -0.0, so the foot A + t D of a
    # start at (-0.0, -0.0) stays (-0.0, -0.0); a clamp that turned t into
    # +0.0 would give (0.0, 0.0).
    spec = ClosedSetSpec([{"type": "segment", "a": [-0.0, -0.0], "b": [2.0, -0.0]}], 2)
    x = np.array([[-5e-324, 0.0]])
    t = np.add.reduce((x - spec.starts) * spec.directions, axis=1) / 4.0
    assert t[0] == 0.0 and np.signbit(np.clip(t, 0.0, 1.0)[0])
    assert np.signbit(spec.project_rows(x, np.array([0]))).tolist() == [[True, True]]


eighths = st.integers(-12, 12).map(lambda k: k / 8.0)


@settings(max_examples=40, deadline=None)
@given(vertices=st.lists(st.tuples(eighths, eighths), min_size=3, max_size=6, unique=True))
def test_polygon_classifies_like_its_edges_as_segments(vertices):
    m = len(vertices)
    loop = ClosedSetSpec([{"type": "polygon", "vertices": vertices}], 2)
    edges = ClosedSetSpec([{"type": "segment", "a": vertices[k], "b": vertices[(k + 1) % m]} for k in range(m)], 2)
    window = Window([-2, -2], [2, 2])
    for x in np.vstack([window.grid_points(9), np.mean(vertices, axis=0)]):
        assert nearest_points(loop, x).classification is nearest_points(edges, x).classification
    counts = [np.bincount(s.classes, minlength=3).tolist() for s in (grid_sweep(loop, window, 17), grid_sweep(edges, window, 17))]
    assert counts[0] == counts[1]
