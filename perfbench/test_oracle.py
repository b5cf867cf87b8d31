import numpy as np
import pytest

from perfbench.oracle import is_ambiguous

TIE = 1e-7
SEPARATION = 1e-6
TWO_POINTS = [{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}]
STAR = [[1.4, 0.0], [0.4, 0.7], [-0.7, 1.2], [-0.8, 0.0], [-0.7, -1.2], [0.4, -0.7]]


def as_segments(vertices):
    m = len(vertices)
    return [{"type": "segment", "a": vertices[i], "b": vertices[(i + 1) % m]} for i in range(m)]


def test_two_point_midline_is_ambiguous():
    assert is_ambiguous(TWO_POINTS, [0.0, 0.3], TIE, SEPARATION)


def test_off_midline_is_unique():
    assert not is_ambiguous(TWO_POINTS, [0.1, 0.3], TIE, SEPARATION)


def test_tie_window_bounds_the_verdict():
    # 1e-8 off the midline the two distances differ by 2e-8 < TIE.
    assert is_ambiguous(TWO_POINTS, [1e-8, 0.3], TIE, SEPARATION)
    assert not is_ambiguous(TWO_POINTS, [1e-6, 0.3], TIE, SEPARATION)


def test_shell_centre_is_ambiguous_and_near_centre_is_not():
    shell = [{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}]
    assert is_ambiguous(shell, [0.0, 0.0, 0.0], TIE, SEPARATION)
    assert not is_ambiguous(shell, [1e-3, 0.0, 0.0], TIE, SEPARATION)


def test_point_on_the_set_is_not_ambiguous():
    assert not is_ambiguous(TWO_POINTS, [1.0, 0.0], TIE, SEPARATION)


@pytest.mark.parametrize("vertices", [STAR, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]])
def test_polygon_and_its_edges_as_segments_agree(vertices):
    polygon = [{"type": "polygon", "vertices": vertices}]
    segments = as_segments(vertices)
    rng = np.random.default_rng(0)
    queries = list(rng.uniform(-2.0, 2.0, size=(200, 2)))
    queries += [np.zeros(2), np.array([0.5, 0.5]), np.array([-0.3, 0.3])]
    verdicts = [is_ambiguous(polygon, x, TIE, SEPARATION) for x in queries]
    assert verdicts == [is_ambiguous(segments, x, TIE, SEPARATION) for x in queries]
    assert any(verdicts)  # the square's centre and diagonals are on the medial axis


def test_polygon_vertex_shared_by_two_edges_counts_once():
    square = [{"type": "polygon", "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]}]
    # Outside the corner (1, 1) both edges' nearest point is the vertex itself.
    assert not is_ambiguous(square, [1.5, 1.7], TIE, SEPARATION)
