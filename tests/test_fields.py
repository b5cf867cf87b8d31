import json
from pathlib import Path

import numpy as np
import pytest

from medialcover.convex import asplund_lift
from medialcover.geometry import ClosedSetSpec, Window
from reference import asplund_field, strongify, uniform_points
from test_kernel import MIXED, packed, queries

TWO_POINTS = ClosedSetSpec([{"type": "point", "coords": [-1, 0]}, {"type": "point", "coords": [1, 0]}], 2)
CIRCLE = ClosedSetSpec([{"type": "ball", "center": [0, 0], "radius": 1.0}], 2)


def test_two_point_convex_lift_has_closed_form():
    # |x|^2 - min((x1 -+ 1)^2 + x2^2) simplifies to 2|x1| - 1
    f = asplund_field(TWO_POINTS)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(500, 2))
    assert np.allclose(f(pts), 2 * np.abs(pts[:, 0]) - 1, atol=1e-12)


def test_single_point_lift_vanishes():
    f = asplund_field(ClosedSetSpec([{"type": "point", "coords": [0, 0]}], 2))
    pts = np.random.default_rng(1).uniform(-2, 2, size=(100, 2))
    assert np.allclose(f(pts), 0.0, atol=1e-12)


def test_circle_lift_has_closed_form():
    # |x|^2 - (|x| - 1)^2 = 2|x| - 1
    f = asplund_field(CIRCLE)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(500, 2))
    assert np.allclose(f(pts), 2 * np.linalg.norm(pts, axis=1) - 1, atol=1e-12)


def test_strongify_adds_squared_norm():
    f = asplund_field(TWO_POINTS)
    g = strongify(f)
    x = np.array([0.3, -0.7])
    assert g(x) == pytest.approx(f(x) + 0.3**2 + 0.7**2)


def test_strongify_of_zero_is_squared_norm():
    g = strongify(lambda x: np.zeros(x.shape[:-1]))
    assert g(np.array([1.0, 2.0])) == pytest.approx(5.0)


def test_lift_is_vectorized_consistently():
    f = asplund_lift(CIRCLE)
    pts = uniform_points(Window([-2, -2], [2, 2]), np.random.default_rng(3), 64)
    batch = f(pts)
    single = np.array([f(p) for p in pts])
    assert np.allclose(batch, single)


# A 2-D set with every row kind (a star loop's edges, a circle, a point, a
# segment) and the 3-D shells fixture (sphere, point, segment).
MIXED_2D = ClosedSetSpec(
    [
        {"type": "polygon", "vertices": [[1.4, 0.0], [0.4, 0.7], [-0.7, 1.2], [-0.8, 0.0], [-0.7, -1.2], [0.4, -0.7]]},
        {"type": "ball", "center": [0.3, -0.2], "radius": 0.5},
        {"type": "point", "coords": [1.5, 1.5]},
        {"type": "segment", "a": [-1.8, -1.5], "b": [-1.0, -1.9]},
    ],
    2,
)
SHELLS = ClosedSetSpec.from_dict(json.loads((Path(__file__).parent / "fixtures" / "shells_set.json").read_text()))


@pytest.mark.parametrize("spec", [MIXED_2D, SHELLS], ids=["2d", "3d"])
def test_lift_gives_the_same_bits_whatever_the_batch_size(spec):
    # More points than one kernel block, so the batch runs through several.
    count = 2 * spec._block + 2
    pts = uniform_points(Window([-2.0] * spec.dimension, [2.0] * spec.dimension), np.random.default_rng(7), count)
    pts[0] = spec.starts[np.flatnonzero(spec.radii)[0]]  # a shell centre
    lift = asplund_lift(spec)
    batch = lift(pts)
    assert np.array_equal(batch, np.array([lift(p) for p in pts]))
    assert np.array_equal(batch, np.concatenate([lift(pts[k : k + 2]) for k in range(0, count, 2)]))


@pytest.mark.parametrize(
    "spec", [MIXED_2D, SHELLS] + [packed(records) for records in MIXED], ids=["2d", "3d"] + [f"mixed{k}" for k in range(len(MIXED))]
)
def test_fused_lift_gives_the_bits_of_strongify_of_asplund_field(spec):
    n = spec.dimension
    rng = np.random.default_rng(11)
    # Several kernel blocks, then every point site and shell centre exactly, then the same
    # points with some coordinates replaced by -0.0.
    pts = np.vstack([uniform_points(Window([-2.0] * n, [2.0] * n), rng, 2 * spec._block + 2), queries(spec, rng)])
    pts = np.vstack([pts, np.where(rng.random(pts.shape) < 0.3, -0.0, pts)])
    fused, reference = asplund_lift(spec), strongify(asplund_field(spec))
    assert fused(pts).tobytes() == reference(pts).tobytes()
    batch = pts[: 4 * 5 * 3].reshape(4, 5, 3, n)
    assert fused(batch).shape == (4, 5, 3)
    assert fused(batch).tobytes() == reference(batch).tobytes()
    for point in (pts[0], pts[-1], spec.starts[np.argmax(spec.radii)]):
        value = fused(point)
        assert value.shape == ()
        assert value.tobytes() == reference(point).tobytes()
