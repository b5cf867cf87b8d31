"""Detected samples of random planar point sets against the Voronoi skeleton."""

import numpy as np
import pytest

from medialcover.geometry import ClosedSetSpec, Window
from medialcover.config import ScenarioConfig
from medialcover.verify import detect_ambiguous
from voronoi_oracle import voronoi_medial_axis_2d

WINDOW = Window([-2.0, -2.0], [2.0, 2.0])
SEEDS = range(40)


def random_sites(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 7)), 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_skeleton_points_have_two_nearest_sites(seed):
    sites = random_sites(seed)
    for seg in voronoi_medial_axis_2d(sites, WINDOW):
        for t in (0.0, 0.5, 1.0):
            x = seg.start + t * (seg.end - seg.start)
            dists = np.linalg.norm(sites - x, axis=1)
            i, j = seg.sites
            assert abs(dists[i] - dists[j]) <= 1e-9
            assert dists[i] <= dists.min() + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_detected_samples_lie_on_the_voronoi_skeleton(seed):
    sites = random_sites(seed)
    spec = ClosedSetSpec([{"type": "point", "coords": p} for p in sites], 2)
    skeleton = voronoi_medial_axis_2d(sites, WINDOW)
    samples = detect_ambiguous(spec, WINDOW, 32)[:, 0]
    assert len(samples) > 0
    for x in samples:
        gaps = [seg.distance_to(x) for seg in skeleton]
        nearest = skeleton[int(np.argmin(gaps))]
        assert min(gaps) <= ScenarioConfig.refine_tol
        dists = np.linalg.norm(sites - x, axis=1)
        assert np.all(dists[list(nearest.sites)] - dists.min() <= 1e-7)
