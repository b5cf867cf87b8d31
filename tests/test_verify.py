"""Bisection of flagged grid edges: one lockstep loop for every axis, equal to one loop per axis."""

from pathlib import Path

import numpy as np
import pytest

from medialcover.config import load_config
from medialcover.distance import survey
from medialcover.geometry import ClosedSetSpec, Point, Window
from medialcover.verify import _MAX_BISECTIONS, _flagged_edges, _refine_edges
from test_voronoi_oracle import SEEDS, WINDOW, random_sites

FIXTURES = Path(__file__).parent / "fixtures"


def reference_refine_edges(spec, edges, refine_tol):
    """The per-axis bisection that the lockstep loop replaced: one loop per group.

    Each group gives its bracket midpoints with the coordinatewise minimum
    and maximum of the two end projections, a (K, 3, n) stack.
    """
    refined = []
    for a, b, pa, pb in edges:
        a, b, pa, pb = a.copy(), b.copy(), pa.copy(), pb.copy()
        for _ in range(_MAX_BISECTIONS):
            if np.max(np.linalg.norm(b - a, axis=1)) <= refine_tol:
                break
            mid = 0.5 * (a + b)
            pm = survey(spec, mid).projection
            on_a_branch = np.linalg.norm(pm - pa, axis=1) <= np.linalg.norm(pm - pb, axis=1)
            a[on_a_branch] = mid[on_a_branch]
            pa[on_a_branch] = pm[on_a_branch]
            b[~on_a_branch] = mid[~on_a_branch]
            pb[~on_a_branch] = pm[~on_a_branch]
        refined.append(np.stack([0.5 * (a + b), np.minimum(pa, pb), np.maximum(pa, pb)], axis=1))
    return refined


def fixture_case(name, resolution=None):
    """Set, flagged edges and refine tolerance of a fixture config, at its own or another resolution."""
    config, _ = load_config(FIXTURES / f"{name}.json")
    spec = config.set_spec
    _, edges = _flagged_edges(
        spec,
        config.window,
        resolution or config.grid_resolution,
        config.jump_fraction,
        config.tie_tolerance,
        config.separation,
    )
    return spec, edges, config.refine_tol


def voronoi_case(seed):
    spec = ClosedSetSpec([Point(p) for p in random_sites(seed)], 2)
    _, edges = _flagged_edges(spec, WINDOW, 32, 0.25, 1e-9, 1e-6)
    return spec, edges, 1e-8


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_voronoi_point_sets_refine_as_one_loop_per_axis(seed):
    spec, edges, tol = voronoi_case(seed)
    assert edges
    assert_bit_identical(_refine_edges(spec, edges, tol), reference_refine_edges(spec, edges, tol))


@pytest.mark.parametrize("name, resolution", [("verify_shells", 12), ("verify_shells", 16), ("verify_wide_window", None)])
def test_fixture_sets_refine_as_one_loop_per_axis(name, resolution):
    spec, edges, tol = fixture_case(name, resolution)
    assert len(edges) == spec.dimension
    before = [np.concatenate(group).tobytes() for group in edges]
    assert_bit_identical(_refine_edges(spec, edges, tol), reference_refine_edges(spec, edges, tol))
    assert [np.concatenate(group).tobytes() for group in edges] == before  # the input is left as it was
    assert_bit_identical(_refine_edges(spec, edges[::-1], tol), reference_refine_edges(spec, edges[::-1], tol))


def test_a_middle_axis_that_stops_first_leaves_the_others_in_the_loop(monkeypatch):
    spec, _, tol = fixture_case("verify_shells")
    _, edges = _flagged_edges(spec, Window([-2.0, -1.0, -2.0], [2.0, 1.0, 2.0]), 12, 0.25, 1e-9, 1e-6)
    alone = [count_row_distance_calls(monkeypatch, reference_refine_edges, spec, [group], tol) for group in edges]
    assert alone == [26, 25, 26]
    assert_bit_identical(_refine_edges(spec, edges, tol), reference_refine_edges(spec, edges, tol))


def test_a_tolerance_no_bracket_reaches_stops_after_the_step_limit():
    spec, edges, _ = fixture_case("verify_shells")
    assert_bit_identical(_refine_edges(spec, edges, 1e-300), reference_refine_edges(spec, edges, 1e-300))


def test_a_group_stops_at_its_widest_bracket(monkeypatch):
    # Brackets across the bisector x = 0 of two points, a wide and a narrow
    # one in the first group and one of middle width in the second.
    spec = ClosedSetSpec([Point([-1.0, 0.0]), Point([1.0, 0.0])], 2)
    sites = np.array([[-1.0, 0.0], [1.0, 0.0]])

    def group(half_widths, y):
        a = np.array([[-h, y] for h in half_widths])
        return a, -a * [1.0, -1.0], np.repeat(sites[:1], len(a), axis=0), np.repeat(sites[1:], len(a), axis=0)

    edges = [group([0.5, 1e-3], 0.25), group([0.01], -0.5)]
    assert [count_row_distance_calls(monkeypatch, reference_refine_edges, spec, [g], 1e-8) for g in edges] == [27, 21]
    assert_bit_identical(_refine_edges(spec, edges, 1e-8), reference_refine_edges(spec, edges, 1e-8))


def test_no_flagged_edges_refine_to_nothing():
    spec = ClosedSetSpec([Point([0.0, 0.0])], 2)
    _, edges = _flagged_edges(spec, Window([-1.0, -1.0], [1.0, 1.0]), 16, 0.25, 1e-9, 1e-6)
    assert edges == []
    assert _refine_edges(spec, edges, 1e-8) == [] == reference_refine_edges(spec, edges, 1e-8)


def count_row_distance_calls(monkeypatch, refine, spec, edges, tol):
    calls = []
    original = ClosedSetSpec.row_distances

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    with monkeypatch.context() as patch:
        patch.setattr(ClosedSetSpec, "row_distances", counting)
        refine(spec, edges, tol)
    return len(calls)


# Bisection steps of the slowest axis group.  On [-2, 2]^3 every axis has the
# same grid step, so each group takes as many steps; on [-2, 2] x [-1, 1] the
# x edges are twice as long and take one step more than the y edges.  A
# tolerance of 1e-300 stops every group at the step limit.
STEPS = [
    ("verify_shells", 12, None, [26, 26, 26]),
    ("verify_shells", 16, None, [25, 25, 25]),
    ("verify_wide_window", None, None, [25, 24]),
    ("verify_shells", 12, 1e-300, [_MAX_BISECTIONS] * 3),
]


@pytest.mark.parametrize("name, resolution, tol, per_axis", STEPS, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in STEPS])
def test_one_distance_call_per_step_of_the_slowest_axis(name, resolution, tol, per_axis, monkeypatch):
    spec, edges, config_tol = fixture_case(name, resolution)
    tol = tol or config_tol
    alone = [count_row_distance_calls(monkeypatch, reference_refine_edges, spec, [group], tol) for group in edges]
    assert alone == per_axis
    assert count_row_distance_calls(monkeypatch, _refine_edges, spec, edges, tol) == max(per_axis)
