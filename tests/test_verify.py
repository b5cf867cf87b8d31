"""Bisection of flagged grid edges: one lockstep loop over one batch, each bracket stopping on its own width.

Also: a certified sample's record does not depend on the other samples of its batch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from medialcover.config import load_config
from medialcover.convex import nondiff_witnesses
from medialcover.distance import survey
from medialcover.geometry import ClosedSetSpec, Window
from medialcover import verify
from medialcover.verify import _MAX_BISECTIONS, REFINE_TOL, _flagged_edges, _refine_edges, certify_cover, detect_ambiguous
from test_voronoi_oracle import SEEDS, WINDOW, random_sites

FIXTURES = Path(__file__).parent / "fixtures"


def reference_refine_edges(spec, edges, refine_tol=REFINE_TOL):
    """Bisect every bracket on its own; a finished row is frozen by a mask, not removed.

    Gives the bracket midpoints with the coordinatewise minimum and maximum
    of the two end projections, a (K, 3, n) stack.
    """
    a, b, pa, pb = (v.copy() for v in edges)
    for _ in range(_MAX_BISECTIONS):
        open_ = np.linalg.norm(b - a, axis=1) > refine_tol
        if not open_.any():
            break
        mid = 0.5 * (a + b)
        pm = survey(spec, mid).projection
        on_a_branch = np.linalg.norm(pm - pa, axis=1) <= np.linalg.norm(pm - pb, axis=1)
        move_a, move_b = open_ & on_a_branch, open_ & ~on_a_branch
        a[move_a] = mid[move_a]
        pa[move_a] = pm[move_a]
        b[move_b] = mid[move_b]
        pb[move_b] = pm[move_b]
    return np.stack([0.5 * (a + b), np.minimum(pa, pb), np.maximum(pa, pb)], axis=1)


def fixture_case(name, resolution=None):
    """Set and flagged edges of a fixture config, at its own or another resolution."""
    config, _ = load_config(FIXTURES / f"{name}.json")
    _, edges = _flagged_edges(config.set_spec, config.window, resolution or config.grid_resolution)
    return config.set_spec, edges


def voronoi_case(seed):
    spec = ClosedSetSpec([{"type": "point", "coords": p} for p in random_sites(seed)], 2)
    _, edges = _flagged_edges(spec, WINDOW, 32)
    return spec, edges


def bisector_case():
    """Brackets across the bisector x = 0 of two points: two wide, one narrow and one of middle width."""
    spec = ClosedSetSpec([{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}], 2)
    a = np.array([[-0.5, 0.25], [-1e-3, 0.25], [-0.01, -0.5], [-0.5, 0.75]])
    edges = (a, a * [-1.0, 1.0], np.repeat([[-1.0, 0.0]], len(a), axis=0), np.repeat([[1.0, 0.0]], len(a), axis=0))
    return spec, edges


def rows_of(edges, rows):
    return tuple(v[rows] for v in edges)


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_voronoi_point_sets_refine_as_one_loop_per_axis(seed):
    spec, edges = voronoi_case(seed)
    assert len(edges[0])
    assert_bit_identical(_refine_edges(spec, edges), reference_refine_edges(spec, edges))


@pytest.mark.parametrize("name, resolution", [("verify_shells", 12), ("verify_shells", 16), ("verify_wide_window", None)])
def test_fixture_sets_refine_as_one_loop_per_axis(name, resolution):
    spec, edges = fixture_case(name, resolution)
    axes = np.argmax(np.abs(edges[1] - edges[0]), axis=1)
    assert np.unique(axes).tolist() == list(range(spec.dimension))
    assert np.all(np.diff(axes) >= 0)  # axis by axis
    before = np.concatenate(edges).tobytes()
    assert_bit_identical(_refine_edges(spec, edges), reference_refine_edges(spec, edges))
    assert np.concatenate(edges).tobytes() == before  # the input is left as it was


def test_a_tolerance_no_bracket_reaches_stops_after_the_step_limit(monkeypatch):
    spec, edges = fixture_case("verify_shells")
    monkeypatch.setattr(verify, "REFINE_TOL", 1e-300)
    assert_bit_identical(_refine_edges(spec, edges), reference_refine_edges(spec, edges, 1e-300))


@pytest.mark.parametrize(
    "case",
    [bisector_case, lambda: fixture_case("verify_wide_window"), lambda: fixture_case("verify_shells", 12)],
    ids=["bisector", "verify_wide_window", "verify_shells-12"],
)
def test_a_bracket_refines_the_same_in_any_subset_or_order_of_its_batch(case):
    spec, edges = case()
    whole = _refine_edges(spec, edges)
    rng = np.random.default_rng(5)
    k = len(whole)
    subsets = [rng.choice(k, size=size, replace=False) for size in (1, 1, 2, k // 2, k)]
    for rows in [np.arange(k)[::-1], *subsets]:
        assert_bit_identical(_refine_edges(spec, rows_of(edges, rows)), whole[rows])


def test_no_flagged_edges_refine_to_nothing():
    spec = ClosedSetSpec([{"type": "point", "coords": [0.0, 0.0]}], 2)
    _, edges = _flagged_edges(spec, Window([-1.0, -1.0], [1.0, 1.0]), 16)
    assert [v.shape for v in edges] == [(0, 2)] * 4
    assert_bit_identical(_refine_edges(spec, edges), np.empty((0, 3, 2)))
    assert_bit_identical(reference_refine_edges(spec, edges), np.empty((0, 3, 2)))


def count_row_distance_calls(monkeypatch, refine, *args):
    calls = []
    original = ClosedSetSpec.row_distances

    def counting(self, pts):
        calls.append(len(pts))
        return original(self, pts)

    with monkeypatch.context() as patch:
        patch.setattr(ClosedSetSpec, "row_distances", counting)
        refine(*args)
    return len(calls)


# Bisection steps of the slowest bracket of each axis.  On [-2, 2]^3 every
# axis has the same grid step, so its brackets take as many steps; on
# [-2, 2] x [-1, 1] the x edges are twice as long and take one step more than
# the y edges.  A tolerance of 1e-300 stops every bracket at the step limit.
STEPS = [
    ("verify_shells", 12, None, [26, 26, 26]),
    ("verify_shells", 16, None, [25, 25, 25]),
    ("verify_wide_window", None, None, [25, 24]),
    ("verify_shells", 12, 1e-300, [_MAX_BISECTIONS] * 3),
]


@pytest.mark.parametrize("name, resolution, tol, per_axis", STEPS, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in STEPS])
def test_one_distance_call_per_step_of_the_slowest_axis(name, resolution, tol, per_axis, monkeypatch):
    spec, edges = fixture_case(name, resolution)
    tol = tol or REFINE_TOL
    monkeypatch.setattr(verify, "REFINE_TOL", tol)
    axes = np.argmax(np.abs(edges[1] - edges[0]), axis=1)
    alone = [
        count_row_distance_calls(monkeypatch, reference_refine_edges, spec, rows_of(edges, axes == k), tol)
        for k in range(spec.dimension)
    ]
    assert alone == per_axis
    assert count_row_distance_calls(monkeypatch, _refine_edges, spec, edges) == max(per_axis)


def per_sample(config, found):
    """Each sample's record, or its point when it is unresolved, as JSON text in the order of ``found``."""
    report = certify_cover(config.set_spec, found, config.lattice)
    records, unresolved = iter(report["records"]), iter(report["unresolved_points"])
    return [json.dumps(next(unresolved if w is None else records)) for w in nondiff_witnesses(found, config.lattice)]


@pytest.mark.parametrize("name", ["verify_shells", "verify_star"])
def test_a_sample_certifies_the_same_in_any_subset_or_order_of_its_batch(name):
    config, _ = load_config(FIXTURES / f"{name}.json")
    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    smooth = found[:4].copy()
    smooth[:, 2] = smooth[:, 1]  # a single foot: no derivative gap, so the sample is unresolved
    found = np.concatenate([found, smooth])
    whole = per_sample(config, found)
    assert len(whole) == len(found) > 10
    assert sum(w is None for w in nondiff_witnesses(found, config.lattice)) == 4
    rows = np.random.default_rng(11).choice(len(found), size=len(found) // 3, replace=False)
    for order in (np.arange(len(found))[::-1], rows):
        assert per_sample(config, found[order]) == [whole[k] for k in order]
