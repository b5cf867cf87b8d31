"""Refinement of flagged grid edges: coarse bisection, then regula falsi on the two end rows.

``reference_refine_edges``, the bisection that refined every edge before
regula falsi, is the oracle: every refined sample lies within
``REFINE_TOL`` / 2 of its sample, and equals it bit for bit where the finish
is not trusted.  Every sample of a trusted finish is AMBIGUOUS under
``survey``, and no bracket depends on the other brackets of its batch.

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
from medialcover.verify import (
    _FALSI_START,
    _MAX_BISECTIONS,
    REFINE_TOL,
    _bisect,
    _flagged_edges,
    _refine_edges,
    _regula_falsi,
    certify_cover,
    detect_ambiguous,
)
from test_voronoi_oracle import SEEDS, WINDOW, random_sites
from voronoi_oracle import voronoi_medial_axis_2d

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
VERIFY_FIXTURES = sorted(path.stem for path in FIXTURES.glob("verify_*.json"))


def reference_refine_edges(spec, edges, refine_tol=REFINE_TOL):
    """Bisect every bracket on its own; a finished row is frozen by a mask, not removed.

    Reads the ends and feet of ``edges`` and ignores their rows.  Gives the
    bracket midpoints with the coordinatewise minimum and maximum of the two
    end projections, a (K, 3, n) stack.
    """
    a, b, pa, pb = (v.copy() for v in edges[:4])
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


def trusted_finish(spec, edges):
    """Whether regula falsi's finish of each bracket is trusted, as ``_refine_edges`` decides it."""
    coarse = _bisect(spec, (*edges, np.zeros(len(edges[0]), dtype=int)), _FALSI_START)
    return _regula_falsi(spec, coarse[0], coarse[1], coarse[4], coarse[5])[1]


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
    k = len(a)
    feet = np.repeat([[-1.0, 0.0]], k, axis=0), np.repeat([[1.0, 0.0]], k, axis=0)
    return spec, (a, a * [-1.0, 1.0], *feet, np.zeros(k, dtype=int), np.ones(k, dtype=int))


def workload_config(workload, seed, tmp_path, monkeypatch):
    """The `verify` config of a benchmark workload at ``seed``."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS, write_configs

    config, _ = load_config(write_configs(WORKLOADS[workload], seed, tmp_path)["verify"])
    return config


def rows_of(edges, rows):
    return tuple(v[rows] for v in edges)


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_refines_like_bisection(spec, edges):
    """Check every sample against the bisection's; returns which brackets fell back to bisection.

    A sample lies within ``REFINE_TOL`` / 2 of the bisection's sample and
    its feet within ``REFINE_TOL`` of the bisection's feet.  Where the
    finish is trusted ``survey`` calls the sample AMBIGUOUS; elsewhere it is
    the bisection's sample bit for bit, which may lie up to 5e-9 off the
    locus and so be UNIQUE.
    """
    got, want = _refine_edges(spec, edges), reference_refine_edges(spec, edges)
    assert got.shape == want.shape
    assert np.all(np.linalg.norm(got[:, 0] - want[:, 0], axis=1) <= REFINE_TOL / 2)
    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= REFINE_TOL)
    fell_back = ~trusted_finish(spec, edges)
    assert_bit_identical(got[fell_back], want[fell_back])
    assert survey(spec, got[~fell_back, 0]).ambiguous.all()
    return fell_back


# The one Voronoi set with a bracket whose regula falsi point has a third,
# nearer site: the finish falls back to bisection there.
THIRD_ROW_SEED = 39


@pytest.mark.parametrize("seed", SEEDS)
def test_voronoi_point_sets_refine_as_one_loop_per_axis(seed):
    spec, edges = voronoi_case(seed)
    assert len(edges[0])
    fell_back = assert_refines_like_bisection(spec, edges)
    assert fell_back.sum() == (seed == THIRD_ROW_SEED)


def test_a_finish_with_a_nearer_third_row_falls_back_to_bisection(monkeypatch):
    """Trusting every finish puts seed 39's guarded sample far off the Voronoi skeleton."""
    sites = random_sites(THIRD_ROW_SEED)
    spec, edges = voronoi_case(THIRD_ROW_SEED)
    fell_back = ~trusted_finish(spec, edges)
    skeleton = voronoi_medial_axis_2d(sites, WINDOW)

    def off_skeleton(x):
        return min(segment.distance_to(x) for segment in skeleton)

    assert off_skeleton(_refine_edges(spec, edges)[fell_back][0, 0]) <= REFINE_TOL
    finish = verify._regula_falsi
    monkeypatch.setattr(verify, "_regula_falsi", lambda *args: (finish(*args)[0], np.ones(len(args[1]), dtype=bool)))
    assert off_skeleton(_refine_edges(spec, edges)[fell_back][0, 0]) > 1e-5


@pytest.mark.parametrize("name, resolution", [("verify_shells", 12), ("verify_shells", 16), ("verify_wide_window", None)])
def test_fixture_sets_refine_as_one_loop_per_axis(name, resolution):
    spec, edges = fixture_case(name, resolution)
    axes = np.argmax(np.abs(edges[1] - edges[0]), axis=1)
    assert np.unique(axes).tolist() == list(range(spec.dimension))
    assert np.all(np.diff(axes) >= 0)  # axis by axis
    assert np.all(edges[4] != edges[5])  # ends on two different rows
    before = [v.tobytes() for v in edges]
    assert not assert_refines_like_bisection(spec, edges).any()
    assert [v.tobytes() for v in edges] == before  # the input is left as it was


def test_a_tolerance_no_bracket_reaches_stops_after_the_step_limit(monkeypatch):
    """A bracket that reaches regula falsi's step cap is bisected, and bisection stops at its own cap."""
    spec, edges = fixture_case("verify_wide_window")
    want = reference_refine_edges(spec, edges)
    monkeypatch.setattr(verify, "_MAX_FALSI_STEPS", 3)
    monkeypatch.setattr(verify, "REFINE_TOL", 1e-300)
    fell_back = ~trusted_finish(spec, edges)
    assert 0 < fell_back.sum() < len(fell_back)
    got = _refine_edges(spec, edges)
    assert_bit_identical(got[fell_back], reference_refine_edges(spec, edges, 1e-300)[fell_back])
    assert np.all(np.linalg.norm(got[:, 0] - want[:, 0], axis=1) <= REFINE_TOL / 2)


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
    assert [v.shape for v in edges] == [(0, 2)] * 4 + [(0,)] * 2
    assert_bit_identical(_refine_edges(spec, edges), np.empty((0, 3, 2)))
    assert_bit_identical(reference_refine_edges(spec, edges), np.empty((0, 3, 2)))


def count_kernel_calls(monkeypatch, refine, *args):
    """The number of ``row_distances`` and of ``project_rows`` calls that ``refine(*args)`` makes."""
    calls = {"row_distances": 0, "project_rows": 0}

    def counting(name):
        original = getattr(ClosedSetSpec, name)

        def counted(self, *rest):
            calls[name] += 1
            return original(self, *rest)

        return counted

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(ClosedSetSpec, name, counting(name))
        refine(*args)
    return calls["row_distances"], calls["project_rows"]


# Coarse bisection steps of each axis: from a grid edge down to _FALSI_START.
# On [-2, 2]^3 every axis has the same grid step, so its brackets take as
# many steps; on [-2, 2] x [-1, 1] the x edges are twice as long and take one
# step more than the y edges.  The lockstep loop takes the steps of the
# slowest axis, each with one distance and one projection call; regula falsi
# projects only its final points, with two calls.  A tolerance of 1e-300 and
# no regula falsi step send every bracket on to the bisection step limit.
STEPS = [
    ("verify_shells", 12, None, [6, 6, 6]),
    ("verify_shells", 16, None, [5, 5, 5]),
    ("verify_wide_window", None, None, [5, 4]),
    ("verify_shells", 12, 1e-300, [6, 6, 6]),
]


@pytest.mark.parametrize("name, resolution, tol, per_axis", STEPS, ids=[f"{s[0]}-{s[1]}-{s[2]}" for s in STEPS])
def test_one_distance_call_per_step_of_the_slowest_axis(name, resolution, tol, per_axis, monkeypatch):
    spec, edges = fixture_case(name, resolution)
    axes = np.argmax(np.abs(edges[1] - edges[0]), axis=1)
    alone = [
        count_kernel_calls(monkeypatch, reference_refine_edges, spec, rows_of(edges, axes == k), _FALSI_START)[0]
        for k in range(spec.dimension)
    ]
    assert alone == per_axis
    steps = max(per_axis)
    brackets = (*edges, np.zeros(len(axes), dtype=int))
    assert count_kernel_calls(monkeypatch, _bisect, spec, brackets, _FALSI_START) == (steps, steps)
    coarse = _bisect(spec, brackets, _FALSI_START)
    falsi = count_kernel_calls(monkeypatch, _regula_falsi, spec, coarse[0], coarse[1], coarse[4], coarse[5])
    assert falsi[1] == 0  # regula falsi projects nothing
    if tol:
        monkeypatch.setattr(verify, "REFINE_TOL", tol)
        monkeypatch.setattr(verify, "_MAX_FALSI_STEPS", 0)
        assert count_kernel_calls(monkeypatch, _refine_edges, spec, edges) == (_MAX_BISECTIONS + 1, _MAX_BISECTIONS + 2)
    else:
        assert count_kernel_calls(monkeypatch, _refine_edges, spec, edges) == (steps + falsi[0], steps + 2)


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


def certified_points(config):
    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    report = certify_cover(config.set_spec, found, config.lattice)
    return np.array([r["point"] for r in report["records"]]).reshape(-1, config.set_spec.dimension), report


WORKLOAD_SEEDS = [(w, s) for w in ("points2d", "polygon2d", "shells3d") for s in (1, 303)]


@pytest.mark.parametrize("name", VERIFY_FIXTURES)
def test_every_certified_sample_of_a_fixture_is_ambiguous(name):
    config, _ = load_config(FIXTURES / f"{name}.json")
    points, _ = certified_points(config)
    assert survey(config.set_spec, points).ambiguous.all()


@pytest.mark.parametrize("workload, seed", WORKLOAD_SEEDS, ids=[f"{w}-{s}" for w, s in WORKLOAD_SEEDS])
def test_every_certified_sample_of_a_workload_is_ambiguous(workload, seed, tmp_path, monkeypatch):
    config = workload_config(workload, seed, tmp_path, monkeypatch)
    points, _ = certified_points(config)
    assert len(points) > 10
    assert survey(config.set_spec, points).ambiguous.all()


# Both ends of an edge next to a shell centre have the shell as their nearest
# row, so no such edge is flagged: before the row test, each of these sets
# gave unresolved samples around its centre (16 and 12).
@pytest.mark.parametrize("case", ["verify_circle", "shells3d-303"])
def test_no_sample_is_left_unresolved_at_a_shell_centre(case, tmp_path, monkeypatch):
    if case == "verify_circle":
        config, _ = load_config(FIXTURES / "verify_circle.json")
    else:
        config = workload_config("shells3d", 303, tmp_path, monkeypatch)
    _, report = certified_points(config)
    assert (report["unresolved"], report["unresolved_points"]) == (0, [])


def test_a_polygon_and_its_edges_as_segments_give_the_same_samples():
    star = json.loads((FIXTURES / "star_set.json").read_text())
    (loop,) = [p for p in star["primitives"] if p["type"] == "polygon"]
    vertices = loop["vertices"]
    edges = [{"type": "segment", "a": v, "b": w} for v, w in zip(vertices, vertices[1:] + vertices[:1])]
    as_segments = [p for p in star["primitives"] if p is not loop] + edges
    window = Window([-2.0, -2.0], [2.0, 2.0])
    polygon = detect_ambiguous(ClosedSetSpec(star["primitives"], 2), window, 32)
    assert len(polygon) > 10
    assert_bit_identical(detect_ambiguous(ClosedSetSpec(as_segments, 2), window, 32), polygon)
