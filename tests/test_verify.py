"""Refinement of flagged grid edges: rounds of regula falsi from the grid edge, following a nearer third row.

``reference_refine_edges``, a bisection of every edge on the survey's
projections down to ``REFINE_TOL``, is the oracle: every refined sample lies
within ``REFINE_TOL`` / 2 of its sample, with its feet within ``REFINE_TOL``
of the oracle's feet, and is AMBIGUOUS under ``survey``.  No bracket depends
on the other brackets of its batch, each step cap keeps the last point, and
a round costs one ``row_distances`` call for both ends and one per step.
Every certified sample of the fixtures, the workloads, and 40 random sets of
points, segments, circles and polygon loops is AMBIGUOUS under ``survey`` and
under ``reference.nearest_points``.

Also: a certified sample's record does not depend on the other samples of its batch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference
from medialcover import Classification
from medialcover.config import ScenarioConfig, load_config
from medialcover.convex import SlopeLattice, nondiff_witnesses
from medialcover.distance import survey
from medialcover.geometry import ClosedSetSpec, Window
from medialcover import verify
from medialcover.verify import (
    _COVERAGE_TOL,
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
REFINE_TOL = ScenarioConfig.refine_tol


def reference_refine_edges(spec, edges):
    """Bisect every bracket on its own; a finished row is frozen by a mask, not removed.

    Reads the ends and feet of ``edges`` and ignores their rows.  A step
    projects the midpoint onto its nearest point and moves the end whose foot
    lies nearer that projection.  Gives the bracket midpoints with the
    coordinatewise minimum and maximum of the two end projections, a
    (K, 3, n) stack.
    """
    a, b, pa, pb = (v.copy() for v in edges[:4])
    for _ in range(64):
        open_ = np.linalg.norm(b - a, axis=1) > REFINE_TOL
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
    edges = _flagged_edges(config.set_spec, config.window, resolution or config.grid_resolution)
    return config.set_spec, edges


def voronoi_case(seed):
    spec = ClosedSetSpec([{"type": "point", "coords": p} for p in random_sites(seed)], 2)
    edges = _flagged_edges(spec, WINDOW, 32)
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
    """Every sample lies within ``REFINE_TOL`` / 2 of the bisection's, its feet within ``REFINE_TOL``, and is AMBIGUOUS."""
    got, want = _refine_edges(spec, edges), reference_refine_edges(spec, edges)
    assert got.shape == want.shape
    assert np.all(np.linalg.norm(got[:, 0] - want[:, 0], axis=1) <= REFINE_TOL / 2)
    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= REFINE_TOL)
    assert survey(spec, got[:, 0]).ambiguous.all()


# Three brackets of this Voronoi set end their first round of regula falsi
# where a third site is strictly nearer, and take a second round.
THIRD_ROW_SEED = 39


def first_round(spec, edges):
    """Each bracket's first regula falsi finish on its two end rows, and the row strictly nearer there or -1."""
    return _regula_falsi(spec, edges[0], edges[1], edges[4], edges[5])


@pytest.mark.parametrize("seed", SEEDS)
def test_voronoi_point_sets_refine_as_one_loop_per_axis(seed):
    spec, edges = voronoi_case(seed)
    assert len(edges[0])
    assert_refines_like_bisection(spec, edges)


def test_a_finish_with_a_nearer_third_row_continues_to_a_sample_on_the_skeleton():
    """Seed 39's first finishes lie off the Voronoi skeleton; the next round's samples lie on it."""
    spec, edges = voronoi_case(THIRD_ROW_SEED)
    skeleton = voronoi_medial_axis_2d(random_sites(THIRD_ROW_SEED), WINDOW)

    def off_skeleton(x):
        return min(segment.distance_to(x) for segment in skeleton)

    first, nearer = first_round(spec, edges)
    nearer = nearer >= 0
    assert min(off_skeleton(x) for x in first[nearer]) > 1e-5
    assert max(off_skeleton(x) for x in _refine_edges(spec, edges)[nearer, 0]) <= REFINE_TOL


@pytest.mark.parametrize("name, resolution", [("verify_shells", 12), ("verify_shells", 16), ("verify_wide_window", None)])
def test_fixture_sets_refine_as_one_loop_per_axis(name, resolution):
    spec, edges = fixture_case(name, resolution)
    axes = np.argmax(np.abs(edges[1] - edges[0]), axis=1)
    assert np.unique(axes).tolist() == list(range(spec.dimension))
    assert np.all(np.diff(axes) >= 0)  # axis by axis
    assert np.all(edges[4] != edges[5])  # ends on two different rows
    before = [v.tobytes() for v in edges]
    assert_refines_like_bisection(spec, edges)
    assert [v.tobytes() for v in edges] == before  # the input is left as it was


def certification_fails(spec, found):
    """``certify_cover`` keeps every sample and reports a deviation beyond the coverage tolerance."""
    report = certify_cover(spec, found, SlopeLattice())
    return report["samples"] == len(found) and not report["pass"] and report["max_deviation"] > _COVERAGE_TOL


def test_a_tolerance_no_bracket_reaches_stops_after_the_step_limit(monkeypatch):
    """With one regula falsi step allowed, every sample is its bracket's first secant point, off every tie."""
    spec, edges = voronoi_case(THIRD_ROW_SEED)
    uncapped = _refine_edges(spec, edges)
    monkeypatch.setattr(verify, "_MAX_FALSI_STEPS", 1)
    assert count_kernel_calls(monkeypatch, first_round, spec, edges)[0] == 2
    got = _refine_edges(spec, edges)
    assert np.all(np.linalg.norm(got[:, 0] - uncapped[:, 0], axis=1) > REFINE_TOL)
    assert not survey(spec, got[:, 0]).ambiguous.any()
    assert certification_fails(spec, got)


def test_a_bracket_at_the_round_cap_keeps_its_last_finish(monkeypatch):
    """With one round allowed, seed 39's three brackets with a nearer third row keep their first finish."""
    spec, edges = voronoi_case(THIRD_ROW_SEED)
    uncapped = _refine_edges(spec, edges)
    first, nearer = first_round(spec, edges)
    nearer = nearer >= 0
    monkeypatch.setattr(verify, "_MAX_ROUNDS", 1)
    got = _refine_edges(spec, edges)
    assert_bit_identical(got[:, 0], np.where(nearer[:, None], first, uncapped[:, 0]))
    assert nearer.sum() == 3 and np.all(np.linalg.norm(got[nearer, 0] - uncapped[nearer, 0], axis=1) > REFINE_TOL)
    assert not survey(spec, got[nearer, 0]).ambiguous.any()
    assert certification_fails(spec, got)


@pytest.mark.parametrize(
    "case",
    [
        bisector_case,
        lambda: fixture_case("verify_wide_window"),
        lambda: fixture_case("verify_shells", 12),
        lambda: voronoi_case(THIRD_ROW_SEED),
    ],
    ids=["bisector", "verify_wide_window", "verify_shells-12", f"voronoi-{THIRD_ROW_SEED}"],
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
    edges = _flagged_edges(spec, Window([-1.0, -1.0], [1.0, 1.0]), 16)
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


# Regula falsi steps of the slowest bracket of each batch, from its grid edge.
# A round makes one ``row_distances`` call for both ends of every bracket and
# one per step of its slowest bracket, and projects nothing; a batch whose
# finishes have no nearer third row takes one round and then projects each
# sample onto its two rows.
STEPS = [("verify_shells", 12, 7), ("verify_shells", 16, 7), ("verify_wide_window", None, 7)]


@pytest.mark.parametrize("name, resolution, slowest", STEPS, ids=[f"{s[0]}-{s[1]}" for s in STEPS])
def test_one_distance_call_per_round_and_per_falsi_step(name, resolution, slowest, monkeypatch):
    spec, edges = fixture_case(name, resolution)
    assert not (first_round(spec, edges)[1] >= 0).any()
    alone = [count_kernel_calls(monkeypatch, first_round, spec, rows_of(edges, [k])) for k in range(len(edges[0]))]
    assert all(projected == 0 for _, projected in alone)
    assert max(calls for calls, _ in alone) == 1 + slowest
    assert count_kernel_calls(monkeypatch, first_round, spec, edges) == (1 + slowest, 0)
    assert count_kernel_calls(monkeypatch, _refine_edges, spec, edges) == (1 + slowest, 2)


def test_a_second_round_adds_its_own_steps_and_one_projection(monkeypatch):
    """Seed 39: the second round's calls are those of its three brackets alone, plus the projection onto the nearer row."""
    spec, edges = voronoi_case(THIRD_ROW_SEED)
    nearer = rows_of(edges, first_round(spec, edges)[1] >= 0)
    both_alone = count_kernel_calls(monkeypatch, _refine_edges, spec, nearer)
    second_round = both_alone[0] - count_kernel_calls(monkeypatch, first_round, spec, nearer)[0]
    assert both_alone[1] == 1 + 2
    first = count_kernel_calls(monkeypatch, first_round, spec, edges)[0]
    assert count_kernel_calls(monkeypatch, _refine_edges, spec, edges) == (first + second_round, 1 + 2)


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


def set_records(config_path):
    """The primitive records of a config's set, inline or in the file that it names."""
    described = json.loads(Path(config_path).read_text())["set"]
    if isinstance(described, str):
        described = json.loads((Path(config_path).parent / described).read_text())
    return described["primitives"]


def assert_all_ambiguous(spec, records, points):
    """``survey`` and the record-by-record ``reference.nearest_points`` both call every point AMBIGUOUS."""
    assert survey(spec, points).ambiguous.all()
    assert all(reference.nearest_points(records, x).classification == Classification.AMBIGUOUS for x in points)


WORKLOAD_SEEDS = [(w, s) for w in ("points2d", "polygon2d", "shells3d") for s in (1, 303)]


@pytest.mark.parametrize("name", VERIFY_FIXTURES)
def test_every_certified_sample_of_a_fixture_is_ambiguous(name):
    config, _ = load_config(FIXTURES / f"{name}.json")
    points, _ = certified_points(config)
    assert_all_ambiguous(config.set_spec, set_records(FIXTURES / f"{name}.json"), points)


@pytest.mark.parametrize("workload, seed", WORKLOAD_SEEDS, ids=[f"{w}-{s}" for w, s in WORKLOAD_SEEDS])
def test_every_certified_sample_of_a_workload_is_ambiguous(workload, seed, tmp_path, monkeypatch):
    config = workload_config(workload, seed, tmp_path, monkeypatch)
    points, _ = certified_points(config)
    assert len(points) > 10
    assert_all_ambiguous(config.set_spec, set_records(tmp_path / "verify.json"), points)


def random_mixed_set(seed):
    """2 to 4 points, segments, circles and polygon loops, each around a centre c in [-1.2, 1.2]^2."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(int(rng.integers(2, 5))):
        kind = ("point", "segment", "circle", "polygon")[int(rng.integers(4))]
        c = rng.uniform(-1.2, 1.2, 2)
        if kind == "point":
            records.append({"type": "point", "coords": c.tolist()})
        elif kind == "segment":
            records.append({"type": "segment", "a": c.tolist(), "b": (c + rng.uniform(-1.0, 1.0, 2)).tolist()})
        elif kind == "circle":
            records.append({"type": "ball", "center": c.tolist(), "radius": float(rng.uniform(0.2, 0.8))})
        else:
            count = int(rng.integers(3, 7))
            angles, radii = np.sort(rng.uniform(0.0, 2.0 * np.pi, count)), rng.uniform(0.3, 0.9, count)
            vertices = c + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            records.append({"type": "polygon", "vertices": vertices.tolist()})
    return records


# Some edges of these sets cross a third row's region, where their two end
# rows tie at a point that the third row is nearer to.
@pytest.mark.parametrize("seed", range(1000, 1040))
def test_every_certified_sample_of_a_random_mixed_set_is_ambiguous(seed):
    records = random_mixed_set(seed)
    spec = ClosedSetSpec(records, 2)
    found = detect_ambiguous(spec, Window([-2.0, -2.0], [2.0, 2.0]), 33)
    report = certify_cover(spec, found, SlopeLattice())
    assert report["samples"] > 10
    assert_all_ambiguous(spec, records, np.array([r["point"] for r in report["records"]]))


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


# At these `polygon2d` grid nodes (indices on the 32-node axes) the two
# edges through a vertex lie within TIE_TOLERANCE in distance, so `survey`
# calls each node AMBIGUOUS (see test_distance's false-tie xfail).  No grid
# node is a sample, so neither node is one, and nothing is left unresolved.
FALSE_TIES = [(2, (28, 18)), (29, (23, 1))]


@pytest.mark.parametrize("seed, node", FALSE_TIES, ids=[f"polygon2d-{seed}" for seed, _ in FALSE_TIES])
def test_a_false_tie_at_a_grid_node_is_not_a_sample(seed, node, tmp_path, monkeypatch):
    config = workload_config("polygon2d", seed, tmp_path, monkeypatch)
    axis = config.window.axes(config.grid_resolution)[0]
    x = np.array([axis[node[0]], axis[node[1]]])
    assert survey(config.set_spec, x[None]).ambiguous[0]
    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    assert not np.all(found[:, 0] == x, axis=1).any()
    report = certify_cover(config.set_spec, found, config.lattice)
    assert (report["unresolved"], report["unresolved_points"]) == (0, [])


def test_each_node_on_a_bisector_is_sampled_once():
    """Grid 33 puts a node column on the bisector x0 = 0 of (-1, 0) and (1, 0): one sample per node."""
    spec = ClosedSetSpec([{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}], 2)
    samples = detect_ambiguous(spec, Window([-2.0, -2.0], [2.0, 2.0]), 33)[:, 0]
    assert len(samples) == len(np.unique(samples, axis=0)) == 33
    assert np.all(samples[:, 0] == 0.0)


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
