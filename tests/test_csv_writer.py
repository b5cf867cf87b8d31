"""The columnar CSV writer against a ``csv.writer`` oracle, and its memory bound."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from medialcover.distance import CSV_BLOCK_ROWS, Classification, grid_sweep, write_grid_csv
from medialcover.geometry import ClosedSetSpec, Window
from medialcover.verify import write_samples_csv


def oracle_write_csv(path, header, count, rows) -> None:
    """The writer built on the csv module: a float cell is its ``repr``."""
    with open(path, "w", newline="") as fh:
        if count:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def oracle_grid_csv(sweep, path) -> None:
    """A row per node: its coordinates, d, class, gradient, and whether the class is unique."""
    points = sweep.window.grid_points(sweep.resolution)
    n = points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["d", "classification"]
    header += [f"grad_{i + 1}" for i in range(n)] + ["differentiable_flag"]
    classes = list(map(list(Classification).__getitem__, sweep.classes.tolist()))
    columns = zip(points.tolist(), sweep.values.tolist(), classes, sweep.gradients.tolist())
    rows = [[*x, d, c.value, *g, "true" if c is Classification.UNIQUE else "false"] for x, d, c, g in columns]
    oracle_write_csv(path, header, len(points), rows)


def oracle_samples_csv(points, path) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    header = [f"x{i + 1}" for i in range(pts.shape[1])]
    oracle_write_csv(path, header, len(pts) if pts.size else 0, pts.tolist())


# Each set has a segment along a grid line, so some nodes lie in the set and
# their gradients are NaN, and a shell.  The 2-D and 3-D row counts (33**2 =
# 1,089 and 11**3 = 1,331) are not multiples of the block size.
def shell_segment_point(center, radius, a, b, coords):
    shell = {"type": "ball", "center": center, "radius": radius}
    return ClosedSetSpec([shell, {"type": "segment", "a": a, "b": b}, {"type": "point", "coords": coords}], len(center))


SWEEPS = {
    "1d": (shell_segment_point([0.0], 1.0, [1.5], [1.8], [-1.7]), 41),
    "2d": (shell_segment_point([0.5, 0.5], 0.75, [-1.0, 0.0], [1.0, 0.0], [-1.3, 1.1]), 33),
    "3d": (shell_segment_point([0.0, 0.0, 0.0], 1.0, [-2.0, 0.0, 2.0], [2.0, 0.0, 2.0], [1.5, 1.5, 1.5]), 11),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_grid_csv_equals_the_csv_module_oracle(name, tmp_path):
    spec, resolution = SWEEPS[name]
    sweep = grid_sweep(spec, Window([-2.0] * spec.dimension, [2.0] * spec.dimension), resolution)
    assert set(sweep.classes.tolist()) == {0, 1, 2}  # in the set, unique and ambiguous nodes
    assert np.isnan(sweep.gradients).any() and len(sweep.values) % CSV_BLOCK_ROWS
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_grid_csv(sweep, ours)
    oracle_grid_csv(sweep, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


def test_samples_csv_equals_the_csv_module_oracle(tmp_path):
    rng = np.random.default_rng(7)
    points = rng.normal(size=(2 * CSV_BLOCK_ROWS + 300, 3)) * 10.0 ** rng.integers(-12, 12, size=(1, 3))
    points[::5, 0] = -0.0
    points[1::5, 1] = 0.0
    points[2, :] = [1e-300, -1e22, 5e-324]
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    written = []
    for pts in (points, points[:, :1], np.empty((0, 2))):
        write_samples_csv(pts, ours)
        oracle_samples_csv(pts, oracle)
        written.append(ours.read_bytes())
        assert written[-1] == oracle.read_bytes()
    assert b"\r\n-0.0," in written[0] and written[-1] == b""


# Float cells that the writers format once per distinct bit pattern of a
# block, as (rows, 3) arrays: a grid's d and two gradient columns, or three
# sample coordinates.  Cells are keyed by bits, so the signed zeros must keep
# their own text, and NaNs of any sign or payload print "nan".
NAN_PAYLOAD = np.array([0x7FF8000000000001, -0x0008000000000001], dtype=np.int64).view(np.float64)
EXTREMES = [5e-324, -5e-324, 2.225073858507201e-308, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]


def edge_cells(name: str, rows: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    if name == "signed-zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=(rows, 3))
    if name == "nan-gradients":
        cells = rng.normal(size=(rows, 3))
        cells[::2, 1:] = np.nan
        cells[1::4, 1:] = NAN_PAYLOAD
        cells[3::4, 2] = -np.nan
        return cells
    if name == "extremes":
        return rng.choice(EXTREMES, size=(rows, 3)) * rng.choice([1.0, 0.75, 1.0 / 3.0], size=(rows, 3))
    if name == "all-equal":
        return np.full((rows, 3), 0.1)
    assert name == "all-distinct"
    return np.arange(3 * rows).reshape(rows, 3) / 7.0 + 0.1


EDGES = ["signed-zeros", "nan-gradients", "extremes", "all-equal", "all-distinct"]


@pytest.mark.parametrize("name", EDGES)
def test_grid_csv_formats_edge_case_floats_like_the_oracle(name, tmp_path):
    spec, resolution = SWEEPS["2d"]
    sweep = grid_sweep(spec, Window([-2.0] * 2, [2.0] * 2), resolution)
    cells = edge_cells(name, len(sweep.values))
    sweep = dataclasses.replace(sweep, values=cells[:, 0].copy(), gradients=cells[:, 1:].copy())
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_grid_csv(sweep, ours)
    oracle_grid_csv(sweep, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("name", EDGES)
def test_samples_csv_formats_edge_case_floats_like_the_oracle(name, tmp_path):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    cells = edge_cells(name, 2 * CSV_BLOCK_ROWS + 100)
    write_samples_csv(cells, ours)
    oracle_samples_csv(cells, oracle)
    assert ours.read_bytes() == oracle.read_bytes()


def test_grid_csv_of_a_sphere_on_a_symmetric_window_repeats_most_floats(tmp_path):
    # Centred on the window, the sphere's distances and gradients repeat under
    # every reflection and axis swap of the grid.
    spec = ClosedSetSpec([{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}], 3)
    sweep = grid_sweep(spec, Window([-2.0] * 3, [2.0] * 3), 16)
    cells = np.column_stack([sweep.values, sweep.gradients])
    blocks = [cells[lo : lo + CSV_BLOCK_ROWS] for lo in range(0, len(cells), CSV_BLOCK_ROWS)]
    assert sum(len(np.unique(b.view(np.int64))) for b in blocks) < cells.size / 2
    for write, oracle_write, table in ((write_grid_csv, oracle_grid_csv, sweep), (write_samples_csv, oracle_samples_csv, cells)):
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write(table, ours)
        oracle_write(table, oracle)
        assert ours.read_bytes() == oracle.read_bytes()


def test_grid_csv_holds_one_block_in_memory(tmp_path):
    # 40**3 = 64,000 rows, about 9 MB of text.  A writer that builds whole-table
    # index or string arrays peaks at several MB.
    spec = ClosedSetSpec([{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, {"type": "point", "coords": [1.5, 1.5, 1.5]}], 3)
    sweep = grid_sweep(spec, Window([-2.0] * 3, [2.0] * 3), 40)
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        write_grid_csv(sweep, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 10
