"""Every scenario fixture through the command line: exit codes and repeatable reports."""

import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import medialcover
import medialcover.cli as cli
import medialcover.verify as verify
from medialcover.cli import EXIT_CONFIG, EXIT_NONCONVEX, main
from medialcover.config import ConfigError, config_digest, load_config, parse_config
from medialcover.distance import CSV_BLOCK_ROWS, Classification, grid_sweep
from medialcover.geometry import ClosedSetSpec, Window
from medialcover.verify import write_overlay_svg, write_samples_csv
from test_voronoi_oracle import SEEDS, WINDOW, random_sites

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("verify", "verify_two_point", 0),
    ("cover", "cover_two_point", 0),
    ("analyze", "analyze_two_point", 0),
    # Both ends of every grid edge have the circle as nearest row: no sample.
    ("verify", "verify_circle", 0),
    ("verify", "verify_two_point_corrupt", 1),
    ("verify", "bad_primitive", 2),
    ("analyze", "malformed", 2),
    ("cover", "cover_budget", 4),
]


# The commands that write a table, and so take --csv.
CSV_COMMANDS = ("analyze", "verify")


# The negative control of `verify` shifts every graph coordinate by 0.01, far
# beyond the 1e-6 coverage tolerance.  Run alone, `verify_two_point_corrupt` is
# `verify_two_point` with a key the program ignores.
SHIFTED = {"verify_two_point_corrupt": 0.01}


def shift_graph_coordinates(monkeypatch, shift):
    """Make `verify` compare each sample against its graph coordinate plus ``shift``."""
    computed = verify.graph_coordinate
    monkeypatch.setattr(verify, "graph_coordinate", lambda *args: computed(*args) + shift)


def run(command, fixture, tmp_path):
    """Exit code plus the bytes of every file the run wrote."""
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    for path in (report, table):
        path.unlink(missing_ok=True)
    argv = [command, str(FIXTURES / f"{fixture}.json"), "--output", str(report)]
    if command in CSV_COMMANDS:
        argv += ["--csv", str(table)]
    code = main(argv)
    return code, [p.read_bytes() if p.exists() else None for p in (report, table)]


@pytest.mark.parametrize("command, fixture, expected", CASES, ids=[c[1] for c in CASES])
def test_fixture_exit_code_and_repeatable_report(command, fixture, expected, tmp_path, capsys, monkeypatch):
    if fixture in SHIFTED:
        shift_graph_coordinates(monkeypatch, SHIFTED[fixture])
    code, outputs = run(command, fixture, tmp_path)
    assert code == expected
    assert (outputs[0] is not None) == (expected in (0, 1))
    assert run(command, fixture, tmp_path) == (code, outputs)


def report_digest(report: bytes) -> str:
    """sha256 of a report re-serialized indented, after checking that it is one line in the canonical compact form.

    The golden digests were taken when reports were written with ``indent=2``.
    The compact check fixes every byte of the report given its document, and
    the digest fixes the document, so together they pin every byte.
    """
    text = report.decode()
    document = json.loads(text)
    # Not an assert: pytest's diff of two long one-line strings takes minutes.
    if text != json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n":
        pytest.fail(f"report is not one line in the canonical compact form: {text[:80]!r}")
    return hashlib.sha256((json.dumps(document, sort_keys=True, indent=2) + "\n").encode()).hexdigest()


# sha256 of each report, as ``report_digest`` takes it; a change that moves one float of a report fails here.
GOLDEN = {
    ("verify", "verify_two_point"): "54ee6e14c25216973fde2792d9fb5da0e300e6e77188cd609275ef400c3ae858",
    ("verify", "verify_circle"): "be801df986e36768888d3f1a92ae0f31300492990ecf3ca35e54c9ea79acb558",
    ("verify", "verify_two_point_corrupt"): "9c3f6b8ddcca7601c06f9f52e3f687a00698d5608412300bc5782d738ff603d3",
    ("cover", "cover_two_point"): "9fd6f25d84666c6d4538c9436a46e6516cdcef65147a2c4c398e5c6b640806a4",
    # A 3-D set, and a window whose two axes have different grid steps.
    ("verify", "verify_shells"): "2b2da0099e02ccc69ac4b2ec6cde11de2d5b7975fb5a57ef99b9fa8a2d692ca4",
    ("cover", "cover_shells"): "8341a96f19e531073038f32f1211b2d45be27ec5b5eecf0b36ad22c9d882baf1",
    ("verify", "verify_wide_window"): "4961541b0b531411f4bbeddfd70c2f134e915901f26c639eefa4a98e9f82d3ea",
    # A polygon loop: a six-vertex star, whose rows are all segments.
    ("verify", "verify_star"): "0f2e9385f1ead17b4654bcb0e58652cbc1c3366a3cbec8553de6cadf728132c3",
    ("cover", "cover_star"): "79b2f06f5867f39759268f7d1c8f2e9f9616e1ec727300e2b923c8b5235cbf11",
}


@pytest.mark.parametrize("command, fixture", list(GOLDEN), ids=[f for _, f in GOLDEN])
def test_report_bytes_match_their_golden_digest(command, fixture, tmp_path, capsys, monkeypatch):
    if fixture in SHIFTED:
        shift_graph_coordinates(monkeypatch, SHIFTED[fixture])
    _, (report, _) = run(command, fixture, tmp_path)
    assert report_digest(report) == GOLDEN[command, fixture]


# `verify` certifies on the default lattice (step 0.125, bound 64) and reads no
# `lattice` key: a lattice of three slopes changes only the config digest.
def test_verify_writes_its_golden_report_whatever_the_lattice(tmp_path, capsys):
    document = json.loads((FIXTURES / "verify_star.json").read_text())
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps({**document, "set": str(FIXTURES / document["set"]), "lattice": {"step": 1, "bound": 1}}))
    assert main(["verify", str(config), "--output", str(report)]) == 0
    written = json.loads(report.read_text())
    assert written.pop("config_sha256") != config_digest(document)
    canonical = json.dumps({**written, "config_sha256": config_digest(document)}, sort_keys=True, separators=(",", ":"))
    assert report_digest((canonical + "\n").encode()) == GOLDEN["verify", "verify_star"]


# sha256 of the CSV bytes, computed with the writer that used the csv module.
# The analyze gradients are (x - q) / d off the set, q the survey projection.
GOLDEN_CSV = {
    ("analyze", "analyze_two_point"): "7f329e0fbeaaea03b42eade36b272b286100b712f8e44dd5fad9b4ff0241c233",
    ("verify", "verify_two_point"): "29070a63b900bb5a4fdf7ebeba30168a9ca73379de552352386375b1e20738ab",
    ("verify", "verify_star"): "d24796e3ff24ddd21fde7f50470e1c8f3fd728657ff73009973d42dc8bb88024",
    # A 3-D sweep: shell, point and segment rows, three gradient columns.
    ("analyze", "analyze_shells"): "8f8a2a7799f31c5d9afce0d003ec939e630a9082e27f3c2ce187353ad72d3613",
}


# Shifts on both sides of the 1e-6 coverage tolerance.  Unshifted, every
# deviation of `verify_two_point` lies below 1e-8, so the largest deviation
# reads the shift to within that.
@pytest.mark.parametrize("shift, expected", [(0.01, 1), (2e-6, 1), (5e-7, 0)])
def test_verify_fails_exactly_when_a_shift_exceeds_the_coverage_tolerance(shift, expected, tmp_path, capsys, monkeypatch):
    shift_graph_coordinates(monkeypatch, shift)
    code, (report, _) = run("verify", "verify_two_point_corrupt", tmp_path)
    assert code == expected
    document = json.loads(report)["report"]
    assert abs(document["max_deviation"] - shift) < 1e-8
    assert document["samples"] == 64
    assert document["pass"] == (document["covered"] == 64) == (expected == 0)


def test_the_negative_control_fixture_alone_passes_as_verify_two_point(tmp_path, capsys):
    code, (report, _) = run("verify", "verify_two_point_corrupt", tmp_path)
    assert code == 0
    plain = json.loads(run("verify", "verify_two_point", tmp_path)[1][0])
    document = json.loads(report)
    assert document.pop("config_sha256") != plain.pop("config_sha256")
    assert document == plain


@pytest.mark.parametrize("command, fixture", list(GOLDEN_CSV), ids=[f for _, f in GOLDEN_CSV])
def test_csv_bytes_match_their_golden_digest(command, fixture, tmp_path, capsys):
    _, (_, table) = run(command, fixture, tmp_path)
    assert hashlib.sha256(table).hexdigest() == GOLDEN_CSV[command, fixture]


# Exit code, report digest (``report_digest``) and, for `analyze`, sha256 of the table of each
# benchmark workload config at seed 303, the configs that `perfbench/run.py`
# times.  The reports of
# `verify` and `cover` go through the marginal-infimum searches.
WORKLOAD_SEED = 303
GOLDEN_WORKLOADS = {
    ("verify", "points2d"): (0, "6cbab8ce8553277d760f783aab7f425de83fe79ac1085a57de9459394c6423f9"),
    ("verify", "polygon2d"): (0, "73ad65aeb338bed98203bfbecd2cad2cd69ccec6de6ad36cd3683081294b9341"),
    # No edge next to the sphere's centre is flagged: both its ends have the sphere as nearest row.
    ("verify", "shells3d"): (0, "a82cb31e1241c7b8314d7a28d2227d67227680d7e5c9dba9631bed7ffe55e3fe"),
    ("cover", "points2d"): (0, "a6251b32436ce12e2804fd04c7ba9001c6fa8d8ed5e7d5b972c5b9430012ab6f"),
    ("cover", "polygon2d"): (0, "2862657c107b349470c3a98f13c1ac313ab08d908b1d245137378128bfab1dbd"),
    ("cover", "shells3d"): (0, "935de11231e8e24ac8a7e64a27a650adc52255d25d75944db4cb8eff0990c508"),
    # `analyze` also pins its grid table.  Its report names the table by the
    # path given on the command line, so both are written under fixed
    # relative names.  The shells3d grid, 24**3 = 13,824 rows, is symmetric,
    # so many of its cells repeat.
    ("analyze", "points2d"): (
        0,
        "67324e7b758f87e0a00bca7bc37c3479808f1a693dec9d44d4d9649b630ca152",
        "63547b9d4ac2d4afefc4f6411530560a44f1fdbb66aeec3cdaffc2c6fd128dcc",
    ),
    ("analyze", "polygon2d"): (
        0,
        "68ef7010a308a7b3da7a6a953c89675b7929a100e01a07b7b3921e7c7d56ea61",
        "656d5dbfd221db18f30d0f693fd81c44a116aac956874f8c5d5897a7e226e449",
    ),
    ("analyze", "shells3d"): (
        0,
        "866c1e35cfb9a70dc8801048b044ba2753717a6ee773ff59891e587b1df88d5c",
        "384c68b9839053ba7e7564bef8d1a5dcd4f0c2b0efc2812c5efeff20f4ac4588",
    ),
}


@pytest.mark.parametrize("command, workload", list(GOLDEN_WORKLOADS), ids=[f"{c}-{w}" for c, w in GOLDEN_WORKLOADS])
def test_workload_report_bytes_match_their_golden_digest(command, workload, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import WORKLOADS, write_configs

    config = write_configs(WORKLOADS[workload], WORKLOAD_SEED, tmp_path)[command]
    monkeypatch.chdir(tmp_path)
    argv, outputs = [command, str(config), "--output", "report.json"], ["report.json"]
    if command == "analyze":
        argv += ["--csv", "table.csv"]
        outputs.append("table.csv")
    code = main(argv)
    digests = [report_digest((tmp_path / "report.json").read_bytes())]
    digests += [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs[1:]]
    assert (code, *digests) == GOLDEN_WORKLOADS[command, workload]


def test_overlay_svg_bytes_match_their_golden_digest(tmp_path, capsys):
    report, svg = tmp_path / "report.json", tmp_path / "overlay.svg"
    argv = [str(FIXTURES / "verify_two_point.json"), "--output", str(report), "--svg", str(svg)]
    assert main(["verify", *argv]) == 0
    text = svg.read_bytes()
    assert text.count(b"<circle") == 66  # the two points and 64 samples
    assert hashlib.sha256(text).hexdigest() == "326525a30d47970dba72d19e748716466040e7fad486a60b6068d33b7f448f43"


def test_overlay_svg_of_a_polygon_matches_its_golden_digest(tmp_path, capsys):
    report, svg = tmp_path / "report.json", tmp_path / "overlay.svg"
    argv = [str(FIXTURES / "verify_star.json"), "--output", str(report), "--svg", str(svg)]
    assert main(["verify", *argv]) == 0
    text = svg.read_bytes()
    assert text.count(b"<circle") == 25  # the 25 samples; the star's edges are lines
    assert hashlib.sha256(text).hexdigest() == "848cf06e8d4a7ab19ca924de81ff8e1b06bd539efad35d45cc2dc1df869956a9"


def test_verify_of_a_set_without_samples_writes_an_empty_csv_and_no_sample_circle(tmp_path, capsys):
    config = tmp_path / "one_point.json"
    one_point = {"dimension": 2, "primitives": [{"type": "point", "coords": [0.25, -0.5]}]}
    config.write_text(json.dumps({"set": one_point, "window": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, "grid_resolution": 16}))
    report, table, svg = tmp_path / "report.json", tmp_path / "samples.csv", tmp_path / "overlay.svg"
    assert main(["verify", str(config), "--output", str(report), "--csv", str(table), "--svg", str(svg)]) == 0
    assert json.loads(report.read_text())["report"]["samples"] == 0
    assert table.read_bytes() == b""
    text = svg.read_bytes()
    assert text.count(b"<circle") == 1  # the point of the set
    assert hashlib.sha256(text).hexdigest() == "7601332789c736e2f3ec7380fdc1c8c8560e4f886f00c08d1846732a685ebf5b"


# A known defect: on a window wide enough, the detector flags no grid edge and
# `verify` passes with no sample at all, though the bisector x1 = 0 of the two
# points crosses the whole window.  Grid 32 gives 32, 30, 20 and 0 samples on
# the windows of half-width 2, 4, 6 and 8.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="verify passes with samples: 0 when the grid is too coarse")
def test_a_wide_window_still_yields_a_sample_on_the_bisector(tmp_path, capsys):
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    window = {"lower": [-8.0, -8.0], "upper": [8.0, 8.0]}
    config.write_text(json.dumps({"set": str(FIXTURES / "two_point_set.json"), "window": window, "grid_resolution": 32}))
    assert main(["verify", str(config), "--output", str(report)]) == 0
    records = json.loads(report.read_text())["report"]["records"]
    assert any(abs(record["point"][0]) <= 1e-6 for record in records)


def test_a_shell_on_a_non_square_window_is_drawn_with_one_radius_per_axis(tmp_path):
    svg = tmp_path / "overlay.svg"
    spec = ClosedSetSpec([{"type": "ball", "center": [0.0, 0.0], "radius": 0.5}], 2)
    write_overlay_svg(spec, Window([-2.0, -1.0], [2.0, 1.0]), np.empty((0, 2)), svg)
    ellipse = re.search(r'<ellipse cx="([^"]+)" cy="([^"]+)" rx="([^"]+)" ry="([^"]+)"', svg.read_text())
    assert ellipse is not None
    assert [float(v) for v in ellipse.groups()] == [320.0, 320.0, 80.0, 160.0]  # ry = 2 rx on a window half as high


# A shell of radius 0, which the kernel treats as its centre, was once drawn as
# an ellipse of radii 0.00 that could not be seen.
def test_a_shell_of_radius_0_is_drawn_as_its_centre_point(tmp_path):
    window, samples = Window([-2.0, -1.0], [2.0, 1.0]), np.array([[0.0, 0.5]])
    drawn = []
    shell, point = {"type": "ball", "center": [0.5, 0.25], "radius": 0.0}, {"type": "point", "coords": [0.5, 0.25]}
    for name, primitive in (("shell", shell), ("point", point)):
        svg = tmp_path / f"{name}.svg"
        write_overlay_svg(ClosedSetSpec([primitive], 2), window, samples, svg)
        drawn.append(svg.read_text())
    assert drawn[0] == drawn[1]
    assert '<circle cx="400.00" cy="240.00" r="4" fill="black"/>' in drawn[0] and "<ellipse" not in drawn[0]


# Each path a command writes, placed under a directory that does not exist.
MISSING_DIRECTORY = [
    ("verify", "verify_two_point", "--output"),
    ("verify", "verify_two_point", "--csv"),
    ("verify", "verify_two_point", "--svg"),
    ("analyze", "analyze_two_point", "--output"),
    ("analyze", "analyze_two_point", "--csv"),
    ("cover", "cover_two_point", "--output"),
]


@pytest.mark.parametrize("command, fixture, flag", MISSING_DIRECTORY, ids=[f"{c}{f}" for c, _, f in MISSING_DIRECTORY])
def test_output_under_a_missing_directory_exits_3(command, fixture, flag, tmp_path, capsys):
    paths = {"--output": tmp_path / "report.json", "--csv": tmp_path / "table.csv", "--svg": tmp_path / "overlay.svg"}
    paths[flag] = tmp_path / "missing" / paths[flag].name
    argv = [command, str(FIXTURES / f"{fixture}.json")]
    takes = {"--output": True, "--csv": command in CSV_COMMANDS, "--svg": command == "verify"}
    for name, path in paths.items():
        if takes[name]:
            argv += [name, str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not paths[flag].parent.exists()


@pytest.mark.parametrize("command, flag", [("verify", "--csv"), ("verify", "--svg"), ("analyze", "--csv")])
def test_a_table_or_overlay_that_cannot_be_written_leaves_no_report(command, flag, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = [command, str(FIXTURES / f"{command}_two_point.json"), "--output", str(report), flag, str(tmp_path / "missing" / "out")]
    assert main(argv) == 3
    assert not report.exists()


FIXTURE_OF = {"analyze": "analyze_two_point", "verify": "verify_two_point", "cover": "cover_two_point"}


# A command and the path flags of one run.  A config's ``outputs`` block once
# named the files that no flag named; every key it names is ignored now.
NAMED_BY_FLAGS = [
    ("analyze", ("--output", "--csv")),
    ("cover", ("--output",)),
    ("verify", ("--output",)),
    ("verify", ("--output", "--csv", "--svg")),
]
IGNORED_OUTPUTS = {"report": "config_report", "csv": "config_csv", "svg": "config_svg"}


@pytest.mark.parametrize("command, flags", NAMED_BY_FLAGS, ids=[c + "".join(f) for c, f in NAMED_BY_FLAGS])
def test_a_run_writes_exactly_the_files_its_flags_name(command, flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    document = json.loads((FIXTURES / f"{FIXTURE_OF[command]}.json").read_text())
    if isinstance(document.get("set"), str):
        document["set"] = str(FIXTURES / document["set"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**document, "outputs": IGNORED_OUTPUTS}))
    argv = [command, str(config)]
    for flag in flags:
        argv += [flag, f"flag{flag}"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, *(f"flag{flag}" for flag in flags)])
    report = json.loads((tmp_path / "flag--output").read_text())
    assert report["command"] == command
    if command == "analyze":
        assert report["csv"] == "flag--csv"


@pytest.mark.parametrize("command", list(FIXTURE_OF))
def test_without_a_report_path_the_report_goes_to_stdout(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = str(FIXTURES / f"{FIXTURE_OF[command]}.json")
    # analyze needs its table path; verify writes no table or overlay unless asked.
    table = ["--csv", "table.csv"] if command == "analyze" else []
    assert main([command, config, *table]) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == (["table.csv"] if table else [])
    assert main([command, config, *table, "--output", "report.json"]) == 0
    assert printed == (tmp_path / "report.json").read_text()


# Two outputs of one run at one path, the second spelled otherwise: the report
# once overwrote the table or overlay and named a CSV that no longer existed.
SHARED_PATH = [
    ("analyze", ("--output", "--csv")),
    ("verify", ("--output", "--csv")),
    ("verify", ("--output", "--svg")),
    ("verify", ("--csv", "--svg")),
    ("verify", ("--output", "--csv", "--svg")),
]


@pytest.mark.parametrize("command, flags", SHARED_PATH, ids=[c + "".join(f) for c, f in SHARED_PATH])
def test_two_outputs_at_one_path_exit_2_and_write_nothing(command, flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shared = tmp_path.resolve() / "out"
    argv = [command, str(FIXTURES / f"{FIXTURE_OF[command]}.json"), flags[0], "out"]
    for flag in flags[1:]:
        argv += [flag, str(shared)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {flags[1]}: names the same file as {flags[0]}: {shared}\n"
    assert list(tmp_path.iterdir()) == []


# An output flag that names an input of the run: the config, or the set file
# it names relative to its own directory.  The first command line once
# replaced the set file with the grid table and the config with the report,
# with exit 0.
INPUT_AS_OUTPUT = [
    (["analyze", "analyze_two_point.json", "--csv", "two_point_set.json", "--output", "analyze_two_point.json"], "--output", "the config"),
    (["analyze", "analyze_two_point.json", "--csv", "two_point_set.json"], "--csv", "the set file"),
    (["verify", "verify_two_point.json", "--svg", "verify_two_point.json"], "--svg", "the config"),
]


@pytest.mark.parametrize("argv, flag, role", INPUT_AS_OUTPUT, ids=["analyze-output-csv", "analyze-csv", "verify-svg"])
def test_an_output_that_names_an_input_exits_2_and_writes_nothing(argv, flag, role, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == EXIT_CONFIG
    named = tmp_path.resolve() / argv[argv.index(flag) + 1]
    assert capsys.readouterr().err == f"config error: {flag}: names the same file as {role}: {named}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def csv_table(data: bytes) -> tuple[list[str], list[list[str]]]:
    """Header and cells of a CSV whose every line ends in CRLF."""
    lines = data.split(b"\r\n")
    assert lines[-1] == b"" and all(b"\n" not in line for line in lines)
    header, *rows = [line.decode().split(",") for line in lines[:-1]]
    return header, rows


def test_analyze_csv_cells_parse_back_to_the_sweep(tmp_path, capsys):
    code, (_, table) = run("analyze", "analyze_two_point", tmp_path)
    assert code == 0
    config, _ = load_config(FIXTURES / "analyze_two_point.json")
    sweep = grid_sweep(config.set_spec, config.window, config.grid_resolution)
    header, rows = csv_table(table)
    assert header == ["x1", "x2", "d", "classification", "grad_1", "grad_2", "differentiable_flag"]
    cells = np.array([[float(c) for c in row[:3] + row[4:6]] for row in rows])
    expected = np.column_stack([config.window.grid_points(config.grid_resolution), sweep.values, sweep.gradients])
    assert np.array_equal(cells, expected, equal_nan=True)
    classes = list(map(list(Classification).__getitem__, sweep.classes.tolist()))
    assert [row[3] for row in rows] == [c.value for c in classes]
    assert [row[6] == "true" for row in rows] == [c is Classification.UNIQUE for c in classes]


def test_samples_csv_is_written_in_blocks_of_plain_floats(tmp_path):
    points = np.random.default_rng(0).normal(size=(2 * CSV_BLOCK_ROWS + 5, 3))
    path = tmp_path / "samples.csv"
    write_samples_csv(points, path)
    header, rows = csv_table(path.read_bytes())
    assert header == ["x1", "x2", "x3"]
    assert np.array_equal(np.array([[float(c) for c in row] for row in rows]), points)
    write_samples_csv(np.empty((0, 3)), path)
    assert path.read_bytes() == b""


# The rest grid of a 1-D cover is one node, whatever its resolution.  A 1-D
# cover once built the ticks of its one axis, which that node never reads:
# np.linspace refused 10^19 of them with exit 1.
def test_cover_of_a_1d_field_has_one_value_per_graph(tmp_path, capsys):
    config, report = tmp_path / "two_point_1d.json", tmp_path / "report.json"
    two_points = {"dimension": 1, "primitives": [{"type": "point", "coords": [x]} for x in (-1.0, 1.0)]}
    for cover in ({}, {"rest_resolution": 10**19}):
        config.write_text(json.dumps({"set": two_points, "lattice": {"step": 0.5, "bound": 1.0}, "cover": cover}))
        assert main(["cover", str(config), "--output", str(report)]) == 0
        graphs = json.loads(report.read_text())["graphs"]
        assert len(graphs) == 10
        assert all(len(g["grid"]) == 1 and len(g["grid"][0]) == 1 and np.isfinite(g["grid"][0][0]) for g in graphs)


def test_analyze_writes_its_csv_where_asked(tmp_path, capsys):
    code, (report, table) = run("analyze", "analyze_two_point", tmp_path)
    assert code == 0
    assert table.count(b"\n") == 1 + 17 * 17
    assert str(tmp_path / "table.csv").encode() in report


# analyze once wrote its table to analyze_grid.csv in the working directory when no flag named it.
def test_analyze_without_csv_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(FIXTURES / "analyze_two_point.json"), "--output", "report.json"])
    assert exit_info.value.code == 2
    assert "the following arguments are required: --csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_svg_on_a_3d_set_is_a_config_error(tmp_path, capsys):
    ball = {"dimension": 3, "primitives": [{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}]}
    report, svg = tmp_path / "report.json", tmp_path / "overlay.svg"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": ball, "grid_resolution": 8}))
    assert main(["verify", str(config), "--output", str(report), "--svg", str(svg)]) == 2
    assert not report.exists() and not svg.exists()


# A flag that the command does not take, and a fixture the command accepts.
FOREIGN_FLAGS = [
    ("cover", "cover_two_point", "--csv"),
    ("cover", "cover_two_point", "--svg"),
    ("analyze", "analyze_two_point", "--svg"),
]


@pytest.mark.parametrize("command, fixture, flag", FOREIGN_FLAGS, ids=[f"{c}{f}" for c, _, f in FOREIGN_FLAGS])
def test_a_flag_the_command_does_not_take_exits_2_and_writes_nothing(command, fixture, flag, tmp_path, capsys):
    report, extra = tmp_path / "report.json", tmp_path / "extra.out"
    table = ["--csv", str(tmp_path / "table.csv")] if command == "analyze" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(FIXTURES / f"{fixture}.json"), "--output", str(report), *table, flag, str(extra)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# The seed comes from the config alone; the --seed flag that once replaced it is gone.
@pytest.mark.parametrize("command", list(FIXTURE_OF))
def test_the_removed_seed_flag_exits_2_and_writes_nothing(command, tmp_path, capsys):
    argv = [command, str(FIXTURES / f"{FIXTURE_OF[command]}.json"), "--output", str(tmp_path / "report.json"), "--seed", "3"]
    if command == "analyze":
        argv += ["--csv", str(tmp_path / "table.csv")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def in_fresh_interpreter(*args, timeout=60):
    """``python *args`` in a new interpreter that imports this package's source.

    The timeout turns a run that does not end into a failing test.
    """
    src = str(Path(medialcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


def main_in_subprocess(command, document, tmp_path, timeout=60, python_flags=(), flags=()):
    """Exit code, last stderr line and report presence of one command in a fresh interpreter.

    ``python_flags`` go to the interpreter, before ``-m``; ``flags`` go to the command.
    """
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(document))
    argv = [*python_flags, "-m", "medialcover.cli", command, str(config), "--output", str(report), *flags]
    done = in_fresh_interpreter(*argv, timeout=timeout)
    return done.returncode, done.stderr.splitlines()[-1], report.exists()


def test_python_dash_m_medialcover_runs_the_command_line(tmp_path, capsys):
    # `python -m medialcover` runs the package's __main__.py, not medialcover.cli.
    report = tmp_path / "module.json"
    done = in_fresh_interpreter("-m", "medialcover", "verify", str(FIXTURES / "verify_two_point.json"), "--output", str(report))
    assert done.returncode == 0
    assert report.read_bytes() == run("verify", "verify_two_point", tmp_path)[1][0]
    table = str(tmp_path / "table.csv")
    assert in_fresh_interpreter("-m", "medialcover", "analyze", str(FIXTURES / "malformed.json"), "--csv", table).returncode == EXIT_CONFIG


def far_points(x):
    return {"dimension": 2, "primitives": [{"type": "point", "coords": [s * x, 0.0]} for s in (-1.0, 1.0)]}


# Exit 5 guards a marginal infimum that does not close, which no config of a
# set reaches: the lift of a set is strongly convex, and a set too far from
# its window to tell a tie is refused (`test_a_set_too_far_to_tell_a_tie_exits_2_without_a_report`).
# In place of the lift, |x|^2 + h^2 stands for |x|^2 seen from a point h
# away, where rounding swamps the field.  At h = 1e20 the golden-section
# search cannot narrow its bracket below one ulp of t; at h = 1e30 the
# bracket doubling never finds the rising side.
@pytest.mark.parametrize(
    "half_width, stuck",
    [
        (1e20, "golden-section bracket for axis 0, slope -1.0 still wider than 1e-07 after 123 steps"),
        (1e30, "bracket for axis 0, slope -1.0 still open after 60 doublings"),
    ],
    ids=["cover-1e20", "cover-1e30"],
)
def test_a_marginal_infimum_that_does_not_close_exits_5_without_a_report(half_width, stuck, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "asplund_lift", lambda spec: lambda x: np.add.reduce(x * x, axis=-1) + half_width**2)
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    lattice, cover = {"step": 1.0, "bound": 1.0}, {"rest_resolution": 3}
    config.write_text(json.dumps({"set": str(FIXTURES / "two_point_set.json"), "lattice": lattice, "cover": cover}))
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_NONCONVEX
    assert capsys.readouterr().err.startswith(f"convexity failure: {stuck}")
    assert not report.exists()


# Coordinates whose squared distances overflow once gave every `analyze` node
# the distance inf and the class AMBIGUOUS (exit 0), and ended `verify` with
# exit 5 after overflow warnings.  In 2-D the largest squared distance 2 (2L)^2
# of the box [-L, L]^2 overflows from L = 4.74e153 on.
FAR_SHELL = {"type": "ball", "center": [3e153, 0.0], "radius": 3e153}
SET_TOO_LARGE = "set: too large: a squared distance overflows, with coordinates and radii reaching "
OVERFLOWING = [
    ("verify", {"set": far_points(1e200)}, SET_TOO_LARGE + "1e+200"),
    ("cover", {"set": far_points(1e200)}, SET_TOO_LARGE + "1e+200"),
    ("analyze", {"set": far_points(1e200)}, SET_TOO_LARGE + "1e+200"),
    ("verify", {"set": far_points(4.8e153)}, SET_TOO_LARGE + "4.8e+153"),
    ("verify", {"set": {"dimension": 2, "primitives": [FAR_SHELL]}}, SET_TOO_LARGE + "6e+153"),
    (
        "analyze",
        {"set": far_points(1.0), "window": {"lower": [-1e200, -2.0], "upper": [2.0, 2.0]}},
        "window: too large: a squared distance overflows, with corners reaching 1e+200",
    ),
]


OVERFLOWING_IDS = ["verify-1e200", "cover-1e200", "analyze-1e200", "verify-4.8e153", "shell", "window"]


@pytest.mark.parametrize("command, document, message", OVERFLOWING, ids=OVERFLOWING_IDS)
def test_coordinates_whose_squared_distances_overflow_exit_2_without_a_report(command, document, message, tmp_path):
    table = tmp_path / "grid.csv"
    flags = ["--csv", str(table)] if command in CSV_COMMANDS else []
    code, last_line, reported = main_in_subprocess(command, {**document, "grid_resolution": 16}, tmp_path, flags=flags)
    assert (code, reported, table.exists()) == (EXIT_CONFIG, False, False)
    assert last_line == f"config error: {message}"


# A segment or polygon edge whose direction b - a or squared length overflows
# once printed an overflow RuntimeWarning while the set was packed, before
# the config error.  It is refused when it is read, with no warning.
LONG_EDGES = [
    ({"type": "segment", "a": [-1e308, 0.0], "b": [1e308, 0.0]}, "segment too long: its squared length overflows"),
    ({"type": "segment", "a": [0.0, 0.0], "b": [1e200, 0.0]}, "segment too long: its squared length overflows"),
    ({"type": "polygon", "vertices": [[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]]}, "polygon edge too long: its squared length overflows"),
]


@pytest.mark.parametrize("primitive, message", LONG_EDGES, ids=["segment-1e308", "segment-1e200", "polygon-1e308"])
def test_an_edge_whose_length_overflows_exits_2_without_a_warning(primitive, message, tmp_path):
    document = {"set": {"dimension": 2, "primitives": [{"type": "point", "coords": [0.0, 0.0]}, primitive]}, "grid_resolution": 16}
    flags = ("-W", "error::RuntimeWarning")
    code, last_line, reported = main_in_subprocess("verify", document, tmp_path, python_flags=flags)
    assert (code, reported) == (EXIT_CONFIG, False)
    assert last_line == f"config error: set: primitives[1]: {message}"


def segment_to(x):
    return {"dimension": 2, "primitives": [{"type": "segment", "a": [0.0, 0.0], "b": [x, 0.0]}]}


def test_coordinates_just_inside_the_float_range_are_accepted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_config({"set": segment_to(4.7e153)}).set_spec is not None
    with pytest.raises(ConfigError, match=re.escape(SET_TOO_LARGE + "4.8e+153")):
        parse_config({"set": segment_to(4.8e153)})


# The locus of two points at (-+x, 0) is the line x1 = 0, yet from x = 1e17
# on their distances from the window round to multiples of 16 apart or more.
# `analyze` once called all 256 nodes of a 16^2 grid ambiguous, with exit 0;
# `verify` exited 1 with a deviation of 2 at 1e17, and it and `cover` exited
# 5 from 1e30 on.
FAR = {"1e17": (1e17, "16"), "1e30": (1e30, "1.40737e+14"), "1e100": (1e100, "1.94267e+84")}


@pytest.mark.parametrize("x, gap", list(FAR.values()), ids=list(FAR))
@pytest.mark.parametrize("command", ["analyze", "verify", "cover"])
def test_a_set_too_far_to_tell_a_tie_exits_2_without_a_report(command, x, gap, tmp_path, capsys):
    config, report, table = tmp_path / "far.json", tmp_path / "report.json", tmp_path / "table.csv"
    lattice = {"step": 1.0, "bound": 2.0}
    config.write_text(json.dumps({"set": far_points(x), "grid_resolution": 16, "lattice": lattice}))
    flags = ["--csv", str(table)] if command in CSV_COMMANDS else []
    assert main([command, str(config), "--output", str(report), *flags]) == EXIT_CONFIG
    message = f"distances there reach {x:g}, where doubles lie {gap} apart, more than the tie tolerance 1e-09"
    assert capsys.readouterr().err == f"config error: set: too far from the window: {message}\n"
    assert not report.exists() and not table.exists()


def test_no_fixture_or_voronoi_set_is_too_far_to_tell_a_tie():
    # Parsing refuses a set too far from its window to tell a tie.
    configs = [load_config(path)[0] for path in FIXTURES.glob("*.json") if path.stem.startswith(("analyze_", "cover_", "verify_"))]
    for seed in SEEDS:
        sites = [{"type": "point", "coords": p.tolist()} for p in random_sites(seed)]
        window = {"lower": WINDOW.lower.tolist(), "upper": WINDOW.upper.tolist()}
        configs.append(parse_config({"set": {"dimension": 2, "primitives": sites}, "window": window}))
    assert len(configs) > len(SEEDS) + 10


def test_help_lists_every_exit_code_with_its_meaning(capsys):
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(cli._EXIT_MEANINGS) == sorted(codes) == list(range(6))
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    listing = "".join(f"  {code}  {meaning}\n" for code, meaning in cli._EXIT_MEANINGS.items())
    printed = capsys.readouterr().out
    assert "exit codes:\n" + listing in printed
    assert re.findall(r"\{[a-z,]+\}", printed) == ["{analyze,cover,verify}"] * 2  # the usage line and the command list
    assert "Exit codes, also listed by ``medialcover --help``:\n\n" + listing in cli.__doc__


# ``main`` builds the parser on its first call and reuses it; a refused call
# must leave nothing in it that changes the next run.
def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    config = str(FIXTURES / "cover_two_point.json")
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    assert main(["cover", config, "--output", str(first)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["cover", config, "--output", str(tmp_path / "foreign.json"), "--csv", str(tmp_path / "table.csv")])
    assert info.value.code == 2
    assert main(["cover", str(tmp_path / "missing.json"), "--output", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert main(["cover", config, "--output", str(last)]) == 0
    assert last.read_bytes() == first.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "last.json"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    listing = "".join(f"  {code}  {meaning}\n" for code, meaning in cli._EXIT_MEANINGS.items())
    assert "exit codes:\n" + listing in capsys.readouterr().out


def test_importing_the_command_line_builds_no_parser():
    done = in_fresh_interpreter("-c", "import medialcover.cli as cli; print(cli.build_parser.cache_info().currsize)")
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_readme_lists_every_exit_code_with_its_meaning():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d) \| (.+?) \|$", readme, flags=re.MULTILINE)
    assert [(int(code), meaning) for code, meaning in rows] == list(cli._EXIT_MEANINGS.items())


def config_keys_read():
    """The top-level keys that ``parse_config`` reads: the string keys of ``data.get``, ``data[...]``, ``in data`` and ``_get_number``/``_get_count(data, ...)``."""

    def is_data(node):
        return isinstance(node, ast.Name) and node.id == "data"

    keys = []
    for node in ast.walk(ast.parse(Path(cli.__file__).with_name("config.py").read_text())):
        if isinstance(node, ast.Subscript) and is_data(node.value):
            keys.append(node.slice)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)) and is_data(node.comparators[0]):
            keys.append(node.left)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get" and is_data(node.func.value):
            keys.append(node.args[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_get_number", "_get_count") and is_data(node.args[0]):
            keys.append(node.args[1])
    return {key.value for key in keys if isinstance(key, ast.Constant)}


def test_readme_lists_every_config_key_that_is_read():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z_]+)` \|", table, flags=re.MULTILINE)
    assert sorted(listed) == sorted(config_keys_read())
    assert set(listed) == {"set", "window", "grid_resolution", "lattice", "cover", "seed"}


# `decompose` split a C^2 field into a difference of convex functions; the
# command is gone, and argparse refuses it.
def test_the_removed_decompose_command_exits_2_and_writes_nothing(tmp_path, capsys):
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["decompose", str(FIXTURES / "cover_two_point.json"), "--output", str(report)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'decompose'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
