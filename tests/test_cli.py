"""Every scenario fixture through the command line: exit codes and repeatable reports."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medialcover
import medialcover.cli as cli
from medialcover.cli import EXIT_CONFIG, EXIT_NONCONVEX, main
from medialcover.config import load_config, parse_config
from medialcover.distance import CSV_BLOCK_ROWS, Classification, grid_sweep
from medialcover.geometry import ClosedSetSpec, Window
from medialcover.verify import write_overlay_svg, write_samples_csv
from test_voronoi_oracle import SEEDS, WINDOW, random_sites

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("verify", "verify_two_point", 0),
    ("cover", "cover_two_point", 0),
    ("cover", "cover_sq_norm", 0),
    ("analyze", "analyze_two_point", 0),
    ("verify", "verify_circle", 1),
    ("verify", "verify_two_point_corrupt", 1),
    ("verify", "bad_primitive", 2),
    ("analyze", "malformed", 2),
    ("cover", "cover_budget", 4),
]


# The commands that write a table, and so take --csv.
CSV_COMMANDS = ("analyze", "verify")


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
def test_fixture_exit_code_and_repeatable_report(command, fixture, expected, tmp_path, capsys):
    code, outputs = run(command, fixture, tmp_path)
    assert code == expected
    assert (outputs[0] is not None) == (expected in (0, 1))
    assert run(command, fixture, tmp_path) == (code, outputs)


# sha256 of the report bytes; a change that moves one float of a report fails here.
GOLDEN = {
    ("verify", "verify_two_point"): "cdf0cc116aba729f91e2286ec480d82c80e19ba3a4a8cf8ce52a36ca83475c20",
    ("verify", "verify_circle"): "41a81f7b76b923f325a3a12c11e0d22a817b6e349117e9e49e40aec8afc2b10b",
    ("verify", "verify_two_point_corrupt"): "4f58976d16c5ddf309280c0601171b4c6987197f1f5ab1add15abfc4e999a021",
    ("cover", "cover_two_point"): "9fd6f25d84666c6d4538c9436a46e6516cdcef65147a2c4c398e5c6b640806a4",
    ("cover", "cover_sq_norm"): "163f731c983d361c478831e3d6149a12dc03bd5abb951c0be379b658d214097e",
    # A 3-D set, and a window whose two axes have different grid steps.
    ("verify", "verify_shells"): "121b8e6dd140453c72d7d839f0cd4fdee6889597432c97e2361b813fc53f7189",
    ("cover", "cover_shells"): "8341a96f19e531073038f32f1211b2d45be27ec5b5eecf0b36ad22c9d882baf1",
    ("verify", "verify_wide_window"): "613c0956fb7791e61b68b11d33c89ec08ef45187281ac888e3550b04130b124f",
    # A polygon loop: a six-vertex star, whose rows are all segments.
    ("verify", "verify_star"): "d5406706bf6d79e26a4daed1fc6ae69f9ee5d09e43c7d6fcdb4d31e31dee8bbb",
    ("cover", "cover_star"): "79b2f06f5867f39759268f7d1c8f2e9f9616e1ec727300e2b923c8b5235cbf11",
}


@pytest.mark.parametrize("command, fixture", list(GOLDEN), ids=[f for _, f in GOLDEN])
def test_report_bytes_match_their_golden_digest(command, fixture, tmp_path, capsys):
    _, (report, _) = run(command, fixture, tmp_path)
    assert hashlib.sha256(report).hexdigest() == GOLDEN[command, fixture]


# sha256 of the CSV bytes, computed with the writer that used the csv module.
# The analyze gradients are (x - q) / d off the set, q the survey projection.
GOLDEN_CSV = {
    ("analyze", "analyze_two_point"): "7f329e0fbeaaea03b42eade36b272b286100b712f8e44dd5fad9b4ff0241c233",
    ("verify", "verify_two_point"): "e08d01a408cec091cf9f729974e3debb276cfad51b1b5ac92878f331e25da0e2",
    ("verify", "verify_star"): "f9e5f81721d445a916645103bcc7064e5e0bc641c9f26aecc0063d212267100c",
    # A 3-D sweep: shell, point and segment rows, three gradient columns.
    ("analyze", "analyze_shells"): "8f8a2a7799f31c5d9afce0d003ec939e630a9082e27f3c2ce187353ad72d3613",
}


@pytest.mark.parametrize("command, fixture", list(GOLDEN_CSV), ids=[f for _, f in GOLDEN_CSV])
def test_csv_bytes_match_their_golden_digest(command, fixture, tmp_path, capsys):
    _, (_, table) = run(command, fixture, tmp_path)
    assert hashlib.sha256(table).hexdigest() == GOLDEN_CSV[command, fixture]


# Exit code and sha256 of the report (and of the `analyze` table) of each
# benchmark workload config at seed 303, the configs that `perfbench/run.py`
# times.  The reports of
# `verify` and `cover` go through the marginal-infimum searches.
WORKLOAD_SEED = 303
GOLDEN_WORKLOADS = {
    ("verify", "points2d"): (0, "88da2fd17aec39874c5431daa73fa56c38f6dfd9265b9f2fdfd7d89c7d29eac1"),
    ("verify", "polygon2d"): (0, "0d9af11c34fdc0c261cb58994021b1b78d932eb3bc665cf7b42cd7d816298202"),
    # 12 unresolved samples near the sphere's centre.
    ("verify", "shells3d"): (1, "38d32ba84c35fbef42e00a3b484bcc7b895043435cece1a195a93d6f4668f8e3"),
    ("cover", "points2d"): (0, "b04092eb856652e256dbe06d31abd6c8d66a32c8c479c8bb0a4302f4f33dd45e"),
    ("cover", "polygon2d"): (0, "2862657c107b349470c3a98f13c1ac313ab08d908b1d245137378128bfab1dbd"),
    ("cover", "shells3d"): (0, "dcad837dab23c584bfeae461c146f244a119453ad3a34db6a149ded0945d5269"),
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
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs]
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


# The files each command writes, by their key in the config's ``outputs``, and the flag that overrides each.
WRITES = {"analyze": ("report", "csv"), "verify": ("report", "csv", "svg"), "cover": ("report",)}
FLAGS = {"report": "--output", "csv": "--csv", "svg": "--svg"}
FIXTURE_OF = {"analyze": "analyze_two_point", "verify": "verify_two_point", "cover": "cover_two_point"}


def configured(command, tmp_path, outputs):
    """The command's fixture config with these ``outputs``, written to ``tmp_path`` with its set path made absolute."""
    document = json.loads((FIXTURES / f"{FIXTURE_OF[command]}.json").read_text())
    if isinstance(document.get("set"), str):
        document["set"] = str(FIXTURES / document["set"])
    document["outputs"] = outputs
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(document))
    return config


OVERRIDES = [(command, name) for command, names in WRITES.items() for name in names]


@pytest.mark.parametrize("command, name", OVERRIDES, ids=[f"{c}{FLAGS[n]}" for c, n in OVERRIDES])
def test_a_flag_overrides_the_configured_path_of_its_file_only(command, name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = configured(command, tmp_path, {n: f"config_{n}" for n in WRITES[command]})
    assert main([command, str(config), FLAGS[name], f"flag_{name}"]) == 0
    assert capsys.readouterr().out == ""
    written = {n: f"flag_{n}" if n == name else f"config_{n}" for n in WRITES[command]}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, *written.values()])
    report = json.loads((tmp_path / written["report"]).read_text())
    assert report["command"] == command
    if command == "analyze":
        assert report["csv"] == written["csv"]


@pytest.mark.parametrize("command", list(WRITES))
def test_without_flags_each_file_goes_to_its_configured_path(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = configured(command, tmp_path, {n: f"config_{n}" for n in WRITES[command]})
    assert main([command, str(config)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, *(f"config_{n}" for n in WRITES[command])])
    assert json.loads((tmp_path / "config_report").read_text())["command"] == command


@pytest.mark.parametrize("command", list(WRITES))
def test_without_a_report_path_the_report_goes_to_stdout(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = configured(command, tmp_path, {})
    assert main([command, str(config)]) == 0
    printed = capsys.readouterr().out
    # analyze alone has a default table path; verify writes no table or overlay unless asked.
    extra = ["analyze_grid.csv"] if command == "analyze" else []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config.name, *extra])
    assert main([command, str(config), "--output", "report.json"]) == 0
    assert printed == (tmp_path / "report.json").read_text()


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
    config, report = tmp_path / "abs.json", tmp_path / "report.json"
    for cover in ({}, {"rest_resolution": 10**19}):
        config.write_text(json.dumps({"dimension": 1, "field": "abs", "lattice": {"step": 0.5, "bound": 1.0}, "cover": cover}))
        assert main(["cover", str(config), "--output", str(report)]) == 0
        graphs = json.loads(report.read_text())["graphs"]
        assert len(graphs) == 10
        assert all(len(g["grid"]) == 1 and len(g["grid"][0]) == 1 and np.isfinite(g["grid"][0][0]) for g in graphs)


def test_analyze_writes_its_csv_where_asked(tmp_path, capsys):
    code, (report, table) = run("analyze", "analyze_two_point", tmp_path)
    assert code == 0
    assert table.count(b"\n") == 1 + 17 * 17
    assert str(tmp_path / "table.csv").encode() in report


@pytest.mark.parametrize("via", ["flag", "outputs"])
def test_verify_svg_on_a_3d_set_is_a_config_error(via, tmp_path, capsys):
    ball = {"dimension": 3, "primitives": [{"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}]}
    report, svg = tmp_path / "report.json", tmp_path / "overlay.svg"
    document = {"set": ball, "grid_resolution": 8}
    argv = ["--output", str(report)]
    if via == "flag":
        argv += ["--svg", str(svg)]
    else:
        document["outputs"] = {"svg": str(svg)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert main(["verify", str(config), *argv]) == 2
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
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(FIXTURES / f"{fixture}.json"), "--output", str(report), flag, str(extra)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_writes_its_summary_to_the_configured_report(tmp_path, capsys, monkeypatch):
    document = json.loads((FIXTURES / "analyze_two_point.json").read_text())
    document["set"] = str(FIXTURES / document["set"])
    document["outputs"] = {"report": "rep.json", "csv": "grid.csv"}
    config = tmp_path / "analyze.json"
    config.write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", str(config)]) == 0
    assert capsys.readouterr().out == ""
    summary = json.loads((tmp_path / "rep.json").read_text())
    assert summary["command"] == "analyze" and summary["csv"] == "grid.csv"
    assert summary["rows"] == 17 * 17 and (tmp_path / "grid.csv").exists()


def in_fresh_interpreter(*args, timeout=60):
    """``python *args`` in a new interpreter that imports this package's source.

    The timeout turns a run that does not end into a failing test.
    """
    src = str(Path(medialcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


def main_in_subprocess(command, document, tmp_path, timeout=60, python_flags=()):
    """Exit code, last stderr line and report presence of one command in a fresh interpreter.

    ``python_flags`` go to the interpreter, before ``-m``.
    """
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(document))
    argv = [*python_flags, "-m", "medialcover.cli", command, str(config), "--output", str(report)]
    done = in_fresh_interpreter(*argv, timeout=timeout)
    return done.returncode, done.stderr.splitlines()[-1], report.exists()


def test_python_dash_m_medialcover_runs_the_command_line(tmp_path, capsys):
    # `python -m medialcover` runs the package's __main__.py, not medialcover.cli.
    report = tmp_path / "module.json"
    done = in_fresh_interpreter("-m", "medialcover", "verify", str(FIXTURES / "verify_two_point.json"), "--output", str(report))
    assert done.returncode == 0
    assert report.read_bytes() == run("verify", "verify_two_point", tmp_path)[1][0]
    assert in_fresh_interpreter("-m", "medialcover", "analyze", str(FIXTURES / "malformed.json")).returncode == EXIT_CONFIG


def far_points(x):
    return {"dimension": 2, "primitives": [{"type": "point", "coords": [s * x, 0.0]} for s in (-1.0, 1.0)]}


# Two points so far out that rounding swamps the lift on the window.  At 1e30
# the golden-section search of `verify` once never ended, stuck where one ulp
# of t exceeds its 1e-7 resolution; at 1e200, which is now refused as a
# config error, the bracket doubling's error escaped `main` as a traceback
# with exit 1.  1e100 reaches that error too.
@pytest.mark.parametrize(
    "command, x, stuck",
    [
        ("verify", 1e30, "golden-section bracket for axis 0, slope -2.0 still wider than 1e-07 after 123 steps"),
        ("verify", 1e100, "bracket for axis 0, slope -2.0 still open after 60 doublings"),
        ("cover", 1e30, "bracket for axis 1, slope -2.0 still open after 60 doublings"),
        ("cover", 1e100, "bracket for axis 0, slope -2.0 still open after 60 doublings"),
    ],
    ids=["verify-1e30", "verify-1e100", "cover-1e30", "cover-1e100"],
)
def test_a_marginal_infimum_that_does_not_close_exits_5_without_a_report(command, x, stuck, tmp_path):
    document = {"set": far_points(x), "grid_resolution": 16, "lattice": {"step": 1.0, "bound": 2.0}}
    code, message, reported = main_in_subprocess(command, document, tmp_path)
    assert (code, reported) == (EXIT_NONCONVEX, False)
    assert message.startswith(f"convexity failure: {stuck}")


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
    document = {**document, "grid_resolution": 16, "outputs": {"csv": str(table)}}
    code, last_line, reported = main_in_subprocess(command, document, tmp_path)
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


def test_coordinates_just_inside_the_float_range_are_accepted():
    assert parse_config({"set": far_points(4.7e153)}).set_spec is not None


# The locus of two points at (-+1e17, 0) is the line x1 = 0, yet their
# distances from the window round to multiples of 16 apart, so `analyze` once
# called all 256 nodes of a 16^2 grid ambiguous, with exit 0.
def test_analyze_of_a_set_too_far_to_tell_a_tie_exits_2_without_a_report(tmp_path, capsys):
    config, report, table = tmp_path / "far.json", tmp_path / "report.json", tmp_path / "grid.csv"
    config.write_text(json.dumps({"set": far_points(1e17), "grid_resolution": 16}))
    assert main(["analyze", str(config), "--output", str(report), "--csv", str(table)]) == EXIT_CONFIG
    message = "distances there reach 1e+17, where doubles lie 16 apart, more than the tie tolerance 1e-09"
    assert capsys.readouterr().err == f"config error: set: too far from the window: {message}\n"
    assert not report.exists() and not table.exists()


def test_no_fixture_or_voronoi_set_is_too_far_to_tell_a_tie():
    parsed = [load_config(path)[0] for path in FIXTURES.glob("*.json") if path.stem.startswith(("analyze_", "cover_", "verify_"))]
    configs = [config for config in parsed if config.set_spec is not None]
    for seed in SEEDS:
        sites = [{"type": "point", "coords": p.tolist()} for p in random_sites(seed)]
        window = {"lower": WINDOW.lower.tolist(), "upper": WINDOW.upper.tolist()}
        configs.append(parse_config({"set": {"dimension": 2, "primitives": sites}, "window": window}))
    assert len(configs) > len(SEEDS) + 10
    for config in configs:
        cli._require_resolved_distances(config)  # raises ConfigError when too far


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


# `decompose` split a C^2 field into a difference of convex functions; the
# command is gone, and argparse refuses it.
def test_the_removed_decompose_command_exits_2_and_writes_nothing(tmp_path, capsys):
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["decompose", str(FIXTURES / "cover_sq_norm.json"), "--output", str(report)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'decompose'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
