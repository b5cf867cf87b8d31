"""Every scenario fixture through the command line: exit codes and repeatable reports."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from medialcover.cli import main
from medialcover.config import load_config
from medialcover.distance import CSV_BLOCK_ROWS, grid_sweep
from medialcover.geometry import Ball, ClosedSetSpec, Window
from medialcover.verify import write_overlay_svg, write_samples_csv

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("verify", "verify_two_point", 0),
    ("cover", "cover_two_point", 0),
    ("cover", "cover_sq_norm", 0),
    ("analyze", "analyze_two_point", 0),
    ("decompose", "decompose_sin1", 0),
    ("verify", "verify_circle", 1),
    ("verify", "verify_two_point_corrupt", 1),
    ("decompose", "decompose_norm", 2),
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
    ("decompose", "decompose_sin1"): "fcca6546b20c586bd31473830f795a14ca056952b17b50347d767a2ca0adbaf6",
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
    write_overlay_svg(ClosedSetSpec([Ball([0.0, 0.0], 0.5)], 2), Window([-2.0, -1.0], [2.0, 1.0]), np.empty((0, 2)), svg)
    ellipse = re.search(r'<ellipse cx="([^"]+)" cy="([^"]+)" rx="([^"]+)" ry="([^"]+)"', svg.read_text())
    assert ellipse is not None
    assert [float(v) for v in ellipse.groups()] == [320.0, 320.0, 80.0, 160.0]  # ry = 2 rx on a window half as high


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
WRITES = {"analyze": ("report", "csv"), "verify": ("report", "csv", "svg"), "cover": ("report",), "decompose": ("report",)}
FLAGS = {"report": "--output", "csv": "--csv", "svg": "--svg"}
FIXTURE_OF = {"analyze": "analyze_two_point", "verify": "verify_two_point", "cover": "cover_two_point", "decompose": "decompose_sin1"}


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
    sweep = grid_sweep(
        config.set_spec,
        config.window,
        config.grid_resolution,
        tie_tolerance=config.tie_tolerance,
        separation=config.separation,
    )
    header, rows = csv_table(table)
    assert header == ["x1", "x2", "d", "classification", "grad_1", "grad_2", "differentiable_flag"]
    cells = np.array([[float(c) for c in row[:3] + row[4:6]] for row in rows])
    expected = np.column_stack([sweep.points, sweep.values, sweep.gradients])
    assert np.array_equal(cells, expected, equal_nan=True)
    assert [row[3] for row in rows] == [c.value for c in sweep.classifications]
    assert [row[6] == "true" for row in rows] == sweep.differentiable.tolist()


def test_samples_csv_is_written_in_blocks_of_plain_floats(tmp_path):
    points = np.random.default_rng(0).normal(size=(2 * CSV_BLOCK_ROWS + 5, 3))
    path = tmp_path / "samples.csv"
    write_samples_csv(points, path)
    header, rows = csv_table(path.read_bytes())
    assert header == ["x1", "x2", "x3"]
    assert np.array_equal(np.array([[float(c) for c in row] for row in rows]), points)
    write_samples_csv(np.empty((0, 3)), path)
    assert path.read_bytes() == b""


def test_cover_of_a_1d_field_has_one_value_per_graph(tmp_path, capsys):
    config, report = tmp_path / "abs.json", tmp_path / "report.json"
    config.write_text(json.dumps({"dimension": 1, "field": "abs", "lattice": {"step": 0.5, "bound": 1.0}}))
    assert main(["cover", str(config), "--output", str(report)]) == 0
    graphs = json.loads(report.read_text())["graphs"]
    assert len(graphs) == 10
    assert all(len(g["grid"]) == 1 and len(g["grid"][0]) == 1 and np.isfinite(g["grid"][0][0]) for g in graphs)


def test_analyze_writes_its_csv_where_asked(tmp_path, capsys):
    code, (report, table) = run("analyze", "analyze_two_point", tmp_path)
    assert code == 0
    assert table.count(b"\n") == 1 + 17 * 17
    assert str(tmp_path / "table.csv").encode() in report


def test_verify_honours_the_separation_tolerance(tmp_path, capsys):
    # Two sites 1e-4 apart: the grid nodes on their bisector have nearest
    # points 1e-4 apart, which is a tie under a 1e-6 separation and one
    # point under 1e-3.  The lattice cannot resolve so small a gap.
    close = {"dimension": 2, "primitives": [{"type": "point", "coords": [0.0, y]} for y in (-5e-5, 5e-5)]}
    reports = []
    for separation in (1e-6, 1e-3):
        config = tmp_path / f"close_{separation}.json"
        config.write_text(json.dumps({"set": close, "grid_resolution": 17, "tolerances": {"separation": separation}}))
        report = tmp_path / f"report_{separation}.json"
        code = main(["verify", str(config), "--output", str(report)])
        reports.append((code, json.loads(report.read_text())["report"]))
    (tight_code, tight), (loose_code, loose) = reports
    assert tight_code == 1 and tight["unresolved"] == 17
    assert loose_code == 0 and loose["unresolved"] == 0 and loose["samples"] == 0


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
    ("decompose", "decompose_sin1", "--csv"),
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
