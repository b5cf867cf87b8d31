"""Every scenario fixture through the command line: exit codes and repeatable reports."""

import json
from pathlib import Path

import pytest

from medialcover.cli import main

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


def run(command, fixture, tmp_path):
    """Exit code plus the bytes of every file the run wrote."""
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    for path in (report, table):
        path.unlink(missing_ok=True)
    code = main([command, str(FIXTURES / f"{fixture}.json"), "--output", str(report), "--csv", str(table)])
    return code, [p.read_bytes() if p.exists() else None for p in (report, table)]


@pytest.mark.parametrize("command, fixture, expected", CASES, ids=[c[1] for c in CASES])
def test_fixture_exit_code_and_repeatable_report(command, fixture, expected, tmp_path, capsys):
    code, outputs = run(command, fixture, tmp_path)
    assert code == expected
    assert (outputs[0] is not None) == (expected in (0, 1))
    assert run(command, fixture, tmp_path) == (code, outputs)


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
