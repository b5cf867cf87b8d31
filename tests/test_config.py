"""Malformed scenario configs: each names its offending field and exits 2."""

import json
from pathlib import Path

import numpy as np
import pytest

from medialcover.cli import EXIT_BUDGET, EXIT_CONFIG, main
from medialcover.config import ConfigError, parse_config

TWO_POINTS = {"dimension": 2, "primitives": [{"type": "point", "coords": [-1.0, 0.0]}, {"type": "point", "coords": [1.0, 0.0]}]}

MALFORMED = [
    ("dimension", {"dimension": 3}),
    ("window", {"window": {"lower": [-2, -2, -2], "upper": [2, 2, 2]}}),
    ("window", {"window": {"lower": [-2, 1], "upper": [2, 1]}}),
    ("window", {"window": {"lower": [2, -2], "upper": [-2, 2]}}),
    ("grid_resolution", {"grid_resolution": 7}),
    ("grid_resolution", {"grid_resolution": 16.5}),
    ("lattice.step", {"lattice": {"step": 0}}),
    ("lattice.step", {"lattice": {"step": -0.5}}),
    ("lattice.bound", {"lattice": {"bound": 0.0}}),
    ("cover.rest_resolution", {"cover": {"rest_resolution": 0}}),
    ("cover", {"cover": [2]}),
    ("seed", {"seed": True}),
    ("outputs", {"outputs": {"report": 3}}),
    ("field", {"field": 3}),
]


@pytest.mark.parametrize("name, patch", MALFORMED, ids=[f"{name}-{k}" for k, (name, _) in enumerate(MALFORMED)])
def test_malformed_config_names_its_field(name, patch):
    with pytest.raises(ConfigError) as info:
        parse_config({"set": TWO_POINTS, **patch})
    assert str(info.value).startswith(f"{name}:")


def test_malformed_config_exits_2_through_main(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "lattice": {"step": -0.5}}))
    report = tmp_path / "report.json"
    assert main(["verify", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: lattice.step:")
    assert not report.exists()


# Python's json parses NaN and Infinity, so these are written as raw JSON text.
# It also parses integers beyond the float range, which once raised OverflowError.
HUGE = "1" + "0" * 400
NON_FINITE = [
    ("lattice.step", '"lattice": {"step": NaN}'),
    ("cover.cap", '"cover": {"cap": Infinity}'),
    ("cover.rest_resolution", '"cover": {"rest_resolution": NaN}'),
    ("grid_resolution", f'"grid_resolution": {HUGE}'),
    ("lattice.step", f'"lattice": {{"step": {HUGE}}}'),
    ("lattice.bound", f'"lattice": {{"bound": {HUGE}}}'),
    ("fault_offset", f'"fault_offset": -{HUGE}'),
]


@pytest.mark.parametrize(
    "name, member", NON_FINITE, ids=[f"{name}-huge" if HUGE in member else name for name, member in NON_FINITE]
)
def test_non_finite_number_exits_2_through_main(name, member, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"set": {json.dumps(TWO_POINTS)}, "grid_resolution": 17, {member}}}')
    report, table = tmp_path / "report.json", tmp_path / "grid.csv"
    assert main(["analyze", str(config), "--output", str(report), "--csv", str(table)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name}: must be finite, got ")
    assert not report.exists() and not table.exists()


def test_an_integer_too_long_to_convert_exits_2_through_main(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"set": {json.dumps(TWO_POINTS)}, "seed": 1{"0" * 5000}}}')
    report = tmp_path / "report.json"
    assert main(["verify", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config file: ")
    assert not report.exists()


# Not UTF-8: a latin-1 byte in a string.  Reading once depended on the locale
# and raised UnicodeDecodeError.
NOT_UTF8 = b'{"dimension": 2, "primitives": [{"type": "point", "coords": [0.0, 0.0], "name": "\xe9"}]}'


@pytest.mark.parametrize("which", ["config file", "set"])
def test_a_file_that_is_not_utf8_exits_2_and_names_itself(which, tmp_path, capsys):
    config, shape = tmp_path / "config.json", tmp_path / "shape.json"
    if which == "set":
        shape.write_bytes(NOT_UTF8)
        config.write_text(json.dumps({"set": "shape.json"}))
    else:
        config.write_bytes(b'{"set": ' + NOT_UTF8 + b"}")
    report = tmp_path / "report.json"
    assert main(["verify", str(config), "--output", str(report)]) == EXIT_CONFIG
    bad = shape if which == "set" else config
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {which}: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert not report.exists()


# Counts that were once truncated to an integer.
NOT_A_COUNT = [
    ("cover.rest_resolution", {"cover": {"rest_resolution": 2.5}}, "must be an integer"),
    ("cover.cap", {"cover": {"cap": 6.7}}, "must be an integer"),
]


@pytest.mark.parametrize("name, patch, message", NOT_A_COUNT, ids=[name for name, _, _ in NOT_A_COUNT])
def test_fractional_count_or_empty_axes_exits_2_through_main(name, patch, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, **patch}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name}: {message}")
    assert not report.exists()


# A negative seed is refused, in the config and as a flag, though every
# command now only stamps the seed into its report.
DOCUMENTS = {
    "verify": {"set": TWO_POINTS, "grid_resolution": 17},
}
NEGATIVE_SEED = {"in-config": ({"seed": -1}, [], -1), "flag": ({}, ["--seed", "-3"], -3)}


@pytest.mark.parametrize("command", list(DOCUMENTS))
@pytest.mark.parametrize("patch, flags, seed", list(NEGATIVE_SEED.values()), ids=list(NEGATIVE_SEED))
def test_negative_seed_exits_2_through_main(command, patch, flags, seed, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**DOCUMENTS[command], **patch}))
    report = tmp_path / "report.json"
    assert main([command, str(config), "--output", str(report), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: seed: must be >= 0, got {seed}")
    assert not report.exists()


# `asplund:<path>` once ignored its path and lifted the config's own set.
@pytest.mark.parametrize("field", ["asplund:/does/not/exist.json", "asplund:", "asplund:Set"])
def test_asplund_with_a_reference_other_than_set_exits_2_through_main(field, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, "field": field}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: field: unknown field name {field!r}")
    assert not report.exists()


@pytest.mark.parametrize("field", ["asplund", "asplund:set"])
def test_asplund_of_the_configs_own_set_is_accepted(field, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, "lattice": {"step": 1.0, "bound": 2.0}, "field": field}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == 0
    document = json.loads(report.read_text())
    assert document["provenance"] == "asplund+sq"
    assert sum(graph["witness_points"] for graph in document["graphs"]) > 0


def test_asplund_without_a_set_exits_2_through_main(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dimension": 2, "field": "asplund"}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: field: field 'asplund' needs a set description\n"
    assert not report.exists()


# `cover` once counted the witness points of the set's lift against the
# graphs of another named field.
@pytest.mark.parametrize("field", ["norm", "sq_norm"])
def test_a_set_with_another_named_field_exits_2_through_main(field, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, "field": field}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: field: {field!r} is not the lift of the config's set")
    assert not report.exists()


# Finite-difference steps, a detector fraction, the coverage, tie, separation
# and bisection tolerances, the cover axes and the `decompose` block, which the
# program no longer reads as knobs: unknown keys are ignored, even with values
# that were once refused.
KNOBS = {
    "tolerances": {
        "fd_step": 0.5,
        "partial_step": 0.25,
        "jump_fraction": 0.5,
        "coverage": 0.5,
        "tie": 0.5,
        "separation": 1e-3,
        "refine": 1e-3,
    },
    "cover": {"axes": [1]},
    "decompose": {"radius": -1.0, "samples": 10.5},
}


@pytest.mark.parametrize("command", ["verify", "analyze", "cover"])
def test_removed_step_knobs_change_nothing_but_the_config_digest(command, tmp_path, capsys):
    document = {"set": TWO_POINTS, "grid_resolution": 17, "lattice": {"step": 1.0, "bound": 2.0}}
    outputs = []
    for name, knobs in (("plain", {}), ("knobs", KNOBS)):
        config, report, table = (tmp_path / f"{name}.{ext}" for ext in ("json", "report", "csv"))
        config.write_text(json.dumps({**document, **knobs, "outputs": {"csv": str(table)}}))
        assert main([command, str(config), "--output", str(report)]) == 0
        written = json.loads(report.read_text())
        assert written.pop("config_sha256")
        written.pop("csv", None)  # analyze names its CSV, whose path differs
        outputs.append((written, table.read_bytes() if table.exists() else None))
    assert outputs[0] == outputs[1]


# The `tolerances` block, once read, is ignored whatever its value, even when it is not an object.
@pytest.mark.parametrize("block", [[1e-3], "loose", None, {"tie": float("nan"), "separation": -1.0, "refine": "x"}])
def test_a_tolerances_block_of_any_value_is_ignored(block):
    config = parse_config({"set": TWO_POINTS, "tolerances": block})
    assert (config.tie_tolerance, config.separation, config.refine_tol) == (1e-9, 1e-6, 1e-8)


def ball(radius):
    return {"dimension": 2, "primitives": [{"type": "ball", "center": [0.0, 0.0], "radius": radius}]}


def point(coords, dimension=2):
    return {"dimension": dimension, "primitives": [{"type": "point", "coords": coords}]}


# Values that were once read as numbers (2.7 as 2, "2" as 2, true as 1) or
# escaped as a TypeError traceback with exit 1.
NOT_NUMBERS = {
    "dimension-2.7": ({"set": {**TWO_POINTS, "dimension": 2.7}}, "set: dimension must be 1, 2 or 3, got 2.7"),
    "dimension-string": ({"set": {**TWO_POINTS, "dimension": "2"}}, "set: dimension must be a number, got '2'"),
    "dimension-true": ({"set": point([0.0], dimension=True)}, "set: dimension must be a number, got True"),
    "dimension-null": ({"set": {**TWO_POINTS, "dimension": None}}, "set: dimension must be a number, got None"),
    "radius-string": ({"set": ball("1.5")}, "set: primitives[0]: ball radius must be a number, got '1.5'"),
    "radius-true": ({"set": ball(True)}, "set: primitives[0]: ball radius must be a number, got True"),
    "radius-null": ({"set": ball(None)}, "set: primitives[0]: ball radius must be a number, got None"),
    "radius-list": ({"set": ball([1])}, "set: primitives[0]: ball radius must be a number, got [1]"),
    "coords-strings": ({"set": point(["1", "2"])}, "set: primitives[0]: point coords must be a vector of numbers"),
    "coords-booleans": ({"set": point([True, False])}, "set: primitives[0]: point coords must be a vector of numbers"),
    "coords-object": ({"set": point({"x": 1})}, "set: primitives[0]: point coords must be a vector of numbers"),
    "coords-ragged": ({"set": point([[1.0], [1.0, 2.0]])}, "set: primitives[0]: point coords must be a vector of numbers"),
    "coords-huge": ({"set": point([10**400, 0])}, "set: primitives[0]: point coords must be a vector of numbers"),
    "window-strings": (
        {"set": TWO_POINTS, "window": {"lower": ["-2", "-2"], "upper": [2.0, 2.0]}},
        "window: window lower corner must be a vector of numbers",
    ),
    "window-object": (
        {"set": TWO_POINTS, "window": {"lower": {"x": 1}, "upper": [2.0, 2.0]}},
        "window: window lower corner must be a vector of numbers",
    ),
}


@pytest.mark.parametrize("document, message", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_a_non_number_in_a_set_or_window_exits_2_through_main(document, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**document, "grid_resolution": 17}))
    report = tmp_path / "report.json"
    assert main(["verify", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not report.exists()


def test_configs_compare_without_comparing_arrays():
    config = parse_config({"set": TWO_POINTS})
    assert config == config and config != parse_config({"set": TWO_POINTS})


FIXTURES = Path(__file__).parent / "fixtures"


def run_main(command, document, tmp_path):
    """Exit code, stderr and whether a report was written, for one config document."""
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(document))
    argv = [command, str(config), "--output", str(report)]
    if command != "cover":
        argv += ["--csv", str(tmp_path / "table.csv")]
    return main(argv), report.exists()


# bound / step is infinite: SlopeLattice.max_index once raised OverflowError, exit 1.
@pytest.mark.parametrize("command", ["verify", "cover"])
def test_a_lattice_whose_bound_over_step_overflows_exits_2_without_a_report(command, tmp_path, capsys):
    document = {"set": str(FIXTURES / "two_point_set.json"), "grid_resolution": 16, "lattice": {"step": 1e-300, "bound": 1e300}}
    assert run_main(command, document, tmp_path) == (EXIT_CONFIG, False)
    assert capsys.readouterr().err == "config error: lattice: lattice bound / step overflows: 1e+300 / 1e-300\n"


@pytest.mark.parametrize("command, expected", [("verify", 0), ("cover", EXIT_BUDGET)])
def test_a_lattice_of_tiny_steps_under_a_finite_bound_is_accepted(command, expected, tmp_path, capsys):
    document = {"set": str(FIXTURES / "two_point_set.json"), "grid_resolution": 16, "lattice": {"step": 1e-300, "bound": 64.0}}
    assert run_main(command, document, tmp_path) == (expected, expected == 0)


# 10^7 nodes per axis in 3-D is 10^21 nodes, beyond the intp range; Window.grid_points
# once raised "broadcast dimensions too large", exit 1.  Sizes between that limit and
# the machine's memory are not tried: they allocate.
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_grid_with_more_nodes_than_an_array_can_index_exits_2_without_a_report(command, tmp_path, capsys):
    document = {"set": str(FIXTURES / "shells_set.json"), "grid_resolution": 10_000_000}
    assert run_main(command, document, tmp_path) == (EXIT_CONFIG, False)
    limit = np.iinfo(np.intp).max
    expected = f"config error: grid_resolution: too large: 10000000^3 grid nodes exceed {limit}, the most an array can index\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "table.csv").exists()


def records(*entries, dimension=2):
    return {"dimension": dimension, "primitives": [{"type": "point", "coords": [0.0, 0.0]}, *entries]}


# One bad record of a set per case, always the second, and the exact line it
# prints.  The fields of every record are checked first, in record order, then
# the set's dimension, then each record's dimension and the 1-D polygon rule.
BAD_RECORDS = {
    "type-unknown": (records({"type": "blob"}), "primitives[1]: unknown primitive type 'blob'"),
    "type-list": (records({"type": ["point"]}), "primitives[1]: unknown primitive type ['point']"),
    "type-dict": (records({"type": {"point": 1}}), "primitives[1]: unknown primitive type {'point': 1}"),
    "type-int": (records({"type": 3}), "primitives[1]: unknown primitive type 3"),
    "type-missing": (records({"coords": [1.0, 0.0]}), "primitives[1]: each primitive needs a 'type' field"),
    "not-an-object": (records([1.0, 0.0]), "primitives[1]: each primitive needs a 'type' field"),
    "missing-field": (records({"type": "ball", "center": [1.0, 0.0]}), "primitives[1]: missing field 'radius' for type 'ball'"),
    # Every field is looked up before any is checked.
    "missing-field-after-a-bad-one": (
        records({"type": "segment", "a": "x"}),
        "primitives[1]: missing field 'b' for type 'segment'",
    ),
    "polygon-no-coordinates": (
        records({"type": "polygon", "vertices": [[], [], []]}),
        "primitives[1]: polygon vertices must have coordinates, got [[], [], []]",
    ),
    "polygon-1d": (
        {"dimension": 1, "primitives": [{"type": "point", "coords": [0.0]}, {"type": "polygon", "vertices": [[0.0], [1.0], [2.0]]}]},
        "primitives[1]: polygon boundary needs dimension >= 2",
    ),
    "dimension-mismatch": (
        records({"type": "point", "coords": [1.0, 0.0, 0.0]}),
        "primitives[1]: dimension 3 does not match set dimension 2",
    ),
    "set-dimension-before-record-dimension": (
        records({"type": "point", "coords": [1.0, 0.0, 0.0]}, dimension=4),
        "dimension must be 1, 2 or 3, got 4",
    ),
    "record-fields-before-set-dimension": (
        records({"type": "segment", "a": [1.0, 0.0], "b": [1.0, 0.0]}, dimension=4),
        "primitives[1]: segment endpoints must be distinct",
    ),
}


@pytest.mark.parametrize("document, message", list(BAD_RECORDS.values()), ids=list(BAD_RECORDS))
def test_each_bad_set_record_prints_its_own_line_and_exits_2(document, message, tmp_path, capsys):
    assert run_main("verify", {"set": document, "grid_resolution": 16}, tmp_path) == (EXIT_CONFIG, False)
    assert capsys.readouterr().err == f"config error: set: {message}\n"
    assert not (tmp_path / "table.csv").exists()


# 10^19 rest nodes per axis in 2-D is beyond the intp range; np.linspace once
# raised "Maximum allowed size exceeded", exit 1.
def test_a_rest_grid_with_more_nodes_than_an_array_can_index_exits_2_without_a_report(tmp_path, capsys):
    document = {"set": str(FIXTURES / "two_point_set.json"), "grid_resolution": 16, "cover": {"rest_resolution": 10**19}}
    assert run_main("cover", document, tmp_path) == (EXIT_CONFIG, False)
    limit = np.iinfo(np.intp).max
    message = f"too large: {10**19}^1 rest nodes exceed {limit}, the most an array can index"
    assert capsys.readouterr().err == f"config error: cover.rest_resolution: {message}\n"


# 10^10 per axis in 3-D is 10^20 rest nodes; a command once began by allocating
# one axis of 10^10 ticks, so this size is only parsed, never run.
def test_a_3d_rest_grid_beyond_the_intp_range_is_refused_when_parsed():
    document = {"set": str(FIXTURES / "shells_set.json"), "cover": {"rest_resolution": 10**10}}
    with pytest.raises(ConfigError) as info:
        parse_config(document)
    limit = np.iinfo(np.intp).max
    assert str(info.value) == f"cover.rest_resolution: too large: 10000000000^2 rest nodes exceed {limit}, the most an array can index"
    assert parse_config({**document, "cover": {"rest_resolution": 3 * 10**9}}).cover_rest_resolution == 3 * 10**9
