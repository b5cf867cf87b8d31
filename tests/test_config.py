"""Malformed scenario configs: each names its offending field and exits 2."""

import json

import pytest

from medialcover.cli import EXIT_CONFIG, main
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
    ("tolerances.tie", {"tolerances": {"tie": 0.0}}),
    ("tolerances.tie", {"tolerances": {"tie": -1e-9}}),
    ("cover.axes", {"cover": {"axes": [2]}}),
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
    config.write_text(json.dumps({"set": TWO_POINTS, "tolerances": {"tie": 0.0}}))
    report = tmp_path / "report.json"
    assert main(["verify", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: tolerances.tie:")
    assert not report.exists()


# Python's json parses NaN and Infinity, so these are written as raw JSON text.
NON_FINITE = [
    ("lattice.step", '"lattice": {"step": NaN}'),
    ("cover.cap", '"cover": {"cap": Infinity}'),
    ("tolerances.tie", '"tolerances": {"tie": NaN}'),
]


@pytest.mark.parametrize("name, member", NON_FINITE, ids=[name for name, _ in NON_FINITE])
def test_non_finite_number_exits_2_through_main(name, member, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"set": {json.dumps(TWO_POINTS)}, "grid_resolution": 17, {member}}}')
    report, table = tmp_path / "report.json", tmp_path / "grid.csv"
    assert main(["analyze", str(config), "--output", str(report), "--csv", str(table)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name}: must be finite, got ")
    assert not report.exists() and not table.exists()


# Counts that were once truncated to an integer, and an axis list that once meant every axis.
NOT_A_COUNT = [
    ("cover.rest_resolution", {"cover": {"rest_resolution": 2.5}}, "must be an integer"),
    ("cover.cap", {"cover": {"cap": 6.7}}, "must be an integer"),
    ("decompose.samples", {"decompose": {"samples": 10.9}}, "must be an integer"),
    ("cover.axes", {"cover": {"axes": []}}, "expected a non-empty list"),
]


@pytest.mark.parametrize("name, patch, message", NOT_A_COUNT, ids=[name for name, _, _ in NOT_A_COUNT])
def test_fractional_count_or_empty_axes_exits_2_through_main(name, patch, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, **patch}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name}: {message}")
    assert not report.exists()


# A repeated axis once listed its graphs twice and credited every witness to
# the second copy; JSON true once passed as axis 1.
BAD_AXES = {"repeated": [0, 0], "repeated-apart": [1, 0, 1], "true": [True], "false-and-1": [False, 1]}


@pytest.mark.parametrize("axes", list(BAD_AXES.values()), ids=list(BAD_AXES))
def test_repeated_or_boolean_axis_exits_2_through_main(axes, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"set": TWO_POINTS, "grid_resolution": 17, "cover": {"axes": axes}}))
    report = tmp_path / "report.json"
    assert main(["cover", str(config), "--output", str(report)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cover.axes: expected a non-empty list of distinct axis")
    assert not report.exists()


def test_distinct_axes_in_any_order_are_accepted():
    assert parse_config({"set": TWO_POINTS, "cover": {"axes": [1, 0]}}).cover_axes == (1, 0)


# A negative seed once reached np.random.default_rng in `decompose` and
# escaped as a traceback (exit 1); the other commands only stamped it.
DOCUMENTS = {
    "decompose": {"dimension": 2, "field": "sin1", "decompose": {"samples": 20}},
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


# Finite-difference steps that the program no longer has: unknown keys are ignored.
@pytest.mark.parametrize("command", ["verify", "analyze", "cover"])
def test_removed_step_knobs_change_nothing_but_the_config_digest(command, tmp_path, capsys):
    document = {"set": TWO_POINTS, "grid_resolution": 17, "lattice": {"step": 1.0, "bound": 2.0}}
    outputs = []
    for name, tolerances in (("plain", {}), ("knobs", {"fd_step": 0.5, "partial_step": 0.25})):
        config, report, table = (tmp_path / f"{name}.{ext}" for ext in ("json", "report", "csv"))
        config.write_text(json.dumps({**document, "tolerances": tolerances, "outputs": {"csv": str(table)}}))
        assert main([command, str(config), "--output", str(report)]) == 0
        written = json.loads(report.read_text())
        assert written.pop("config_sha256")
        written.pop("csv", None)  # analyze names its CSV, whose path differs
        outputs.append((written, table.read_bytes() if table.exists() else None))
    assert outputs[0] == outputs[1]


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
