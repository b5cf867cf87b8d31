"""Scenario-driven command line with three commands: analyze | cover | verify.

Each subcommand takes one JSON scenario config; flags only override output
paths, the seed, and the unresolved-sample policy.  The seed is provenance:
every report records it, and no computation reads it.  A command takes only
the path flags of the files it writes: ``--csv`` for analyze and verify,
``--svg`` for verify; argparse refuses any other with exit code 2.
``cover`` enumerates the graphs of every axis and lattice pair, and
``verify`` passes when each resolved sample lies within 1e-6 of its graph.

``main`` merges the flags into the config once: ``--seed`` replaces the
config's seed, and ``--output``, ``--csv`` and ``--svg`` replace its
``outputs.report``, ``outputs.csv`` and ``outputs.svg``.  A command then
reads every path from ``config.outputs``, writes its own CSV or SVG, and
returns its part of the report with its exit code.  ``main`` stamps the
report with the tool version, the seed, a digest of the config document and
the command name, and writes it last: to ``outputs.report``, or else to
stdout.  So a run that fails to write a table or an overlay leaves no
report.  Reports are serialized deterministically (sorted keys, fixed float
repr), so identical runs produce byte-identical files.

Exit codes, also listed by ``medialcover --help``:

  0  success
  1  coverage failure
  2  config error
  3  I/O error
  4  cover-family budget exceeded
  5  convexity failure: a marginal infimum does not close and no report is written
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, config_digest, load_config
from .convex import CoercivityError, nondiff_witnesses
from .cover import FamilyBudgetError, cover_family_to_dict, enumerate_cover
from .distance import TIE_TOLERANCE, Classification, grid_sweep, write_grid_csv
from .fields import asplund_lift, named_field, strongify
from .verify import certify_cover, detect_ambiguous, write_overlay_svg, write_samples_csv

EXIT_OK = 0
EXIT_COVERAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_NONCONVEX = 5
# The meaning of each exit code, listed by ``--help`` and in the module docstring.
_EXIT_MEANINGS = {
    EXIT_OK: "success",
    EXIT_COVERAGE: "coverage failure",
    EXIT_CONFIG: "config error",
    EXIT_IO: "I/O error",
    EXIT_BUDGET: "cover-family budget exceeded",
    EXIT_NONCONVEX: "convexity failure: a marginal infimum does not close and no report is written",
}


def _envelope(raw_config: dict, seed: int, command: str) -> dict:
    return {
        "tool": "medialcover",
        "version": __version__,
        "seed": seed,
        "config_sha256": config_digest(raw_config),
        "command": command,
    }


def _emit_json(document: dict, path: str | None) -> None:
    text = json.dumps(document, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# Config field names of the lift of the config's own set.
_LIFT_NAMES = (None, "asplund", "asplund:set")


def _field(config: ScenarioConfig):
    """The config's field: the strongly convex lift of its set, or an analytic field by name."""
    name = config.field_name
    if name in _LIFT_NAMES:
        if config.set_spec is None:
            needs = "required when no set is given" if name is None else f"field {name!r} needs a set description"
            raise ConfigError(f"field: {needs}")
        return asplund_lift(config.set_spec)
    try:
        return named_field(name, config.dimension)
    except ValueError as exc:
        raise ConfigError(f"field: {exc}") from None


def _samples(config: ScenarioConfig) -> np.ndarray:
    """The ambiguous samples, with their feet, that the config's detection grid finds on its set.

    Detection uses the method's constant tolerances: ``distance.TIE_TOLERANCE``,
    ``distance.SEPARATION`` and ``verify.REFINE_TOL``.
    """
    return detect_ambiguous(config.set_spec, config.window, config.grid_resolution)


def _require_resolved_distances(config: ScenarioConfig) -> None:
    """Refuse a set so far from the window that doubles near its distances there lie more than the tie tolerance apart.

    Distance is 1-Lipschitz, so no point of the window lies farther from the
    set than its centre does plus its half-diagonal.  Past that, rounding
    makes rows tie that do not, and a sweep would call every node ambiguous.
    """
    centre = (config.window.lower + config.window.upper) / 2
    reach = float(config.set_spec.row_distances(centre[None]).min() + np.linalg.norm(config.window.extent) / 2)
    gap = float(np.spacing(reach))
    if gap > TIE_TOLERANCE:
        message = f"distances there reach {reach:g}, where doubles lie {gap:g} apart, more than the tie tolerance {TIE_TOLERANCE:g}"
        raise ConfigError(f"set: too far from the window: {message}")


def _cmd_analyze(config: ScenarioConfig) -> tuple[dict, int]:
    if config.set_spec is None:
        raise ConfigError("set: the analyze command needs a set description")
    _require_resolved_distances(config)
    sweep = grid_sweep(config.set_spec, config.window, config.grid_resolution)
    csv_path = config.outputs.get("csv", "analyze_grid.csv")
    write_grid_csv(sweep, csv_path)
    counts = np.bincount(sweep.classes, minlength=len(Classification)).tolist()
    tally = {cls.value: k for cls, k in zip(Classification, counts)}
    return {"rows": len(sweep.classes), "classification_counts": tally, "csv": str(csv_path)}, EXIT_OK


def _cmd_cover(config: ScenarioConfig) -> tuple[dict, int]:
    field = _field(config)
    # The feet give witnesses of the set's lift only.
    if config.set_spec is not None and config.field_name not in _LIFT_NAMES:
        raise ConfigError(f"field: {config.field_name!r} is not the lift of the config's set, whose witnesses cover counts")
    lift = strongify(field) if config.set_spec is None else field
    family = enumerate_cover(config.dimension, config.lattice, config.cover_cap)
    graphs = cover_family_to_dict(lift, family, config.window, config.cover_rest_resolution)

    witness_counts = Counter()
    if config.set_spec is not None:
        witness_counts.update(w for w in nondiff_witnesses(_samples(config), config.lattice) if w is not None)
    for entry, graph in zip(graphs, family):
        entry["witness_points"] = witness_counts[graph]

    lattice = {"step": config.lattice.step, "bound": config.lattice.bound}
    return {"provenance": lift.tag, "graph_count": len(graphs), "lattice": lattice, "graphs": graphs}, EXIT_OK


def _cmd_verify(config: ScenarioConfig, allow_unresolved: bool) -> tuple[dict, int]:
    if config.set_spec is None:
        raise ConfigError("set: the verify command needs a set description")
    svg_path = config.outputs.get("svg")
    if svg_path and config.dimension != 2:
        raise ConfigError(f"svg: the SVG overlay needs a 2-D set, got dimension {config.dimension}")
    report = certify_cover(
        config.set_spec,
        _samples(config),
        config.lattice,
        fault_offset=config.fault_offset,
    )
    rows = [r["point"] for r in report["records"]] + report["unresolved_points"]
    points = np.array(rows, dtype=float).reshape(-1, config.dimension)
    csv_path = config.outputs.get("csv")
    if csv_path:
        write_samples_csv(points, csv_path)
    if svg_path:
        write_overlay_svg(config.set_spec, config.window, points, svg_path)

    covered = report["pass"] and (allow_unresolved or not report["unresolved"])
    return {"report": report}, EXIT_OK if covered else EXIT_COVERAGE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "cover": _cmd_cover,
    "verify": _cmd_verify,
}
# Each path flag and the key of ``config.outputs`` that it overrides.
_PATH_FLAGS = {"output": "report", "csv": "csv", "svg": "svg"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medialcover",
        description="Distance fields, ambiguous loci, and covering graphs",
        epilog="exit codes:\n" + "\n".join(f"  {code}  {meaning}" for code, meaning in _EXIT_MEANINGS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "distance-field grid sweep to CSV"),
        ("cover", "enumerate covering graphs and export them as JSON"),
        ("verify", "certify that covering graphs pass through the detected ambiguous locus"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the scenario config JSON")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        if name in ("analyze", "verify"):
            p.add_argument("--csv", help="override the CSV output path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "verify":
            p.add_argument("--svg", help="override the SVG overlay path")
            p.add_argument("--allow-unresolved", action="store_true", help="do not fail on unresolved samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {args.seed}")
        config, raw = load_config(args.config)
        paths = {key: getattr(args, flag) for flag, key in _PATH_FLAGS.items() if getattr(args, flag, None)}
        seed = config.seed if args.seed is None else args.seed
        config = dataclasses.replace(config, seed=seed, outputs={**config.outputs, **paths})
        policy = {"allow_unresolved": args.allow_unresolved} if args.command == "verify" else {}
        document, code = _COMMANDS[args.command](config, **policy)
        _emit_json({**_envelope(raw, seed, args.command), **document}, config.outputs.get("report"))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FamilyBudgetError as exc:
        print(f"family budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CoercivityError as exc:
        print(f"convexity failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVEX
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
