"""Scenario-driven command line with three commands: analyze | cover | verify.

Each subcommand takes one JSON scenario config.  Flags name the files a run
writes (``--output`` for the report, else stdout; ``--csv``, required by
analyze; ``--svg`` for verify) and the unresolved-sample policy
(``--allow-unresolved``); the config holds everything else, the seed
included.  argparse refuses a flag the command does not take with exit
code 2.  ``cover`` enumerates the graphs of every axis and pair of the
config's lattice, at most 64 of them.  ``verify`` certifies its samples on
the default lattice and passes when each resolved sample lies within 1e-6
of its graph.

``config.parse_config`` refuses every config that no command can run.  The
rules left here depend on the command line: no two of ``--output``,
``--csv`` and ``--svg`` may name one file, none may name the config or the
set file it names, and ``--svg`` needs a 2-D set.

A command writes its own CSV or SVG and returns its part of the report with
its exit code.  ``main`` stamps the report with the tool version, the seed
(provenance: no computation reads it), a digest of the config document and
the command name, and writes it last, so a run that fails to write a table
or an overlay leaves no report.  A report is one line of JSON in the
canonical form that ``config.config_digest`` hashes (sorted keys, no
whitespace between tokens, fixed float repr), so identical runs produce
byte-identical files; ``python -m json.tool REPORT.json`` prints it indented.

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
import functools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, config_digest, load_config
from .convex import CoercivityError, asplund_lift, nondiff_witnesses
from .cover import FamilyBudgetError, cover_family_to_dict, enumerate_cover
from .distance import Classification, grid_sweep, write_grid_csv, write_samples_csv
from .verify import certify_cover, detect_ambiguous, write_overlay_svg

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
    # No indent: with one, ``json`` falls back from its C encoder to the pure-Python one.
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_analyze(config: ScenarioConfig, args: argparse.Namespace) -> tuple[dict, int]:
    sweep = grid_sweep(config.set_spec, config.window, config.grid_resolution)
    write_grid_csv(sweep, args.csv)
    counts = np.bincount(sweep.classes, minlength=len(Classification)).tolist()
    tally = {cls.value: k for cls, k in zip(Classification, counts)}
    return {"rows": len(sweep.classes), "classification_counts": tally, "csv": args.csv}, EXIT_OK


def _cmd_cover(config: ScenarioConfig, args: argparse.Namespace) -> tuple[dict, int]:
    family = enumerate_cover(config.set_spec.dimension, config.lattice)
    graphs = cover_family_to_dict(asplund_lift(config.set_spec), family, config.window, config.cover_rest_resolution)

    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    witness_counts = Counter(w for w in nondiff_witnesses(found, config.lattice) if w is not None)
    for entry, graph in zip(graphs, family):
        entry["witness_points"] = witness_counts[graph]

    lattice = {"step": config.lattice.step, "bound": config.lattice.bound}
    return {"provenance": "asplund+sq", "graph_count": len(graphs), "lattice": lattice, "graphs": graphs}, EXIT_OK


def _cmd_verify(config: ScenarioConfig, args: argparse.Namespace) -> tuple[dict, int]:
    if args.svg and config.set_spec.dimension != 2:
        raise ConfigError(f"svg: the SVG overlay needs a 2-D set, got dimension {config.set_spec.dimension}")
    found = detect_ambiguous(config.set_spec, config.window, config.grid_resolution)
    report = certify_cover(config.set_spec, found)
    rows = [r["point"] for r in report["records"]] + report["unresolved_points"]
    points = np.array(rows, dtype=float).reshape(-1, config.set_spec.dimension)
    if args.csv:
        write_samples_csv(points, args.csv)
    if args.svg:
        write_overlay_svg(config.set_spec, config.window, points, args.svg)

    covered = report["pass"] and (args.allow_unresolved or not report["unresolved"])
    return {"report": report}, EXIT_OK if covered else EXIT_COVERAGE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "cover": _cmd_cover,
    "verify": _cmd_verify,
}


def _check_distinct_paths(args: argparse.Namespace, raw_config: dict) -> None:
    """Refuse a path flag that names an input of the run or the file of another flag, which a write would overwrite."""
    config_path = Path(args.config)
    named = {config_path.resolve(): "the config"}
    if isinstance(raw_config["set"], str):
        # ``/`` keeps an absolute set path and takes a relative one from the config's directory, as the config loader does.
        named[(config_path.parent / raw_config["set"]).resolve()] = "the set file"
    for flag in ("output", "csv", "svg"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        resolved = Path(path).resolve()
        if resolved in named:
            raise ConfigError(f"--{flag}: names the same file as {named[resolved]}: {resolved}")
        named[resolved] = f"--{flag}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged, so every ``main`` call reuses it."""
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
        if name == "analyze":
            p.add_argument("--csv", required=True, help="write the grid CSV here (required)")
        if name == "verify":
            p.add_argument("--csv", help="write the sample CSV here")
            p.add_argument("--svg", help="write the SVG overlay of a 2-D set here")
            p.add_argument("--allow-unresolved", action="store_true", help="do not fail on unresolved samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, raw = load_config(args.config)
        _check_distinct_paths(args, raw)
        document, code = _COMMANDS[args.command](config, args)
        _emit_json({**_envelope(raw, config.seed, args.command), **document}, args.output)
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
