"""Scenario-driven command line: analyze | cover | verify | decompose.

Each subcommand takes one JSON scenario config; flags only override output
paths, the seed, and the unresolved-sample policy.  Reports are serialized
deterministically (sorted keys, fixed float repr) and stamped with the tool
version, the seed, and a digest of the config document, so identical runs
produce byte-identical files.

Exit codes: 0 success, 1 coverage failure, 2 config error, 3 I/O error,
4 cover-family budget exceeded, 5 decomposition convexity failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, config_digest, load_config
from .convex import cc_decompose_c2, convexity_probe, nondiff_witness
from .cover import FamilyBudgetError, cover_family_to_dict, enumerate_cover
from .distance import Classification, grid_sweep, write_grid_csv
from .fields import asplund_field, named_field, strongify
from .geometry import Window
from .verify import certify_cover, detect_ambiguous, write_overlay_svg, write_samples_csv

EXIT_OK = 0
EXIT_COVERAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_NONCONVEX = 5


def _envelope(raw_config: dict, seed: int) -> dict:
    return {
        "tool": "medialcover",
        "version": __version__,
        "seed": seed,
        "config_sha256": config_digest(raw_config),
    }


def _emit_json(document: dict, path: str | None) -> None:
    text = json.dumps(document, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _base_field(config: ScenarioConfig):
    """The field a cover pipeline works on, before the strongly convex lift."""
    name = config.field_name
    if name is None:
        if config.set_spec is None:
            raise ConfigError("field: required when no set is given")
        return asplund_field(config.set_spec)
    try:
        return named_field(name, config.dimension, set_spec=config.set_spec)
    except ValueError as exc:
        raise ConfigError(f"field: {exc}") from None


def _cmd_analyze(config: ScenarioConfig, raw: dict, args) -> int:
    if config.set_spec is None:
        raise ConfigError("set: the analyze command needs a set description")
    sweep = grid_sweep(
        config.set_spec,
        config.window,
        config.grid_resolution,
        step=config.fd_step,
        tie_tolerance=config.tie_tolerance,
        separation=config.separation,
    )
    csv_path = args.csv or config.outputs.get("csv", "analyze_grid.csv")
    write_grid_csv(sweep, csv_path)
    tally = {cls.value: 0 for cls in Classification}
    for cls in sweep.classifications:
        tally[cls.value] += 1
    summary = _envelope(raw, args.seed if args.seed is not None else config.seed)
    summary.update({"command": "analyze", "rows": len(sweep.classifications), "classification_counts": tally, "csv": str(csv_path)})
    _emit_json(summary, args.output)
    return EXIT_OK


def _cmd_cover(config: ScenarioConfig, raw: dict, args) -> int:
    base = _base_field(config)
    lift = strongify(base)
    family = enumerate_cover(lift, config.cover_axes or range(config.dimension), config.lattice, config.cover_cap)

    rest_nodes = _rest_grid(config.window, config.cover_rest_resolution, config.dimension)
    graphs = cover_family_to_dict(family, rest_nodes)

    witness_counts = [0] * len(graphs)
    if config.set_spec is not None:
        samples = detect_ambiguous(
            config.set_spec,
            config.window,
            config.grid_resolution,
            tie_tolerance=config.tie_tolerance,
            separation=config.separation,
            jump_fraction=config.jump_fraction,
            refine_tol=config.refine_tol,
        )
        index = {(g.axis, g.alpha, g.beta): k for k, g in enumerate(family.graphs)}
        for point in samples:
            witness = nondiff_witness(lift, point, config.lattice, step=config.partial_step)
            if witness is not None:
                k = index.get((witness.axis, witness.alpha, witness.beta))
                if k is not None:
                    witness_counts[k] += 1
    for entry, count in zip(graphs, witness_counts):
        entry["witness_points"] = count

    document = _envelope(raw, args.seed if args.seed is not None else config.seed)
    document.update(
        {
            "command": "cover",
            "provenance": family.provenance,
            "graph_count": len(graphs),
            "lattice": {"step": config.lattice.step, "bound": config.lattice.bound},
            "graphs": graphs,
        }
    )
    _emit_json(document, args.output or config.outputs.get("report"))
    return EXIT_OK


def _rest_grid(window: Window, resolution: int, dimension: int) -> np.ndarray:
    if dimension == 1:
        return np.empty((1, 0))
    rest = Window(window.lower[1:], window.upper[1:])
    return rest.grid_points(resolution)


def _cmd_verify(config: ScenarioConfig, raw: dict, args) -> int:
    if config.set_spec is None:
        raise ConfigError("set: the verify command needs a set description")
    report = certify_cover(
        config.set_spec,
        config.window,
        config.grid_resolution,
        config.lattice,
        coverage_tolerance=config.coverage_tolerance,
        tie_tolerance=config.tie_tolerance,
        separation=config.separation,
        jump_fraction=config.jump_fraction,
        refine_tol=config.refine_tol,
        partial_step=config.partial_step,
        fault_offset=config.fault_offset,
    )
    document = _envelope(raw, args.seed if args.seed is not None else config.seed)
    document.update({"command": "verify", "report": report.to_dict()})
    _emit_json(document, args.output or config.outputs.get("report"))

    points = [r.point for r in report.records] + list(report.unresolved_points)
    csv_path = args.csv or config.outputs.get("csv")
    if csv_path:
        write_samples_csv(np.asarray(points) if points else np.empty((0, config.dimension)), csv_path)
    svg_path = args.svg or config.outputs.get("svg")
    if svg_path:
        write_overlay_svg(config.set_spec, config.window, np.asarray(points) if points else [], None, svg_path)

    if not report.passed:
        return EXIT_COVERAGE
    if report.unresolved and not args.allow_unresolved:
        return EXIT_COVERAGE
    return EXIT_OK


def _cmd_decompose(config: ScenarioConfig, raw: dict, args) -> int:
    if config.field_name is None:
        raise ConfigError("field: the decompose command needs an analytic field name")
    field = _base_field(config)
    if not field.smooth_c2:
        raise ConfigError(f"field: {config.field_name!r} does not have a C^2 evaluator")
    decomposition = cc_decompose_c2(field, config.decompose_radius)

    seed = args.seed if args.seed is not None else config.seed
    rng = np.random.default_rng(seed)
    radius = config.decompose_radius
    samples = _ball_samples(rng, config.dimension, radius, config.decompose_samples)
    g_vals = np.asarray(decomposition.convex_part(samples), dtype=float)
    h_vals = np.asarray(decomposition.subtracted_quadratic(samples), dtype=float)
    f_vals = np.asarray(field(samples), dtype=float)
    residuals = np.abs(g_vals - h_vals - f_vals)

    probe_window = Window([-2.0 * radius] * config.dimension, [2.0 * radius] * config.dimension)
    probe = convexity_probe(decomposition.convex_part, probe_window, num_samples=10000, seed=seed)

    document = _envelope(raw, seed)
    document.update(
        {
            "command": "decompose",
            "field": config.field_name,
            "radius": radius,
            "coefficient": decomposition.coefficient,
            "max_residual": float(residuals.max()),
            "convexity_probe": {
                "max_violation": probe.max_violation,
                "tolerance": probe.tolerance,
                "pass": probe.passed,
            },
            "table": [
                {"point": samples[k].tolist(), "g": float(g_vals[k]), "h": float(h_vals[k]), "residual": float(residuals[k])}
                for k in range(0, samples.shape[0], max(1, samples.shape[0] // 50))
            ],
        }
    )
    _emit_json(document, args.output or config.outputs.get("report"))
    return EXIT_OK if probe.passed else EXIT_NONCONVEX


def _ball_samples(rng: np.random.Generator, dimension: int, radius: float, count: int) -> np.ndarray:
    rows = []
    while len(rows) < count:
        batch = rng.uniform(-radius, radius, size=(count, dimension))
        keep = batch[np.linalg.norm(batch, axis=1) <= radius]
        rows.extend(keep.tolist())
    return np.asarray(rows[:count])


_COMMANDS = {
    "analyze": _cmd_analyze,
    "cover": _cmd_cover,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="medialcover", description="Distance fields, ambiguous loci, and covering graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "distance-field grid sweep to CSV"),
        ("cover", "enumerate covering graphs and export them as JSON"),
        ("verify", "certify that covering graphs pass through the detected ambiguous locus"),
        ("decompose", "difference-of-convex decomposition of a C^2 field"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the scenario config JSON")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--csv", help="override the CSV output path")
        p.add_argument("--svg", help="override the SVG overlay path (verify only)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "verify":
            p.add_argument("--allow-unresolved", action="store_true", help="do not fail on unresolved samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, raw = load_config(args.config)
        return _COMMANDS[args.command](config, raw, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FamilyBudgetError as exc:
        print(f"family budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
