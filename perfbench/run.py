"""Benchmark of the medialcover command line on seeded workloads.

    python3 perfbench/run.py --workload points2d --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/`` and fails, without printing a result, when that is missing.  It
writes the workload's three scenario configs, then calls ``verify``,
``analyze`` and ``cover`` through ``medialcover.cli.main`` in rounds until
``--seconds`` have passed, all in this one process.  Every call passes
through the output gates; a call that raises, exits with another code than
0 or fails a gate counts as a failed operation with its reason.

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a traced run reports its per-layer
metrics.  The first line records the run environment.  ``NOTES.md``
explains the workloads and the metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy loads: all load comes from this one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import oracle  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, sha256, write_configs  # noqa: E402

COMMANDS = ("verify", "analyze", "cover")
MIN_ROUNDS = 3  # the first round warms up and is not timed
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from medialcover.cli import main; from medialcover.config import load_config; "
    "[load_config(p) for p in sys.argv[1:]]"
)


# The probe's time when this 2-core test machine runs at its fast speed.
PROBE_REFERENCE_S = 0.010


def probe() -> float:
    """Seconds for a fixed loop of small NumPy calls and float-to-text conversions.

    The test machine switches between two speeds every few seconds to every
    minute, and a slow spell makes every call 1.3 to 2 times slower.  Each
    timing is therefore divided by the mean of a probe just before and just
    after it, and reported in seconds at the speed where the probe takes
    PROBE_REFERENCE_S.
    """
    x, c = np.array([[0.3, 0.2]]), np.array([1.0, -1.0])
    start = time.perf_counter()
    for i in range(1500):
        v = float(np.linalg.norm(x - c, axis=1)[0])
        ",".join([repr(v * 1.1), repr(v * 1.3), repr(v + i)])
    return time.perf_counter() - start


def timed(run) -> tuple[object, float, float]:
    """``run()``'s result or the exception it raised, its wall time, and that time scaled."""
    before = probe()
    start = time.perf_counter()
    try:
        result = run()
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a harness error
        result = exc
    wall = time.perf_counter() - start
    return result, wall, wall * 2.0 * PROBE_REFERENCE_S / (before + probe())


class GateError(Exception):
    """An output broke a promise of the program."""


def import_program():
    """Import ``medialcover`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import medialcover.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import medialcover from {src}: {exc}")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: medialcover was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Call:
    """One command call and what its gates found."""

    command: str
    seconds: float
    scaled_s: float
    failure: str | None = None
    report: dict | None = None
    report_bytes: int = 0
    csv_bytes: int = 0


@dataclass
class Session:
    """Runs the three commands on one workload instance and gates every output."""

    cli: object
    workload: Workload
    configs: dict
    outdir: Path
    digests: dict = field(default_factory=dict)
    calls: list = field(default_factory=list)

    def call(self, command: str) -> Call:
        report_path = self.outdir / f"{command}.report.json"
        csv_path = self.outdir / f"{command}.csv"
        argv = [command, str(self.configs[command]), "--output", str(report_path)]
        if command == "analyze":
            argv += ["--csv", str(csv_path)]
        if command == "verify":
            argv.append("--allow-unresolved")
        report_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
        code, wall, scaled_s = timed(lambda: self.cli.main(argv))
        result = Call(command, wall, scaled_s)
        try:
            if isinstance(code, BaseException):
                raise GateError(f"raised {type(code).__name__}: {code}")
            if code != 0:
                raise GateError(f"exit {code}")
            raw = report_path.read_bytes()
            csv = csv_path.read_bytes() if command == "analyze" else b""
            result.report_bytes, result.csv_bytes = len(raw), len(csv)
            self._same_bytes(command, raw, csv)
            result.report = json.loads(raw)
            getattr(self, f"_gate_{command}")(result.report, csv)
        except (GateError, OSError, ValueError, KeyError, TypeError) as exc:
            result.failure = f"{command}: {exc}"
        self.calls.append(result)
        return result

    def first_report(self, command: str) -> dict:
        """The report of the first gated call of ``command``; empty if every call failed."""
        return next((c.report for c in self.calls if c.command == command and not c.failure), {})

    def _same_bytes(self, command: str, raw: bytes, csv: bytes) -> None:
        digest = hashlib.sha256(raw + b"\0" + csv).hexdigest()
        if self.digests.setdefault(command, digest) != digest:
            raise GateError("output bytes differ from the first call of this run")

    def _gate_verify(self, document: dict, _csv: bytes) -> None:
        report = document["report"]
        if report["max_deviation"] > report["tolerance"]:
            raise GateError(f"max_deviation {report['max_deviation']} > tolerance {report['tolerance']}")
        if not report["pass"] or report["covered"] != report["samples"] or report["samples"] != len(report["records"]):
            raise GateError("report does not certify every resolved sample")
        if report["unresolved"] != len(report["unresolved_points"]):
            raise GateError("unresolved count does not match the listed points")

    def _gate_analyze(self, document: dict, csv: bytes) -> None:
        rows = self.workload.analyze_resolution**self.workload.dimension
        if document["rows"] != rows or sum(document["classification_counts"].values()) != rows:
            raise GateError(f"expected {rows} classified rows, report has {document['rows']}")
        lines = csv.count(b"\n")
        if lines != rows + 1:
            raise GateError(f"expected {rows + 1} CSV lines, got {lines}")

    def _gate_cover(self, document: dict, _csv: bytes) -> None:
        slopes = 2 * int(self.workload.cover_bound) + 1
        graphs = self.workload.dimension * slopes * (slopes - 1) // 2
        nodes = self.workload.cover_rest_resolution ** (self.workload.dimension - 1)
        if document["graph_count"] != graphs or len(document["graphs"]) != graphs:
            raise GateError(f"expected {graphs} graphs, got {document['graph_count']}")
        for graph in document["graphs"]:
            if len(graph["grid"]) != nodes or not all(math.isfinite(row[-1]) for row in graph["grid"]):
                raise GateError(f"graph {graph['axis']}:{graph['alpha']}:{graph['beta']} has a bad grid")


def measure_setup(session: Session) -> float:
    """Median scaled time for a fresh interpreter to import the CLI and load the configs."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, session.configs.values())]
    for _ in range(SETUP_REPEATS):
        code, wall, scaled_s = timed(lambda: subprocess.run(argv, cwd=ROOT, timeout=60).returncode)
        call = Call("setup", wall, scaled_s)
        if code != 0:
            call.failure = f"setup: returned {code!r}"
        session.calls.append(call)
    return statistics.median(c.scaled_s for c in session.calls if c.command == "setup")


def sample_quality(session: Session) -> dict:
    """Oracle verdicts on the samples of the first verify report."""
    config, _ = sys.modules["medialcover.config"].load_config(session.configs["verify"])
    primitives = json.loads(session.configs["verify"].read_text())["set"]["primitives"]
    report = session.first_report("verify").get("report", {})
    resolved = [r["point"] for r in report.get("records", [])]
    unresolved = report.get("unresolved_points", [])

    def genuine(points):
        return sum(oracle.is_ambiguous(primitives, p, 10.0 * config.refine_tol, config.separation) for p in points)

    unresolved_genuine = genuine(unresolved)
    return {
        "config": config,
        "points": resolved + unresolved,
        "genuine": genuine(resolved) + unresolved_genuine,
        "unresolved": len(unresolved),
        "unresolved_genuine": unresolved_genuine,
    }


def run_rounds(seconds: float, each_round) -> None:
    """Call ``each_round`` until ``seconds`` passed and at least MIN_ROUNDS ran."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        each_round()
        rounds += 1


def end_to_end(session: Session, seconds: float) -> dict:
    def each_round():
        for command in COMMANDS:
            session.call(command)

    run_rounds(seconds, each_round)
    by_command = {c: [x for x in session.calls if x.command == c][1:] for c in COMMANDS}  # skip the warm-up
    print(json.dumps({"wall_s": {c: [x.seconds for x in calls] for c, calls in by_command.items()}}), flush=True)
    scaled_s = {c: statistics.median(x.scaled_s for x in calls) for c, calls in by_command.items()}
    quality = sample_quality(session)
    detected = len(quality["points"])
    return {
        "verify_s": scaled_s["verify"],
        "analyze_s": scaled_s["analyze"],
        "cover_s": scaled_s["cover"],
        "verify_samples_per_s": detected / scaled_s["verify"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "genuine_samples": quality["genuine"],
        "genuine_frac": quality["genuine"] / detected if detected else 0.0,
        "resolved_frac": (detected - quality["unresolved"]) / detected if detected else 0.0,
    }


def layer_metrics(tracer: Tracer, call: Call) -> dict:
    """Per-layer numbers of one traced command call, named as in BENCHMARK.json."""
    calls, rows, total, own, counts = tracer.calls, tracer.rows, tracer.total_s, tracer.self_s, tracer.counts
    marginal = calls["convex.marginal_inf"]
    return {
        "traced_s": call.seconds,
        "geometry.calls": calls["geometry"],
        "geometry.rows": rows["geometry"],
        "geometry.self_s": own["geometry"],
        "distance.distance.calls": calls["distance.distance"],
        "distance.distance.rows": rows["distance.distance"],
        "distance.nearest_points.calls": calls["distance.nearest_points"],
        "distance.nearest_points.s": total["distance.nearest_points"],
        "distance.grid_sweep.s": total["distance.grid_sweep"],
        "fields.evals": calls["fields"],
        "fields.rows": rows["fields"],
        "fields.rows_per_eval": rows["fields"] / calls["fields"] if calls["fields"] else 0.0,
        "fields.self_s": own["fields"],
        "convex.marginal_inf.calls": marginal,
        "convex.marginal_inf.s": total["convex.marginal_inf"],
        "convex.marginal_inf.evals_per_call": counts["convex.marginal_inf.evals"] / marginal if marginal else 0.0,
        "convex.nondiff_witness.calls": calls["convex.nondiff_witness"],
        "convex.nondiff_witness.none": counts["convex.nondiff_witness.none"],
        "convex.nondiff_witness.s": total["convex.nondiff_witness"],
        "cover.marginal_values.calls": calls["cover.marginal_values"],
        "cover.marginal_inf.calls": counts["via.cover.marginal_inf"],
        "cover.marginal_inf.repeat_frac": counts["convex.marginal_inf.repeats"] / marginal if marginal else 0.0,
        "cover.cover_family_to_dict.s": total["cover.cover_family_to_dict"],
        "verify.detect_ambiguous.s": total["verify.detect_ambiguous"],
        "verify.detect_ambiguous.samples": counts["verify.detect_ambiguous.samples"],
        "verify.certify_cover.self_s": own["verify.certify_cover"],
        "config.load_config.s": total["config.load_config"],
        "cli.self_s": own["cli"],
        "cli.report_bytes": call.report_bytes,
        "cli.csv_bytes": call.csv_bytes,
    }


def per_layer(session: Session, seconds: float) -> tuple[dict, list]:
    tracer = Tracer()
    rounds, untraced, traced = [], [], []  # per-layer numbers; scaled verify times

    def each_round():
        untraced.append(session.call("verify").scaled_s)
        numbers = {}
        tracer.install()
        try:
            for command in COMMANDS:
                tracer.reset()
                call = session.call(command)
                numbers[command] = layer_metrics(tracer, call)
                if command == "verify":
                    traced.append(call.scaled_s)
        finally:
            tracer.uninstall()
        rounds.append(numbers)

    run_rounds(seconds, each_round)
    del rounds[0], untraced[0], traced[0]  # warm-up
    metrics = {
        f"{command}.{name}": statistics.median(r[command][name] for r in rounds)
        for command in COMMANDS
        for name in rounds[0][command]
    }
    metrics["verify.trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    # The program's own exact query on the same samples, for comparison with the oracle.
    quality = sample_quality(session)
    config, points = quality["config"], quality["points"]
    exact = sys.modules["medialcover.distance"].nearest_points
    ambiguous = sum(
        exact(config.set_spec, p, config.tie_tolerance, config.separation).classification.value == "ambiguous"
        for p in points
    )
    metrics["verify.exact_query.ambiguous_frac"] = ambiguous / len(points) if points else 0.0
    metrics["verify.oracle.unresolved_genuine"] = quality["unresolved_genuine"]
    return metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for this process and the interpreters it starts, so that the
    # speed probes measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = import_program()
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=work_root))
    try:
        configs = write_configs(workload, args.seed, outdir)
        print(
            json.dumps(
                {
                    "environment": {
                        "nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "workload": workload.name,
                        "seed": args.seed,
                        "seconds": args.seconds,
                        "trace": args.trace,
                        "config_sha256": {c: sha256(p) for c, p in configs.items()},
                    }
                },
                sort_keys=True,
            ),
            flush=True,
        )
        session = Session(cli, workload, configs, outdir)
        absent = []
        if args.trace:
            values, absent = per_layer(session, args.seconds)
            wanted = contract["per_layer"]
        else:
            values = end_to_end(session, args.seconds)
            values["setup_s"] = measure_setup(session)
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failures = [c.failure for c in session.calls if c.failure]
    for reason in sorted(set(failures)):
        print(f"failed ({failures.count(reason)}x): {reason}", flush=True)
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}", flush=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    result = {
        "correct": not failures,
        "attempted": len(session.calls),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
