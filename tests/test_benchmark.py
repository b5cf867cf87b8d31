"""The benchmark's contract with the program: a short run passes its gates and reports every declared metric.

The benchmark drives ``medialcover`` through its Python API, so a change to
the package can break it without any other test failing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# A timed run reports the end-to-end metrics; a traced run the per-layer ones.
# The timed run goes through the gates of every workload, the 3-D `analyze`
# grid table included; the traced run uses polygon2d alone.
RUNS = [
    (0, "end_to_end", "polygon2d"),
    (1, "per_layer", "polygon2d"),
    (0, "end_to_end", "points2d"),
    (0, "end_to_end", "shells3d"),
]


@pytest.mark.parametrize(
    "trace, section, workload", RUNS, ids=["trace0", "trace1", "trace0-points2d", "trace0-shells3d"]
)
def test_a_short_run_is_correct_and_reports_every_declared_metric(trace, section, workload):
    script = BENCHMARK["command"][1:]
    argv = [sys.executable, *script, "--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert [m["name"] for m in BENCHMARK[section] if m["name"] not in result["metrics"]] == []
