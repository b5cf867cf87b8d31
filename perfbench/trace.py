"""Spans around the program's layers, recorded from the benchmark's process.

``Tracer.install`` replaces each traced function at every module attribute
that holds it (``verify`` binds ``nearest_points``, ``fields`` binds
``distance``, ``cli`` binds ``detect_ambiguous``, ...) and each traced method
on its class, and ``uninstall`` puts the originals back.  No file of the
program changes.  A target that a refactor renamed or removed is listed in
``Tracer.absent`` instead of failing the run.

Each span adds its duration to its key's inclusive time (outermost span of a
key only, so recursion is not counted twice) and its duration minus the
time of its child spans to the key's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(x) -> int:
    """Query points in a coordinate array of shape (..., n)."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# (module, attribute path, span key, index of the query-point argument or None)
TARGETS = [
    *[
        ("medialcover.geometry", f"{cls}.{method}", "geometry", 1)
        for cls in ("Point", "Segment", "PolygonBoundary", "Ball")
        for method in ("distance", "project", "nearest", "tie_candidate")
    ],
    ("medialcover.distance", "distance", "distance.distance", 1),
    ("medialcover.distance", "nearest_points", "distance.nearest_points", None),
    ("medialcover.distance", "grid_sweep", "distance.grid_sweep", None),
    ("medialcover.fields", "ScalarField.__call__", "fields", 1),
    ("medialcover.convex", "marginal_inf", "convex.marginal_inf", None),
    ("medialcover.convex", "nondiff_witness", "convex.nondiff_witness", None),
    ("medialcover.cover", "CcGraph.marginal_values", "cover.marginal_values", None),
    ("medialcover.cover", "cover_family_to_dict", "cover.cover_family_to_dict", None),
    ("medialcover.verify", "detect_ambiguous", "verify.detect_ambiguous", None),
    ("medialcover.verify", "certify_cover", "verify.certify_cover", None),
    ("medialcover.config", "load_config", "config.load_config", None),
    ("medialcover.cli", "main", "cli", None),
]


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh scope, such as one CLI command."""
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # named events: via.<module>.<name>, repeats, ...
        self._stack: list[list] = []  # [key, start, child seconds, field evals at start]
        self._depth: Counter = Counter()
        self._marginal_queries: set = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, key: str) -> list:
        self._depth[key] += 1
        frame = [key, time.perf_counter(), 0.0, self.calls["fields"]]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        key, start, child, _ = frame
        duration = time.perf_counter() - start
        self._stack.pop()
        self.calls[key] += 1
        self.self_s[key] += duration - child
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.total_s[key] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _observe(self, key: str, args, result, frame) -> None:
        """Counts that need the arguments or the result of a call."""
        if key == "convex.marginal_inf" and len(args) >= 4:
            field, axis, slope, x_rest = args[:4]
            query = (id(field), axis, slope, np.asarray(x_rest, dtype=float).tobytes())
            if query in self._marginal_queries:
                self.counts["convex.marginal_inf.repeats"] += 1
            self._marginal_queries.add(query)
            self.counts["convex.marginal_inf.evals"] += self.calls["fields"] - frame[3]
        elif key == "convex.nondiff_witness" and result is None:
            self.counts["convex.nondiff_witness.none"] += 1
        elif key == "verify.detect_ambiguous":
            self.counts["verify.detect_ambiguous.samples"] += len(result)

    def _wrap(self, fn, key: str, via: str | None, rows_arg: int | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if via is not None:
                tracer.counts[via] += 1
            if rows_arg is not None and len(args) > rows_arg:
                tracer.rows[key] += _rows(args[rows_arg])
            frame = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(key, args, result, frame)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("medialcover.")]
        for module_name, path, key, rows_arg in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if outer:  # a method: one patch on its class covers every caller
                self._patch(owner, attr, self._wrap(original, key, None, rows_arg))
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    short = module.__name__.rsplit(".", 1)[1]
                    via = None if module is owner else f"via.{short}.{attr}"
                    self._patch(module, attr, self._wrap(original, key, via, rows_arg))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
