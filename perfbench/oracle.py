"""Exact branch oracle for detected samples, independent of ``medialcover``.

It reads the set as the JSON primitive list of a scenario config and uses
only NumPy, so a change to the program's geometry or tie logic cannot change
its verdicts.  Every primitive contributes its nearest points as candidates:
a point site itself, the foot on each segment (a polygon loop counts as its
edges, each taken as a segment), and the radial foot on each shell.  At the
exact centre of a shell of positive radius the whole shell is nearest, which
counts as infinitely many candidates.
"""

from __future__ import annotations

import numpy as np


def _segments(primitive: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    if primitive["type"] == "segment":
        return [(np.asarray(primitive["a"], float), np.asarray(primitive["b"], float))]
    vertices = np.asarray(primitive["vertices"], float)
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def _candidates(primitives: list[dict], x: np.ndarray) -> list[tuple[float, np.ndarray | None]]:
    """(distance, nearest point) per branch; ``None`` marks a whole shell."""
    out = []
    for p in primitives:
        kind = p["type"]
        if kind == "point":
            q = np.asarray(p["coords"], float)
            out.append((float(np.linalg.norm(x - q)), q))
        elif kind in ("segment", "polygon"):
            for a, b in _segments(p):
                d = b - a
                t = min(max(float((x - a) @ d / (d @ d)), 0.0), 1.0)
                q = a + t * d
                out.append((float(np.linalg.norm(x - q)), q))
        elif kind == "ball":
            c = np.asarray(p["center"], float)
            r = float(p["radius"])
            u = x - c
            rho = float(np.linalg.norm(u))
            if rho == 0.0:
                out.append((r, None if r > 0.0 else c))
            else:
                out.append((abs(rho - r), c + (r / rho) * u))
        else:
            raise ValueError(f"unknown primitive type {kind!r}")
    return out


def is_ambiguous(primitives: list[dict], x, tie: float, separation: float) -> bool:
    """Two candidates within ``tie`` of the minimum distance, more than ``separation`` apart."""
    cands = _candidates(primitives, np.asarray(x, float))
    dmin = min(d for d, _ in cands)
    if dmin <= tie:  # on the set itself
        return False
    near = [q for d, q in cands if d <= dmin + tie]
    if any(q is None for q in near):
        return True
    return any(np.linalg.norm(near[i] - near[j]) > separation for i in range(len(near)) for j in range(i))
