"""Closed-set descriptions, packed into one capsule form for vectorized queries.

A closed set is declared as a finite union of primitives: points, segments,
polygon boundary loops, and circle/sphere shells.  A polygon loop is only an
input form: :class:`ClosedSetSpec` expands it into its edge segments when the
set is built, so every query sees the same set whether a loop was written as
a polygon or as its edges.

The spec packs its primitives once into capsule rows: a start A, a direction
D (zero for points and shells) and a radius R (zero for points and segments).
The distance from x to a row is | |x - foot| - R |, where foot = A + t D is
the nearest point of the segment A + [0, 1] D.  ``row_distances`` evaluates
every row for a batch of query points and ``project_rows`` returns the
nearest point of one chosen row per query point; the distance field, its
projection and the tie classification in :mod:`medialcover.distance` are all
built on these two.

The per-primitive ``distance``, ``project`` and ``nearest`` methods answer
the same questions one primitive at a time; they are the reference the
packed form is checked against and the query behind ``nearest_points``.

All coordinates are double precision.  Instances are frozen and their arrays
are marked read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "PolygonBoundary",
    "Ball",
    "Primitive",
    "ClosedSetSpec",
    "Window",
]


def _frozen_array(values, name: str, shape_hint: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {values!r}")
    if arr.ndim == 0:
        raise ValueError(f"{name} must be {shape_hint}, got a scalar")
    arr.setflags(write=False)
    return arr


def _batch(x: np.ndarray, dimension: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to shape (N, dimension); report whether it was a single point."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise ValueError(f"expected points of dimension {dimension}, got shape {arr.shape}")
    return arr, single


@dataclass(frozen=True)
class Point:
    """A single point site."""

    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", _frozen_array(coords, "point coords", "a vector"))
        if self.coords.ndim != 1:
            raise ValueError("point coords must be a flat vector")

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]

    def distance(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        return np.linalg.norm(x - self.coords, axis=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        return np.broadcast_to(self.coords, x.shape).copy()

    def nearest(self, x: np.ndarray) -> tuple[list[np.ndarray], bool]:
        return [self.coords.copy()], False


@dataclass(frozen=True)
class Segment:
    """A closed line segment with distinct endpoints."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        object.__setattr__(self, "a", _frozen_array(a, "segment endpoint a", "a vector"))
        object.__setattr__(self, "b", _frozen_array(b, "segment endpoint b", "a vector"))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("segment endpoints must be vectors of equal dimension")
        if np.array_equal(self.a, self.b):
            raise ValueError("segment endpoints must be distinct")

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def _params(self, x: np.ndarray) -> np.ndarray:
        d = self.b - self.a
        t = (x - self.a) @ d / (d @ d)
        return np.clip(t, 0.0, 1.0)

    def distance(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        t = self._params(x)
        foot = self.a + t[:, None] * (self.b - self.a)
        return np.linalg.norm(x - foot, axis=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        t = self._params(x)
        return self.a + t[:, None] * (self.b - self.a)

    def nearest(self, x: np.ndarray) -> tuple[list[np.ndarray], bool]:
        # A segment is convex, so the nearest point is always unique.
        return [self.project(x)[0]], False


@dataclass(frozen=True)
class PolygonBoundary:
    """The closed boundary curve of a polygon (the 1-D edge loop, not the filled region).

    An input form only: a :class:`ClosedSetSpec` replaces it by its :meth:`edges`.
    """

    vertices: np.ndarray

    def __init__(self, vertices):
        verts = _frozen_array(vertices, "polygon vertices", "an (m, n) array")
        if verts.ndim != 2 or verts.shape[0] < 3:
            raise ValueError("polygon boundary needs at least 3 vertices")
        for i in range(verts.shape[0]):
            for j in range(i + 1, verts.shape[0]):
                if np.array_equal(verts[i], verts[j]):
                    raise ValueError(f"polygon vertices {i} and {j} coincide")
        object.__setattr__(self, "vertices", verts)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def edges(self) -> tuple[Segment, ...]:
        """The closed loop as segments: vertex k to vertex k+1, the last back to the first."""
        m = self.vertices.shape[0]
        return tuple(Segment(self.vertices[i], self.vertices[(i + 1) % m]) for i in range(m))


@dataclass(frozen=True)
class Ball:
    """The shell {x : |x - c| = r}, i.e. a circle in 2-D or a sphere in 3-D.

    Distance from a query point is ``| |x - c| - r |``.  Radius 0 degenerates
    to the center point.  Querying exactly at the center of a positive-radius
    shell is the one configuration where the nearest set is infinite (the
    whole shell); :meth:`nearest` then returns a single witness point plus an
    infinite-set flag.
    """

    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center", _frozen_array(center, "ball center", "a vector"))
        if self.center.ndim != 1:
            raise ValueError("ball center must be a flat vector")
        radius = float(radius)
        if not np.isfinite(radius) or radius < 0:
            raise ValueError(f"ball radius must be finite and >= 0, got {radius}")
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def distance(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        return np.abs(np.linalg.norm(x - self.center, axis=1) - self.radius)

    def _witness(self) -> np.ndarray:
        w = self.center.copy()
        w[0] += self.radius
        return w

    def project(self, x: np.ndarray) -> np.ndarray:
        x, _ = _batch(x, self.dimension)
        u = x - self.center
        rho = np.linalg.norm(u, axis=1)
        out = np.empty_like(x)
        degenerate = rho == 0.0
        safe = ~degenerate
        out[safe] = self.center + (self.radius / rho[safe])[:, None] * u[safe]
        out[degenerate] = self._witness()
        return out

    def nearest(self, x: np.ndarray) -> tuple[list[np.ndarray], bool]:
        if self.radius == 0.0:
            return [self.center.copy()], False
        x1, _ = _batch(x, self.dimension)
        u = x1[0] - self.center
        rho = float(np.linalg.norm(u))
        if rho == 0.0:
            return [self._witness()], True
        return [self.center + (self.radius / rho) * u], False


Primitive = Union[Point, Segment, PolygonBoundary, Ball]

# Large batches go through ``row_distances`` in blocks whose (n, M, block)
# temporaries hold about 2**14 doubles, so a grid sweep needs no more
# transient memory than one (M, N) table of distances.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class ClosedSetSpec:
    """A nonempty closed set, given as a finite union of points, segments and shells.

    Polygon loops passed in are replaced by their edge segments, in place, so
    ``primitives`` never holds a :class:`PolygonBoundary`.  The primitives are
    also packed as capsule rows, one per primitive and in the same order:
    ``starts`` (M, n), ``directions`` (M, n) and ``radii`` (M,).
    """

    primitives: tuple[Point | Segment | Ball, ...]
    dimension: int
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    directions: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, primitives, dimension: int):
        primitives = tuple(primitives)
        if not primitives:
            raise ValueError("a closed set needs at least one primitive")
        dimension = int(dimension)
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
        expanded: list[Point | Segment | Ball] = []
        for k, p in enumerate(primitives):
            if not isinstance(p, (Point, Segment, PolygonBoundary, Ball)):
                raise ValueError(f"primitives[{k}]: not a supported primitive: {p!r}")
            if p.dimension != dimension:
                raise ValueError(
                    f"primitives[{k}]: dimension {p.dimension} does not match set dimension {dimension}"
                )
            if isinstance(p, PolygonBoundary):
                if dimension < 2:
                    raise ValueError(f"primitives[{k}]: polygon boundary needs dimension >= 2")
                expanded.extend(p.edges())
            else:
                expanded.append(p)
        object.__setattr__(self, "primitives", tuple(expanded))
        object.__setattr__(self, "dimension", dimension)
        self._pack()

    def _pack(self) -> None:
        m, n = len(self.primitives), self.dimension
        starts, directions, radii = np.empty((m, n)), np.zeros((m, n)), np.zeros(m)
        for k, p in enumerate(self.primitives):
            if isinstance(p, Point):
                starts[k] = p.coords
            elif isinstance(p, Segment):
                starts[k] = p.a
                directions[k] = p.b - p.a
            else:
                starts[k] = p.center
                radii[k] = p.radius
        lengths2 = np.add.reduce(directions * directions, axis=1)
        lengths2[lengths2 == 0.0] = 1.0  # t = 0 / 1 on rows without a direction
        packed = {
            "starts": starts,
            "directions": directions,
            "radii": radii,
            # Coordinate-major (n, M, 1) copies for row_distances.
            "_starts_t": np.ascontiguousarray(starts.T[:, :, None]),
            "_directions_t": np.ascontiguousarray(directions.T[:, :, None]),
            "_lengths2": lengths2,
        }
        for name, arr in packed.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_has_segments", bool(np.any(directions)))
        object.__setattr__(self, "_has_shells", bool(np.any(radii)))
        object.__setattr__(self, "_block", max(1, _BLOCK_ELEMENTS // (m * n)))

    def row_distances(self, pts: np.ndarray) -> np.ndarray:
        """Distances (M, N) from each of N query points (N, n) to each packed row."""
        count = pts.shape[0]
        if count <= self._block:
            return self._row_block(pts)
        out = np.empty((len(self.primitives), count))
        for lo in range(0, count, self._block):
            out[:, lo : lo + self._block] = self._row_block(pts[lo : lo + self._block])
        return out

    def _row_block(self, pts: np.ndarray) -> np.ndarray:
        diff = pts.T[:, None, :] - self._starts_t  # (n, M, N): x - A
        if self._has_segments:
            t = np.add.reduce(diff * self._directions_t, axis=0)
            t /= self._lengths2[:, None]
            np.clip(t, 0.0, 1.0, out=t)
            diff -= t * self._directions_t  # x - (A + t D)
        diff *= diff
        rho = np.sqrt(np.add.reduce(diff, axis=0))
        if self._has_shells:
            rho -= self.radii[:, None]
            np.abs(rho, out=rho)
        return rho

    def project_rows(self, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The nearest point of row ``rows[k]`` to ``pts[k]``, as a (K, n) array.

        At the exact centre of a shell every shell point is nearest; the
        witness centre + R e_1 stands for all of them, as in :meth:`Ball.project`.
        """
        foot = self.starts[rows]
        if self._has_segments:
            d = self.directions[rows]
            t = np.add.reduce((pts - foot) * d, axis=1) / self._lengths2[rows]
            np.clip(t, 0.0, 1.0, out=t)
            foot += t[:, None] * d
        if self._has_shells:
            r = self.radii[rows]
            u = pts - foot
            rho = np.sqrt(np.add.reduce(u * u, axis=1))
            radial = (r > 0.0) & (rho > 0.0)
            foot[radial] += (r[radial] / rho[radial])[:, None] * u[radial]
            centre = (r > 0.0) & (rho == 0.0)
            foot[centre, 0] += r[centre]
        return foot

    @classmethod
    def from_dict(cls, data: dict) -> "ClosedSetSpec":
        if not isinstance(data, dict):
            raise ValueError("set description must be a JSON object")
        if "dimension" not in data:
            raise ValueError("set description is missing 'dimension'")
        if "primitives" not in data:
            raise ValueError("set description is missing 'primitives'")
        raw = data["primitives"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'primitives' must be a nonempty list")
        prims: list[Primitive] = []
        for k, entry in enumerate(raw):
            where = f"primitives[{k}]"
            if not isinstance(entry, dict) or "type" not in entry:
                raise ValueError(f"{where}: each primitive needs a 'type' field")
            kind = entry["type"]
            try:
                if kind == "point":
                    prims.append(Point(entry["coords"]))
                elif kind == "segment":
                    prims.append(Segment(entry["a"], entry["b"]))
                elif kind == "polygon":
                    prims.append(PolygonBoundary(entry["vertices"]))
                elif kind == "ball":
                    prims.append(Ball(entry["center"], entry["radius"]))
                else:
                    raise ValueError(f"unknown primitive type {kind!r}")
            except KeyError as exc:
                raise ValueError(f"{where}: missing field {exc.args[0]!r} for type {kind!r}") from None
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return cls(prims, data["dimension"])

    @classmethod
    def from_json(cls, text: str) -> "ClosedSetSpec":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        out = []
        for p in self.primitives:
            if isinstance(p, Point):
                out.append({"type": "point", "coords": p.coords.tolist()})
            elif isinstance(p, Segment):
                out.append({"type": "segment", "a": p.a.tolist(), "b": p.b.tolist()})
            else:
                out.append({"type": "ball", "center": p.center.tolist(), "radius": p.radius})
        return {"dimension": self.dimension, "primitives": out}


@dataclass(frozen=True)
class Window:
    """An axis-aligned box; all grid sweeps and probes are restricted to one."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = _frozen_array(lower, "window lower corner", "a vector")
        hi = _frozen_array(upper, "window upper corner", "a vector")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("window corners must be vectors of equal dimension")
        if not np.all(lo < hi):
            raise ValueError("window must satisfy lower < upper on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    def axes(self, resolution: int) -> list[np.ndarray]:
        return [np.linspace(self.lower[i], self.upper[i], resolution) for i in range(self.dimension)]

    def grid_points(self, resolution: int) -> np.ndarray:
        """All grid nodes as an (resolution**n, n) array, last axis fastest."""
        mesh = np.meshgrid(*self.axes(resolution), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dimension))

    def contains(self, x: np.ndarray) -> np.ndarray:
        x, single = _batch(x, self.dimension)
        inside = np.all((x >= self.lower) & (x <= self.upper), axis=1)
        return bool(inside[0]) if single else inside
