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

:class:`Point`, :class:`Segment` and :class:`Ball`, like
:class:`PolygonBoundary`, are input records: they validate their fields and
report their dimension, and every query goes through the packed rows.

All coordinates are double precision, and every coordinate, radius and
dimension must be given as a number: JSON true, false, null and strings are
refused.  Instances are frozen and their arrays are marked read-only, so they
are safe to share across threads; they compare and hash by identity, since
array fields have no single truth value.
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


_SHAPES = ("a number", "a vector of numbers", "an (m, n) array of numbers")


def _is_real(values) -> bool:
    """Whether ``values`` is a real number or a nest of lists, tuples or numeric arrays of them.

    NumPy would read ``True``, ``"2"`` and ``None`` as numbers (or NaN); they are not.
    """
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, (list, tuple)):
        return all(_is_real(v) for v in values)
    return isinstance(values, (int, float, np.integer, np.floating)) and not isinstance(values, bool)


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float copy of ``values`` with ``ndim`` axes: a number (0), a vector (1) or an (m, n) array (2)."""
    try:
        arr = np.array(values, dtype=float) if _is_real(values) else None
    except (ValueError, OverflowError):  # lists of unequal lengths, or an integer beyond the float range
        arr = None
    if arr is None or arr.ndim != ndim:
        raise ValueError(f"{name} must be {_SHAPES[ndim]}, got {values!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {values!r}")
    arr.setflags(write=False)
    return arr


def _squared_lengths_fit(starts: np.ndarray, ends: np.ndarray) -> bool:
    """Whether every squared length |end - start|^2 is finite, checked without an overflow warning."""
    with np.errstate(over="ignore"):
        diff = ends - starts
        return bool(np.isfinite(np.add.reduce(diff * diff, axis=-1)).all())


def _batch(x: np.ndarray, dimension: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to shape (N, dimension); report whether it was a single point."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise ValueError(f"expected points of dimension {dimension}, got shape {arr.shape}")
    return arr, single


@dataclass(frozen=True, eq=False)
class Point:
    """A single point site."""

    coords: np.ndarray

    def __init__(self, coords):
        object.__setattr__(self, "coords", _frozen_array(coords, "point coords", 1))

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True, eq=False)
class Segment:
    """A closed line segment with distinct endpoints."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        object.__setattr__(self, "a", _frozen_array(a, "segment endpoint a", 1))
        object.__setattr__(self, "b", _frozen_array(b, "segment endpoint b", 1))
        if self.a.shape != self.b.shape:
            raise ValueError("segment endpoints must be vectors of equal dimension")
        if np.array_equal(self.a, self.b):
            raise ValueError("segment endpoints must be distinct")
        if not _squared_lengths_fit(self.a, self.b):
            raise ValueError("segment too long: its squared length overflows")

    @property
    def dimension(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class PolygonBoundary:
    """The closed boundary curve of a polygon (the 1-D edge loop, not the filled region).

    An input form only: a :class:`ClosedSetSpec` replaces it by its :meth:`edges`.
    """

    vertices: np.ndarray

    def __init__(self, vertices):
        verts = _frozen_array(vertices, "polygon vertices", 2)
        if verts.shape[0] < 3:
            raise ValueError("polygon boundary needs at least 3 vertices")
        for i in range(verts.shape[0]):
            for j in range(i + 1, verts.shape[0]):
                if np.array_equal(verts[i], verts[j]):
                    raise ValueError(f"polygon vertices {i} and {j} coincide")
        if not _squared_lengths_fit(verts, np.roll(verts, -1, axis=0)):
            raise ValueError("polygon edge too long: its squared length overflows")
        object.__setattr__(self, "vertices", verts)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def edges(self) -> tuple[Segment, ...]:
        """The closed loop as segments: vertex k to vertex k+1, the last back to the first."""
        m = self.vertices.shape[0]
        return tuple(Segment(self.vertices[i], self.vertices[(i + 1) % m]) for i in range(m))


@dataclass(frozen=True, eq=False)
class Ball:
    """The shell {x : |x - c| = r}, i.e. a circle in 2-D or a sphere in 3-D.

    Radius 0 degenerates to the center point.  In the packed form a shell is a
    row with a centre and a radius and no direction.
    """

    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center", _frozen_array(center, "ball center", 1))
        radius = float(_frozen_array(radius, "ball radius", 0))
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]


Primitive = Union[Point, Segment, PolygonBoundary, Ball]

# Large batches go through ``row_distances`` in blocks whose (n, M, block)
# temporaries hold about 2**14 doubles, so a grid sweep needs no more
# transient memory than one (M, N) table of distances.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class ClosedSetSpec:
    """A nonempty closed set, given as a finite union of points, segments and shells.

    Polygon loops passed in are replaced by their edge segments, in place, so
    ``primitives`` never holds a :class:`PolygonBoundary`.  The primitives are
    also packed as capsule rows, one per primitive and in the same order:
    ``starts`` (M, n), ``directions`` (M, n) and ``radii`` (M,).
    """

    primitives: tuple[Point | Segment | Ball, ...]
    dimension: int
    starts: np.ndarray = field(init=False, repr=False)
    directions: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)

    def __init__(self, primitives, dimension: int):
        primitives = tuple(primitives)
        if not primitives:
            raise ValueError("a closed set needs at least one primitive")
        dimension = float(_frozen_array(dimension, "dimension", 0))
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension:g}")
        dimension = int(dimension)
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
            np.maximum(0.0, t, out=t)  # np.clip(t, 0, 1) bit for bit, -0.0 included
            np.minimum(t, 1.0, out=t)
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
        witness centre + R e_1 stands for all of them.
        """
        foot = self.starts[rows]
        if self._has_segments:
            d = self.directions[rows]
            t = np.add.reduce((pts - foot) * d, axis=1) / self._lengths2[rows]
            np.maximum(0.0, t, out=t)
            np.minimum(t, 1.0, out=t)
            foot += t[:, None] * d
        if self._has_shells:
            r = self.radii[rows]
            u = pts - foot
            rho = np.sqrt(np.add.reduce(u * u, axis=1))
            radial = (r > 0.0) & (rho > 0.0)
            scale = np.divide(r, rho, out=np.zeros_like(r), where=radial)
            np.copyto(foot, foot + scale[:, None] * u, where=radial[:, None])
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


@dataclass(frozen=True, eq=False)
class Window:
    """An axis-aligned box; all grid sweeps and probes are restricted to one."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = _frozen_array(lower, "window lower corner", 1)
        hi = _frozen_array(upper, "window upper corner", 1)
        if lo.shape != hi.shape:
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
