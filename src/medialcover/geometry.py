"""Closed-set descriptions, packed into one capsule form for vectorized queries.

A closed set is declared as a finite union of records, the JSON objects of a
set description: ``{"type": "point", "coords": x}``, ``{"type": "segment",
"a": a, "b": b}``, ``{"type": "polygon", "vertices": [v_0, v_1, ...]}`` (the
boundary loop of a polygon, not the filled region) and ``{"type": "ball",
"center": c, "radius": r}`` (a circle or sphere shell; radius 0 is the
centre point).  :class:`ClosedSetSpec` checks each record's fields with the
packer that its type names in one table, packs it into capsule rows, and
keeps only the rows: a start A, a direction D (zero for points and shells)
and a radius R (zero for points and segments).  A polygon loop packs as one
segment row per edge, so every query sees the same set whether a loop was
written as a polygon or as its edges.

The distance from x to a row is | |x - foot| - R |, where foot = A + t D is
the nearest point of the segment A + [0, 1] D.  ``row_distances`` evaluates
every row for a batch of query points and ``project_rows`` returns the
nearest point of one chosen row per query point; the distance field, its
projection and the tie classification in :mod:`medialcover.distance` are all
built on these two.

The grid's node layout is decided here alone: ``Window.nodes`` gives the
nodes at any flat indices, and ``ClosedSetSpec.grid_blocks`` walks a grid in
the kernel's row blocks, each block building its own nodes.

All coordinates are double precision, and every coordinate, radius and
dimension must be given as a number: JSON true, false, null and strings are
refused.  Instances are frozen and their arrays are marked read-only, so they
are safe to share across threads; they compare and hash by identity, since
array fields have no single truth value.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ClosedSetSpec", "Window"]


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


def _pack_point(record: dict):
    coords = _frozen_array(record["coords"], "point coords", 1)
    return coords[None], np.zeros((1, len(coords))), np.zeros(1)


def _pack_segment(record: dict):
    a, b = record["a"], record["b"]
    a = _frozen_array(a, "segment endpoint a", 1)
    b = _frozen_array(b, "segment endpoint b", 1)
    if a.shape != b.shape:
        raise ValueError("segment endpoints must be vectors of equal dimension")
    if np.array_equal(a, b):
        raise ValueError("segment endpoints must be distinct")
    if not _squared_lengths_fit(a, b):
        raise ValueError("segment too long: its squared length overflows")
    return a[None], (b - a)[None], np.zeros(1)


def _pack_polygon(record: dict):
    """One row per edge: vertex k to vertex k + 1, and the last vertex back to the first."""
    verts = _frozen_array(record["vertices"], "polygon vertices", 2)
    if not verts.shape[1]:
        raise ValueError(f"polygon vertices must have coordinates, got {record['vertices']!r}")
    if verts.shape[0] < 3:
        raise ValueError("polygon boundary needs at least 3 vertices")
    first, repeats = {}, []  # each vertex's first index; -0.0 == 0.0 makes them one key
    for j, vertex in enumerate(map(tuple, verts.tolist())):
        i = first.setdefault(vertex, j)
        if i != j:
            repeats.append((i, j))
    if repeats:  # the least pair is the first that a loop over i, then j > i, meets
        i, j = min(repeats)
        raise ValueError(f"polygon vertices {i} and {j} coincide")
    ends = np.roll(verts, -1, axis=0)
    if not _squared_lengths_fit(verts, ends):
        raise ValueError("polygon edge too long: its squared length overflows")
    return verts, ends - verts, np.zeros(len(verts))


def _pack_ball(record: dict):
    center, radius = record["center"], record["radius"]
    center = _frozen_array(center, "ball center", 1)
    radius = float(_frozen_array(radius, "ball radius", 0))
    if radius < 0:
        raise ValueError(f"ball radius must be >= 0, got {radius}")
    return center[None], np.zeros((1, len(center))), np.array([radius])


# The one table of primitive kinds: a record's "type" names its packer.
_PACKERS = {"point": _pack_point, "segment": _pack_segment, "polygon": _pack_polygon, "ball": _pack_ball}


def _pack(record) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (starts, directions, radii) rows of one record, after its own fields are checked.

    Each packer looks up all of its fields before it checks any, so a missing
    field is named before a malformed one.
    """
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError("each primitive needs a 'type' field")
    kind = record["type"]
    packer = _PACKERS.get(kind) if isinstance(kind, str) else None  # a list or dict type cannot be a key
    if packer is None:
        raise ValueError(f"unknown primitive type {kind!r}")
    try:
        return packer(record)
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r} for type {kind!r}") from None


# Large batches go through ``row_distances``, and ``grid_blocks`` walks a grid,
# in blocks whose (n, M, block) temporaries hold about 2**14 doubles, so a
# sweep's transient memory does not grow with the grid.
_BLOCK_ELEMENTS = 1 << 14


def _grid_nodes(ticks: list[np.ndarray], index) -> np.ndarray:
    """The (K, n) nodes at flat indices ``index`` of the grid on these axis ticks, last axis fastest, copied from the ticks."""
    cells = np.unravel_index(index, [len(axis) for axis in ticks])
    return np.stack([axis[cell] for axis, cell in zip(ticks, cells)], axis=-1)


@dataclass(frozen=True, eq=False)
class ClosedSetSpec:
    """A nonempty closed set, kept as the capsule rows of the records it was built from.

    ``records`` are the JSON records of a set description's ``primitives``.
    Each packs, in the order given, into ``starts`` (M, n), ``directions``
    (M, n) and ``radii`` (M,): a point is one row (coords, 0, 0), a segment
    one row (a, b - a, 0), a shell one row (center, 0, radius), and a polygon
    loop one row (v_k, v_{k+1} - v_k, 0) per edge, in loop order.  The
    records themselves are not kept.  The first error raised is, in this
    order: a record's own fields, in record order; the set's ``dimension``;
    a record's dimension, or a polygon in 1-D.
    """

    dimension: int
    starts: np.ndarray = field(init=False, repr=False)
    directions: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)

    def __init__(self, records, dimension):
        records = tuple(records)
        if not records:
            raise ValueError("a closed set needs at least one primitive")
        blocks = []
        for k, record in enumerate(records):
            try:
                blocks.append(_pack(record))
            except ValueError as exc:
                raise ValueError(f"primitives[{k}]: {exc}") from None
        dimension = float(_frozen_array(dimension, "dimension", 0))
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension:g}")
        n = int(dimension)
        for k, (record, (starts, _, _)) in enumerate(zip(records, blocks)):
            if starts.shape[1] != n:
                raise ValueError(f"primitives[{k}]: dimension {starts.shape[1]} does not match set dimension {n}")
            if record["type"] == "polygon" and n < 2:
                raise ValueError(f"primitives[{k}]: polygon boundary needs dimension >= 2")
        starts, directions, radii = (np.concatenate(rows) for rows in zip(*blocks))
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
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "_has_segments", bool(np.any(directions)))
        object.__setattr__(self, "_has_shells", bool(np.any(radii)))
        object.__setattr__(self, "_block", max(1, _BLOCK_ELEMENTS // directions.size))

    def row_distances(self, pts: np.ndarray) -> np.ndarray:
        """Distances (M, N) from each of N query points (N, n) to each packed row."""
        count = pts.shape[0]
        if count <= self._block:
            return self._row_block(pts)
        out = np.empty((len(self.radii), count))
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

    def grid_blocks(self, window: Window, resolution: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield each kernel row block of the window grid, in node order, as its slice of flat indices and its nodes.

        The ticks are computed once per walk, and only one block's nodes exist at a time.
        """
        ticks, count = window.axes(resolution), resolution**window.dimension
        for lo in range(0, count, self._block):
            index = np.arange(lo, min(lo + self._block, count))
            yield slice(lo, lo + len(index)), _grid_nodes(ticks, index)

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
        return cls(raw, data["dimension"])


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

    def nodes(self, resolution: int, index) -> np.ndarray:
        """The (K, n) grid nodes at flat indices ``index``, last axis fastest, copied bit for bit from the ticks of :meth:`axes`."""
        return _grid_nodes(self.axes(resolution), index)
