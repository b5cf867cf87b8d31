"""Scenario configuration: one self-describing JSON document per CLI run.

The config holds every setting of a run, the seed included, so scenarios can
be archived as fixtures; flags name only the files a run writes and the
unresolved-sample policy.  Only ``cover`` reads the ``lattice`` key: the
certificate of ``verify`` always uses the default ``SlopeLattice()``.  Keys
the program does not read are ignored, among them the ``outputs`` and
``tolerances`` blocks, ``cover.axes``, ``cover.cap``, the ``decompose``
block, ``field``, a top-level ``dimension`` and ``fault_offset``: flags name
the output files, the method's tolerances are constants (see
``ScenarioConfig``), the cover family spans every axis and its budget is a
constant of ``cover``, no command splits a C^2 field, every command
searches the lift of its set, the set states its dimension, and the
negative control of ``verify``, a shift of its graph coordinates, is built
in the tests.

``parse_config`` applies every rule that depends on the config alone, so the
three commands refuse the same configs.  Every command needs a ``set``, and
its dimension is the run's.  Beyond the type and range of each key, it
refuses a set so far from its window that doubles near its distances there
lie more than ``TIE_TOLERANCE`` apart, where rounding makes rows tie that do
not.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .convex import SlopeLattice
from .distance import SEPARATION, TIE_TOLERANCE
from .geometry import ClosedSetSpec, Window

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "load_config", "config_digest"]


class ConfigError(ValueError):
    """A scenario config failed validation; the message names the offending field."""


@dataclass(frozen=True)
class ScenarioConfig:
    window: Window
    grid_resolution: int
    lattice: SlopeLattice
    set_spec: ClosedSetSpec
    cover_rest_resolution: int
    seed: int

    # The method's constant tolerances, which no config sets; ``perfbench/run.py`` reads them here.
    tie_tolerance = TIE_TOLERANCE
    separation = SEPARATION
    # The tests' and the benchmark oracle's bound on a sample's distance to the locus; ``verify`` does not read it.
    refine_tol = 1e-8


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{name}: {message}")


def _get_number(data: dict, name: str, default, *, positive=False, minimum=None):
    """Read a finite number from ``data``; ``name`` is its dotted path, such as ``lattice.step``.

    Python's ``json`` parses ``NaN`` and ``Infinity``, and integers beyond the
    float range; they are refused here.
    """
    value = data.get(name.rsplit(".", 1)[-1], default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(f"{name}: must be finite, got an integer beyond the float range") from None
    if not finite:
        raise ConfigError(f"{name}: must be finite, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{name}: must be > 0, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {value}")
    return value


def _get_count(data: dict, name: str, default: int, minimum: int) -> int:
    """Read a whole number of at least ``minimum``: ``16.0`` is read as 16, ``16.5`` is refused."""
    value = _get_number(data, name, default, minimum=minimum)
    _require(float(value).is_integer(), name, "must be an integer")
    return int(value)


def _squares_fit(dimension: int, h: float) -> bool:
    """Whether n * (2h)^2, the largest squared distance in [-h, h]^n, is finite; ``*`` overflows to inf where ``**`` raises."""
    return math.isfinite(dimension * (2.0 * h) * (2.0 * h))


def _half_width(spec: ClosedSetSpec) -> float:
    """The largest |coordinate| of a point, segment end or shell centre of the set, plus the largest shell radius."""
    return float(np.abs([spec.starts, spec.starts + spec.directions]).max()) + float(spec.radii.max())


def _load_set(entry, base_dir: Path) -> ClosedSetSpec:
    if isinstance(entry, str):
        path = Path(entry)
        if not path.is_absolute():
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"set: cannot read {path}: {exc}") from None
        try:
            return ClosedSetSpec.from_dict(json.loads(text))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise ConfigError(f"set ({path}): {exc}") from None
    try:
        return ClosedSetSpec.from_dict(entry)
    except ValueError as exc:
        raise ConfigError(f"set: {exc}") from None


def parse_config(data: dict, base_dir: Path | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    base_dir = base_dir or Path.cwd()

    _require("set" in data, "set", "required: every command reads the closed set of its config")
    set_spec = _load_set(data["set"], base_dir)
    dimension = set_spec.dimension
    # Distances are computed from squared coordinate differences.
    reach = _half_width(set_spec)
    message = f"too large: a squared distance overflows, with coordinates and radii reaching {reach:g}"
    _require(_squares_fit(dimension, reach), "set", message)

    window_data = data.get("window", {"lower": [-2.0] * dimension, "upper": [2.0] * dimension})
    if not isinstance(window_data, dict) or "lower" not in window_data or "upper" not in window_data:
        raise ConfigError("window: needs 'lower' and 'upper' corner arrays")
    try:
        window = Window(window_data["lower"], window_data["upper"])
    except ValueError as exc:
        raise ConfigError(f"window: {exc}") from None
    _require(window.dimension == dimension, "window", f"dimension {window.dimension} != {dimension}")
    reach = float(np.abs([window.lower, window.upper]).max())
    message = f"too large: a squared distance overflows, with corners reaching {reach:g}"
    _require(_squares_fit(dimension, reach), "window", message)
    # Distance is 1-Lipschitz: no window point lies farther from the set than its centre plus its half-diagonal.
    centre = (window.lower + window.upper) / 2
    reach = float(set_spec.row_distances(centre[None]).min() + np.linalg.norm(window.extent) / 2)
    gap = float(np.spacing(reach))
    message = f"distances there reach {reach:g}, where doubles lie {gap:g} apart, more than the tie tolerance {TIE_TOLERANCE:g}"
    _require(gap <= TIE_TOLERANCE, "set", f"too far from the window: {message}")

    resolution = _get_count(data, "grid_resolution", 64, minimum=8)
    # A grid sweep lays its resolution^n nodes out in one array.
    limit = np.iinfo(np.intp).max
    message = f"too large: {resolution}^{dimension} grid nodes exceed {limit}, the most an array can index"
    _require(resolution**dimension <= limit, "grid_resolution", message)

    lattice_data = data.get("lattice", {})
    if not isinstance(lattice_data, dict):
        raise ConfigError("lattice: expected an object with 'step' and 'bound'")
    step = _get_number(lattice_data, "lattice.step", SlopeLattice.step, positive=True)
    bound = _get_number(lattice_data, "lattice.bound", SlopeLattice.bound, positive=True)
    try:
        lattice = SlopeLattice(step=float(step), bound=float(bound))
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from None

    cover = data.get("cover", {})
    if not isinstance(cover, dict):
        raise ConfigError("cover: expected an object")
    rest_resolution = _get_count(cover, "cover.rest_resolution", 9, minimum=1)
    # A cover graph lays the rest_resolution^(n-1) nodes of its rest grid out in one array.
    message = f"too large: {rest_resolution}^{dimension - 1} rest nodes exceed {limit}, the most an array can index"
    _require(rest_resolution ** (dimension - 1) <= limit, "cover.rest_resolution", message)

    seed = data.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed", "must be an integer")
    _require(seed >= 0, "seed", f"must be >= 0, got {seed}")

    return ScenarioConfig(
        window=window,
        grid_resolution=resolution,
        lattice=lattice,
        set_spec=set_spec,
        cover_rest_resolution=rest_resolution,
        seed=int(seed),
    )


def load_config(path) -> tuple[ScenarioConfig, dict]:
    """Parse a scenario config file; returns the config and the raw document."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file: cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer with more digits than Python converts
        raise ConfigError(f"config file: {exc}") from None
    return parse_config(data, base_dir=path.parent), data


def config_digest(raw: dict) -> str:
    """Stable digest of the raw config document, recorded in every report."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
