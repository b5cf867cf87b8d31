"""Distance fields, ambiguous loci, and difference-of-convex covering graphs.

The package computes the distance field of a concrete closed set, classifies
points by nearest-point uniqueness, detects the ambiguous locus (medial
axis) on window grids, builds the covering graphs generated by marginal
infima of the strongly convex lift |x|^2 - dist^2 + |x|^2, and certifies
numerically that the detected locus lies on those graphs.
"""

__version__ = "0.1.0"

from .convex import CoercivityError, SlopeLattice, asplund_lift, marginal_inf_rows, nondiff_witnesses
from .cover import FamilyBudgetError, cover_family_to_dict, enumerate_cover
from .distance import (
    Classification,
    NearestResult,
    Survey,
    grid_sweep,
    nearest_points,
    survey,
    write_grid_csv,
)
from .geometry import ClosedSetSpec, Window
from .verify import certify_cover, detect_ambiguous, write_overlay_svg, write_samples_csv

__all__ = [
    "__version__",
    "Classification",
    "ClosedSetSpec",
    "CoercivityError",
    "FamilyBudgetError",
    "NearestResult",
    "SlopeLattice",
    "Survey",
    "Window",
    "asplund_lift",
    "certify_cover",
    "cover_family_to_dict",
    "detect_ambiguous",
    "enumerate_cover",
    "grid_sweep",
    "marginal_inf_rows",
    "nearest_points",
    "nondiff_witnesses",
    "survey",
    "write_grid_csv",
    "write_overlay_svg",
    "write_samples_csv",
]
