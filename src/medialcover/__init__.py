"""Distance fields, ambiguous loci, and difference-of-convex covering graphs.

The package computes the distance field of a concrete closed set, classifies
points by nearest-point uniqueness, detects the ambiguous locus (medial
axis) on window grids, builds the covering graphs generated by marginal
infima of the strongly convex lift |x|^2 - dist^2 + |x|^2, and certifies
numerically that the detected locus lies on those graphs.
"""

__version__ = "0.1.0"

from .convex import (
    CcDecomposition,
    CoercivityError,
    NondiffWitness,
    OneSidedGradient,
    ProbeReport,
    SlopeLattice,
    SubgradientBox,
    cc_decompose_c2,
    convexity_probe,
    marginal_inf,
    nondiff_witness,
    one_sided_partials,
    strong_convexity_probe,
    subgradient_box,
)
from .cover import (
    CcGraph,
    CoverFamily,
    FamilyBudgetError,
    build_cover_graph,
    cover_family_to_dict,
    enumerate_cover,
    family_deviation,
    graph_deviation,
)
from .distance import (
    Classification,
    GradientEstimate,
    NearestResult,
    Survey,
    distance,
    grad_distance_fd,
    grid_sweep,
    nearest_points,
    project,
    reconstruct_nearest,
    survey,
    write_grid_csv,
)
from .fields import (
    ScalarField,
    asplund_field,
    named_field,
    quadratic_sine_blend,
    squared_norm,
    strongify,
)
from .geometry import Ball, ClosedSetSpec, Point, PolygonBoundary, Primitive, Segment, Window
from .verify import (
    CoverageReport,
    MeasureEstimate,
    ambiguous_cell_fraction,
    certify_cover,
    detect_ambiguous,
    estimate_measure,
    write_overlay_svg,
    write_samples_csv,
)
from .voronoi import (
    SkeletonSegment,
    sample_skeleton,
    skeleton_total_length,
    voronoi_medial_axis_2d,
)

__all__ = [
    "__version__",
    "Ball",
    "CcDecomposition",
    "CcGraph",
    "Classification",
    "ClosedSetSpec",
    "CoercivityError",
    "CoverFamily",
    "CoverageReport",
    "FamilyBudgetError",
    "GradientEstimate",
    "MeasureEstimate",
    "NearestResult",
    "NondiffWitness",
    "OneSidedGradient",
    "Point",
    "PolygonBoundary",
    "Primitive",
    "ProbeReport",
    "ScalarField",
    "Segment",
    "SkeletonSegment",
    "SlopeLattice",
    "SubgradientBox",
    "Survey",
    "Window",
    "ambiguous_cell_fraction",
    "asplund_field",
    "build_cover_graph",
    "cc_decompose_c2",
    "certify_cover",
    "convexity_probe",
    "cover_family_to_dict",
    "detect_ambiguous",
    "distance",
    "enumerate_cover",
    "estimate_measure",
    "family_deviation",
    "grad_distance_fd",
    "graph_deviation",
    "grid_sweep",
    "marginal_inf",
    "named_field",
    "nearest_points",
    "nondiff_witness",
    "one_sided_partials",
    "project",
    "quadratic_sine_blend",
    "reconstruct_nearest",
    "sample_skeleton",
    "skeleton_total_length",
    "squared_norm",
    "strong_convexity_probe",
    "strongify",
    "subgradient_box",
    "survey",
    "voronoi_medial_axis_2d",
    "write_grid_csv",
    "write_overlay_svg",
    "write_samples_csv",
]
