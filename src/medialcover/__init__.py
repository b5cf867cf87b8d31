"""Distance fields, ambiguous loci, and difference-of-convex covering graphs.

The package computes the distance field of a concrete closed set, classifies
points by nearest-point uniqueness, detects the ambiguous locus (medial
axis) on window grids, builds the covering graphs generated by marginal
infima of the strongly convex lift |x|^2 - dist^2 + |x|^2, and certifies
numerically that the detected locus lies on those graphs.

Each name is imported from the module that defines it: ``geometry`` (the
set's packed rows and the window grid), ``distance`` (the survey kernel,
grid sweep and CSV writers), ``convex`` (the lift and its marginal infima),
``cover`` (the covering graphs), ``verify`` (detection, certificate and SVG
overlay), ``config`` (the scenario config) and ``cli`` (the three commands).
"""

__version__ = "0.1.0"
