"""Largest contained quadrilateral and smallest enclosing parallelogram of a
convex polygon, computed in linear time by one rotating-calipers sweep, with
brute-force oracles and conjugate-pair optimality certificates."""

from .geometry import (
    ConvexPolygon,
    Degenerate,
    DegenerateSample,
    Direction,
    GeometryError,
    NonFinite,
    NotConvex,
    ParallelLines,
    Point,
    Segment,
    SweepOverrun,
    TooFewVertices,
    canonicalize,
    chord_through,
    contains_point,
    extreme_vertex,
    polygon_area,
    quad_area,
    width,
)
from .extremal import (
    CertificateChecks,
    ConjugateCertificate,
    ExtremesReport,
    ParaResult,
    QuadResult,
    anchored_conjugate_pair,
    combined_extremes,
    largest_quadrilateral,
    smallest_parallelogram,
    verify_conjugate_pair,
)
from .oracle import (
    OraclePara,
    OracleQuad,
    brute_anchored_quad_area,
    brute_largest_quad,
    brute_smallest_para,
    longest_chord,
)
from .polygen import (
    GenSpec,
    SplitMix64,
    generate,
    lattice_ngon,
    parallel_edge_polygon,
    random_convex,
    regular_ngon,
)

__version__ = "0.1.0"
