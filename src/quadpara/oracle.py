"""Slow, independent ground-truth computations.

These deliberately avoid the rotating sweep: the quadrilateral oracle
enumerates vertex tuples (a largest contained k-gon can always be chosen
with its corners at polygon vertices), and the parallelogram oracle scans
edge directions (a smallest enclosing parallelogram has an edge-flush side).
Complexity budgets are enforced by callers, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .geometry import (
    ConvexPolygon,
    Degenerate,
    Segment,
    _vec,
    chord_through,
    det,
    quad_area,
    width,
)


@dataclass(frozen=True)
class OracleQuad:
    vertex_indices: tuple[int, int, int, int]
    area: float


@dataclass(frozen=True)
class OraclePara:
    anchor_edge: int
    area: float


def longest_chord(P: ConvexPolygon, u) -> Segment:
    """The longest chord of P parallel to u.

    Realized exhaustively: the maximum of chord length over the heights of P
    is attained at a vertex height, so the longest chord passes through some
    vertex.  Ties keep the lowest vertex index.  One O(n) chord_through per
    vertex makes this the O(n^2) reference for `anchored_conjugate_pair`.
    """
    ux, uy = _vec(u)
    if ux == 0.0 and uy == 0.0:
        raise Degenerate("zero vector is not a direction")
    best: Segment | None = None
    best_ext = -1.0
    for q in P.coords().tolist():
        seg = chord_through(P, q, (ux, uy))
        ext = (seg.b.x - seg.a.x) * ux + (seg.b.y - seg.a.y) * uy  # t-extent * |u|^2
        if ext > best_ext:
            best_ext = ext
            best = seg
    assert best is not None
    return best


def brute_anchored_quad_area(P: ConvexPolygon, u) -> float:
    """Half of longest-chord length times width, both taken parallel to u.

    This is the area of the largest quadrilateral whose diagonal is parallel
    to u, computed without any sweep machinery.
    """
    return 0.5 * longest_chord(P, u).length() * width(P, u)


def brute_largest_quad(P: ConvexPolygon) -> OracleQuad:
    """Exhaustive maximum of quad_area over CCW vertex 4-tuples.

    For n == 3 the enumeration uses 4-multisets, so the optimum degenerates
    to the triangle itself with a repeated corner.  Ties keep the
    lexicographically smallest index tuple.
    """
    n = P.n
    pts = P.coords().tolist()
    if n == 3:
        tuples = combinations_with_replacement(range(3), 4)
    else:
        tuples = combinations(range(n), 4)
    best = None
    best_area = -1.0
    for idx in tuples:
        i, j, k, l = idx
        area = quad_area(pts[i], pts[j], pts[k], pts[l])
        if area > best_area:
            best_area = area
            best = idx
    assert best is not None
    return OracleQuad(best, best_area)


def brute_smallest_para(P: ConvexPolygon) -> OraclePara:
    """Exhaustive minimum over edge directions of chord length times width.

    A smallest enclosing parallelogram can be chosen with one side pair
    flush against an edge, so scanning the n edge directions suffices.
    Ties keep the smallest edge index.
    """
    best_edge = -1
    best_area = math.inf
    for e in range(P.n):
        u = P.edge_vector(e)
        area = longest_chord(P, u).length() * width(P, u)
        if area < best_area:
            best_area = area
            best_edge = e
    return OraclePara(best_edge, best_area)


def _in_arc(v, s, e) -> bool:
    """v lies in the CCW arc from s to e (arc width < half turn)."""
    return det(s, v) >= 0.0 and det(v, e) >= 0.0


def is_antipodal_brute(P: ConvexPolygon, i: int, j: int) -> bool:
    """Whether vertices i and j admit parallel supporting lines.

    Decided exactly by intersecting the outward-normal cone of vertex i with
    the negated cone of vertex j; both cones are narrower than a half turn,
    so arc intersection reduces to determinant signs.
    """
    if i == j:
        raise Degenerate("antipodality needs two distinct vertices")
    n = P.n

    def normal(k: int) -> tuple[float, float]:
        ex, ey = P.edge_vector(k)
        return ey, -ex

    s1, e1 = normal((i - 1) % n), normal(i)
    nj0, nj1 = normal((j - 1) % n), normal(j)
    s2, e2 = (-nj0[0], -nj0[1]), (-nj1[0], -nj1[1])
    return _in_arc(s2, s1, e1) or _in_arc(s1, s2, e2)
