"""Extremal quadrilaterals and parallelograms of a convex polygon.

Three routes to the same two numbers:

* `combined_extremes` runs one merged half-turn sweep and reports both the
  largest contained quadrilateral and the smallest enclosing parallelogram,
  each with a verified conjugate-pair certificate (a quadrilateral whose
  diagonal is parallel to the direction to which the parallelogram's sides
  are anchored, with each corner on the corresponding side; the sandwich
  F inside P inside G proves joint optimality, and area(G) = 2 area(F)).
* `largest_quadrilateral` is the specialized antipodal-pair walk for the
  quadrilateral alone.
* `smallest_parallelogram` is the specialized edge-flush scan for the
  parallelogram alone, sweeping a full turn with one flush side.

Largest-quadrilateral candidates are evaluated only when a diagonal
endpoint sits at a vertex; smallest-parallelogram candidates only when a
side is edge-flush.  Between those events the areas are linear in the
sliding corner, so the extremes happen at interval endpoints.

The merged sweep lives in `quadpara.sweep`: a Python loop, and from a few
hundred vertices on a numpy path whose direction keys only propose the
order of the events, while every decision is still the sign of the loop's
own determinant expression; where one sign disagrees, the loop runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calipers import vertical_extremes
from .geometry import (
    ConvexPolygon,
    Degenerate,
    Direction,
    GeometryError,
    Line,
    Point,
    Segment,
    SweepOverrun,
    _next,
    _vec,
    chord_through,
    contains_point,
    extreme_vertex,
    line_intersection,
    quad_area,
)
from .sweep import _combined_sweep


@dataclass(frozen=True)
class QuadResult:
    """A contained quadrilateral: CCW corners, their vertex indices where a
    corner coincides with a polygon vertex (None for a slid corner), area."""

    corners: tuple[Point, Point, Point, Point]
    vertex_indices: tuple[Optional[int], Optional[int], Optional[int], Optional[int]]
    area: float


@dataclass(frozen=True)
class ParaResult:
    """An enclosing parallelogram: CCW corners ordered (d^a, a^b, b^c, c^d),
    the two side directions, area, and the polygon vertex touched by each of
    the sides a, b, c, d (for a flush side, the earlier endpoint of the
    flush edge)."""

    corners: tuple[Point, Point, Point, Point]
    side_dir_bd: Direction
    side_dir_ac: Direction
    area: float
    touch_indices: tuple[int, int, int, int]


@dataclass(frozen=True)
class CertificateChecks:
    anchoring_d: bool
    anchoring_s: bool
    corner_on_side: tuple[bool, bool, bool, bool]
    quad_in_polygon: bool
    polygon_in_para: bool
    area_ratio: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.anchoring_d
            and self.anchoring_s
            and all(self.corner_on_side)
            and self.quad_in_polygon
            and self.polygon_in_para
            and self.area_ratio
        )


@dataclass(frozen=True)
class ConjugateCertificate:
    quad: QuadResult
    para: ParaResult
    anchor: Direction
    checks: CertificateChecks


@dataclass(frozen=True)
class ExtremesReport:
    max_quad: QuadResult
    min_para: ParaResult
    quad_certificate: ConjugateCertificate
    para_certificate: ConjugateCertificate
    predicate_count: int


def _supports(P: ConvexPolygon, base, v, eps_dist: float) -> bool:
    """Whether the line through `base` with direction v has all of P on one
    side, within a signed-distance slack of eps_dist."""
    bx, by = _vec(base)
    vx, vy = _vec(v)
    xy = P.coords()
    cr = vx * (xy[:, 1] - by) - vy * (xy[:, 0] - bx)
    slack = eps_dist * math.hypot(vx, vy)
    return not (bool((cr > slack).any()) and bool((cr < -slack).any()))


def _locate_on_boundary(P: ConvexPolygon, pt, tol_dist: float):
    """Classify a boundary point as ("vertex", i) or ("edge", k).

    The lowest-index vertex within tol_dist wins.  Otherwise the edge is the
    one of least residual among those the point projects into (parameter in
    [0, 1] up to 1e-9), the lowest index on ties.
    """
    px, py = _vec(pt)
    xy = P.coords()
    rx = px - xy[:, 0]
    ry = py - xy[:, 1]
    # hypot(rx, ry) >= max(|rx|, |ry|): the box keeps every vertex in range.
    near = np.flatnonzero((np.abs(rx) <= tol_dist) & (np.abs(ry) <= tol_dist))
    for i in near.tolist():
        if math.hypot(rx[i], ry[i]) <= tol_dist:
            return ("vertex", i)
    ex, ey = P.edges()
    t = (rx * ex + ry * ey) / (ex * ex + ey * ey)
    win = np.flatnonzero((t >= -1e-9) & (t <= 1 + 1e-9))
    if win.size:
        wx, wy = ex[win], ey[win]
        res = np.abs(wx * ry[win] - wy * rx[win]) / np.array(
            [math.hypot(a, b) for a, b in zip(wx.tolist(), wy.tolist())]
        )
        j = int(np.argmin(res))
        if res[j] <= max(tol_dist, 1e-6 * (P.scale + 1.0)):
            return ("edge", int(win[j]))
    raise GeometryError(f"point {(px, py)} does not lie on the polygon boundary")


def _side_direction(P: ConvexPolygon, a_pt, c_pt, loc_a, loc_c, u, eps_dist: float):
    """A direction v such that the lines through both chord endpoints
    parallel to v support P.  A mid-edge endpoint forces its edge direction;
    otherwise the incident edges of the two vertices are tried in order.
    Edges parallel to the chord direction u are passed over: they support P
    when the chord lies along an edge, but would give a flat parallelogram."""
    ux, uy = _vec(u)
    candidates: list[tuple[float, float]] = []
    for loc in (loc_a, loc_c):
        kind, idx = loc
        if kind == "edge":
            candidates.append(P.edge_vector(idx))
        else:
            candidates.append(P.edge_vector((idx - 1) % P.n))
            candidates.append(P.edge_vector(idx))
    candidates = [v for v in candidates if v[0] * uy - v[1] * ux != 0.0]
    for v in candidates:
        if _supports(P, a_pt, v, eps_dist) and _supports(P, c_pt, v, eps_dist):
            return v
    return candidates[0]


def _para_from_lines(
    a_line: Line,
    b_line: Line,
    c_line: Line,
    d_line: Line,
    touch: tuple[int, int, int, int],
    area: Optional[float] = None,
) -> ParaResult:
    g0 = line_intersection(d_line, a_line)
    g1 = line_intersection(a_line, b_line)
    g2 = line_intersection(b_line, c_line)
    g3 = line_intersection(c_line, d_line)
    if area is None:
        area = quad_area(g0, g1, g2, g3)
    return ParaResult((g0, g1, g2, g3), b_line.dir, a_line.dir, area, touch)


def _chord_bounds(P: ConvexPolygon, d: np.ndarray, s: np.ndarray, lower: bool) -> np.ndarray:
    """For the chord along u through each vertex, the parameter bound set by
    the edges with d > 0 (lower) or d < 0 (upper), evaluated only on the
    edge the chord crosses and its two chain neighbours.

    The edges of one sign form a cyclic chain along which the offset s falls
    (d > 0) or rises (d < 0), so one binary search per vertex finds the
    crossed edge.  Each t uses chord_through's expression; as the bound is
    taken over a subset of the edges, it is never tighter than the true one.
    """
    chain = np.flatnonzero(d > 0.0 if lower else d < 0.0)
    if chain.size == 0:
        raise Degenerate("line does not leave the polygon; invalid polygon?")
    gap = np.flatnonzero(np.diff(chain) != 1)
    if gap.size:
        chain = np.roll(chain, -int(gap[0]) - 1)  # start at the run's first edge
    sign = -1.0 if lower else 1.0
    hit = np.searchsorted(sign * s[chain], sign * s, side="right") - 1
    xy = P.coords()
    vx, vy = xy[:, 0], xy[:, 1]
    ex, ey = P.edges()
    tighter = np.maximum if lower else np.minimum
    bound = None
    for offset in (-1, 0, 1):
        k = chain[np.clip(hit + offset, 0, chain.size - 1)]
        t = -(ex[k] * (vy - vy[k]) - ey[k] * (vx - vx[k])) / d[k]
        bound = t if bound is None else tighter(bound, t)
    return bound


def _longest_vertex_chord(P: ConvexPolygon, u: Direction) -> Segment:
    """`chord_through(P, q, u)` for the first vertex q whose chord has the
    greatest extent along u, without measuring every chord in full.

    The windowed bounds of `_chord_bounds` can only overstate a chord's
    extent.  The vertex they rank first is measured in full; when its extent
    falls short, that value replaces the estimate and the ranking repeats.
    A vertex that ranks first with its true extent beats the true extents
    of all others, so the result is the one a loop over every vertex picks,
    ties included.  When the offsets are exact (integer coordinates and
    direction), the window holds the crossed edge, every estimate is exact
    and one full measurement suffices.
    """
    ux, uy = u.dx, u.dy
    xy = P.coords()
    vx, vy = xy[:, 0], xy[:, 1]
    ex, ey = P.edges()
    d = ex * uy - ey * ux
    s = ux * vy - uy * vx
    t0 = _chord_bounds(P, d, s, lower=True)
    t1 = _chord_bounds(P, d, s, lower=False)
    ext = ((vx + t1 * ux) - (vx + t0 * ux)) * ux + ((vy + t1 * uy) - (vy + t0 * uy)) * uy
    ext = np.maximum(ext, 0.0)  # chord_through shrinks a chord with t0 > t1 to a point
    while True:
        i = int(np.argmax(ext))
        seg = chord_through(P, P[i], u)
        full = (seg.b.x - seg.a.x) * ux + (seg.b.y - seg.a.y) * uy
        if not full < ext[i]:
            return seg
        ext[i] = full


def anchored_conjugate_pair(P: ConvexPolygon, u) -> tuple[QuadResult, ParaResult]:
    """The largest contained quadrilateral whose diagonal is parallel to u,
    with the smallest enclosing parallelogram whose sides are parallel to u.

    The pair is conjugate: the quadrilateral's diagonal is the longest chord
    parallel to u, the other two corners touch the supporting lines parallel
    to u, and the parallelogram has exactly twice the quadrilateral's area.

    O(n log n) numpy work with no Python loop over the vertices whenever the
    chord offsets are exact, as on integer input (see `_longest_vertex_chord`).
    The result is bit-identical to measuring the chord through every vertex,
    which `oracle.longest_chord` does in O(n^2).
    """
    uc = Direction(*_vec(u)).canonical()
    tol_dist = 1e-9 * (P.scale + 1.0)

    best_seg = _longest_vertex_chord(P, uc)
    a_pt, c_pt = best_seg.a, best_seg.b

    loc_a = _locate_on_boundary(P, a_pt, tol_dist)
    loc_c = _locate_on_boundary(P, c_pt, tol_dist)
    v = _side_direction(P, a_pt, c_pt, loc_a, loc_c, uc, tol_dist)

    b_idx = extreme_vertex(P, (uc.dy, -uc.dx))
    d_idx = extreme_vertex(P, (-uc.dy, uc.dx))
    b_pt, d_pt = P[b_idx], P[d_idx]

    idx_a = loc_a[1] if loc_a[0] == "vertex" else None
    idx_c = loc_c[1] if loc_c[0] == "vertex" else None
    quad = QuadResult(
        (a_pt, b_pt, c_pt, d_pt),
        (idx_a, b_idx, idx_c, d_idx),
        quad_area(a_pt, b_pt, c_pt, d_pt),
    )

    vdir = Direction(*v)
    touch = (loc_a[1], b_idx, loc_c[1], d_idx)
    para = _para_from_lines(
        Line(a_pt, vdir), Line(b_pt, uc), Line(c_pt, vdir), Line(d_pt, uc), touch
    )
    return quad, para


def verify_conjugate_pair(
    F: QuadResult, G: ParaResult, u, P: ConvexPolygon, tol: float = 1e-9
) -> ConjugateCertificate:
    """Evaluate every conjugate-pair condition plus the sandwich containments
    and the factor-two area relation; failures are recorded, not raised.

    All distance-like comparisons use tol * scale, areas tol * scale**2,
    where scale is the polygon's max absolute coordinate.
    """
    ux, uy = _vec(u)
    udir = Direction(ux, uy)
    scale = P.scale + 1.0
    dist_tol = tol * scale
    ulen = math.hypot(ux, uy)

    A, B, C, D = F.corners
    anchoring_d = abs((C.x - A.x) * uy - (C.y - A.y) * ux) / ulen <= dist_tol

    sb = G.side_dir_bd
    anchoring_s = (
        abs(sb.dx * uy - sb.dy * ux) / (math.hypot(sb.dx, sb.dy) * ulen) <= tol
    )

    g = G.corners
    sides = ((g[0], g[1]), (g[1], g[2]), (g[2], g[3]), (g[3], g[0]))
    on_side = []
    for corner, (p, q) in zip((A, B, C, D), sides):
        ex, ey = q.x - p.x, q.y - p.y
        elen = math.hypot(ex, ey)
        if elen == 0.0:
            on_side.append(math.hypot(corner.x - p.x, corner.y - p.y) <= dist_tol)
        else:
            on_side.append(abs(ex * (corner.y - p.y) - ey * (corner.x - p.x)) / elen <= dist_tol)

    quad_in_polygon = all(contains_point(P, corner, dist_tol) for corner in F.corners)

    gx = np.array([p.x for p in g])
    gy = np.array([p.y for p in g])
    doubled = float(np.dot(gx, _next(gy)) - np.dot(_next(gx), gy))
    if doubled < 0.0:
        gx, gy = gx[::-1], gy[::-1]
    xy = P.coords()
    inside = True
    for k in range(4):
        ex = gx[(k + 1) % 4] - gx[k]
        ey = gy[(k + 1) % 4] - gy[k]
        cr = ex * (xy[:, 1] - gy[k]) - ey * (xy[:, 0] - gx[k])
        if not bool((cr >= -dist_tol * math.hypot(ex, ey)).all()):
            inside = False
            break

    area_ratio = abs(G.area - 2.0 * F.area) <= tol * scale * scale

    checks = CertificateChecks(
        anchoring_d=anchoring_d,
        anchoring_s=anchoring_s,
        corner_on_side=tuple(on_side),
        quad_in_polygon=quad_in_polygon,
        polygon_in_para=inside,
        area_ratio=area_ratio,
    )
    return ConjugateCertificate(F, G, udir, checks)


def combined_extremes(P: ConvexPolygon, tol: float = 1e-9) -> ExtremesReport:
    """Both extremal figures from one merged sweep, with verified
    conjugate-pair certificates and the sweep's predicate count."""
    maxarea, (ma, mb, mc, md), minarea, mstate, ndet = _combined_sweep(P.coords())
    tol_dist = tol * (P.scale + 1.0)

    qa, qb, qc, qd = P[ma], P[mb], P[mc], P[md]
    max_quad = QuadResult((qa, qb, qc, qd), (ma, mb, mc, md), maxarea)
    u_max = Direction(qc.x - qa.x, qc.y - qa.y)
    v_max = Direction(*_side_direction(P, qa, qc, ("vertex", ma), ("vertex", mc), u_max, tol_dist))
    g_max = _para_from_lines(
        Line(qa, v_max),
        Line(qb, u_max),
        Line(qc, v_max),
        Line(qd, u_max),
        (ma, mb, mc, md),
    )
    quad_cert = verify_conjugate_pair(max_quad, g_max, u_max, P, tol)

    a_slides, sa, sb_, sc, sd, ubx, uby, slid_xy = mstate
    slid = Point(*slid_xy)
    pa, pb, pc, pd = P[sa], P[sb_], P[sc], P[sd]
    if a_slides:
        f_corners = (slid, pb, pc, pd)
        f_indices = (None, sb_, sc, sd)
        edge_dir = Direction(*P.edge_vector(sa))
        a_line = Line(slid, edge_dir)
        c_line = Line(pc, edge_dir)
    else:
        f_corners = (pa, pb, slid, pd)
        f_indices = (sa, sb_, None, sd)
        edge_dir = Direction(*P.edge_vector(sc))
        a_line = Line(pa, edge_dir)
        c_line = Line(slid, edge_dir)
    min_f = QuadResult(f_corners, f_indices, quad_area(*f_corners))
    u_min = Direction(ubx, uby)
    min_para = _para_from_lines(
        a_line,
        Line(pb, u_min),
        c_line,
        Line(pd, u_min),
        (sa, sb_, sc, sd),
        area=minarea,
    )
    para_cert = verify_conjugate_pair(min_f, min_para, u_min, P, tol)

    return ExtremesReport(max_quad, min_para, quad_cert, para_cert, ndet)


def largest_quadrilateral(P: ConvexPolygon) -> QuadResult:
    """Largest contained quadrilateral via the antipodal-pair walk alone.

    Starts from the vertical extreme vertices, advances the diagonal pair
    (a, c) one vertex per step, and keeps the two far support vertices b, d
    updated; all corners of the result are polygon vertices.
    """
    n = P.n
    xs, ys = P.coords().T.tolist()
    exs, eys = (e.tolist() for e in P.edges())
    a0, c0 = vertical_extremes(P)
    a, c = a0, c0
    b, d = a, c
    maxarea = -1.0
    best = None
    guard = 8 * n + 16
    steps = 0
    while True:
        steps += 1
        if steps > guard:
            raise SweepOverrun(f"more than {guard} antipodal steps for n={n}")
        ax, ay = xs[a % n], ys[a % n]
        cx, cy = xs[c % n], ys[c % n]
        rx, ry = ax - cx, ay - cy
        while True:
            steps += 1
            if steps > guard:
                raise SweepOverrun("support vertex b did not settle")
            if rx * eys[b % n] - ry * exs[b % n] > 0.0:
                b += 1
            else:
                break
        while True:
            steps += 1
            if steps > guard:
                raise SweepOverrun("support vertex d did not settle")
            if -rx * eys[d % n] + ry * exs[d % n] > 0.0:
                d += 1
            else:
                break
        ar = quad_area((ax, ay), (xs[b % n], ys[b % n]), (cx, cy), (xs[d % n], ys[d % n]))
        if ar > maxarea:
            maxarea = ar
            best = (a % n, b % n, c % n, d % n)
        if exs[a % n] * eys[c % n] - eys[a % n] * exs[c % n] <= 0.0:
            a += 1
        else:
            c += 1
        if a % n == c0 and c % n == a0:
            break
    assert best is not None
    return QuadResult(tuple(P[i] for i in best), best, maxarea)


def smallest_parallelogram(P: ConvexPolygon) -> ParaResult:
    """Smallest enclosing parallelogram via the edge-flush full-turn scan.

    For each edge of P, one parallelogram side is flush with it; the
    opposite support vertex and the antipodal chord parallel to the edge
    are carried along and updated on the fly.
    """
    n = P.n
    xs, ys = P.coords().T.tolist()
    exs, eys = (e.tolist() for e in P.edges())

    c, d, a = 1, 1, 2
    guard = 16 * n + 32
    steps = 0
    while True:
        steps += 1
        if steps > guard:
            raise SweepOverrun("initial opposite-vertex search did not settle")
        if exs[c % n] * eys[a % n] - eys[c % n] * exs[a % n] > 0.0:
            a += 1
        else:
            break

    minarea = math.inf
    best = None
    for b in range(n):
        ux, uy = exs[b], eys[b]
        while True:
            steps += 1
            if steps > guard:
                raise SweepOverrun("opposite vertex d did not settle")
            if ux * eys[d % n] - uy * exs[d % n] > 0.0:
                d += 1
            else:
                break

        def settle_a():
            # Advance a to the vertex opposite edge (c, c+1); on a parallel-
            # edge tie, cross the flat stretch only while p_{a+1} still
            # reaches at least as far as p_c for the current direction u.
            nonlocal a, steps
            while True:
                steps += 1
                if steps > guard:
                    raise SweepOverrun("opposite vertex a did not settle")
                i, j = c % n, a % n
                cross = exs[i] * eys[j] - eys[i] * exs[j]
                if cross > 0.0:
                    a += 1
                    continue
                if cross == 0.0:
                    j = (a + 1) % n
                    if ux * (ys[j] - ys[i]) - uy * (xs[j] - xs[i]) >= 0.0:
                        a += 1
                        continue
                break

        settle_a()
        while True:
            steps += 1
            if steps > guard:
                raise SweepOverrun("chord edge c did not settle")
            i, j = a % n, (c + 1) % n
            if ux * (ys[i] - ys[j]) - uy * (xs[i] - xs[j]) > 0.0:
                c += 1
                settle_a()
            else:
                break
        ax, ay = xs[a % n], ys[a % n]
        cx, cy = xs[c % n], ys[c % n]
        if ux * (ay - cy) - uy * (ax - cx) >= 0.0:
            ecx, ecy = exs[c % n], eys[c % n]
            den = ecx * uy - ecy * ux
            if den != 0.0:
                s = ((ax - cx) * uy - (ay - cy) * ux) / den
                c_slid = (cx + s * ecx, cy + s * ecy)
            else:
                # Chord through p_a runs along the flush-parallel edge line.
                c_slid = (cx, cy)
            cand = 2.0 * quad_area((ax, ay), (xs[b], ys[b]), c_slid, (xs[d % n], ys[d % n]))
            if cand < minarea:
                minarea = cand
                best = (a % n, b % n, c % n, d % n, c_slid)
    if best is None:
        raise SweepOverrun("no edge-flush candidate found; invalid polygon?")
    ia, ib, ic, id_, c_slid = best
    u = Direction(exs[ib], eys[ib])
    v = Direction(exs[ic], eys[ic])
    return _para_from_lines(
        Line(P[ia], v),
        Line(P[ib], u),
        Line(Point(*c_slid), v),
        Line(P[id_], u),
        (ia, ib, ic, id_),
        area=minarea,
    )
