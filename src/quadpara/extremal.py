"""Extremal quadrilaterals and parallelograms of a convex polygon.

Three routes to the same two numbers:

* `combined_extremes` runs one merged half-turn sweep and reports both the
  largest contained quadrilateral and the smallest enclosing parallelogram,
  each with a verified conjugate-pair certificate (a quadrilateral whose
  diagonal is parallel to the direction to which the parallelogram's sides
  are anchored, with each corner on the corresponding side; the sandwich
  F inside P inside G proves joint optimality, and area(G) = 2 area(F)).
* `largest_quadrilateral`, the vertex walk over the antipodal pairs, and
  `smallest_parallelogram`, the edge-flush scan over a full turn with one
  flush side, are independent cross-check routes: `quadpara verify`
  compares the sweep's two areas against them.  Each computes one figure
  alone, without a certificate.

Largest-quadrilateral candidates are evaluated only when a diagonal
endpoint sits at a vertex; smallest-parallelogram candidates only when a
side is edge-flush.  Between those events the areas are linear in the
sliding corner, so the extremes happen at interval endpoints.

The merged sweep lives in `quadpara.sweep`: a Python loop, and from a few
hundred vertices on a numpy path whose direction keys only propose the
order of the events, while every decision is still the sign of the loop's
own determinant expression; where one sign disagrees, the loop runs.
`anchored_conjugate_pair` reads its diagonal off D = P - P, whose layout
and lookup live there too (`sweep.DifferenceBody`).  Every parallelogram
corner is a `geometry._meet` of two sides, and a certificate's checks are
the fields of `CertificateChecks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .geometry import (
    ConvexPolygon,
    Direction,
    ParallelLines,
    Point,
    Segment,
    SweepOverrun,
    _det_sign,
    _meet,
    _run_end,
    _shoelace,
    _unit,
    _vec,
    _vertex_margin_max,
    chord_through,
    contains_point,
    quad_area,
)
from .sweep import _combined_sweep

CERT_TOL = 1e-9
"""Relative residual tolerance of every conjugate-pair certificate."""


def _dist_tol(P: ConvexPolygon) -> float:
    """The distance tolerance of the certificates, CERT_TOL * max|coord|:
    with no absolute floor, the checks made scale exactly with the polygon.
    No construction reads it."""
    return CERT_TOL * P.scale


@dataclass(frozen=True)
class QuadResult:
    """A contained quadrilateral: CCW corners, their vertex indices where a
    corner is exactly that polygon vertex (None for a slid corner, or a
    chord's end inside an edge), area."""

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
    """The certificate's checks, one field each: a bool, or a tuple of
    bools that holds where all hold.  `all_ok` and the CLI's JSON read the
    fields, so a new field is a new check in both."""

    anchoring_d: bool
    anchoring_s: bool
    corner_on_side: tuple[bool, bool, bool, bool]
    quad_in_polygon: bool
    polygon_in_para: bool
    area_ratio: bool

    @property
    def all_ok(self) -> bool:
        values = (getattr(self, f.name) for f in fields(self))
        return all(all(v) if isinstance(v, tuple) else v for v in values)


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


def _side_direction(P: ConvexPolygon, loc_a, loc_c, p0, p1) -> tuple[float, float]:
    """The vector of an edge whose parallel lines through both ends of a
    chord along p1 - p0, located as ("vertex", j) or ("edge", k), support
    P.  The candidates are the edge at a mid-edge end and the two edges at
    a vertex end, from a's end, then c's; an edge along the chord is passed
    over, since it would give a flat parallelogram.  An edge's line
    supports P at its own end, so a candidate is tested at the other end
    only: at vertex m, p[m - 1] and p[m + 1] must not lie strictly on
    opposite sides of the parallel line through p[m]; inside edge k, edge k
    must be parallel to it.  Every test is an exact sign on the vertices
    (`_det_sign`).  Where the chord is not exactly an affine diameter (the
    sweep's float diagonal), no candidate may pass, and the first is
    taken."""
    first = None
    for (kind, j), (other, m) in ((loc_a, loc_c), (loc_c, loc_a)):
        for e in [j] if kind == "edge" else [j - 1, j]:
            p, q = P[e], P[e + 1]
            if _det_sign(p0, p1, p, q) == 0:
                continue
            if other == "edge":
                supports = _det_sign(p, q, P[m], P[m + 1]) == 0
            else:
                supports = _det_sign(p, q, P[m], P[m - 1]) * _det_sign(p, q, P[m], P[m + 1]) >= 0
            if supports:
                return P.edge_vector(e)
            first = e if first is None else first
    return P.edge_vector(first)


def _parallelogram(
    a, b, c, d, u: Direction, v: Direction, touch: tuple[int, int, int, int], area: Optional[float] = None
) -> ParaResult:
    """The parallelogram whose sides through a and c are parallel to v and
    whose sides through b and d are parallel to u, with corners ordered
    (d^a, a^b, b^c, c^d), each the `_meet` of its two sides.  Raises
    ParallelLines where u and v have zero determinant."""
    sides = [(_vec(p), _vec(w)) for p, w in ((d, u), (a, v), (b, u), (c, v), (d, u))]
    meets = [_meet(*s, *t) for s, t in zip(sides, sides[1:])]
    if None in meets:
        raise ParallelLines("line directions are parallel")
    g = tuple(Point(*m) for m in meets)
    return ParaResult(g, u, v, quad_area(*g) if area is None else area, touch)


def _longest_chord(P: ConvexPolygon, u: Direction) -> tuple[Segment, tuple]:
    """The exactly longest chord along u, through the first vertex i, in
    index order, on ties: `chord_through(P, P[i], u)`, or the exact chord,
    rounded, where rounding collapses that one to a point.  With it, its
    ends in the order of the segment's, along +u: ("vertex", j) where the
    end is exactly p[j], else ("edge", k).  u is a `_dyadic_unit` vector.
    Every decision is an exact sign (`_det_sign`).

    The walk holds a vertex v and the edge k where the line through p[v]
    along u leaves P.  Chord length is concave in the line's offset, so
    p[v]'s chord is the longest unless it grows toward p[v - 1], iff
    e[v - 1] x e[lo] > 0, or toward p[v + 1], iff e[v] x e[hi] < 0, for the
    far edges lo and hi on those sides; if neither, P has parallel
    supporting lines at its ends, an affine diameter (Rogers and Shephard,
    1957).  Else the walk steps to the nearer next vertex on that side, on
    either chain.  D = P - P proposes the first state, the pair of the edge
    of D that the ray along u crosses (`sweep.DifferenceBody.crossed_edge`
    and `.proposal`): a wrong proposal costs steps, never the answer.  A
    zero product means parallel edges, between which every chord is
    longest; their at most four vertices are found by one step across, and
    the first is taken.
    """
    n, o, w = P.n, (0.0, 0.0), (u.dx, u.dy)

    def side(v, m):  # the side of p[m] of the line through p[v] along u
        return _det_sign(o, w, P[v], P[m])

    def turn(i, k):  # e[i] x e[k]
        return _det_sign(P[i], P[i + 1], P[k], P[k + 1])

    def settle(v, k):
        """(v, lo, hi, [(i, v, k, ends)]), k searched from edge k along the
        ring, where the sides change once; from p[v + 1] where the line
        through p[v] only touches P.  The chord leaves p[v] along +u iff
        the ring runs right of it from p[v], and ends at a vertex, lo, iff
        one side is 0; i is its first vertex."""
        t, first = min(max((k - v) % n, 1), n - 2), None
        while 1 <= t <= n - 2:
            k = (v + t) % n
            g0, g1 = side(v, k), side(v, k + 1)
            if g0 * g1 <= 0:
                lo = (k + (g1 == 0)) % n
                far = ("edge", k) if g0 * g1 else ("vertex", lo)
                ends = (("vertex", v), far) if g0 < 0 or g1 > 0 else (far, ("vertex", v))
                i = v if g0 * g1 else min(v, lo)
                return v, lo, (k - (g0 == 0)) % n, [(i, v, k, ends)]
            first = side(v, v + 1) if first is None else first
            t += 1 if g0 == first else -1
        return settle((v + 1) % n, v)

    def step(v, d, f):
        """The next state toward p[v + d], f the far edge on that side."""
        a, b = (v + d) % n, (f + (d < 0)) % n
        return (b, (v - (d < 0)) % n) if side(a, b) == side(a, v) else (a, f)

    D = P.difference_body()
    a, c, c_steps = D.proposal(D.crossed_edge(u.dx, u.dy))
    v, lo, hi, chords = settle(a, c) if c_steps else settle(c, a)
    while max(grow := (turn(v - 1, lo), -turn(v, hi))) > 0:
        v, lo, hi, chords = settle(*(step(v, -1, lo) if grow[0] > 0 else step(v, 1, hi)))
    for d, f, g, own in ((-1, lo, grow[0], (v - 1) % n), (1, hi, grow[1], v)):
        if g == 0 and f != own:  # parallel edges, not the chord's own
            chords += settle(*step(v, d, f))[3]
    i, v, k, ends = min(chords)
    seg = chord_through(P, P[i], u)
    if seg.a != seg.b:
        return seg, ends
    # An edge at p[i] within rounding of parallel to u turned the float
    # line away from P there.  The chord is p[v]'s, to where the line
    # crosses edge k.  (Imported here: `fractions` would add about 2 ms to
    # the package's import for this rare branch.)
    from fractions import Fraction

    px, py, ax, ay, bx, by, ux, uy = map(Fraction, (*P[v], *P[k], *P[k + 1], u.dx, u.dy))
    t = ((ax - px) * (by - ay) - (ay - py) * (bx - ax)) / (ux * (by - ay) - uy * (bx - ax))
    far = Point(float(px + t * ux), float(py + t * uy))
    return Segment(P[v], far) if t > 0 else Segment(far, P[v]), ends


def anchored_conjugate_pair(P: ConvexPolygon, u) -> tuple[QuadResult, ParaResult]:
    """The largest contained quadrilateral whose diagonal is parallel to u,
    with the smallest enclosing parallelogram whose sides are parallel to u.

    The pair is conjugate: the quadrilateral's diagonal is the longest chord
    parallel to u, the other two corners touch the supporting lines parallel
    to u, and the parallelogram has exactly twice the quadrilateral's area.

    The diagonal is chosen from D = P - P, built once per polygon in
    O(n log n) numpy work and cached (`ConvexPolygon.difference_body`): one
    binary search proposes it, and exact signs confirm it or step to it
    (`_longest_chord`).  It is the exactly longest chord along u, through
    the first vertex on ties, measured once; b and d are the end vertices
    of the maximizers and of the minimizers of one more O(n) projection.
    `oracle.longest_chord` measures the chord through every vertex in
    floats, in O(n^2).

    Every branch is an exact sign, and no tolerance enters: the lookup's
    own signs say whether each end of the chord is a vertex or inside an
    edge, and the side pair is an edge at one end whose parallel line
    through the other end supports P (`_side_direction`).

    The pair is computed with u scaled by a power of two (`_dyadic_unit`),
    so u and 2^j u give the same pair, bit for bit, at every magnitude; only
    `side_dir_bd` reports the caller's vector, made canonical.
    """
    uc = Direction(*_vec(u)).canonical()
    un = Direction(*_unit(uc))

    (a_pt, c_pt), (loc_a, loc_c) = _longest_chord(P, un)
    v = _side_direction(P, loc_a, loc_c, (0.0, 0.0), (un.dx, un.dy))

    # b and d from one projection: d's direction is the exact negation of
    # b's, so its maximizers are this projection's minimizers.
    xy = P.coords()
    proj = xy[:, 0] * un.dy - xy[:, 1] * un.dx
    b_idx = _run_end(np.flatnonzero(proj == proj.max()), P.n)
    d_idx = _run_end(np.flatnonzero(proj == proj.min()), P.n)
    b_pt, d_pt = P[b_idx], P[d_idx]

    idx_a = loc_a[1] if loc_a[0] == "vertex" else None
    idx_c = loc_c[1] if loc_c[0] == "vertex" else None
    quad = QuadResult(
        (a_pt, b_pt, c_pt, d_pt),
        (idx_a, b_idx, idx_c, d_idx),
        quad_area(a_pt, b_pt, c_pt, d_pt),
    )

    para = _parallelogram(a_pt, b_pt, c_pt, d_pt, un, Direction(*v), (loc_a[1], b_idx, loc_c[1], d_idx))
    return quad, replace(para, side_dir_bd=uc)


def verify_conjugate_pair(F: QuadResult, G: ParaResult, u, P: ConvexPolygon) -> ConjugateCertificate:
    """Evaluate every conjugate-pair condition plus the sandwich containments
    and the factor-two area relation; failures are recorded, not raised.

    Angles are compared with CERT_TOL, distances with CERT_TOL * scale and
    areas with CERT_TOL * scale**2, where scale is the polygon's max absolute
    coordinate (`_dist_tol`); with no absolute floor, the checks on P scaled
    by 2^j are those on P.  The anchor u and G.side_dir_bd enter scaled by a
    power of two (`_dyadic_unit`), so their magnitudes move no check.
    """
    udir = Direction(*_vec(u))
    ux, uy = _unit(udir)
    dist_tol = _dist_tol(P)
    ulen = math.hypot(ux, uy)

    A, B, C, D = F.corners
    anchoring_d = abs((C.x - A.x) * uy - (C.y - A.y) * ux) / ulen <= dist_tol

    sbx, sby = _unit(G.side_dir_bd)
    anchoring_s = abs(sbx * uy - sby * ux) / (math.hypot(sbx, sby) * ulen) <= CERT_TOL

    # G's sides, side k from corner k to corner k + 1, and their lengths,
    # read by both checks on G.
    ring = np.array(G.corners + G.corners[:1])
    g, e = ring[:4], ring[1:] - ring[:4]
    lengths = [math.hypot(ex, ey) for ex, ey in e.tolist()]
    on_side = []
    for corner, p, (ex, ey), elen in zip((A, B, C, D), G.corners, e.tolist(), lengths):
        if elen == 0.0:
            on_side.append(math.hypot(corner.x - p.x, corner.y - p.y) <= dist_tol)
        else:
            on_side.append(abs(ex * (corner.y - p.y) - ey * (corner.x - p.x)) / elen <= dist_tol)

    quad_in_polygon = contains_point(P, F.corners, dist_tol)

    # Every vertex against G's four sides at once, one side per row, whose
    # largest margin meets that side's threshold.  A clockwise G is read as
    # its reversed ring: each side from its far end.
    if _shoelace(g) < 0.0:
        g, e = ring[1:], -e
    side_max = _vertex_margin_max(P, g[:, :1], g[:, 1:], e[:, :1], e[:, 1:])
    inside = bool((side_max <= dist_tol * np.array(lengths)).all())

    area_ratio = abs(G.area - 2.0 * F.area) <= dist_tol * P.scale

    checks = CertificateChecks(
        anchoring_d=anchoring_d,
        anchoring_s=anchoring_s,
        corner_on_side=tuple(on_side),
        quad_in_polygon=quad_in_polygon,
        polygon_in_para=inside,
        area_ratio=area_ratio,
    )
    return ConjugateCertificate(F, G, udir, checks)


def combined_extremes(P: ConvexPolygon) -> ExtremesReport:
    """Both extremal figures from one merged sweep, with verified
    conjugate-pair certificates and the sweep's predicate count."""
    maxarea, (ma, mb, mc, md), minarea, mstate, ndet = _combined_sweep(P.coords())

    qa, qb, qc, qd = P[ma], P[mb], P[mc], P[md]
    max_quad = QuadResult((qa, qb, qc, qd), (ma, mb, mc, md), maxarea)
    u_max = Direction(qc.x - qa.x, qc.y - qa.y)
    v_max = _side_direction(P, ("vertex", ma), ("vertex", mc), qa, qc)
    g_max = _parallelogram(qa, qb, qc, qd, u_max, Direction(*v_max), (ma, mb, mc, md))
    quad_cert = verify_conjugate_pair(max_quad, g_max, u_max, P)

    # The slid corner lies on the flush edge, where the chord along u_bd
    # through the opposite corner meets it, or at the edge's base vertex
    # where that chord runs along the edge; the sides through it and the
    # opposite corner are parallel to that edge.
    a_slides, sa, sb_, sc, sd, ubx, uby = mstate
    pa, pb, pc, pd = P[sa], P[sb_], P[sc], P[sd]
    base, fixed = (pa, pc) if a_slides else (pc, pa)
    e = P.edge_vector(sa if a_slides else sc)
    slid = Point(*(_meet(base, e, fixed, (ubx, uby)) or base))
    if a_slides:
        fa, fc, f_indices = slid, pc, (None, sb_, sc, sd)
    else:
        fa, fc, f_indices = pa, slid, (sa, sb_, None, sd)
    min_f = QuadResult((fa, pb, fc, pd), f_indices, quad_area(fa, pb, fc, pd))
    u_min = Direction(ubx, uby)
    v_min = Direction(*e)
    min_para = _parallelogram(fa, pb, fc, pd, u_min, v_min, (sa, sb_, sc, sd), area=minarea)
    para_cert = verify_conjugate_pair(min_f, min_para, u_min, P)

    return ExtremesReport(max_quad, min_para, quad_cert, para_cert, ndet)


def _vertical_extremes(P: ConvexPolygon) -> tuple[int, int]:
    """Lowest-leftmost and highest-rightmost vertex indices."""
    x, y = P.coords().T
    low = np.flatnonzero(y == y.min())
    high = np.flatnonzero(y == y.max())
    return int(low[np.argmin(x[low])]), int(high[np.argmax(x[high])])


def largest_quadrilateral(P: ConvexPolygon) -> QuadResult:
    """Largest contained quadrilateral via the antipodal-pair walk alone.

    Starts from the vertical extreme vertices, advances the diagonal pair
    (a, c) one vertex per step, and keeps the two far support vertices b, d
    updated; all corners of the result are polygon vertices.
    """
    n = P.n
    xs, ys = P.coords().T.tolist()
    exs, eys = (e.tolist() for e in P.edges())
    a0, c0 = _vertical_extremes(P)
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

        while True:
            # Advance a to the vertex opposite edge (c, c+1); on a parallel-
            # edge tie, cross the flat stretch only while p_{a+1} still
            # reaches at least as far as p_c for the current direction u.
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
            # Then advance the chord edge c while p_a lies beyond it, and
            # settle a again for the new edge.
            steps += 1
            if steps > guard:
                raise SweepOverrun("chord edge c did not settle")
            i, j = a % n, (c + 1) % n
            if ux * (ys[i] - ys[j]) - uy * (xs[i] - xs[j]) > 0.0:
                c += 1
            else:
                break
        ax, ay = xs[a % n], ys[a % n]
        cx, cy = xs[c % n], ys[c % n]
        if ux * (ay - cy) - uy * (ax - cx) >= 0.0:
            # Where the chord through p_a runs along the flush-parallel edge
            # line, the slid corner is p_c.
            c_slid = _meet((cx, cy), (exs[c % n], eys[c % n]), (ax, ay), (ux, uy)) or (cx, cy)
            cand = 2.0 * quad_area((ax, ay), (xs[b], ys[b]), c_slid, (xs[d % n], ys[d % n]))
            if cand < minarea:
                minarea = cand
                best = (a % n, b % n, c % n, d % n, c_slid)
    if best is None:
        raise SweepOverrun("no edge-flush candidate found; invalid polygon?")
    ia, ib, ic, id_, c_slid = best
    u = Direction(exs[ib], eys[ib])
    v = Direction(exs[ic], eys[ic])
    return _parallelogram(P[ia], P[ib], Point(*c_slid), P[id_], u, v, (ia, ib, ic, id_), area=minarea)
