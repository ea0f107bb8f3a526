"""Slow, independent ground-truth computations.

These deliberately avoid the rotating sweep: the quadrilateral oracle
enumerates vertex tuples (a largest contained k-gon can always be chosen
with its corners at polygon vertices), and the parallelogram oracle scans
edge directions (a smallest enclosing parallelogram has an edge-flush side).
Complexity budgets are enforced by callers, not here.

The enumerations are those of plain Python loops over the chords and the
tuples, run as numpy passes over blocks that one memory budget sizes
(_CHORD_BLOCK): of directions and vertices for the chords, and of vertex
4-tuples over consecutive second corners for the quadrilaterals.  Every
candidate is evaluated with the loops' float expressions and the loops'
winner is kept on ties, so results are bit-identical to the loops, which
the tests keep as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    Point,
    Segment,
    _chord_directions,
    _chord_params,
    _neg_margins,
    _unit,
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


# One numpy pass of an oracle keeps its float64 temporaries within about
# 512 KiB at any n: the chords are measured in blocks of at most
# _CHORD_BLOCK (direction, vertex, edge) quotients, the quadrilaterals in
# passes of at most _CHORD_BLOCK // 4 areas, two such arrays being live at
# once.  Larger blocks make fewer numpy calls, but past these sizes each
# call costs more per element and the peak memory grows.
_CHORD_BLOCK = (512 << 10) // 8


def _longest_vertex_chords(P: ConvexPolygon, ux: np.ndarray, uy: np.ndarray, margins):
    """For each direction (ux[j], uy[j]), given as (b, 1) columns, the
    endpoints ax, ay, bx, by of the first longest `chord_through` a vertex
    of P, as four (b,) arrays.

    `margins(s, e)` gives `_neg_margins` of vertices s..e-1 against every
    edge.  The chord parameters are computed in blocks of _CHORD_BLOCK //
    n^2 directions, or of one direction and equal blocks of vertices once a
    direction's n^2 (vertex, edge) pairs exceed _CHORD_BLOCK; what depends
    only on the directions, once per block of directions.  The endpoints
    and extents of all b * n chords are computed at once.
    """
    xy = P.coords()
    vx, vy = xy[:, 0], xy[:, 1]
    ex, ey = P.edges()
    b, n = len(ux), P.n
    per = max(1, _CHORD_BLOCK // (n * n))
    rows = math.ceil(n / math.ceil(n * n / _CHORD_BLOCK))
    t0, t1 = np.empty((b, n)), np.empty((b, n))
    # The chord parameters, endpoints and extents; overflow gives inf
    # without a warning, as in Python float arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, b, per):
            directions = _chord_directions(ex, ey, ux[j : j + per, :, None], uy[j : j + per, :, None])
            for s in range(0, n, rows):
                t0[j : j + per, s : s + rows], t1[j : j + per, s : s + rows] = _chord_params(
                    margins(s, s + rows), directions
                )
        ax, ay, bx, by = vx + t0 * ux, vy + t0 * uy, vx + t1 * ux, vy + t1 * uy
        ext = (bx - ax) * ux + (by - ay) * uy  # (b - a) . u: the t-extent * |u|^2
    np.fmax(ext, -1.0, out=ext)  # NaN never wins
    j = np.arange(b)
    i = np.argmax(ext, axis=1)  # the first of the longest
    assert (ext[j, i] > -1.0).all()
    return ax[j, i], ay[j, i], bx[j, i], by[j, i]


def longest_chord(P: ConvexPolygon, u) -> Segment:
    """The longest chord of P parallel to u.

    Realized exhaustively: the maximum of chord length over the heights of P
    is attained at a vertex height, so the longest chord passes through some
    vertex.  Ties keep the lowest vertex index.  `chord_through` for every
    vertex, in O(n^2) array passes over blocks of vertices, makes this the
    float check of `anchored_conjugate_pair`'s exactly chosen chord: their
    lengths agree within tolerance.  u enters as its `_dyadic_unit`
    representative (`geometry._unit`).
    """
    ux, uy = _unit(u)
    xy = P.coords()
    vx, vy = xy[:, 0], xy[:, 1]
    ex, ey = P.edges()
    ends = _longest_vertex_chords(
        P, np.array([[ux]]), np.array([[uy]]), lambda a, b: _neg_margins(vx[a:b, None], vy[a:b, None], vx, vy, ex, ey)
    )
    ax, ay, bx, by = (float(v[0]) for v in ends)
    return Segment(Point(ax, ay), Point(bx, by))


def brute_anchored_quad_area(P: ConvexPolygon, u) -> float:
    """Half of longest-chord length times width, both taken parallel to u.

    This is the area of the largest quadrilateral whose diagonal is parallel
    to u, computed without any sweep machinery.  Both factors take u as its
    `_dyadic_unit` representative, so the magnitude of u does not matter.
    """
    return 0.5 * longest_chord(P, u).length() * width(P, u)


def brute_largest_quad(P: ConvexPolygon) -> OracleQuad:
    """Exhaustive maximum of quad_area over CCW vertex 4-tuples.

    For n == 3 the enumeration uses 4-multisets, so the optimum degenerates
    to the triangle itself with a repeated corner.  Ties keep the
    lexicographically smallest index tuple.
    """
    n = P.n
    # The 4-multisets of range(3), in lexicographic order, are the
    # 4-combinations of range(6) in that order with corner r lowered by r.
    m, drop = (6, (0, 1, 2, 3)) if n == 3 else (n, (0, 0, 0, 0))
    k, l = np.triu_indices(m, 1)  # the pairs k < l, in lexicographic order
    start = np.searchsorted(k, np.arange(m), side="right")  # those with k > j
    xy = P.coords()
    x, y = xy[:, 0], xy[:, 1]
    cx, cy = x[k - drop[2]], y[k - drop[2]]
    dx, dy = x[l - drop[3]], y[l - drop[3]]
    best = None
    best_area = -1.0
    # quad_area's expression on every tuple (i, j, k, l), in passes over
    # consecutive second corners j0 <= j < j1, each one (i, j, pair) block:
    # all i < j1 - 1, all j, and all pairs k < l with k > j0, of which
    # those with i >= j or k <= j are no tuple.  A pass holds at most
    # _CHORD_BLOCK // 4 elements, or one second corner.  Python floats
    # overflow silently; so do these.
    j0 = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while j0 < m - 2:
            s = start[j0]
            j1 = j0 + 1
            while j1 < m - 2 and j1 * (j1 + 1 - j0) * (len(k) - s) <= _CHORD_BLOCK // 4:
                j1 += 1
            ax, ay = x[: j1 - 1, None, None], y[: j1 - 1, None, None]
            bx, by = x[j0 - drop[1] : j1 - drop[1], None], y[j0 - drop[1] : j1 - drop[1], None]
            area = (cx[s:] - ax) * (dy[s:] - by)
            area -= (dx[s:] - bx) * (cy[s:] - ay)
            np.abs(area, out=area)
            area *= 0.5
            np.fmax(area, -1.0, out=area)  # NaN never wins
            for j in range(j0, j1):
                area[j:, j - j0] = -1.0
                area[:, j - j0, : start[j] - s] = -1.0
            i, h = divmod(int(np.argmax(area)), area.shape[1] * area.shape[2])  # the pass's first maximum
            j, h = divmod(h, area.shape[2])
            got = float(area[i, j, h])
            idx = (i, j0 + j - drop[1], int(k[s + h]) - drop[2], int(l[s + h]) - drop[3])
            # The passes run in order of j, not of i, so an equal area found
            # later can still come first in lexicographic order.
            if got > best_area or (got == best_area and best is not None and idx < best):
                best_area = got
                best = idx
            j0 = j1
    assert best is not None
    return OracleQuad(best, best_area)


def brute_smallest_para(P: ConvexPolygon) -> OraclePara:
    """Exhaustive minimum over edge directions of chord length times width.

    A smallest enclosing parallelogram can be chosen with one side pair
    flush against an edge, so scanning the n edge directions suffices.
    Ties keep the smallest edge index.

    For every edge direction the chord through every vertex is measured,
    as `longest_chord` measures it: O(n^3) work.  The margins of every
    vertex against every edge do not depend on the direction, so they are
    computed once, as an n x n array.  The directions are then taken in
    blocks of _CHORD_BLOCK // 8n, whose (direction, n) arrays stay within
    one block, and `_longest_vertex_chords` measures their chords in
    blocks of _CHORD_BLOCK quotients.  Each chord length and width is the
    Python float that `Segment.length` and `width` compute for that
    direction.
    """
    n = P.n
    xy = P.coords()
    vx, vy = xy[:, 0], xy[:, 1]
    ex, ey = P.edges()
    exs, eys = ex.tolist(), ey.tolist()
    neg_c = _neg_margins(vx[:, None], vy[:, None], vx, vy, ex, ey)  # vertex i, edge k
    # About eight (directions, n) arrays are live at once.
    dirs = max(1, _CHORD_BLOCK // (8 * n))
    best_edge = -1
    best_area = math.inf
    for s in range(0, n, dirs):
        ux, uy = ex[s : s + dirs, None], ey[s : s + dirs, None]
        ax, ay, bx, by = _longest_vertex_chords(P, ux, uy, lambda a, b: neg_c[a:b])
        proj = vx * -uy + vy * ux  # width's expression
        spread = proj.max(axis=1) - proj.min(axis=1)
        for e, lx, ly, w in zip(range(s, n), (bx - ax).tolist(), (by - ay).tolist(), spread.tolist()):
            area = math.hypot(lx, ly) * (w / math.hypot(exs[e], eys[e]))
            if area < best_area:
                best_area = area
                best_edge = e
    return OraclePara(best_edge, best_area)
