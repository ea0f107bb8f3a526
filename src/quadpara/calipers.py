"""Interval structures of a strictly convex polygon over a half turn of
directions.

* `support_intervals`: the ranges of directions on which the parallel
  supporting lines touch a fixed vertex pair (b, d); the boundaries are the
  edge directions.  `antipodal_vertex_pairs` lists those pairs.
* `diagonal_intervals`: the ranges of directions on which the longest
  chord keeps one endpoint at a fixed vertex q while the other slides along
  a fixed edge e.

Both walks start from `vertical_extremes`, the lowest and the highest
vertex, as does `extremal.largest_quadrilateral`.  Directions are kept as
raw vectors and every ordering decision is a determinant sign; angles never
appear at runtime.

The extremal figures do not use these lists: `extremal._combined_sweep` is
the one sweep engine, merging the chord events and the support events in a
single pass without building either structure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import ConvexPolygon, Direction, SweepOverrun, det


class AntipodalPair(NamedTuple):
    i: int
    j: int


class VerticalExtremes(NamedTuple):
    a0: int  # lowest vertex, leftmost among ties
    c0: int  # highest vertex, rightmost among ties


class DiagonalInterval(NamedTuple):
    """One structural interval of the antipodal chord: the stationary vertex
    q stays put while the other chord endpoint slides along edge e."""

    q: int
    e: int
    which_slides: str  # "A" or "C"
    dir_start: Direction
    dir_end: Direction


class SupportInterval(NamedTuple):
    """Directions in [dir_start, dir_end] all admit parallel supporting
    lines through vertices b and d."""

    b: int
    d: int
    dir_start: Direction
    dir_end: Direction


def vertical_extremes(P: ConvexPolygon) -> VerticalExtremes:
    """Lowest-leftmost and highest-rightmost vertex indices."""
    x, y = P.coords().T
    low = np.flatnonzero(y == y.min())
    high = np.flatnonzero(y == y.max())
    return VerticalExtremes(int(low[np.argmin(x[low])]), int(high[np.argmax(x[high])]))


def support_intervals(P: ConvexPolygon) -> list[SupportInterval]:
    """The support-pair structure over a half turn of directions.

    Interval boundaries are exactly the edge directions of P reduced modulo
    a half turn, in CCW order starting from the lowest edge; parallel
    opposite edges merge into a single boundary.  On each closed interval
    the lines through vertices b and d parallel to the direction support P.
    """
    n = P.n
    a0, c0 = vertical_extremes(P)
    right = [(a0 + t) % n for t in range((c0 - a0) % n)]
    left = [(c0 + t) % n for t in range((a0 - c0) % n)]

    def canon(k: int) -> tuple[float, float]:
        ex, ey = P.edge_vector(k)
        if ey < 0.0 or (ey == 0.0 and ex < 0.0):
            return -ex, -ey
        return ex, ey

    i = j = 0
    b, d = a0, c0
    marks: list[tuple[float, float]] = []
    pairs: list[tuple[int, int]] = []
    while i < len(right) or j < len(left):
        if i < len(right) and j < len(left):
            u = canon(right[i])
            v = canon(left[j])
            cross = u[0] * v[1] - u[1] * v[0]
            take_r = cross >= 0.0
            take_l = cross <= 0.0
        else:
            take_r = i < len(right)
            take_l = not take_r
        if take_r:
            mark = canon(right[i])
            b = (right[i] + 1) % n
            i += 1
        if take_l:
            mark = canon(left[j])
            d = (left[j] + 1) % n
            j += 1
        marks.append(mark)
        pairs.append((b, d))
    out = []
    k = len(marks)
    for t in range(k):
        sx, sy = marks[t]
        ex, ey = marks[(t + 1) % k]
        out.append(SupportInterval(pairs[t][0], pairs[t][1], Direction(sx, sy), Direction(ex, ey)))
    return out


def antipodal_vertex_pairs(P: ConvexPolygon) -> list[AntipodalPair]:
    """Antipodal vertex pairs arising from the support-interval structure.

    Pairs supported only at the single direction of a parallel opposite
    edge pair are not produced.
    """
    seen: set[tuple[int, int]] = set()
    out: list[AntipodalPair] = []
    for iv in support_intervals(P):
        key = (iv.b, iv.d) if iv.b <= iv.d else (iv.d, iv.b)
        if key not in seen:
            seen.add(key)
            out.append(AntipodalPair(iv.b, iv.d))
    return out


def _raw_diagonal_walk(P: ConvexPolygon) -> list[tuple[int, int, str, Direction, Direction]]:
    """One half-turn walk of the antipodal chord from the vertical extremes:
    n structural intervals whose direction ranges chain continuously."""
    n = P.n
    xs, ys = P.coords().T.tolist()
    exs, eys = (e.tolist() for e in P.edges())
    a0, c0 = vertical_extremes(P)
    a, c = a0, c0
    cur = Direction(xs[c] - xs[a], ys[c] - ys[a])
    out = []
    for _ in range(8 * n + 16):
        i, j = a % n, c % n
        if i == c0 and j == a0:
            return out
        if exs[i] * eys[j] - eys[i] * exs[j] <= 0.0:
            k = (a + 1) % n
            nxt = Direction(xs[j] - xs[k], ys[j] - ys[k])
            out.append((j, i, "A", cur, nxt))
            a += 1
        else:
            k = (c + 1) % n
            nxt = Direction(xs[k] - xs[i], ys[k] - ys[i])
            out.append((i, j, "C", cur, nxt))
            c += 1
        cur = nxt
    raise SweepOverrun("diagonal walk did not return to the swapped start")


def diagonal_intervals(P: ConvexPolygon) -> list[DiagonalInterval]:
    """The vertex-edge structure of the antipodal chord over the half turn
    of directions starting at (1, 0).

    Intervals partition the half turn and consecutive intervals share
    boundary directions.  When (1, 0) falls strictly inside a structural
    interval, that interval is listed twice (split head and tail), giving
    n + 1 entries; when (1, 0) is itself a breakpoint there are n entries.
    """
    raw = _raw_diagonal_walk(P)
    n = len(raw)
    start = Direction(1.0, 0.0)

    for i, (q, e, flag, s, _t) in enumerate(raw):
        if det(s, start) == 0.0:
            rolled = raw[i:] + raw[:i]
            out = []
            for k, (q2, e2, f2, s2, t2) in enumerate(rolled):
                if k >= n - i:  # wrapped past the half turn: negate representatives
                    s2, t2 = -s2, -t2
                out.append(DiagonalInterval(q2, e2, f2, s2, t2))
            return out

    for i, (q, e, flag, s, t) in enumerate(raw):
        for rep in (start, -start):
            if det(s, rep) > 0.0 and det(rep, t) > 0.0:
                head = DiagonalInterval(q, e, flag, rep, t)
                tail = DiagonalInterval(q, e, flag, -s, -rep)
                mid = []
                for k in range(1, n):
                    q2, e2, f2, s2, t2 = raw[(i + k) % n]
                    if i + k >= n:
                        s2, t2 = -s2, -t2
                    mid.append(DiagonalInterval(q2, e2, f2, s2, t2))
                return [head] + mid + [tail]
    raise SweepOverrun("direction (1, 0) not located in the chord structure")
