"""Exact-sign planar primitives and convex-polygon validation.

All coordinates are binary64.  Every orientation decision is taken from the
sign of a 2x2 determinant with no epsilon.  On integer inputs with
|coordinate| <= 2**20 those determinants are computed exactly, so strict and
non-strict comparisons of triangle areas over a common base never disagree
with the true signs; tie cases (parallel edges) therefore branch correctly.
`_det_sign` gives the exact sign for any finite inputs; the anchored pair
is built with it.  `_meet` is the package's one float line meet: every
parallelogram corner and every slid corner comes from it, as every ring's
orientation and area come from `_shoelace`, with no BLAS call.  This module
keeps no tolerance of its own: `contains_point` compares with the
tolerance its caller passes.  The package's one distance tolerance is
`extremal._dist_tol`, CERT_TOL * max|coord|, which only the certificates
use; it has no absolute floor, so it scales with the polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


class GeometryError(ValueError):
    """Base class for invalid geometric input."""


class TooFewVertices(GeometryError):
    pass


class NotConvex(GeometryError):
    pass


class Degenerate(GeometryError):
    """Collinear triple, duplicate point, or zero-length direction."""


class NonFinite(GeometryError):
    pass


class ParallelLines(GeometryError):
    pass


class SweepOverrun(RuntimeError):
    """A rotating sweep exceeded its event budget (predicate-sign corruption)."""


class DegenerateSample(RuntimeError):
    """A random generator failed to produce a usable polygon."""


class Point(NamedTuple):
    x: float
    y: float


def _dyadic_unit(dx: float, dy: float) -> tuple[float, float]:
    """(dx, dy) times the power of two that brings its larger component into
    [0.5, 1).

    A direction is a vector modulo scale; this representative keeps the
    products and quotients formed from it clear of overflow and underflow.
    Scaling by a power of two is exact for normal and subnormal components,
    so u and 2^j u have the same representative.  Out of scope: a smaller
    component below 2^-1022 times the larger, whose representative is
    subnormal and may lose its low bits.
    """
    e = math.frexp(max(abs(dx), abs(dy)))[1]
    return math.ldexp(dx, -e), math.ldexp(dy, -e)


@dataclass(frozen=True, eq=False)
class Direction:
    """A nonzero vector modulo scaling: u and -u compare equal.

    Equality is the exact parallelism test on the `_dyadic_unit`
    representatives, so it holds for u and 2^j u at any magnitude.  The
    constructor's check, NonFinite or Degenerate, is the one that every
    function taking a direction makes (`_unit`).
    Unhashable: equality is parallelism, which no hash of the raw components
    can respect, so Directions cannot be set members or dict keys.
    """

    dx: float
    dy: float

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise NonFinite(f"direction components must be finite: {(self.dx, self.dy)}")
        if self.dx == 0.0 and self.dy == 0.0:
            raise Degenerate("zero vector is not a direction")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        ax, ay = _unit(self)
        bx, by = _unit(other)
        return ax * by - ay * bx == 0.0

    def canonical(self) -> "Direction":
        """The representative with dy > 0, or dy == 0 and dx > 0."""
        if self.dy < 0.0 or (self.dy == 0.0 and self.dx < 0.0):
            return Direction(-self.dx, -self.dy)
        return self


class Segment(NamedTuple):
    a: Point
    b: Point

    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)


def _vec(v) -> tuple[float, float]:
    """Coerce a Direction, Point, or coordinate pair to an (x, y) tuple."""
    if isinstance(v, Direction):
        return v.dx, v.dy
    x, y = v
    return float(x), float(y)


def _unit(u) -> tuple[float, float]:
    """The `_dyadic_unit` representative of the direction u, a Direction
    or an (x, y) pair.  Raises NonFinite or Degenerate as `Direction` does.

    Every function that takes a direction takes it from here, so u and
    2^j u give the same results, bit for bit."""
    if not isinstance(u, Direction):
        u = Direction(*_vec(u))
    return _dyadic_unit(u.dx, u.dy)


def quad_area(a, b, c, d) -> float:
    """Area of the convex CCW quadrilateral abcd: half |det(c-a, d-b)|.

    Degenerate quadrilaterals (coinciding corners, collapsed to a triangle
    or segment) are fine.
    """
    ax, ay = _vec(a)
    bx, by = _vec(b)
    cx, cy = _vec(c)
    dx, dy = _vec(d)
    return 0.5 * abs((cx - ax) * (dy - by) - (dx - bx) * (cy - ay))


def _pair_array(points: Iterable[Sequence[float]]) -> np.ndarray:
    """A fresh column-major (n, 2) float64 array of the (x, y) pairs in
    `points`, which may be any iterable, a generator or an array included:
    its x and y columns are contiguous."""
    xy = np.array(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64, order="F")
    if xy.shape == (0,):
        return xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected (x, y) pairs, got an array of shape {xy.shape}")
    return xy


def _next(a: np.ndarray) -> np.ndarray:
    """A fresh array holding a[(i + 1) % n] at index i, like np.roll(a, -1),
    built from two slices: np.roll costs several times as much on small
    arrays."""
    return np.concatenate((a[1:], a[:1]))


def _shoelace(xy: np.ndarray) -> float:
    """Twice the signed area of the ring of (x, y) rows: the per-edge terms
    x[i] y[i+1] - x[i+1] y[i], summed by numpy.  Not finite where a product,
    or the sum of the x[i] y[i+1] or of the x[i+1] y[i], overflows; callers
    reject the ring there, and run it under np.errstate on unchecked rings."""
    x, y = xy[:, 0], xy[:, 1]
    return _doubled_area(x, y, _next(x), _next(y))


def _doubled_area(x, y, x1, y1) -> float:
    """`_shoelace` of the ring with columns x and y, whose vertex i + 1 is
    (x1[i], y1[i])."""
    right = x * y1
    left = x1 * y
    finite = math.isfinite(np.add.reduce(right)) and math.isfinite(np.add.reduce(left))
    right -= left
    return float(np.add.reduce(right)) if finite else math.nan


def _ring_terms(xy: np.ndarray):
    """What the ring checks read of the (m, 2) rows xy, m >= 3, from one
    pass over its closed columns: (doubled, ex, ey, turn), its `_shoelace`,
    its m + 1 edge vectors, edge i running from vertex i to vertex i + 1
    and edge m repeating edge 0, and its m turns, turn[i] = e[i] x e[i + 1],
    the turn at vertex i + 1.  Products of huge coordinates overflow to inf
    or NaN without numpy's warnings; the callers' checks then reject the
    ring."""
    m = len(xy)
    # Closed columns: x[m] and x[m + 1] are vertices 0 and 1, so vertex
    # i + 1 and edge i + 1 are slices, with no modulo.
    x = np.concatenate((xy[:, 0], xy[:2, 0]))
    y = np.concatenate((xy[:, 1], xy[:2, 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        doubled = _doubled_area(x[:m], y[:m], x[1 : m + 1], y[1 : m + 1])
        ex = x[1:] - x[:-1]
        ey = y[1:] - y[:-1]
        # Free the closed columns before the turns: the constructor's
        # temporaries then peak at six columns, the ring's two included.
        del x, y
        turn = ex[:-1] * ey[1:]
        turn -= ey[:-1] * ex[1:]
    return doubled, ex, ey, turn


class ConvexPolygon:
    """A strictly convex, counterclockwise vertex ring.

    Every consecutive vertex triple turns strictly left: no collinear triples
    and no duplicate points.  Vertex indices wrap modulo n in `__getitem__`
    and `edge_vector`.  Instances are immutable and safe to share.

    The ring is stored once, as the column-major (n, 2) float64 array that
    `coords()` returns, so the passes over its x and y columns read
    contiguous memory.  `vertices`, indexing and iteration build `Point`s
    from it on every access.

    The constructor validates a vertex ring given in either orientation.
    Raises ValueError for rows that are not (x, y) pairs, TooFewVertices,
    NonFinite, Degenerate (collinear triple or duplicate point; see
    `canonicalize`), or NotConvex.
    """

    __slots__ = ("n", "_xy", "_edges", "_scale", "_dbody", "_doubled")

    def __init__(self, points: Iterable[Sequence[float]]):
        xy = _pair_array(points)
        if len(xy) < 3:
            raise TooFewVertices(f"need at least 3 vertices, got {len(xy)}")
        if not np.isfinite(xy).all():
            raise NonFinite("vertex coordinates must be finite")
        doubled, _, _, turn = terms = _ring_terms(xy)
        if doubled == 0.0:
            raise Degenerate("vertex ring has zero signed area")
        if doubled < 0.0:
            # The overflow check reads the given ring's doubled area, and P
            # keeps the reversed ring's own.
            xy = xy[::-1].copy(order="F")
            _, _, _, turn = terms = _ring_terms(xy)
        if not (math.isfinite(doubled) and np.isfinite(turn).all()):
            raise NonFinite("coordinates too large: the doubled area or an edge cross product overflows")
        if not turn.min() > 0.0:
            if (turn == 0.0).any():
                i = int(np.flatnonzero(turn == 0.0)[0])
                raise Degenerate(f"collinear or duplicate vertices around index {i + 1}")
            i = int(np.flatnonzero(turn < 0.0)[0])
            raise NotConvex(f"clockwise turn at vertex index {i + 1}")
        _adopt(self, xy, terms)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """All vertices as Points, built anew on every access."""
        return tuple(self)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Point:
        return Point._make(self._xy[i % self.n].tolist())

    def __iter__(self):
        # Point._make without its length check, which zip's pairs pass; two
        # column lists cost far less than n two-element row lists.
        x, y = self._xy.T.tolist()
        return map(tuple.__new__, repeat(Point), zip(x, y))

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self)!r})"

    def edge_vector(self, i: int) -> tuple[float, float]:
        px, py = self._xy[i % self.n].tolist()
        qx, qy = self._xy[(i + 1) % self.n].tolist()
        return qx - px, qy - py

    def coords(self) -> np.ndarray:
        """The (n, 2) float64 vertex array, column-major: `coords()[:, 0]`
        and `[:, 1]` are contiguous.  Do not mutate."""
        return self._xy

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge vectors (ex, ey), edge i running from vertex i to vertex
        i + 1; built on first use, then cached.  Do not mutate."""
        if self._edges is None:
            x, y = self._xy[:, 0], self._xy[:, 1]
            self._edges = (_next(x) - x, _next(y) - y)
        return self._edges

    def difference_body(self):
        """The difference body P - P as `sweep.DifferenceBody`: its vertices
        p[c] - p[a] over a half turn, as the index pairs (a, c), with their
        direction keys; built on first use in O(n log n) numpy work, then
        cached.  Do not mutate."""
        if self._dbody is None:
            from .sweep import _difference_body  # sweep imports this module

            self._dbody = _difference_body(self._xy, *self.edges())
        return self._dbody

    @property
    def scale(self) -> float:
        """Max absolute coordinate; the reference for relative tolerances."""
        return self._scale


def _adopt(P: ConvexPolygon, xy: np.ndarray, terms) -> None:
    """Make P the polygon of the ring xy, given its `_ring_terms` with
    finite turns, all > 0, or raise NotConvex if its edge directions wind
    more than once.  P keeps xy itself, and the doubled area summed on it."""
    doubled, ex, ey, _ = terms
    upper = (ey > 0.0) | ((ey == 0.0) & (ex > 0.0))
    if np.count_nonzero(~upper[:-1] & upper[1:]) != 1:
        raise NotConvex("edge directions wind more than once")
    x, y = xy[:, 0], xy[:, 1]
    P.n = len(xy)
    P._xy = xy
    P._edges = None
    P._scale = float(max(x.max(), -x.min(), y.max(), -y.min()))
    P._dbody = None
    P._doubled = doubled


def canonicalize(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Strip duplicate points and interior-of-edge vertices from a weakly
    convex ring, returning the strictly convex CCW ring as an (m, 2)
    float64 array.

    Consecutive equal points, and a tail equal to the first point, count
    once; a vertex is dropped when its turn is exactly zero, and the
    orientation is the sign of the ring's `_shoelace`.  Raises ValueError
    for rows that are not (x, y) pairs, NonFinite (also where a turn
    overflows, or the shoelace is not finite, as in the constructor), and
    Degenerate if fewer than 3 extreme points remain.
    """
    return _canonical(points)[0]


def _canonical(points: Iterable[Sequence[float]]):
    """`canonicalize`'s ring, and its `_ring_terms` where they are those of
    the fresh array returned and pass the constructor's checks of the
    turns: nothing was dropped, the ring is counterclockwise and every turn
    is > 0.  Otherwise the terms are None."""
    xy = _pair_array(points)
    if not np.isfinite(xy).all():
        raise NonFinite("vertex coordinates must be finite")
    given = len(xy)
    x, y = xy[:, 0], xy[:, 1]
    keep = np.ones(given, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    # Copy only when something is dropped: _pair_array's array is fresh, so
    # the result never shares memory with the caller's.
    if not keep.all():
        xy = xy[keep]
    if len(xy) > 1 and xy[0].tolist() == xy[-1].tolist():
        xy = xy[:-1]
    if len(xy) < 3:
        raise Degenerate("fewer than 3 distinct points")
    area2, _, _, turn = terms = _ring_terms(xy)
    if not (math.isfinite(area2) and np.isfinite(turn).all()):
        raise NonFinite("coordinates too large: the doubled area or a turn overflows")
    if area2 == 0.0:
        raise Degenerate("ring has zero area")
    if len(xy) == given and area2 > 0.0 and turn.min() > 0.0:
        return xy, terms
    # Reversing the ring negates every turn exactly, so the zero turns are
    # found before the orientation is fixed; vertex i turns by turn[i - 1].
    keep = np.concatenate((turn[-1:], turn[:-1])) != 0.0
    out = xy if keep.all() else xy[keep]
    if len(out) < 3:
        raise Degenerate("fewer than 3 extreme points remain")
    return (out[::-1] if area2 < 0.0 else out), None


def _canonical_polygon(points: Iterable[Sequence[float]]) -> ConvexPolygon:
    """`ConvexPolygon(canonicalize(points))`: the same polygon, or the same
    error.  A counterclockwise ring from which nothing is dropped, as every
    `quadpara gen` file is, is validated in one pass and kept without a
    second copy; any other ring goes through the constructor."""
    xy, terms = _canonical(points)
    if terms is None:
        return ConvexPolygon(xy)
    P = ConvexPolygon.__new__(ConvexPolygon)
    _adopt(P, xy, terms)
    return P


def polygon_area(P: ConvexPolygon) -> float:
    """Positive area of the polygon: half its `_shoelace`, which the
    constructor summed."""
    return 0.5 * P._doubled


def extreme_vertex(P: ConvexPolygon, d) -> int:
    """Index of the vertex maximizing the dot product with d.

    Ties (an edge perpendicular to d) break toward the vertex later in CCW
    order among the maximizers, so downstream output is deterministic.  d
    enters as its `_dyadic_unit` representative (`_unit`).
    """
    dx, dy = _unit(d)
    xy = P.coords()
    dots = xy[:, 0] * dx + xy[:, 1] * dy
    return _run_end(np.flatnonzero(dots == dots.max()), P.n)


def _run_end(idx: np.ndarray, n: int) -> int:
    """The tie rule of `extreme_vertex`: of the increasing vertex indices
    idx, the end of their run along the ring, the one whose successor is
    not in idx."""
    if len(idx) == 1:
        return int(idx[0])
    members = set(idx.tolist())
    return next((i for i in idx.tolist() if (i + 1) % n not in members), int(idx[-1]))


def width(P: ConvexPolygon, u) -> float:
    """Distance between the two supporting lines of P parallel to u.

    u enters as its `_dyadic_unit` representative (`_unit`)."""
    ux, uy = _unit(u)
    xy = P.coords()
    proj = xy[:, 0] * (-uy) + xy[:, 1] * ux
    return float(proj.max() - proj.min()) / math.hypot(ux, uy)


def chord_through(P: ConvexPolygon, q, u) -> Segment:
    """The intersection of the line {q + t*u} with P, as a segment.

    q must lie inside P or on its boundary.  The segment endpoints are
    ordered by increasing t, and may coincide (tangent at a corner).  u
    enters as its `_dyadic_unit` representative (`_unit`).
    """
    qx, qy = _vec(q)
    ux, uy = _unit(u)
    xy = P.coords()
    ex, ey = P.edges()
    with np.errstate(over="ignore"):
        neg_c = _neg_margins(qx, qy, xy[:, 0], xy[:, 1], ex, ey)
        t0, t1 = _chord_params(neg_c, _chord_directions(ex, ey, ux, uy))
    t0, t1 = float(t0), float(t1)
    return Segment(Point(qx + t0 * ux, qy + t0 * uy), Point(qx + t1 * ux, qy + t1 * uy))


def _neg_margins(qx, qy, vx, vy, ex, ey):
    """ey * (qx - vx) - ex * (qy - vy): minus the inside margin of the
    point (qx, qy) for the edge from (vx, vy) along (ex, ey), scaled by the
    edge length, so a point inside the edge line gives a value <= 0.  The
    arguments broadcast; the result is a fresh array.  The sign of a zero
    margin is unspecified: every reader compares with `<=` or adds 0.0.

    `chord_through`, `oracle.longest_chord` and `oracle.brute_smallest_para`
    all take their margins from here, so their chord parameters agree to
    the bit; so do both containment checks of a certificate,
    `contains_point` and `extremal.verify_conjugate_pair`'s
    polygon-in-parallelogram pass.  Those two read the margins of a ring
    of more than _MARGIN_BLOCK vertices a column block at a time
    (`_margin_blocks`); each margin is the same float either way.
    """
    m = qx - vx
    m *= ey
    m2 = qy - vy
    m2 *= ex
    m -= m2
    return m


# Ring vertices or edges per column block of the certificate's margin
# passes: the temporaries of four rows stay within 1 MiB, in cache, where
# the (4, n) arrays of one pass over a ring of 250 000 vertices took 8 MB
# each.  A ring of at most this many vertices takes a single pass.
_MARGIN_BLOCK = 1 << 14


def _margin_blocks(n: int):
    """Consecutive (lo, hi) column ranges of at most _MARGIN_BLOCK covering
    [0, n)."""
    for lo in range(0, n, _MARGIN_BLOCK):
        yield lo, min(lo + _MARGIN_BLOCK, n)


def _chord_directions(ex, ey, ux, uy):
    """What `_chord_params` needs of the nonzero directions (ux, uy) against
    the edges (ex, ey): d = e x u with 1.0 where d == 0, the divisor of the
    chord parameters, and the masks d > 0 and d < 0 of the edges that bound
    them.  The directions are a pair of floats or (b, 1, 1) columns.
    """
    d = ex * uy - ey * ux
    return np.where(d == 0.0, 1.0, d), d > 0.0, d < 0.0


def _chord_params(neg_c, directions):
    """The parameters (t0, t1) of `chord_through`'s segments along the
    directions given as `_chord_directions`, from `_neg_margins` of the
    points against every edge along the last axis.

    The directions may be a pair of floats, or (b, 1, 1) columns against
    margins of shape (m, n), giving (b, m) parameters.  Each chord's
    parameters come from the same float expressions whatever the shapes, so
    the oracles, which measure many chords at once, measure the chords
    `chord_through` returns, to the bit.  Where rounding at a tangency gives
    t0 > t1, both become their midpoint.  Raises Degenerate if a parameter
    is not finite.  An edge nearly parallel to u gives a quotient beyond the
    float range: callers compute under np.errstate(over="ignore"), so that
    overflow gives inf without a warning, as in Python float arithmetic.
    """
    d, ahead, behind = directions
    t = neg_c / d
    # Adding 0.0 turns a zero of either sign into +0.0: numpy's max and min
    # pick between -0.0 and +0.0 by memory layout, not by value.
    t0 = np.maximum.reduce(t, axis=-1, where=ahead, initial=-math.inf) + 0.0
    t1 = np.minimum.reduce(t, axis=-1, where=behind, initial=math.inf) + 0.0
    if not np.isfinite((t0, t1)).all():
        raise Degenerate("line does not leave the polygon; invalid polygon?")
    tangent = t0 > t1
    if tangent.any():
        mid = 0.5 * (t0 + t1)
        t0 = np.where(tangent, mid, t0)
        t1 = np.where(tangent, mid, t1)
    return t0, t1


def _det_sign(p, q, r, s) -> int:
    """The exact sign, -1, 0 or 1, of the determinant (q - p) x (s - r) for
    (x, y) pairs of finite floats.

    The float determinant decides where it exceeds Shewchuk's bound on its
    rounding error ("Adaptive Precision Floating-Point Arithmetic and Fast
    Robust Geometric Predicates", 1997), widened by 2^-1000 for underflow:
    the relative bound can round to 0 where rounded differences reverse
    two subnormal products that then round one step of 2^-1074 apart;
    elsewhere, overflow included, Python integers evaluate it, on the
    inputs scaled by a common power of two."""
    left = (q[0] - p[0]) * (s[1] - r[1])
    right = (q[1] - p[1]) * (s[0] - r[0])
    det = left - right
    if abs(det) > (3.0 + 16.0 * 2.0**-53) * 2.0**-53 * (abs(left) + abs(right)) + 2.0**-1000:
        return 1 if det > 0.0 else -1
    ratios = [float(v).as_integer_ratio() for v in (*p, *q, *r, *s)]
    den = max(d for _, d in ratios)
    px, py, qx, qy, rx, ry, sx, sy = (m * (den // d) for m, d in ratios)
    det = (qx - px) * (sy - ry) - (qy - py) * (sx - rx)
    return (det > 0) - (det < 0)


def _meet(p, u, q, v) -> Optional[tuple[float, float]]:
    """Where the line through p along u meets the line through q along v,
    for (x, y) pairs of floats, or None where their directions have zero
    determinant; callers that need a meet raise ParallelLines there."""
    (px, py), (ux, uy), (qx, qy), (vx, vy) = p, u, q, v
    den = ux * vy - uy * vx
    if den == 0.0:
        return None
    s = ((qx - px) * vy - (qy - py) * vx) / den
    return px + s * ux, py + s * uy


def contains_point(P: ConvexPolygon, x, tol: float = 0.0) -> bool:
    """True iff x is within signed distance tol of the inner side of every
    edge line.  tol == 0 is the exact test.

    x may also be a sequence of points, or an (m, 2) array: the answer is
    then whether every point passes, from one array pass whose elements are
    those of m single-point calls.  Over a ring of more than _MARGIN_BLOCK
    vertices the pass runs a column block of edges at a time and stops at
    the first block with a failing element.
    """
    if isinstance(x, Direction) or len(x) == 2 and np.ndim(x[0]) == 0:
        px, py = _vec(x)
    else:
        q = _pair_array(x)
        px, py = q[:, :1], q[:, 1:]  # columns against the edges along the last axis
    xy = P.coords()
    ex, ey = P.edges()
    if P.n <= _MARGIN_BLOCK:
        return _within(px, py, xy[:, 0], xy[:, 1], ex, ey, tol)
    # Each (point, edge) element passes or fails alone: the edges of a
    # large ring are checked a block at a time, so that the margins stay
    # in cache.
    return all(
        _within(px, py, xy[lo:hi, 0], xy[lo:hi, 1], ex[lo:hi], ey[lo:hi], tol)
        for lo, hi in _margin_blocks(P.n)
    )


def _within(px, py, vx, vy, ex, ey, tol: float) -> bool:
    """`contains_point` for the points (px, py) against the edges from
    (vx, vy) along (ex, ey), arrays along the last axis."""
    neg = _neg_margins(px, py, vx, vy, ex, ey)
    # One reduction decides the common case, every margin <= 0; NaN
    # margins, tol < 0 and an empty batch take the element passes below.
    if tol >= 0.0 and neg.size and neg.max() <= 0.0:
        return True
    if tol == 0.0:
        return bool((neg <= 0.0).all())
    if tol > 0.0:
        # A (point, edge) element with a margin >= 0 passes at any edge
        # length: measure only the rest, NaN included, so a non-finite x
        # still fails.  Flat indices: np.nonzero is many times slower on
        # two axes.
        k = np.flatnonzero(~(neg <= 0.0))
        if k.size == 0:
            return True
        edge = k % len(ex)
        ex, ey, neg = ex[edge], ey[edge], neg.ravel()[k]
    return bool((neg <= tol * np.hypot(ex, ey)).all())


def _vertex_margin_max(P: ConvexPolygon, gx, gy, ex, ey) -> np.ndarray:
    """The largest `_neg_margins` of P's vertices against each line through
    (gx, gy) along (ex, ey), given as (k, 1) columns: k maxima, NaN where a
    margin is NaN.  Over a ring of more than _MARGIN_BLOCK vertices, the
    maxima of the column blocks of vertices are combined by np.maximum,
    which keeps a NaN; each maximum is exact either way."""
    xy = P.coords()
    if P.n <= _MARGIN_BLOCK:
        return _neg_margins(xy[:, 0], xy[:, 1], gx, gy, ex, ey).max(axis=1)
    top = np.full(len(gx), -math.inf)
    for lo, hi in _margin_blocks(P.n):
        np.maximum(top, _neg_margins(xy[lo:hi, 0], xy[lo:hi, 1], gx, gy, ex, ey).max(axis=1), out=top)
    return top
