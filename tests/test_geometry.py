import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadpara import (
    ConvexPolygon,
    Degenerate,
    Direction,
    NonFinite,
    NotConvex,
    Point,
    TooFewVertices,
    anchored_conjugate_pair,
    brute_anchored_quad_area,
    canonicalize,
    chord_through,
    combined_extremes,
    contains_point,
    extreme_vertex,
    lattice_ngon,
    longest_chord,
    polygon_area,
    quad_area,
    random_convex,
    regular_ngon,
    verify_conjugate_pair,
    width,
)
from quadpara import geometry
from quadpara.geometry import _chord_directions, _chord_params, _det_sign, _meet, _neg_margins, _shoelace
from quadpara.polygen import GenSpec, generate

coord = st.integers(min_value=-(2**20), max_value=2**20)
vec = st.tuples(coord, coord)


def shoelace(points):
    s = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def test_quad_area_examples():
    assert quad_area((0, 0), (1, 0), (1, 1), (0, 1)) == 1
    assert quad_area((0, 0), (0, 0), (1, 0), (0, 1)) == 0.5
    pts = [(0, 0), (2, 0), (3, 2), (1, 3)]
    assert quad_area(*pts) == abs(shoelace(pts)) == 5.5


@given(st.lists(vec, min_size=4, max_size=4, unique=True))
def test_quad_area_matches_shoelace_on_hulls(pts):
    try:
        P = ConvexPolygon(canonicalize_hull(pts))
    except (Degenerate, TooFewVertices):
        return
    if P.n != 4:
        return
    assert quad_area(*P.vertices) == abs(shoelace(P.vertices))


def canonicalize_hull(pts):
    # tiny monotone-chain helper so hypothesis can feed arbitrary quads
    pts = sorted(set(pts))
    if len(pts) < 3:
        raise TooFewVertices("need 3")

    def half(order):
        chain = []
        for p in order:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lo = half(pts)
    hi = half(list(reversed(pts)))
    return lo[:-1] + hi[:-1]


def test_polygon_area(square, triangle, hexagon):
    assert polygon_area(square) == 1
    assert polygon_area(triangle) == 0.5
    assert polygon_area(hexagon) == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-12)


def test_polygon_area_equals_triangle_fan():
    P = random_convex(20, 51, 300)
    o, v = P[0], P.vertices
    fan = sum(
        0.5 * ((v[i].x - o.x) * (v[i + 1].y - o.y) - (v[i + 1].x - o.x) * (v[i].y - o.y))
        for i in range(1, P.n - 1)
    )
    assert polygon_area(P) == pytest.approx(fan, rel=1e-12)
    assert polygon_area(P) > 0


def test_polygon_area_is_the_exact_area_rounded():
    # Two dot products cancel: their difference gave 6753982720112.0 here.
    P = lattice_ngon(40000, 1)
    x, y = [[Fraction(v) for v in col] for col in P.coords().T.tolist()]
    twice = sum(x[i - 1] * y[i] - x[i] * y[i - 1] for i in range(P.n))
    assert polygon_area(P) == float(twice / 2) == 6753982720472.0


def test_det_sign_is_exact():
    # Nearly collinear points, whose float determinant has the wrong sign
    # or is zero; scaled so that it underflows, or overflows.
    def exact(p, q, r, s):
        (px, py), (qx, qy), (rx, ry), (sx, sy) = [map(Fraction, v) for v in (p, q, r, s)]
        det = (qx - px) * (sy - ry) - (qy - py) * (sx - rx)
        return (det > 0) - (det < 0)

    wrong = 0
    for scale in (1.0, 2.0**-540, 2.0**500, 1e300):
        for i in range(-8, 8):
            for j in range(-8, 8):
                p = ((0.5 + i * 2.0**-53) * scale, (0.5 + j * 2.0**-53) * scale)
                q, r = (12.0 * scale, 12.0 * scale), (24.0 * scale, 24.0 * scale)
                naive = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
                assert _det_sign(p, q, p, r) == exact(p, q, p, r), (scale, i, j)
                assert _det_sign((0.0, 0.0), p, q, r) == exact((0.0, 0.0), p, q, r), (scale, i, j)
                wrong += (naive > 0.0) - (naive < 0.0) != exact(p, q, p, r)
    assert wrong > 100
    # Differences rounded near 1, times subnormal coordinates: the two
    # products round to neighbouring multiples of 2^-1074 across a
    # midpoint, the float determinant is 2^-1074 with the wrong sign, and
    # the relative error bound underflows to 0.  The bound's 2^-1000 term
    # sends the sign to the exact evaluation.
    p, q = (2.0**-60, -(2.0**-60)), (1.0 + 12 * 2.0**-52, 1.0 + 36 * 2.0**-52)
    r, s = (0.0, 0.0), (2.0**-1025, (2**49 + 3) * 2.0**-1074)
    assert (q[0] - p[0]) * s[1] - (q[1] - p[1]) * s[0] == 2.0**-1074
    assert _det_sign(p, q, r, s) == exact(p, q, r, s) == -1


def test_convex_polygon_fixes_orientation():
    cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
    P = ConvexPolygon(cw)
    assert polygon_area(P) == 1
    assert P.vertices == tuple(Point(*p) for p in reversed(cw))


def test_cached_edges_are_vertex_differences(corpus):
    cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
    for P in [ConvexPolygon(cw)] + corpus[:20]:
        x, y = P.coords()[:, 0], P.coords()[:, 1]
        ex, ey = P.edges()
        assert np.array_equal(ex, np.roll(x, -1) - x)
        assert np.array_equal(ey, np.roll(y, -1) - y)
        assert [(a, b) for a, b in zip(ex, ey)] == [P.edge_vector(k) for k in range(P.n)]


def test_ring_is_stored_column_major():
    # Every construction route, polygen's included, stores the ring with
    # contiguous x and y columns, and reads it as the row-major array of
    # the same ring.
    ref = lattice_ngon(40, 3).coords().tolist()
    # A duplicated vertex and an exact edge midpoint, which canonicalize drops.
    mid = [(a + b) / 2 for a, b in zip(ref[5], ref[6])]
    padded = ref[:3] + [ref[2]] + ref[3:6] + [mid] + ref[6:]
    routes = [
        (ref, [tuple(p) for p in ref]),
        (ref, np.array(ref, order="C")),
        (ref, np.array(ref, order="F")),
        (ref, ref[::-1]),
        (ref, np.array(ref[::-1], order="F")),
        (ref, canonicalize(padded)),
        (ref, canonicalize(padded[::-1])),
        (ref, canonicalize(np.array(padded, order="F"))),
    ]
    for j in (-3, 5):
        routes.append(((np.array(ref) * 2.0**j).tolist(), ConvexPolygon(ref).coords() * 2.0**j))
    for kind, n in (("regular", 17), ("random-hull", 30), ("parallel-edges", 12), ("lattice", 40)):
        P = generate(GenSpec(kind, n, seed=2))
        routes.append((np.ascontiguousarray(P.coords()).tolist(), P))
    for want, points in routes:
        P = points if isinstance(points, ConvexPolygon) else ConvexPolygon(points)
        rows = np.array(want)
        assert P.coords()[:, 0].flags.c_contiguous and P.coords()[:, 1].flags.c_contiguous
        assert np.array_equal(P.coords(), rows) and P.coords().tolist() == want
        assert [P[i] for i in range(-1, P.n + 1)] == [Point(*rows[i % P.n]) for i in range(-1, P.n + 1)]
        edges = (np.roll(rows, -1, axis=0) - rows).tolist()
        assert [P.edge_vector(i) for i in range(P.n)] == [tuple(e) for e in edges]


def test_convex_polygon_rejections():
    with pytest.raises(TooFewVertices):
        ConvexPolygon([(0, 0), (1, 1)])
    with pytest.raises(Degenerate):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])
    with pytest.raises(Degenerate):
        ConvexPolygon([(0, 0), (0, 0), (1, 0), (0, 1)])
    with pytest.raises(NonFinite):
        ConvexPolygon([(0, 0), (1, 0), (0, float("nan"))])
    with pytest.raises(NotConvex):
        ConvexPolygon([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])
    P = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    assert P.n == 3


@pytest.mark.parametrize(
    "ring",
    [
        # The shoelace's sums of x[i] y[i+1] and of x[i+1] y[i] overflow;
        # its terms and the edge cross products do not.
        lattice_ngon(300, 3).coords() * 1e150,
        lattice_ngon(300, 3).coords()[::-1] * 1e150,
        # An edge x-extent of inf: two cross products are +inf, the
        # doubled area is finite.
        np.array([(-1.5e308, 0.0), (1.5e308, 0.0), (0.0, 1e-300)]),
        # canonicalize's own products overflow too.
        lattice_ngon(300, 3).coords() * 1e200,
        lattice_ngon(300, 3).coords() * 1e300,
    ],
)
def test_convex_polygon_rejects_overflowing_ring(ring):
    # A typed error (exit 2 in the CLI), and no RuntimeWarning, which the
    # test configuration turns into an error; also on the CLI's route
    # through canonicalize.
    with pytest.raises(NonFinite):
        ConvexPolygon(ring)
    with pytest.raises(NonFinite):
        ConvexPolygon(canonicalize(ring))


def test_translated_ring_keeps_its_orientation():
    # Two dot products of about 1e16 cancel in their difference, and BLAS
    # summed them to the wrong sign on this ring with 1, 2 and 4 threads:
    # the ring was reversed, then rejected as clockwise.
    ring = regular_ngon(12000).coords() + 1e6
    for xy in (ring, ring[::-1]):
        assert np.array_equal(ConvexPolygon(xy).coords(), ring)
        assert np.array_equal(ConvexPolygon(canonicalize(xy)).coords(), ring)


def test_shoelace_sign_is_exact_on_translated_rotated_rings():
    # Seeded regular rings of about 3000 vertices, rotated by a random
    # phase and moved 1e5 to 3e6 in a random direction.  With the
    # difference of two dot products as its orientation, the constructor
    # rejected 3 of these 40 rings with 1, 2 and 4 BLAS threads alike.
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2500, 3500)
        shift, heading = 10 ** rng.uniform(5, 6.5), rng.uniform(0, 2 * math.pi)
        t = 2 * math.pi * np.arange(n) / n + rng.uniform(0, 2 * math.pi)
        ring = np.column_stack((np.cos(t) + shift * math.cos(heading), np.sin(t) + shift * math.sin(heading)))
        x, y = [[Fraction(v) for v in col] for col in ring.T.tolist()]
        twice = sum(x[i - 1] * y[i] - x[i] * y[i - 1] for i in range(n))
        assert twice > 0 and _shoelace(ring) > 0.0
        assert _shoelace(ring[::-1]) < 0.0
        for xy in (ring, ring[::-1]):
            assert np.array_equal(ConvexPolygon(xy).coords(), ring)


def test_no_blas_call(monkeypatch):
    # BLAS sums in an order that depends on its thread count, so no
    # decision may depend on it.
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    for name in ("dot", "vdot", "inner", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    for ring in (lattice_ngon(400, 1).coords()[::-1], random_convex(30, 7, 1000).coords()):
        P = ConvexPolygon(canonicalize(ring))
        polygon_area(P)
        combined_extremes(P)
        for u in ((1, 0), (3, -7)):
            assert verify_conjugate_pair(*anchored_conjugate_pair(P, u), u, P).checks.all_ok


def test_convex_polygon_idempotent(corpus):
    for P in corpus[:20]:
        Q = ConvexPolygon(P.vertices)
        assert Q.vertices == P.vertices


def test_canonicalize_examples():
    assert canonicalize([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]).tolist() == [
        [0, 0],
        [2, 0],
        [2, 2],
        [0, 2],
    ]
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert canonicalize(sq).tolist() == [list(p) for p in sq]
    assert canonicalize([(0, 0), (0, 0), (1, 0), (0, 1)]).tolist() == [
        [0, 0],
        [1, 0],
        [0, 1],
    ]
    with pytest.raises(Degenerate):
        canonicalize([(0, 0), (1, 0), (2, 0)])


def test_canonicalize_idempotent():
    ring = [(0, 0), (2, 0), (4, 0), (4, 1), (4, 2), (2, 3), (0, 2), (0, 1)]
    once = canonicalize(ring)
    assert canonicalize(once).tolist() == once.tolist()
    ConvexPolygon(once)


def loop_canonicalize(points):
    """The per-point loop that canonicalize replaced, kept as its reference."""
    pts = [Point(float(x), float(y)) for x, y in points]
    dedup = []
    for p in pts:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 3:
        raise Degenerate("fewer than 3 distinct points")
    area2 = 0.0
    m = len(dedup)
    for i in range(m):
        p, q = dedup[i], dedup[(i + 1) % m]
        area2 += p.x * q.y - q.x * p.y
    if area2 == 0.0:
        raise Degenerate("ring has zero area")
    if area2 < 0.0:
        dedup.reverse()
    out = []
    for i in range(m):
        prev, cur, nxt = dedup[i - 1], dedup[i], dedup[(i + 1) % m]
        turn = (cur.x - prev.x) * (nxt.y - cur.y) - (cur.y - prev.y) * (nxt.x - cur.x)
        if turn != 0.0:
            out.append(cur)
    if len(out) < 3:
        raise Degenerate("fewer than 3 extreme points remain")
    return out


def canonicalize_outcome(fn, ring):
    """(the output as a list of [x, y] floats, or the exception type and message)."""
    try:
        out = np.asarray(fn(ring), dtype=np.float64)
    except Degenerate as exc:
        return "Degenerate", str(exc)
    return "ok", out.tolist()


def test_canonicalize_matches_loop(corpus):
    degenerate = [
        [(0, 0), (1, 0), (2, 0)],
        [(0, 0), (1, 1), (0, 0), (1, 1)],
        [(3, 3)] * 5,
        [(0, 0), (0, 0), (0, 0), (1, 0)],
        [(0, 0), (2, 0), (1, 0), (1, 0), (0, 0)],
        [(0, 0), (1, 0), (1, 1), (0, 0), (0, 0)],
        [(0, 0), (1, 0), (0.5, 0.5), (0, 1), (0, 0)],
    ]
    rings = degenerate[:]
    for k, P in enumerate(corpus):
        ring = [(p.x, p.y) for p in P.vertices]
        r = 1 + k % P.n
        rings += [ring, ring[::-1], ring[r:] + ring[:r]]
        # repeated vertices (first and last included), edge midpoints, and a
        # back-and-forth spike at the seam, whose turns are exactly zero
        mids = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(ring, ring[1:])]
        padded = [ring[0]] * 2
        for p, m in zip(ring[1:], mids):
            padded += [m, p, p] if k % 2 else [m, p]
        padded += [ring[0], ring[-1], ring[0], ring[0]]
        rings += [padded, padded[::-1]]
    for ring in rings:
        want = canonicalize_outcome(loop_canonicalize, ring)
        assert canonicalize_outcome(canonicalize, ring) == want, ring
        if want[0] == "ok":
            assert ConvexPolygon(canonicalize(ring)).vertices == tuple(
                Point(*p) for p in want[1]
            )


def test_canonicalize_never_aliases_an_array_input():
    # canonicalize copies only when it drops a point; the result must still
    # be its own array, also when nothing is dropped.
    sq = [(0, 0), (2, 0), (2, 2), (0, 2)]
    rings = [
        sq,  # no drops
        sq[::-1],  # clockwise
        [(0, 0), (0, 0), (2, 0), (2, 2), (2, 2), (0, 2)],  # duplicates
        sq + [(0, 0)],  # a closing repeat
        [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (0, 1)],  # collinear points
        [(p.x, p.y) for p in lattice_ngon(300, 2).vertices],
    ]
    for ring in rings:
        want = canonicalize_outcome(loop_canonicalize, ring)
        for arr in (np.array(ring, dtype=np.float64), np.array(ring, dtype=np.float64, order="F")):
            out = canonicalize(arr)
            assert ("ok", out.tolist()) == want, ring
            assert not np.shares_memory(out, arr), ring


def load_outcome(build, ring):
    """What a load route makes of ring: the polygon's n, and the bits of
    its scale, its area and its column-major vertex array, or the type and
    message of the error raised."""
    try:
        P = build(ring)
    except ValueError as exc:
        return type(exc), str(exc)
    xy = P.coords()
    assert xy[:, 0].flags.c_contiguous and xy[:, 1].flags.c_contiguous
    return P.n, P.scale.hex(), polygon_area(P).hex(), xy.tobytes(order="F")


def test_load_path_is_the_composition(corpus):
    # cli.load_polygon validates in one pass what ConvexPolygon(canonicalize(...))
    # validates twice: the same polygon, bit for bit, or the same error.
    rings = []
    for k, P in enumerate(corpus + [lattice_ngon(400, 1), regular_ngon(300, 1000.0)]):
        ring = P.coords().tolist()
        i = 1 + k % (P.n - 1)
        for r in (ring, ring[::-1]):
            mid = [(a + b) / 2 for a, b in zip(r[i - 1], r[i])]
            rings += [r, r[:i] + [r[i - 1]] + r[i:], r + [r[0]], r[:i] + [mid] + r[i:]]
    for ring in rings:
        want = load_outcome(lambda r: ConvexPolygon(canonicalize(r)), ring)
        assert load_outcome(geometry._canonical_polygon, ring) == want, ring
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    outer = regular_ngon(5, 10.0).coords().tolist()
    too_large = "coordinates too large: the doubled area or a turn overflows"
    malformed = [
        (sq[:2] + [(math.nan, 0.5)] + sq[2:], NonFinite, "vertex coordinates must be finite"),
        (sq[:1] + [(math.inf, 0.5)] + sq[1:], NonFinite, "vertex coordinates must be finite"),
        ([(2, 5)] * 4, Degenerate, "fewer than 3 distinct points"),
        ([(0, 0), (1, 1), (0, 0), (1, 1)], Degenerate, "ring has zero area"),
        ([(0, 0), (1, 0), (2, 0)], Degenerate, "ring has zero area"),
        (lattice_ngon(300, 3).coords() * 1e150, NonFinite, too_large),  # the shoelace's sums overflow
        ([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)], NotConvex, "clockwise turn at vertex index 3"),
        # A spike, which leaves a zero turn once its tip is dropped.
        ([(0, 0), (4, 0), (4, 4), (2, 4), (2, 6), (2, 4), (0, 4)], Degenerate, "collinear or duplicate vertices around index 3"),
        # Every turn is to the left, but the ring winds twice.
        ([(outer[(2 * k) % 5][0] + 0.01 * k, outer[(2 * k) % 5][1]) for k in range(10)], NotConvex, "edge directions wind more than once"),
    ]
    for ring, error, message in malformed:
        assert load_outcome(lambda r: ConvexPolygon(canonicalize(r)), ring) == (error, message)
        assert load_outcome(geometry._canonical_polygon, ring) == (error, message)


def test_polygon_area_is_the_stored_rings_shoelace():
    # The constructor keeps the doubled area it summed on the stored ring;
    # polygon_area returns its half, the bits of a fresh shoelace.
    ring = random_convex(40, 11, 1 << 20).coords().tolist()
    mid = [(a + b) / 2 for a, b in zip(ring[3], ring[4])]
    padded = ring[:4] + [mid] + ring[4:] + [ring[0]]
    for P in (
        ConvexPolygon(ring[::-1]),
        ConvexPolygon(np.array(ring[::-1]) / 3),
        ConvexPolygon(canonicalize(padded)),
        ConvexPolygon(canonicalize(padded[::-1])),
        geometry._canonical_polygon(padded[::-1]),
        geometry._canonical_polygon(np.array(ring) * 0.1),
        regular_ngon(1000, 1000.0, 3),
    ):
        assert polygon_area(P).hex() == (0.5 * _shoelace(P.coords())).hex()


def test_input_contract():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert ConvexPolygon(p for p in sq).vertices == tuple(Point(*p) for p in sq)
    assert np.asarray(canonicalize(p for p in sq)).tolist() == [list(p) for p in sq]
    with pytest.raises(TooFewVertices, match="got 0"):
        ConvexPolygon([])
    with pytest.raises(TooFewVertices, match="got 0"):
        ConvexPolygon(p for p in [])
    with pytest.raises(Degenerate, match="fewer than 3 distinct points"):
        canonicalize([])
    for rows in ([(0, 0, 7), (1, 0, 7), (0, 1, 7)], [(0, 0), (1, 0, 7), (0, 1)]):
        with pytest.raises(ValueError):
            ConvexPolygon(rows)
        with pytest.raises(ValueError):
            canonicalize(rows)
    with pytest.raises(Degenerate, match="zero signed area"):
        ConvexPolygon([(0, 0), (1, 1), (0, 0), (1, 1)])
    with pytest.raises(Degenerate, match="zero area"):
        canonicalize([(0, 0), (1, 1), (0, 0), (1, 1)])
    with pytest.raises(Degenerate, match="zero signed area"):
        ConvexPolygon([(2, 5)] * 4)
    with pytest.raises(Degenerate, match="fewer than 3 distinct points"):
        canonicalize([(2, 5)] * 4)
    inf, nan = math.inf, math.nan
    for bad in ((nan, 0.5), (0.5, nan), (inf, 0.5), (-inf, 0.5), (0.5, inf), (inf, -inf)):
        for k in range(4):
            ring = sq[:k] + [bad] + sq[k:]
            with pytest.raises(NonFinite):
                ConvexPolygon(ring)
            with pytest.raises(NonFinite):
                ConvexPolygon(canonicalize(ring))


def test_direction_identifies_opposites():
    assert Direction(1, 0) == Direction(-1, 0)
    assert Direction(2, 3) == Direction(-4, -6)
    assert Direction(1, 0) != Direction(0, 1)
    with pytest.raises(Degenerate):
        Direction(0, 0)


def test_direction_equality_ignores_the_magnitude():
    # The products of the raw components overflow to inf - inf = NaN, or
    # underflow to zero; those of the _dyadic_unit representatives do not.
    assert Direction(1e200, 1e200) == Direction(2e200, 2e200)
    assert Direction(1e-200, 0) != Direction(1e-200, 1e-300)
    for u in ((1, 0), (3, -7), (0.6, 0.8), (123, -457)):
        turned = Direction(u[0] - 1e-9 * u[1], u[1] + 1e-9 * u[0])
        for j in range(-1000, 1001):
            v = Direction(math.ldexp(u[0], j), math.ldexp(u[1], j))
            assert v == Direction(*u) == Direction(-v.dx, -v.dy), (u, j)
            assert v != turned and v != Direction(-u[1], u[0]), (u, j)


# Every function that takes a direction, called with u.
DIRECTION_TAKERS = {
    "Direction": lambda P, u: Direction(*u),
    "width": width,
    "extreme_vertex": extreme_vertex,
    "chord_through": lambda P, u: chord_through(P, P[0], u),
    "longest_chord": longest_chord,
    "brute_anchored_quad_area": brute_anchored_quad_area,
    "anchored_conjugate_pair": anchored_conjugate_pair,
    "verify_conjugate_pair": lambda P, u: verify_conjugate_pair(*anchored_conjugate_pair(P, (1, 0)), u, P),
}


@pytest.mark.parametrize("name", DIRECTION_TAKERS)
@pytest.mark.parametrize(
    "u,error", [((math.nan, 1.0), NonFinite), ((math.inf, 0.0), NonFinite), ((0.0, 0.0), Degenerate), ((0, 0), Degenerate)]
)
def test_every_direction_taker_rejects_what_direction_rejects(square, name, u, error):
    # A non-finite or zero vector raises Direction's typed error, not a NaN
    # result, an IndexError or an AssertionError.
    with pytest.raises(error):
        DIRECTION_TAKERS[name](square, u)


def test_chord_through_ignores_the_direction_magnitude():
    # chord_through computes with u's _dyadic_unit representative: 2^j u
    # gives u's chord, bit for bit, over every j for which 2^j u is exact,
    # and subnormal vectors raise no RuntimeWarning (an error under this
    # suite's configuration).
    P = lattice_ngon(40, 2)
    for q in (P[0], P[13]):
        for u in ((1, 0), (3, -7), (1, 3), (-5, 2)):
            want = repr(chord_through(P, q, u))
            for j in range(-1074, 1021):
                assert repr(chord_through(P, q, (math.ldexp(u[0], j), math.ldexp(u[1], j)))) == want, (q, u, j)
        tiny = (1e-310, 3e-310)
        want = repr(chord_through(P, q, tiny))
        assert repr(chord_through(P, q, (math.ldexp(tiny[0], 1000), math.ldexp(tiny[1], 1000)))) == want


def test_direction_is_unhashable():
    # equality is parallelism, which a hash of the raw components would break
    assert Direction(1, 0) == Direction(2, 0)
    with pytest.raises(TypeError):
        hash(Direction(1, 0))
    with pytest.raises(TypeError):
        {Direction(1, 0), Direction(2, 0)}


def test_extreme_vertex(square, triangle, hexagon):
    i = extreme_vertex(square, (0, 1))
    assert square[i].y == 1  # tie between (0,1) and (1,1): assert the value
    assert triangle[extreme_vertex(triangle, (1, 0))] == Point(1, 0)
    assert hexagon[extreme_vertex(hexagon, (1, 0))] == Point(1, 0)


def test_extreme_vertex_tie_breaks_later_in_ccw(square):
    # bottom edge is (0,0)->(1,0); for d=(0,-1) both are extreme
    i = extreme_vertex(square, (0, -1))
    assert i == 1


def test_extreme_vertex_tie_breaks_to_the_end_of_the_run():
    # Three float maximizers, 2, 3 and 4: the last in CCW order is 4.
    P = ConvexPolygon([(0, 0), (2**11, 0), (2**11, 1 - 2**-19), (2**10, 1 - 2**-20 + 2**-53), (0, 1)])
    d = (2**-30, 1)
    dots = P.coords()[:, 0] * d[0] + P.coords()[:, 1] * d[1]
    assert np.flatnonzero(dots == dots.max()).tolist() == [2, 3, 4]
    assert extreme_vertex(P, d) == 4


def test_width(square, triangle, hexagon):
    assert width(square, (1, 0)) == 1
    edge = (hexagon[1].x - hexagon[0].x, hexagon[1].y - hexagon[0].y)
    assert width(hexagon, edge) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert width(triangle, (1, 1)) == pytest.approx(math.sqrt(2), rel=1e-12)


@given(st.integers(0, 10**6))
def test_width_direction_identification(seed):
    P = random_convex(10, seed % 97, 100)
    u = (1 + seed % 13, -(seed % 7))
    assert width(P, u) == width(P, (-u[0], -u[1]))


def test_chord_through_examples(square, triangle):
    seg = chord_through(square, (0.5, 0.5), (1, 0))
    assert (seg.a, seg.b) == (Point(0, 0.5), Point(1, 0.5))
    seg = chord_through(triangle, (0, 0), (1, 1))
    assert seg.a == Point(0, 0)
    assert seg.b == Point(0.5, 0.5)
    seg = chord_through(square, (1, 1), (1, -1))  # tangent at the corner
    assert seg.a == seg.b == Point(1, 1)
    seg = chord_through(square, (1, 1), (1, 1))  # full diagonal
    assert (seg.a, seg.b) == (Point(0, 0), Point(1, 1))


def test_chord_through_endpoints_on_polygon_and_line(corpus):
    for k, P in enumerate(corpus[:25]):
        q = P[k % P.n]
        u = (1 + k % 9, 2 - k % 5) if (1 + k % 9, 2 - k % 5) != (0, 0) else (1, 1)
        seg = chord_through(P, q, u)
        tol = 1e-9 * (P.scale + 1)
        for e in (seg.a, seg.b):
            assert contains_point(P, e, tol)
            assert abs((e.x - q.x) * u[1] - (e.y - q.y) * u[0]) <= tol * math.hypot(*u)


def chord_params(P, qx, qy, ux, uy):
    xy = P.coords()
    ex, ey = P.edges()
    return _chord_params(_neg_margins(qx, qy, xy[:, 0], xy[:, 1], ex, ey), _chord_directions(ex, ey, ux, uy))


def test_chord_parameters_do_not_depend_on_the_batch():
    # Half-turned lattice polygons have -0.0 coordinates and give chord
    # parameters of -0.0 and +0.0 alike; numpy's max and min choose between
    # them by memory layout, so a zero parameter is made +0.0.  The points
    # just outside each vertex give lines that miss the polygon near the
    # tangent vertices, whose bounds cross and collapse to their midpoint.
    # The edge directions are also taken all at once, as (n, 1, 1) columns,
    # as `oracle.brute_smallest_para` takes them.
    collapsed = 0
    for n in (5, 12, 33):
        P = ConvexPolygon(-lattice_ngon(n, n).coords())
        xy = P.coords()
        ex, ey = P.edges()
        for x, y in (xy.T, (xy + 1e-9 * (xy - xy.mean(axis=0))).T):
            edges = chord_params(P, x[:, None], y[:, None], ex[:, None, None], ey[:, None, None])
            for u in [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)] + [P.edge_vector(e) for e in range(P.n)]:
                batch = chord_params(P, x[:, None], y[:, None], *u)
                for i in range(P.n):
                    one = chord_params(P, float(x[i]), float(y[i]), *u)
                    assert [np.float64(t).tobytes() for t in one] == [t[i].tobytes() for t in batch]
                for t in batch:
                    assert not np.signbit(t[t == 0.0]).any()
                collapsed += int(np.sum((batch[0] == batch[1]) & (batch[0] != 0.0)))
            for e in range(P.n):
                batch = chord_params(P, x[:, None], y[:, None], *P.edge_vector(e))
                assert [t[e].tobytes() for t in edges] == [t.tobytes() for t in batch]
    assert collapsed


def test_meet():
    assert _meet((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 1.0)) == (0.0, 0.0)
    assert _meet((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)) is None
    assert _meet((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (-1.0, 1.0)) == (0.5, 0.5)


def test_contains_point(square):
    assert contains_point(square, (0.5, 0.5), 0.0)
    assert not contains_point(square, (1.5, 0.5), 0.0)
    assert contains_point(square, (1 + 1e-12, 0.5), 1e-9)
    assert not contains_point(square, (1 + 1e-6, 0.5), 1e-9)
    assert contains_point(square, [(0.5, 0.5), (1 + 1e-12, 0.5)], 1e-9)
    assert not contains_point(square, [(0.5, 0.5), (1 + 1e-6, 0.5)], 1e-9)
    assert contains_point(square, [], 0.0)  # as all() of no points
    for bad in ((1.0, 2.0, 3.0), [(1.0, 2.0, 3.0)], [(0.5, 0.5), (0.5,)]):
        with pytest.raises(ValueError):
            contains_point(square, bad)


def test_contains_point_matches_full_edge_formula(corpus):
    # contains_point measures edge lengths only where cross < 0 or NaN; the
    # answer must equal the test over every edge at once.
    inf, nan = math.inf, math.nan
    non_finite = [(nan, 0.0), (0.0, nan), (nan, nan), (inf, 0.0), (-inf, 0.0),
                  (0.0, inf), (inf, inf), (-inf, inf), (inf, nan)]
    polys = corpus[::3] + [regular_ngon(n, 1000.0) for n in (3, 7, 12)]
    for P in polys:
        xy = P.coords()
        ex, ey = P.edges()
        scale = P.scale + 1.0
        mids = xy + 0.5 * np.column_stack((ex, ey))
        normal = np.column_stack((ey, -ex)) / np.hypot(ex, ey)[:, None]  # outward
        points = [xy, mids]
        for h in (-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6):
            points.append(mids + h * scale * normal)
            points.append(xy + h * scale * normal)
        qs = np.concatenate(points).tolist() + non_finite
        for q in qs:
            with np.errstate(invalid="ignore"):
                cross = ex * (q[1] - xy[:, 1]) - ey * (q[0] - xy[:, 0])
                for tol in (1e-12, 1e-9, 1e-6, 1e-3, 0.0, -1e-9):
                    want = bool((cross >= -tol * scale * np.hypot(ex, ey)).all())
                    assert contains_point(P, q, tol * scale) == want, (P.n, q, tol)
                    assert contains_point(P, Point(*q), tol * scale) == want, (P.n, q, tol)
                    assert contains_point(P, np.array(q), tol * scale) == want, (P.n, q, tol)
                    if q in non_finite:
                        assert not want
        # A sequence of points, or an (m, 2) array, passes iff each point does.
        batches = [[q] for q in qs[:: max(1, len(qs) // 40)]]
        batches += [qs[k : k + 4] for k in range(0, len(qs) - 3, 3)]
        batches += [[q, qs[0], qs[1], qs[2]] for q in non_finite]
        for batch in batches:
            with np.errstate(invalid="ignore"):
                for tol in (1e-12, 1e-9, 1e-6, 1e-3, 0.0, -1e-9):
                    want = all(contains_point(P, q, tol * scale) for q in batch)
                    assert contains_point(P, batch, tol * scale) == want, (P.n, batch, tol)
                    assert contains_point(P, tuple(Point(*q) for q in batch), tol * scale) == want
                    assert contains_point(P, np.array(batch), tol * scale) == want, (P.n, batch, tol)



@pytest.mark.parametrize("block", [1, 5])
def test_contains_point_margin_blocks_do_not_change_the_answer(monkeypatch, corpus, block):
    # Over more than _MARGIN_BLOCK edges contains_point checks a column
    # block of edges at a time: every answer must be the single pass's, for
    # single points, batches, a NaN point and an empty batch, at tol 0,
    # 1e-9 * scale and below 0.
    polys = corpus[::3] + [lattice_ngon(200, 3), regular_ngon(40, 1000.0, 1)]
    calls = []
    for P in polys:
        xy = P.coords()
        ex, ey = P.edges()
        scale = P.scale
        mids = xy + 0.5 * np.column_stack((ex, ey))
        normal = np.column_stack((ey, -ex)) / np.hypot(ex, ey)[:, None]  # outward
        qs = [xy, mids] + [mids + h * scale * normal for h in (-2e-9, 2e-9, 1e-6)]
        qs = np.concatenate(qs).tolist() + [(math.nan, 0.0)]
        for tol in (0.0, 1e-9 * scale, -1e-9 * scale):
            calls += [(P, q, tol) for q in qs[::3] + qs[-1:]]
            calls += [(P, qs[k : k + 4], tol) for k in range(0, len(qs), 4)]
            calls += [(P, qs[:-1], tol), (P, np.array(qs), tol), (P, [], tol), (P, np.empty((0, 2)), tol)]
    with np.errstate(invalid="ignore"):
        want = [contains_point(*c) for c in calls]
        monkeypatch.setattr(geometry, "_MARGIN_BLOCK", block)
        got = [contains_point(*c) for c in calls]
    assert got == want
    assert True in want and False in want


def test_polygon_indexing_wraps(square):
    assert square[4] == square[0]
    assert square[-1] == square[3]
    assert len(square) == 4


def test_polygon_winding_rejected():
    # all turns CCW but the ring winds twice
    outer = regular_ngon(5, 10.0).vertices
    doubled = []
    for k in range(10):
        p = outer[(2 * k) % 5]
        doubled.append((p.x + 0.01 * k, p.y))
    with pytest.raises((NotConvex, Degenerate)):
        ConvexPolygon(doubled)
