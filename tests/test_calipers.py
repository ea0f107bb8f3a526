import math

import pytest

from quadpara import (
    ConvexPolygon,
    VerticalExtremes,
    antipodal_vertex_pairs,
    chord_through,
    combined_extremes,
    det,
    diagonal_intervals,
    is_antipodal_brute,
    random_convex,
    regular_ngon,
    support_intervals,
    vertical_extremes,
)


def norm_mid(s, e):
    """Midpoint of the CCW arc from s to e in direction-mod-half-turn space."""
    sx, sy = s.dx / math.hypot(s.dx, s.dy), s.dy / math.hypot(s.dx, s.dy)
    ex, ey = e.dx / math.hypot(e.dx, e.dy), e.dy / math.hypot(e.dx, e.dy)
    if sx * ey - sy * ex < 0.0:
        ex, ey = -ex, -ey
    return sx + ex, sy + ey


def supports(P, v, direction, tol):
    crs = [direction[0] * (p.y - v.y) - direction[1] * (p.x - v.x) for p in P.vertices]
    slack = tol * math.hypot(*direction)
    return min(crs) >= -slack or max(crs) <= slack


def test_vertical_extremes(square, triangle):
    assert vertical_extremes(square) == VerticalExtremes(0, 2)
    ve = vertical_extremes(triangle)
    assert triangle[ve.a0] == (0, 0) and triangle[ve.c0] == (0, 1)
    hexa = ConvexPolygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
    ve = vertical_extremes(hexa)
    assert hexa[ve.a0] == (0, 0)  # leftmost of the bottom-edge tie
    assert hexa[ve.c0] == (2, 2)  # rightmost of the top-edge tie


def test_antipodal_pairs_triangle(triangle):
    pairs = {frozenset(p) for p in antipodal_vertex_pairs(triangle)}
    assert pairs == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_antipodal_pairs_square(square):
    pairs = {frozenset(p) for p in antipodal_vertex_pairs(square)}
    assert frozenset({0, 2}) in pairs and frozenset({1, 3}) in pairs


def test_antipodal_pairs_pentagon():
    pent = regular_ngon(5, 100.0)
    assert len(antipodal_vertex_pairs(pent)) == 5


def test_antipodal_pairs_brute_checked(corpus):
    for P in corpus[:25]:
        pairs = antipodal_vertex_pairs(P)
        for i, j in pairs:
            assert is_antipodal_brute(P, i, j)
        assert math.ceil(P.n / 2) <= len(pairs) <= 3 * P.n / 2


def test_support_intervals_square(square):
    ivs = support_intervals(square)
    assert len(ivs) == 2
    assert {frozenset((iv.b, iv.d)) for iv in ivs} == {
        frozenset({1, 3}),
        frozenset({0, 2}),
    }


def test_support_interval_boundaries_are_edge_directions(corpus):
    for P in corpus[:25]:
        def canon(v):
            x, y = v
            if y < 0 or (y == 0 and x < 0):
                x, y = -x, -y
            g = math.gcd(int(abs(x)), int(abs(y)))
            return (x / g, y / g)

        bounds = {canon((iv.dir_start.dx, iv.dir_start.dy)) for iv in support_intervals(P)}
        edges = {canon(P.edge_vector(k)) for k in range(P.n)}
        assert bounds == edges


def test_support_interval_midpoints_support(corpus):
    for P in corpus[:20]:
        tol = 1e-9 * (P.scale + 1)
        for iv in support_intervals(P):
            mid = norm_mid(iv.dir_start, iv.dir_end)
            assert supports(P, P[iv.b], mid, tol)
            assert supports(P, P[iv.d], mid, tol)
            assert is_antipodal_brute(P, iv.b, iv.d)


def test_support_intervals_triangle_count(triangle):
    assert len(support_intervals(triangle)) == 3


def test_diagonal_intervals_generic_seven_gon():
    # a 7-vertex hull with no parallel edges, no horizontal edge, and no
    # horizontal antipodal chord: the half turn splits into n + 1 entries
    P = random_convex(40, 31010, 1000)
    assert P.n == 7
    assert len(diagonal_intervals(P)) == 8


def test_diagonal_intervals_triangle(triangle):
    ivs = diagonal_intervals(triangle)
    # one vertex-vertex chord (the base) is parallel to the start direction,
    # so the list is not split and has exactly n entries
    assert len(ivs) == 3
    assert {iv.q for iv in ivs} == {0, 1, 2}


def test_diagonal_intervals_partition_and_monotone(corpus):
    for P in corpus[:20]:
        ivs = diagonal_intervals(P)
        total = 0.0
        for k, iv in enumerate(ivs):
            cr = det(iv.dir_start, iv.dir_end)
            dot = iv.dir_start.dx * iv.dir_end.dx + iv.dir_start.dy * iv.dir_end.dy
            assert cr >= 0.0
            total += math.atan2(cr, dot)
            if k + 1 < len(ivs):
                assert det(iv.dir_end, ivs[k + 1].dir_start) == 0.0
        assert total == pytest.approx(math.pi, abs=1e-9)
        assert P.n <= len(ivs) <= P.n + 1


def test_diagonal_interval_chords_land_on_named_edge(corpus):
    for P in corpus[:15]:
        tol = 1e-9 * (P.scale + 1)
        for iv in diagonal_intervals(P):
            mid = norm_mid(iv.dir_start, iv.dir_end)
            if mid == (0.0, 0.0):
                continue
            seg = chord_through(P, P[iv.q], mid)
            q = P[iv.q]
            d0 = math.hypot(seg.a.x - q.x, seg.a.y - q.y)
            d1 = math.hypot(seg.b.x - q.x, seg.b.y - q.y)
            far = seg.a if d0 > d1 else seg.b
            assert min(d0, d1) <= tol
            ev = P.edge_vector(iv.e)
            pe = P[iv.e]
            res = abs(ev[0] * (far.y - pe.y) - ev[1] * (far.x - pe.x))
            assert res <= tol * math.hypot(*ev)
            t = ((far.x - pe.x) * ev[0] + (far.y - pe.y) * ev[1]) / (
                ev[0] ** 2 + ev[1] ** 2
            )
            assert -1e-9 <= t <= 1 + 1e-9
            # the supporting pair parallel to edge e
            assert supports(P, q, ev, tol)


def test_sweep_square(square):
    rep = combined_extremes(square)
    assert rep.max_quad.area == 1.0 and rep.min_para.area == 1.0
    # The event loop's determinant count on the unit square; a change to the
    # loop's event rule shows here first.
    assert rep.predicate_count == 39


def test_sweep_pairs_antipodal(corpus):
    for P in corpus[:12]:
        rep = combined_extremes(P)
        a, _, c, _ = rep.max_quad.vertex_indices
        assert is_antipodal_brute(P, a, c)
        a, _, c, _ = rep.min_para.touch_indices
        assert is_antipodal_brute(P, a, c)


def test_sweep_relabeling_same_result():
    P = random_convex(24, 808, 500)
    assert P.n >= 8

    def sweep_areas(Q):
        rep = combined_extremes(Q)
        return rep.max_quad.area, rep.min_para.area

    base = sweep_areas(P)
    for k in (1, 3, P.n - 2):
        rolled = ConvexPolygon(P.vertices[k:] + P.vertices[:k])
        assert sweep_areas(rolled) == base
