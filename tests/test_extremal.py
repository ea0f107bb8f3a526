import dataclasses
import hashlib
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from quadpara import (
    ConvexPolygon,
    Degenerate,
    Direction,
    GeometryError,
    ParallelLines,
    ParaResult,
    Point,
    QuadResult,
    SplitMix64,
    anchored_conjugate_pair,
    brute_anchored_quad_area,
    brute_largest_quad,
    brute_smallest_para,
    canonicalize,
    chord_through,
    combined_extremes,
    contains_point,
    extreme_vertex,
    largest_quadrilateral,
    lattice_ngon,
    longest_chord,
    parallel_edge_polygon,
    polygon_area,
    quad_area,
    random_convex,
    regular_ngon,
    smallest_parallelogram,
    verify_conjugate_pair,
)
from quadpara import extremal, geometry
from quadpara.cli import ORACLE_REL_TOL, main
from quadpara.extremal import _vertical_extremes
from quadpara.geometry import _unit
from quadpara.sweep import DifferenceBody, _direction_keys

REL = 1e-12


def rel_eq(x, y, rel=REL):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def test_anchored_pair_square(square):
    F, G = anchored_conjugate_pair(square, (1, 0))
    assert F.area == 0.5
    assert G.area == 1.0
    cert = verify_conjugate_pair(F, G, Direction(1, 0), square)
    assert cert.checks.all_ok


def test_anchored_pair_triangle(triangle):
    F, G = anchored_conjugate_pair(triangle, (1, 0))
    assert F.area == pytest.approx(0.5, rel=REL)
    assert G.area == pytest.approx(1.0, rel=REL)


def test_anchored_pair_hexagon(hexagon):
    F, G = anchored_conjugate_pair(hexagon, (1, 0))
    assert F.area == pytest.approx(math.sqrt(3), rel=REL)
    assert G.area == pytest.approx(2 * math.sqrt(3), rel=REL)


def test_anchored_pair_with_chord_along_an_edge(triangle):
    # the longest chord parallel to an edge of a triangle is that edge, whose
    # own direction must not be taken for the other side pair
    for u in ((1, 0), (0, 1), (1, -1), (0, -3)):
        F, G = anchored_conjugate_pair(triangle, u)
        assert F.area == 0.5
        assert G.area == 1.0
        assert verify_conjugate_pair(F, G, Direction(*u), triangle).checks.all_ok


@pytest.mark.parametrize("n,rotation,u", [(3, 0, (0, 1)), (4, 0, (1, 1)), (4, 1, (1, 0))])
def test_anchored_pair_skips_sides_nearly_parallel_to_u(n, rotation, u):
    # On these float polygons an edge lies within rounding of parallel to u;
    # taken for the other side pair, it gives a flat or unbounded
    # parallelogram.
    P = regular_ngon(n, 1000.0, rotation)
    F, G = anchored_conjugate_pair(P, u)
    assert verify_conjugate_pair(F, G, Direction(*u), P).checks.all_ok
    assert rel_eq(G.area, 2 * F.area, rel=1e-9)


def test_anchored_pair_scales_exactly():
    # Scaling by 2**j rounds nothing here, and every tolerance of the
    # construction and of the certificate is relative to P.scale, so each
    # decision and each check is the same.  At 2**500 the constructor
    # rejects the 300-gon: its doubled area overflows.
    polys = [lattice_ngon(64, 1), random_convex(40, 7, 1000), parallel_edge_polygon(6, 3), lattice_ngon(300, 2)]
    for P in polys:
        for u in ((1, 0), (3, 7), (-1, 1), (123, -457)):
            F, G = anchored_conjugate_pair(P, u)
            checks = verify_conjugate_pair(F, G, u, P).checks
            assert checks.all_ok, (P.n, u)
            for j in (-500, -300, -60, -40, -30, -20, 20, 100, 300) + ((500,) if P.n < 300 else ()):
                Pj = ConvexPolygon(P.coords() * 2.0**j)
                Fj, Gj = anchored_conjugate_pair(Pj, u)
                assert verify_conjugate_pair(Fj, Gj, u, Pj).checks == checks, (P.n, u, j)
                scaled = [(math.ldexp(x, j), math.ldexp(y, j)) for x, y in F.corners + G.corners]
                assert (Fj.vertex_indices, Gj.touch_indices) == (F.vertex_indices, G.touch_indices), (P.n, u, j)
                assert _bits(Fj.corners + Gj.corners) == _bits(scaled), (P.n, u, j)
                assert (Fj.area, Gj.area) == (math.ldexp(F.area, 2 * j), math.ldexp(G.area, 2 * j)), (P.n, u, j)


def test_anchored_pair_ignores_the_direction_magnitude():
    # A direction is a vector modulo scale: the pair and the certificate for
    # 2**j u are those for u, bit for bit, for j from -1000 to 1000 and, on
    # the integer vectors, down to the subnormal 2**-1074 u; only side_dir_bd
    # is the caller's vector.  The float polygon takes every seventh j.
    for P, step in ((lattice_ngon(40, 2), 1), (regular_ngon(9, 1000.0, 1), 7)):
        for u in ((1, 0), (3, -7), (0.6, 0.8), (123, -457)):
            F, G = anchored_conjugate_pair(P, u)
            checks = verify_conjugate_pair(F, G, u, P).checks
            assert checks.all_ok, (P.n, u)
            lowest = -1000 if isinstance(u[0], float) else -1074
            for j in range(lowest, 1001, step):
                uj = (math.ldexp(u[0], j), math.ldexp(u[1], j))
                Fj, Gj = anchored_conjugate_pair(P, uj)
                assert (Fj.vertex_indices, Gj.touch_indices) == (F.vertex_indices, G.touch_indices), (P.n, u, j)
                assert _bits(Fj.corners + Gj.corners) == _bits(F.corners + G.corners), (P.n, u, j)
                assert (Fj.area, Gj.area, Gj.side_dir_ac) == (F.area, G.area, G.side_dir_ac), (P.n, u, j)
                sb = Direction(*uj).canonical()
                assert _bits([(Gj.side_dir_bd.dx, Gj.side_dir_bd.dy)]) == _bits([(sb.dx, sb.dy)]), (P.n, u, j)
                assert verify_conjugate_pair(Fj, Gj, uj, P).checks == checks, (P.n, u, j)


def test_anchored_pairs_verify_on_corpus(corpus):
    rng = SplitMix64(31337)
    for P in corpus[:25]:
        for _ in range(8):
            u = (rng.randint(-300, 300), rng.randint(-300, 300))
            if u == (0, 0):
                continue
            F, G = anchored_conjugate_pair(P, u)
            cert = verify_conjugate_pair(F, G, Direction(*u), P)
            assert cert.checks.all_ok, (u, cert.checks)
            assert rel_eq(G.area, 2 * F.area)
            assert rel_eq(F.area, brute_anchored_quad_area(P, u), rel=1e-9)


# The certificate as one Python loop per containment, four single-point
# containment tests for F and one pass per side of G for P: the reference
# that `verify_conjugate_pair`'s array passes must match, boolean for boolean.


def _contains_point_loop(P, x, tol):
    px, py = x
    xy = P.coords()
    ex, ey = P.edges()
    cross = ex * (py - xy[:, 1]) - ey * (px - xy[:, 0])
    return bool((cross >= -tol * np.hypot(ex, ey)).all())


def verify_conjugate_pair_loop(F, G, u, P):
    ux, uy = float(u[0]), float(u[1])
    dist_tol = extremal._dist_tol(P)
    ulen = math.hypot(ux, uy)

    A, B, C, D = F.corners
    anchoring_d = abs((C.x - A.x) * uy - (C.y - A.y) * ux) / ulen <= dist_tol

    sb = G.side_dir_bd
    anchoring_s = (
        abs(sb.dx * uy - sb.dy * ux) / (math.hypot(sb.dx, sb.dy) * ulen) <= extremal.CERT_TOL
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

    quad_in_polygon = all(_contains_point_loop(P, corner, dist_tol) for corner in F.corners)

    gx = np.array([p.x for p in g])
    gy = np.array([p.y for p in g])
    doubled = float(np.dot(gx, np.roll(gy, -1)) - np.dot(np.roll(gx, -1), gy))
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

    area_ratio = abs(G.area - 2.0 * F.area) <= dist_tol * P.scale
    return extremal.CertificateChecks(anchoring_d, anchoring_s, tuple(on_side), quad_in_polygon, inside, area_ratio)


def _about_centre(G, f):
    cx = sum(p.x for p in G.corners) / 4.0
    cy = sum(p.y for p in G.corners) / 4.0
    return tuple(Point(cx + f * (p.x - cx), cy + f * (p.y - cy)) for p in G.corners)


def _side_moved_in(G, k, f):
    """G with side k moved inward by the fraction f of its neighbours, along
    them, so that only side k's line moves."""
    g = list(G.corners)
    p, q = g[k], g[(k + 1) % 4]
    before, after = g[k - 1], g[(k + 2) % 4]
    g[k] = Point(p.x + f * (before.x - p.x), p.y + f * (before.y - p.y))
    g[(k + 1) % 4] = Point(q.x + f * (after.x - q.x), q.y + f * (after.y - q.y))
    return tuple(g)


def test_certificate_matches_the_loop_reference(corpus):
    # Base records: both certificates of every corpus polygon, and anchored
    # pairs for six directions.  Each is checked as built, with G perturbed
    # (scaled about its centre, reversed, flattened, one side moved in) and
    # with F's corners pushed 2 tol out of or into P, or made non-finite.
    # Then one F corner per edge of P is put 2 tol outside that edge alone.
    polys = list(corpus) + [regular_ngon(n, r, 1) for n in (5, 40) for r in (1.0, 1000.0)]
    inf, nan = math.inf, math.nan
    records = 0
    for P in polys:
        base = []
        rep = combined_extremes(P)
        for cert in (rep.quad_certificate, rep.para_certificate):
            base.append((cert.quad, cert.para, cert.anchor))
        for u in ((1, 0), (0, 1), (1, 1), (3, -7), (0.6, 0.8), (123, -457)):
            base.append((*anchored_conjugate_pair(P, u), Direction(*u)))
        two_tol = 2.0 * extremal._dist_tol(P)
        cx = sum(p.x for p in P) / P.n
        cy = sum(p.y for p in P) / P.n
        for F, G, u in base:
            Gs = [G.corners, G.corners[::-1], G.corners[:2] + G.corners[1:3]]
            Gs += [_about_centre(G, f) for f in (0.9, 1.001, 3.0)]
            Gs += [_side_moved_in(G, k, 1e-6) for k in range(4)]
            Fs = [F.corners]
            for h in (two_tol, -two_tol):
                out = []
                for p in F.corners:
                    r = math.hypot(p.x - cx, p.y - cy)
                    out.append(Point(p.x + h * (p.x - cx) / r, p.y + h * (p.y - cy) / r))
                Fs.append(tuple(out))
            for bad in ((nan, 0.0), (inf, 0.0), (-inf, nan)):
                Fs.append((Point(*bad),) + F.corners[1:])
            cases = [(F.corners, g) for g in Gs] + [(f, G.corners) for f in Fs[1:]]
            for fc, gc in cases:
                Fx = dataclasses.replace(F, corners=fc)
                Gx = dataclasses.replace(G, corners=gc)
                with np.errstate(invalid="ignore"):
                    want = verify_conjugate_pair_loop(Fx, Gx, (u.dx, u.dy), P)
                    got = verify_conjugate_pair(Fx, Gx, u, P).checks
                assert got == want, (P.n, u, fc, gc)
                records += 1
        F, G, u = base[0]
        xy = P.coords()
        ex, ey = P.edges()
        for k in range(P.n):
            elen = math.hypot(ex[k], ey[k])
            out = Point(float(xy[k, 0] + 0.5 * ex[k] + two_tol * ey[k] / elen),
                        float(xy[k, 1] + 0.5 * ey[k] - two_tol * ex[k] / elen))
            corners = list(F.corners)
            corners[k % 4] = out
            Fx = dataclasses.replace(F, corners=tuple(corners))
            got = verify_conjugate_pair(Fx, G, u, P).checks
            assert got == verify_conjugate_pair_loop(Fx, G, (u.dx, u.dy), P), (P.n, k)
            assert not got.quad_in_polygon, (P.n, k)
            records += 1
    assert records >= 3000



def _certificate_cases(P, directions):
    """(F, G, u) for both certificates of P and its anchored pairs along
    `directions`, each as built, with G scaled about its centre, one side
    moved in or one corner made NaN or infinite (whose margins are NaN
    against a threshold of inf), and with one of F's corners pushed 2 tol
    out or made NaN."""
    rep = combined_extremes(P)
    base = [(c.quad, c.para, c.anchor) for c in (rep.quad_certificate, rep.para_certificate)]
    base += [(*anchored_conjugate_pair(P, u), Direction(*u)) for u in directions]
    two_tol = 2.0 * extremal._dist_tol(P)
    for F, G, u in base:
        yield F, G, u
        Gs = [_about_centre(G, f) for f in (0.9, 1.001, 1.1)] + [_side_moved_in(G, 2, 1e-6)]
        Gs += [(Point(*bad),) + G.corners[1:] for bad in ((math.nan, 0.0), (math.inf, 0.0))]
        for corners in Gs:
            yield F, dataclasses.replace(G, corners=corners), u
        for p in (Point(F.corners[0].x + two_tol, F.corners[0].y - two_tol), Point(math.nan, 0.0)):
            yield dataclasses.replace(F, corners=(p,) + F.corners[1:]), G, u


def _probe_polygon(shift: float) -> ConvexPolygon:
    """random_convex(12, 5003, 1000) centred, divided by its largest
    |coordinate| and moved by `shift` along both axes."""
    xy = random_convex(12, 5003, 1000).coords()
    xy = xy - xy.mean(axis=0)
    return ConvexPolygon(canonicalize(xy / np.abs(xy).max() + shift))


@pytest.mark.parametrize("block", [1, 5])
def test_certificate_margin_blocks_do_not_change_the_checks(monkeypatch, corpus, block):
    # Over more than geometry._MARGIN_BLOCK vertices both containment
    # checks read their margins a column block at a time; every field must
    # be the one the single pass gives.
    polys = list(corpus[::2]) + [lattice_ngon(200, 3), regular_ngon(40, 1000.0, 1), parallel_edge_polygon(60, 2)]
    cases = [(*c, P) for P in polys for c in _certificate_cases(P, ((1, 0), (123, -457)))]
    with np.errstate(invalid="ignore"):
        want = [verify_conjugate_pair(*c).checks for c in cases]
        monkeypatch.setattr(geometry, "_MARGIN_BLOCK", block)
        got = [verify_conjugate_pair(*c).checks for c in cases]
    assert got == want
    assert sum(P.n > block for *_, P in cases) > len(cases) // 2
    assert any(not c.quad_in_polygon for c in want) and any(not c.polygon_in_para for c in want)


@pytest.mark.parametrize("block", [None, 1, 4])
def test_scaled_parallelogram_probe_unchanged_by_margin_blocks(monkeypatch, block):
    # The translated probe that the absolute-coordinate checks cannot see
    # through: G scaled about its corner mean by up to 1.1 still passes
    # them far from the origin.  Blocking the margins must neither mend
    # nor worsen that: the verdicts stay those of the single pass.
    if block is not None:
        monkeypatch.setattr(geometry, "_MARGIN_BLOCK", block)
    u = Direction(3, 1)
    verdicts = {}
    for shift in (1e7, 6e7, 1e8):
        P = _probe_polygon(shift)
        assert P.n == 6
        F, G = anchored_conjugate_pair(P, u)
        for f in (1.0, 1.001, 1.01, 1.05, 1.1):
            checks = verify_conjugate_pair(F, dataclasses.replace(G, corners=_about_centre(G, f)), u, P).checks
            verdicts[shift, f] = (checks.all_ok, checks.polygon_in_para)
    assert all(inside for _, inside in verdicts.values())
    assert [key for key, (ok, _) in verdicts.items() if not ok] == [(1e7, 1.05), (1e7, 1.1)]


def test_verify_detects_oversized_parallelogram(square):
    F, G = anchored_conjugate_pair(square, (1, 0))
    big = ParaResult(
        tuple(Point(3 * p.x - 1, 3 * p.y - 1) for p in G.corners),
        G.side_dir_bd,
        G.side_dir_ac,
        9 * G.area,
        G.touch_indices,
    )
    cert = verify_conjugate_pair(F, big, Direction(1, 0), square)
    assert not any(cert.checks.corner_on_side)
    assert not cert.checks.area_ratio
    assert not cert.checks.all_ok


def test_verify_detects_oversized_parallelogram_on_a_tiny_polygon():
    # With an absolute floor in the distance tolerance, a polygon whose
    # coordinates are far below 1 passed a parallelogram of nine times the
    # area; relative to max|coord|, it fails as on the unscaled polygon.
    P = ConvexPolygon(lattice_ngon(64, 3).coords() * 2.0**-40)
    F, G = anchored_conjugate_pair(P, (1, 0))
    assert verify_conjugate_pair(F, G, Direction(1, 0), P).checks.all_ok
    big = dataclasses.replace(G, corners=_about_centre(G, 3.0), area=9 * G.area)
    checks = verify_conjugate_pair(F, big, Direction(1, 0), P).checks
    assert not checks.area_ratio
    assert not checks.all_ok


def test_verify_detects_polygon_outside_parallelogram(corpus):
    # Shrunk about its centre, G cuts off the vertices its sides touch; the
    # containment check must see that, and must accept the valid G whichever
    # way round its corners run.
    u = Direction(3, 1)
    for P in corpus[:25] + [regular_ngon(7, 3.0)]:
        F, G = anchored_conjugate_pair(P, u)
        cx = sum(p.x for p in G.corners) / 4.0
        cy = sum(p.y for p in G.corners) / 4.0
        shrunk = tuple(Point(cx + 0.9 * (p.x - cx), cy + 0.9 * (p.y - cy)) for p in G.corners)
        checks = verify_conjugate_pair(F, dataclasses.replace(G, corners=shrunk), u, P).checks
        assert not checks.polygon_in_para, P.n
        assert not checks.all_ok, P.n
        clockwise = dataclasses.replace(G, corners=G.corners[::-1])
        assert verify_conjugate_pair(F, clockwise, u, P).checks.polygon_in_para, P.n


def test_polygon_in_para_measures_each_side_against_its_own_length():
    # P is a 1000 x 1 rectangle, so the distance tolerance is about 1e-6.
    # G is P with one side moved in by h: P's vertices lie h outside that
    # side.  The margins are scaled by the side's length, 1 or 1000, so a
    # side measured against another side's threshold misjudges h = 2e-6 on
    # a short side or h = 5e-7 on a long one.
    P = ConvexPolygon([(0, 0), (1000, 0), (1000, 1), (0, 1)])
    F, _ = anchored_conjugate_pair(P, (1, 0))
    assert extremal._dist_tol(P) == pytest.approx(1e-6)
    for side, h, want in ((1, 2e-6, False), (1, 5e-7, True), (2, 2e-6, False), (2, 5e-7, True)):
        g = [[0.0, 0.0], [1000.0, 0.0], [1000.0, 1.0], [0.0, 1.0]]
        for k in (side, side + 1):
            g[k][0 if side == 1 else 1] -= h
        G = ParaResult(tuple(Point(*p) for p in g), Direction(1, 0), Direction(0, 1), 1000.0, (0, 1, 2, 3))
        for corners in (G.corners, G.corners[::-1]):
            checks = verify_conjugate_pair(F, dataclasses.replace(G, corners=corners), (1, 0), P).checks
            assert checks.polygon_in_para == want, (side, h, corners)


def test_verify_detects_unanchored_diagonal(square):
    F, G = anchored_conjugate_pair(square, (1, 0))
    tilted = QuadResult(
        (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)),
        (0, 1, 2, 3),
        1.0,
    )
    cert = verify_conjugate_pair(tilted, G, Direction(1, 0), square)
    assert not cert.checks.anchoring_d  # diagonal (0,0)-(1,1) is not horizontal


def test_combined_named_values(square, triangle, hexagon):
    rep = combined_extremes(square)
    assert rep.max_quad.area == 1.0 and rep.min_para.area == 1.0
    rep = combined_extremes(triangle)
    assert rep.max_quad.area == 0.5 and rep.min_para.area == 1.0
    rep = combined_extremes(hexagon)
    assert rep.max_quad.area == pytest.approx(math.sqrt(3), rel=REL)
    assert rep.min_para.area == pytest.approx(2 * math.sqrt(3), rel=REL)


def test_combined_certificates_and_containment(corpus):
    for P in corpus:
        rep = combined_extremes(P)
        assert rep.quad_certificate.checks.all_ok
        assert rep.para_certificate.checks.all_ok
        tol = 1e-9 * (P.scale + 1)
        for corner in rep.max_quad.corners:
            assert contains_point(P, corner, tol)
        assert rep.max_quad.area == quad_area(*rep.max_quad.corners)
        assert rel_eq(rep.min_para.area, quad_area(*rep.min_para.corners))
        assert rep.predicate_count <= 64 * P.n


def test_max_quad_side_pair_on_float_rings():
    # A triangle's largest quadrilateral has an edge as its diagonal.  The
    # rounded diagonal vector is not exactly parallel to that edge, whose
    # own rounded vector is its negation: the edge is passed over because
    # its vertices are on the diagonal, or no side lines would meet.
    P = ConvexPolygon([(-0.4498629873986306, 0.8930975828926979), (-0.5485137011442396, -0.8361415667559219),
                       (0.9983766885428702, -0.056956016136776644)])
    rep = combined_extremes(P)
    assert rep.max_quad.vertex_indices == (1, 2, 0, 1)
    assert rep.quad_certificate.checks.all_ok
    # The sweep's diagonal from p[5] to p[19] lies between edges 4 and 19,
    # parallel only up to rounding, so no candidate edge supports P exactly
    # at both ends; the first, edge 4, is taken.
    P = regular_ngon(30, 1000.0, 1)
    rep = combined_extremes(P)
    assert rep.max_quad.vertex_indices == (5, 12, 19, 27)
    G = rep.quad_certificate.para
    assert (G.side_dir_ac.dx, G.side_dir_ac.dy) == P.edge_vector(4)
    assert rep.quad_certificate.checks.all_ok


def test_para_touch_indices_lie_on_sides(corpus):
    for P in corpus[:20]:
        g = combined_extremes(P).min_para
        tol = 1e-9 * (P.scale + 1)
        corners = g.corners
        sides = [
            (corners[0], corners[1]),
            (corners[1], corners[2]),
            (corners[2], corners[3]),
            (corners[3], corners[0]),
        ]
        for idx, (p, q) in zip(g.touch_indices, sides):
            v = P[idx]
            ex, ey = q.x - p.x, q.y - p.y
            assert abs(ex * (v.y - p.y) - ey * (v.x - p.x)) <= tol * math.hypot(ex, ey)


def test_largest_quadrilateral_examples(square, triangle, hexagon):
    q = largest_quadrilateral(square)
    assert q.area == 1.0 and set(q.vertex_indices) == {0, 1, 2, 3}
    assert largest_quadrilateral(hexagon).area == pytest.approx(math.sqrt(3), rel=REL)
    t = largest_quadrilateral(triangle)
    assert t.area == 0.5 == polygon_area(triangle)
    assert len(set(t.vertex_indices)) == 3  # one corner repeats


def test_largest_quadrilateral_corners_are_vertices(corpus):
    for P in corpus[:25]:
        q = largest_quadrilateral(P)
        for idx, corner in zip(q.vertex_indices, q.corners):
            assert idx is not None
            assert P[idx] == corner


def test_smallest_parallelogram_examples(square, triangle, hexagon):
    assert smallest_parallelogram(square).area == 1.0
    assert smallest_parallelogram(triangle).area == 1.0
    assert smallest_parallelogram(hexagon).area == pytest.approx(
        2 * math.sqrt(3), rel=REL
    )


def test_smallest_parallelogram_contains_polygon(corpus):
    for P in corpus[:20]:
        g = smallest_parallelogram(P)
        tol = 1e-9 * (P.scale + 1)
        gx = [p.x for p in g.corners]
        gy = [p.y for p in g.corners]
        for k in range(4):
            ex = gx[(k + 1) % 4] - gx[k]
            ey = gy[(k + 1) % 4] - gy[k]
            for v in P.vertices:
                cr = ex * (v.y - gy[k]) - ey * (v.x - gx[k])
                assert cr >= -tol * math.hypot(ex, ey)


def test_three_routes_agree(corpus):
    for P in corpus:
        rep = combined_extremes(P)
        assert rep.max_quad.area == largest_quadrilateral(P).area
        assert rel_eq(rep.min_para.area, smallest_parallelogram(P).area)


def test_results_carry_python_floats(corpus):
    # Corners are built from the float64 vertex array; numpy scalars would
    # change the results' repr.
    for P in corpus[::7]:
        rep = combined_extremes(P)
        figures = [rep.max_quad, rep.min_para, largest_quadrilateral(P), smallest_parallelogram(P)]
        figures += anchored_conjugate_pair(P, (3, -7))
        values = [v for f in figures for c in f.corners for v in c]
        values += [f.area for f in figures] + [v for p in P.vertices for v in p]
        values += [*P[P.n + 1], *P.edge_vector(P.n - 1)]
        assert {type(v) for v in values} == {float}


def test_oracle_equivalence(corpus):
    for P in corpus:
        rep = combined_extremes(P)
        if P.n <= 40:
            assert rep.max_quad.area == brute_largest_quad(P).area
        op = brute_smallest_para(P)
        assert rel_eq(rep.min_para.area, op.area)


def test_duality_inequality(corpus):
    for P in corpus:
        rep = combined_extremes(P)
        assert rep.min_para.area / 2 <= rep.max_quad.area * (1 + REL)


def test_affine_equivariance(corpus):
    for P in corpus[:20]:
        rep = combined_extremes(P)
        mapped = ConvexPolygon(
            [(2 * p.x + p.y + 3, p.x + 3 * p.y - 5) for p in P.vertices]
        )
        rep2 = combined_extremes(mapped)  # determinant of the map is 5
        assert rel_eq(rep2.max_quad.area, 5 * rep.max_quad.area, rel=1e-9)
        assert rel_eq(rep2.min_para.area, 5 * rep.min_para.area, rel=1e-9)


def test_relabeling_invariance(corpus):
    for P in corpus[:20]:
        rep = combined_extremes(P)
        for k in (1, P.n // 2):
            rolled = ConvexPolygon(P.vertices[k:] + P.vertices[:k])
            rep2 = combined_extremes(rolled)
            assert rep2.max_quad.area == rep.max_quad.area
            assert rep2.min_para.area == rep.min_para.area


def test_degenerate_triangle_input():
    for seed in range(10):
        P = random_convex(3, 100 + seed, 50)
        rep = combined_extremes(P)
        assert rep.max_quad.area == polygon_area(P)
        assert len(set(rep.max_quad.vertex_indices)) == 3


def test_parallelogram_input_is_its_own_optimum():
    for seed in range(10):
        P = parallel_edge_polygon(2, seed)
        rep = combined_extremes(P)
        assert rep.min_para.area == polygon_area(P)


def test_four_flush_degenerate_lattice():
    # parallel edge pairs align with the optimum on both axes simultaneously
    P = ConvexPolygon(
        [(0, 0), (4, 0), (7, 2), (8, 4), (8, 6), (4, 6), (1, 4), (0, 2)]
    )
    rep = combined_extremes(P)
    op = brute_smallest_para(P)
    assert rel_eq(rep.min_para.area, op.area)
    assert rel_eq(smallest_parallelogram(P).area, op.area)


def test_anchored_opposite_directions_match(square):
    f1, g1 = anchored_conjugate_pair(square, (1, 0))
    f2, g2 = anchored_conjugate_pair(square, (-1, 0))
    assert f1 == f2
    assert g1 == g2


def test_anchored_b_and_d_are_the_extreme_vertices(corpus):
    # b and d come from one projection, d's as its minimizers: they are the
    # vertices that extreme_vertex picks along u's two normals, ties broken
    # to the end of the run.  An anchor along edge k puts that edge's two
    # ends, and any parallel edge's, among the extremes; along edge n - 1
    # the run wraps past vertex n - 1.  A half-turned lattice ring holds
    # -0.0 coordinates, which flip the zero signs of the negated projection.
    polys = list(corpus) + [regular_ngon(n, 1000.0, r) for n in (5, 40, 151) for r in (0, 1)]
    polys += [ConvexPolygon(-lattice_ngon(n, s).coords()) for n, s in ((40, 1), (300, 3))]
    ties = wraps = 0
    for P in polys:
        edges = [P.edge_vector(k) for k in range(P.n)]
        dirs = [(1, 0), (0, 1), (123, -457)] + edges + [(-ey, ex) for ex, ey in edges]
        for u in dirs:
            F, G = anchored_conjugate_pair(P, u)
            ux, uy = _unit(Direction(*u).canonical())
            b, d = extreme_vertex(P, (uy, -ux)), extreme_vertex(P, (-uy, ux))
            assert F.vertex_indices[1::2] == G.touch_indices[1::2] == (b, d), (P.n, u)
            for vx, vy in ((uy, -ux), (-uy, ux)):
                dots = P.coords()[:, 0] * vx + P.coords()[:, 1] * vy
                top = np.flatnonzero(dots == dots.max()).tolist()
                ties += len(top) > 1
                wraps += top[0] == 0 and top[-1] == P.n - 1
    assert ties > 1000 and wraps > 100, (ties, wraps)


def _bits(points):
    """Exact bit patterns of point coordinates (float.hex keeps -0.0 apart)."""
    return [c.hex() for p in points for c in p]


def exact_longest_chord_vertex(P: ConvexPolygon, u) -> int:
    """The first vertex, in index order, whose chord along u is longest,
    in exact rational arithmetic on the binary64 inputs: the referee of
    `extremal._longest_chord`, which shares no code with it.

    Scaled by a common power of two, the coordinates and u are integers.
    A point p lies at offset s = u x p across u and at t = u . p along it.
    From the vertex of least offset to that of greatest and back, the ring
    forms two chains on which s is monotone; the chord at a vertex's
    offset runs between the chains' points at that offset, whose t are
    interpolated exactly, or between the ends of an edge along u.
    """
    vals = [*P.coords().ravel().tolist(), float(u[0]), float(u[1])]
    ratios = [v.as_integer_ratio() for v in vals]
    den = max(d for _, d in ratios)
    *xy, ux, uy = [m * (den // d) for m, d in ratios]
    S = [ux * y - uy * x for x, y in zip(xy[0::2], xy[1::2])]
    T = [ux * x + uy * y for x, y in zip(xy[0::2], xy[1::2])]
    n, lo, hi = len(S), S.index(min(S)), S.index(max(S))
    chains = []
    for start, length, sign in ((lo, (hi - lo) % n, 1), (hi, (lo - hi) % n, -1)):
        ring = [(start + i) % n for i in range(length + 1)]
        chains.append((ring, [sign * S[m] for m in ring], sign))
    extents = []
    for s in S:
        ts = []
        for ring, keys, sign in chains:
            j = bisect_left(keys, sign * s)
            if keys[j] == sign * s:
                ts += [T[m] for m in ring[j : bisect_right(keys, sign * s)]]
            else:
                p, q = ring[j - 1], ring[j]
                ts.append(Fraction(T[p] * (S[q] - s) + T[q] * (s - S[p]), S[q] - S[p]))
        extents.append(max(ts) - min(ts))
    return extents.index(max(extents))


def test_exact_referee_examples(square, triangle):
    # Ties keep the first vertex; a chord along an edge counts for both of
    # the edge's vertices.
    hexa = ConvexPolygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
    cases = [(square, (1, 0), 0), (square, (1, 1), 0), (square, (-1, 1), 1), (triangle, (0, 1), 0)]
    cases += [(triangle, (-1, 1), 1), (hexa, (1, 0), 2), (hexa, (0, 1), 0), (hexa, (1, 1), 0)]
    for P, u, want in cases:
        assert exact_longest_chord_vertex(P, u) == want, (P, u)


def _assert_exact_diagonal(P, u, F):
    """F's diagonal ends at the referee's vertex, and is `chord_through` it,
    to the bit, unless rounding collapses that float chord to a point; its
    length is within ORACLE_REL_TOL of the float oracle's."""
    uc = Direction(*u).canonical()
    i = exact_longest_chord_vertex(P, (uc.dx, uc.dy))
    seg, diagonal = chord_through(P, P[i], uc), (F.corners[0], F.corners[2])
    assert i in F.vertex_indices[::2], (P.n, u, i)
    assert seg.a == seg.b or _bits(diagonal) == _bits(seg), (P.n, u, i)
    assert rel_eq(math.dist(*diagonal), longest_chord(P, uc).length(), ORACLE_REL_TOL), (P.n, u, i)


def test_anchored_diagonal_is_the_reference_longest_chord(corpus):
    # the lattice polygons and parallel-edge polygons are tie-heavy
    polys = list(corpus) + [lattice_ngon(n, 7 * n) for n in (16, 50, 97)]
    polys.append(parallel_edge_polygon(9, 41))
    for P in polys:
        dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 0)]
        dirs += [P.edge_vector(k) for k in range(P.n)]
        # The seam of D's half turn, which starts along p[c0] - p[0], and
        # edge 0, which starts the sweep's frame: on them and just beside.
        D = P.difference_body()
        w = (P[D.c[0]].x - P[D.a[0]].x, P[D.c[0]].y - P[D.a[0]].y)
        for x, y in (w, (-w[0], -w[1]), P.edge_vector(0)):
            for t in (0.0, 1e-15, -1e-15, 1e-9, -1e-9):
                dirs.append((x * math.cos(t) - y * math.sin(t), x * math.sin(t) + y * math.cos(t)))
        for u in dirs:
            F, _ = anchored_conjugate_pair(P, u)
            _assert_exact_diagonal(P, u, F)


def test_anchored_diagonal_where_the_float_chord_collapses():
    # Along edge 1 of this rotated square, vertex 3's chord is exactly the
    # longest, but edge 3 lies within rounding of parallel to it, and
    # chord_through's float chord at vertex 3 is a point: the diagonal is
    # measured exactly instead.
    P = ConvexPolygon([(0.03760215288797655, -0.999292788975378), (0.999292788975378, 0.03760215288797649),
                       (-0.03760215288797643, 0.999292788975378), (-0.999292788975378, -0.03760215288797637)])
    u = P.edge_vector(1)
    assert exact_longest_chord_vertex(P, u) == 3 and chord_through(P, P[3], u).length() == 0.0
    F, G = anchored_conjugate_pair(P, u)
    _assert_exact_diagonal(P, u, F)
    assert verify_conjugate_pair(F, G, u, P).checks.all_ok
    assert rel_eq(F.area, brute_anchored_quad_area(P, u), rel=1e-9)


def test_parallelogram_raises_on_parallel_sides():
    with pytest.raises(ParallelLines):
        extremal._parallelogram((0, 0), (1, 0), (1, 1), (0, 1), Direction(1, 0), Direction(-2, 0), (0, 1, 2, 3))


def _count_signs(monkeypatch) -> list:
    """Counts the exact signs the anchored lookup takes, in a one-element
    list."""
    count, sign = [0], extremal._det_sign

    def counted(*args):
        count[0] += 1
        return sign(*args)

    monkeypatch.setattr(extremal, "_det_sign", counted)
    return count


def test_longest_chord_survives_a_moved_proposal(corpus, monkeypatch):
    # D's proposal only decides where the walk starts: moved by one to
    # three D vertices, or by a quarter turn, it costs signs, and the chord
    # stays the referee's.
    signs = _count_signs(monkeypatch)
    crossed_edge = DifferenceBody.crossed_edge
    polys = list(corpus[::3]) + [regular_ngon(n, 1000.0, 1) for n in (40, 151)]
    polys += [lattice_ngon(300, 3), parallel_edge_polygon(9, 41)]
    spent = [0, 0]  # signs taken from the true proposals, from the moved ones
    for P in polys:
        for shift in (0, -3, -2, -1, 1, 2, 3, P.n // 2):
            monkeypatch.setattr(
                DifferenceBody, "crossed_edge", lambda D, ux, uy, shift=shift: crossed_edge(D, ux, uy) + shift
            )
            before = signs[0]
            for u in [(1, 0), (0, 1), (3, 7), (1.0, math.sqrt(2)), P.edge_vector(0)]:
                F, _ = anchored_conjugate_pair(P, u)
                _assert_exact_diagonal(P, u, F)
            spent[shift != 0] += signs[0] - before
    assert spent[1] > 7 * spent[0]  # seven moved proposals per true one


def test_half_turn_proposal_certifies_on_lattice_polygons(monkeypatch):
    # D lists one half turn; a direction on the other half is looked up as
    # its negation.  On lattice polygons the proposal is the answer on both
    # halves: four signs confirm it, and four step across the parallel
    # edges that every centrally symmetric polygon has at its longest chord.
    # The side search then takes at most three signs per candidate edge:
    # one against u, and at most two at the chord's other end.
    signs = _count_signs(monkeypatch)
    rng = SplitMix64(5)
    halves = set()
    for seed in range(4):
        P = lattice_ngon(1024, seed)
        k0 = P.difference_body().k0
        for _ in range(16):
            u = (float(rng.randint(-1000, 1000)), float(rng.randint(1, 1000)))  # canonical
            un = Direction(*_unit(u))
            before = signs[0]
            _, ends = extremal._longest_chord(P, un)
            assert signs[0] - before <= 8, (P.n, u)
            before = signs[0]
            extremal._side_direction(P, *ends, (0.0, 0.0), (un.dx, un.dy))
            assert signs[0] - before <= 3 * sum(1 if kind == "edge" else 2 for kind, _ in ends), (P.n, u)
            halves.add(bool(_direction_keys(np.array([u[0]]), np.array([u[1]]), k0)[0] >= 2.0))
    assert halves == {False, True}


def test_wrap_edge_proposal_certifies_on_lattice_polygons(monkeypatch):
    # D's last edge runs from its vertex n - 1 to its vertex n, which is
    # vertex 0 with the pair swapped.  On lattice polygons that edge is P's
    # e[c], and a wrong wrap still finds the chord, at a cost in signs: the
    # half-turn test's budget of eight is what sees it.
    signs = _count_signs(monkeypatch)
    for seed in range(4):
        P = lattice_ngon(1024, seed)
        D = P.difference_body()
        xy = P.coords()
        last, first = xy[D.c[-1]] - xy[D.a[-1]], xy[D.c[0]] - xy[D.a[0]]
        assert D.proposal(P.n)[2]
        for s, t in ((1, 1), (3, 1), (1, 3), (40, 1), (1, 40)):
            u = Direction(*(s * last - t * first)).canonical()  # between D's vertices n - 1 and n
            un = Direction(*_unit(u))
            assert D.crossed_edge(un.dx, un.dy) == P.n, (seed, s, t)
            before = signs[0]
            extremal._longest_chord(P, un)
            assert signs[0] - before <= 8, (seed, s, t)
            F, _ = anchored_conjugate_pair(P, u)
            _assert_exact_diagonal(P, (u.dx, u.dy), F)


def test_longest_chord_survives_a_proposal_moved_along_one_chain(corpus, monkeypatch):
    # With only a (or only c) moved, D's pairs are no longer antipodal: the
    # proposed vertex's far edge is searched for, and the walk must still
    # end at the referee's vertex.
    polys = [P for P in corpus if P.n >= 20] + [lattice_ngon(300, 3), regular_ngon(151, 1000.0, 1)]
    for P in polys:
        D = P.difference_body()
        for field in ("a", "c"):
            for shift in (-5, -3, 3, 5):
                Q = ConvexPolygon(P.coords())
                Q._dbody = D._replace(**{field: (getattr(D, field) + shift) % P.n})
                for u in [(1, 0), (0, 1), (3, 7), (1.0, math.sqrt(2)), P.edge_vector(0)]:
                    F, _ = anchored_conjugate_pair(Q, u)
                    _assert_exact_diagonal(P, u, F)


def _squashed_ngon(n: int, factor: float) -> ConvexPolygon:
    return ConvexPolygon(canonicalize(regular_ngon(n).coords() * np.array([1.0, factor])))


def test_chord_search_stays_linear_where_no_edge_bounds_the_window(monkeypatch):
    # Along the long axis of a regular polygon squashed by 1e-9 or 1e-6,
    # every edge near the chord's ends lies within about 1e-6 rad of u, so
    # float chord lengths are ill-conditioned there.  The exact lookup
    # measures one chord per query, the referee's.
    measured = 0
    through = extremal.chord_through

    def counted_chord(P, q, u):
        nonlocal measured
        measured += 1
        return through(P, q, u)

    monkeypatch.setattr(extremal, "chord_through", counted_chord)
    queries = 0
    for P in (_squashed_ngon(4096, 1e-9), _squashed_ngon(200, 1e-9), _squashed_ngon(64, 1e-6)):
        for u in [(1, 0), (1.0, 1e-12), (3, 7), (1.0, math.sqrt(2)), P.edge_vector(2)]:
            F, _ = anchored_conjugate_pair(P, u)
            queries += 1
            assert measured == queries, (P.n, u)
            _assert_exact_diagonal(P, u, F)


def _in_arc(v, s, e) -> bool:
    """v lies in the CCW arc from s to e (arc width < half turn)."""
    return s[0] * v[1] - v[0] * s[1] >= 0.0 and v[0] * e[1] - e[0] * v[1] >= 0.0


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


def test_is_antipodal_brute(square):
    assert is_antipodal_brute(square, 0, 2)
    assert is_antipodal_brute(square, 0, 1)  # vertical supporting lines
    pent = regular_ngon(5, 100.0)
    assert not is_antipodal_brute(pent, 0, 1)
    assert is_antipodal_brute(pent, 0, 2)


def test_difference_body_vertices_are_the_antipodal_pairs(corpus):
    # D = P - P over a half turn, n pairs (a, c); the other half turn is the
    # same pairs as (c, a).  Over the full turn: a convex CCW ring of 2n
    # points p[c] - p[a] in which a and c each advance n times.  (a, c) is
    # antipodal iff p[c] - p[a] lies on D's boundary, and then it is listed
    # as (a, c) or (c, a), except where two antiparallel edges of P make one
    # straight edge of D: the merge (ties to a) lists one of its two middle
    # points.
    polys = list(corpus) + [lattice_ngon(n, 7 * n) for n in (16, 50, 97)]
    polys += [parallel_edge_polygon(m, m + 40) for m in (3, 9, 20)]
    for P in polys:
        D = P.difference_body()
        n, xy = P.n, P.coords()
        assert len(D.a) == len(D.c) == n
        A, C = np.concatenate((D.a, D.c)), np.concatenate((D.c, D.a))
        step_a, step_c = np.diff(A, append=A[0]) % n, np.diff(C, append=C[0]) % n
        assert (step_a <= 1).all() and (step_c <= 1).all()
        assert (step_a + step_c == 1).all()
        w = xy[C] - xy[A]  # exact: integer coordinates
        e = np.roll(w, -1, axis=0) - w
        assert (e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1) >= 0.0).all(), P.n
        listed = set(zip(A.tolist(), C.tolist()))
        ex, ey = P.edges()
        antiparallel = ((ex[:, None] * ey - ey[:, None] * ex == 0.0) & (ex[:, None] * ex + ey[:, None] * ey < 0.0)).any()
        for a in range(n):
            for c in range(n):
                if a == c:
                    continue
                q = xy[c] - xy[a] - w
                cross = e[:, 0] * q[:, 1] - e[:, 1] * q[:, 0]
                on_boundary = bool((cross >= 0.0).all() and (cross == 0.0).any())
                assert is_antipodal_brute(P, a, c) == on_boundary, (P.n, a, c)
                if (a, c) in listed:
                    assert on_boundary, (P.n, a, c)
                elif on_boundary:
                    assert antiparallel, (P.n, a, c)


def test_difference_body_is_lazy_and_cached(corpus):
    P = ConvexPolygon(corpus[5].coords())
    combined_extremes(P)
    assert P._dbody is None
    anchored_conjugate_pair(P, (1, 2))
    assert P.difference_body() is P.difference_body()


@st.composite
def anchored_polygons(draw):
    """Lattice polygons, random hulls and float regular polygons, also
    rotated, scaled and translated, whose rounded coordinates make
    near-ties."""
    kind = draw(st.sampled_from(["lattice", "hull", "regular", "parallel"]))
    n = draw(st.integers(3, 90))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lattice":
        P = lattice_ngon(n, seed)
    elif kind == "hull":
        P = random_convex(n, seed, draw(st.sampled_from([10, 1000, 1 << 20])))
    elif kind == "regular":
        P = regular_ngon(n, draw(st.sampled_from([1.0, 1000.0])), seed % 7)
    else:
        P = parallel_edge_polygon(max(2, n // 2), seed)
    move = draw(st.sampled_from(["none", "rotate", "scale", "translate"]))
    xy = P.coords()
    if move == "rotate":
        turn = draw(st.floats(0.0, 2.0 * math.pi))
        c, s = math.cos(turn), math.sin(turn)
        xy = np.column_stack((c * xy[:, 0] - s * xy[:, 1], s * xy[:, 0] + c * xy[:, 1]))
    elif move == "scale":
        xy = xy * draw(st.sampled_from([1e-3, 0.37, 7.3, 1e5]))
    elif move == "translate":
        xy = xy + np.array(draw(st.tuples(*[st.floats(-1e6, 1e6)] * 2)))
    try:
        return ConvexPolygon(canonicalize(xy))
    except GeometryError:
        assume(False)


# Components are zero or at least 1e-6 in size: a smaller component below
# 2^-1022 times the larger is out of scope (see `_dyadic_unit`).
COMPONENT = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
FLOAT_DIRECTION = st.tuples(COMPONENT, COMPONENT).filter(lambda u: u != (0.0, 0.0))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(anchored_polygons(), FLOAT_DIRECTION, st.integers(0, 2**31), st.integers(0, 2**31))
# -e[c0] parallel to e[0] up to rounding: its key must not wrap to a full
# turn, or D gets pairs with a == c (see test_sweep.py).
@example(ConvexPolygon(canonicalize(regular_ngon(18, 1000.0).coords() * 0.37)), (0.0, 1.0), 0, 9)
# Along edge 0, (2, 2^-1021), the horizontal edge's chord parameter
# overflows: no RuntimeWarning.
@example(ConvexPolygon([(0.0, 0.0), (2.0, 2.0**-1021), (5.0, 1.0), (9.0, 3.0), (7.0, 3.0), (4.0, 2.0)]), (0.0, 1.0), 0, 0)
# The chord's far end lies inside edge 1, 3e-8 from vertex 2.  Taken as
# vertex 2, it let edge 2, 1e-8 rad from u, be the side pair, and that
# flat parallelogram failed its certificate.
@example(ConvexPolygon([(-2, 28), (9, 30), (-2, 31)]), (1e-05, 972.0), 0, 0)
def test_anchored_diagonal_matches_the_reference_on_float_hulls(P, u, edge, vertex):
    # Random float directions, edge vectors, and the directions of D's own
    # vertices p[c] - p[a], along which the chord ends at two vertices.
    D = P.difference_body()
    a, c = int(D.a[vertex % len(D.a)]), int(D.c[vertex % len(D.c)])
    w = (P[c].x - P[a].x, P[c].y - P[a].y)
    for v in (u, P.edge_vector(edge % P.n), w):
        # A translation by a subnormal offset gives edges whose smaller
        # component is out of scope, as for u above.
        small, large = sorted(map(abs, v))
        if 0.0 < small < 2.0**-1022 * large:
            continue
        F, G = anchored_conjugate_pair(P, v)
        _assert_exact_diagonal(P, v, F)
        assert verify_conjugate_pair(F, G, v, P).checks.all_ok, (P.n, v)


def assert_exact_chord_ends(P: ConvexPolygon, u, F: QuadResult, G: ParaResult):
    """The rational referee of an anchored pair's chord ends, on the exact
    chord along u through the referee's vertex (`exact_longest_chord_vertex`):
    an end labelled j in F.vertex_indices is exactly p[j], an unlabelled end
    is reached by no vertex, so it lies inside an edge, and the lines
    parallel to G's side edge through both ends support P."""
    uc = Direction(*u).canonical()
    i = exact_longest_chord_vertex(P, (uc.dx, uc.dy))
    pts = [tuple(map(Fraction, p)) for p in P]
    ux, uy = Fraction(uc.dx), Fraction(uc.dy)
    px, py = pts[i]
    lower, upper = [], []  # bounds on t of p[i] + t u, one per edge
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        c, d = (bx - ax) * (py - ay) - (by - ay) * (px - ax), (bx - ax) * uy - (by - ay) * ux
        if d:
            (lower if d > 0 else upper).append(-c / d)
    ends = (max(lower), min(upper))
    on_line = {m: ((x - px) * ux + (y - py) * uy) / (ux * ux + uy * uy)
               for m, (x, y) in enumerate(pts) if ux * (y - py) == uy * (x - px)}
    for label, t in zip(F.vertex_indices[::2], ends):
        assert on_line.get(label) == t if label is not None else t not in on_line.values(), (P.n, u, label)

    def supports(e, t):
        (ax, ay), (bx, by) = pts[e], pts[(e + 1) % P.n]
        xx, xy = px + t * ux, py + t * uy
        cross = [(bx - ax) * (y - xy) - (by - ay) * (x - xx) for x, y in pts]
        return min(cross) >= 0 or max(cross) <= 0

    side = (G.side_dir_ac.dx, G.side_dir_ac.dy)
    assert any(P.edge_vector(e) == side and all(supports(e, t) for t in ends) for e in range(P.n)), (P.n, u)


def test_anchored_chord_ends_and_side_edge_are_exact(corpus):
    # The float regular polygons make near-ties, as do rotated and divided
    # copies: an end within rounding of a vertex, a side edge that supports
    # P at one end only within rounding.
    def moved(P):
        xy = P.coords()
        c, s = math.cos(0.3), math.sin(0.3)
        rotated = np.column_stack((c * xy[:, 0] - s * xy[:, 1], s * xy[:, 0] + c * xy[:, 1]))
        return [ConvexPolygon(canonicalize(q)) for q in (rotated, xy / 3.0, xy / 7.0)]

    regular = [regular_ngon(9, 1000.0), regular_ngon(40, 1000.0, 3), regular_ngon(150, 1000.0, 1)]
    polys = list(corpus) + regular + [Q for P in list(corpus[::4]) + regular for Q in moved(P)]
    for P in polys:
        D = P.difference_body()
        w = (P[int(D.c[0])].x - P[int(D.a[0])].x, P[int(D.c[0])].y - P[int(D.a[0])].y)
        for u in [(1, 0), (0, 1), (1, 1), (3, -7), (0.6, 0.8), P.edge_vector(0), w]:
            F, G = anchored_conjugate_pair(P, u)
            assert_exact_chord_ends(P, u, F, G)


# `quadpara gen` arguments of the polygon files behind the digests below.
ANCHORED_FILES = {
    "lattice-64.txt": ["--kind", "lattice", "--n", "64", "--seed", "3"],
    "lattice-1000.txt": ["--kind", "lattice", "--n", "1000", "--seed", "11"],
    "hull-400.txt": ["--kind", "random-hull", "--n", "400", "--seed", "7"],
    "parallel-12.txt": ["--kind", "parallel-edges", "--n", "12", "--seed", "5"],
    "regular-9.txt": ["--kind", "regular", "--n", "9"],
    "regular-40.txt": ["--kind", "regular", "--n", "40", "--rotation", "3"],
    "regular-150.txt": ["--kind", "regular", "--n", "150", "--rotation", "1"],
}

# SHA-256 of the stdout of `quadpara anchored --input FILE --dir X Y`, run in
# the directory holding FILE (the report echoes the path).  They pin the
# exactly longest chord, through the first vertex on ties, and its corners,
# vertex_indices and touch_indices; the last direction of each integer file
# is one of its edge vectors.  The regular polygons have float coordinates,
# so their digests also pin decisions that rounding makes close, each taken
# by an exact sign: which chord end is exactly a vertex, and which edge's
# parallel lines support P at both ends.
ANCHORED_GOLDEN = [
    ("lattice-64.txt", (1, 0), "47464d38ac6d518289c208dc951ac04e2d77fc6c8dc8fe4dd83765c096310248"),
    ("lattice-64.txt", (0, 1), "422e0b720d1006192e58dc10f749176c0374a9c7f19b1040733572a8d9a51900"),
    ("lattice-64.txt", (1, 1), "926718c986c9541d5810111afa22078b222a129ee1285ab29ac05f3c79733cb7"),
    ("lattice-64.txt", (-1, 1), "0287b511ddf9637b2c4fa0d7c0a11a6626832edab0348940dfbe49f64900582e"),
    ("lattice-64.txt", (3, -7), "25ab4a4772ca31433322b6ade502fdfaa4a675c40cb403d0a8421e1a2d13a66d"),
    ("lattice-64.txt", (1, 4), "4e6f5a21d239af987e3fe6d494899c73c6138e2899c9e3758362f4201b6800e5"),
    ("lattice-1000.txt", (1, 0), "a11c396cbe9816ecde301f5c88c5c41727fb7042e1d080c707d122b20e50bb1e"),
    ("lattice-1000.txt", (1, 1), "05293fbf25a619caf6bb90d3c0936f02b2b65041a5d667f08909ba0500b6ad03"),
    ("lattice-1000.txt", (123, -457), "23f5b80959fb52b5a5f33a46f04ca37c7c54af6f718ab647d87cc79093b27017"),
    ("lattice-1000.txt", (75, 69), "c311e2c3189b462b8664871355b524b15a9a4f0d0e5e2617e4e8723e8c596fe7"),
    ("hull-400.txt", (1, 0), "907e4b4b1a558f96ec44ebe5597f627d11ef4b9047ccdb9fd8e33bb15963c408"),
    ("hull-400.txt", (2, 5), "ffb1f95d0f8acadae844fcc0ab6456dca4de4bdbbbdd27d3adf7b8706bdfa7b6"),
    ("hull-400.txt", (77, 2), "3c0dee16a09b3498386c30c81d4c6f62647a2e8551a6464981383cee08c3357e"),
    ("parallel-12.txt", (1, 0), "07b5fc8aa85da4bc4a4953fa092733100fbce1ee63aa3af978e60f615cc2ab2f"),
    ("parallel-12.txt", (-3, 3), "5db0afaaddcb20e6e2152c0b13bdf4b7080b32cb152c6381c99678de4afeb9de"),
    ("parallel-12.txt", (12, 2), "f72c4b4069bafd9e3905059000a82340c97529e91fc353c04eaa473c8e027ed6"),
    ("regular-9.txt", (1, 0), "171a2364b49078c06d7696eed1cdb8df3244908735165d25f98751a6502b886c"),
    ("regular-9.txt", (0, 1), "11d30032d55e4431902dc962bc1f757b8f5e9fa5254e4c274e72b2649d44804c"),
    ("regular-9.txt", (1, 1), "139fe16df7cb519fec325101deebdf3111972f0aabf7e4508f07da0450dd6382"),
    ("regular-9.txt", (3, -7), "9ad1f867d829437b81351172e3f4df3f60c411b25dac8ce7b6b918b563c13568"),
    ("regular-9.txt", (0.6, 0.8), "6dcedd954f0cf4fce24729028d8cabbd5353f228fa7402e1e570dabd5df9b636"),
    ("regular-40.txt", (1, 0), "7c064751493a77a5dacde2d3f06bcf870ccb4060dd3f0c3a5ea52b5d8b57da7e"),
    ("regular-40.txt", (0, 1), "0a346ec00124ef6aade3b7f065dbbd404b836b8be0ae657e5b82c2a5ec1d607e"),
    ("regular-40.txt", (1, 1), "9f0704d5505e2fc67c0e9cbe962aca821660581fac79c15f4376a2cf377b2213"),
    ("regular-40.txt", (3, -7), "a11e4e392d50ba64e537afa0a7c57f105bfa050bbb1030f9de6a1a3b780411e1"),
    ("regular-40.txt", (0.6, 0.8), "02c833e0e6691c0b6fd5270b8ff32ac6061d5aac8542d9e70925c583ad0f465a"),
    ("regular-150.txt", (1, 0), "b6fc538b6364de6803abc67f0dec1fa4a5ed6f48c3eff66f7c9ca67f09a2f520"),
    ("regular-150.txt", (0, 1), "83b1a08cc0625fd8f72b35e58e10c913243e12cbcad41470babde7c5a553958f"),
    ("regular-150.txt", (1, 1), "55cfd6a632b0dda3d03dc31a73b4e7da2b0c438fe16dc2faa473238f4b38328c"),
    ("regular-150.txt", (3, -7), "8c59313257033518359a4285bd9bf357816ecf90c52dc596094a955fe7a22853"),
    ("regular-150.txt", (0.6, 0.8), "072b5d979c281a4a0a14eada9093eb3be1f098113961c4d7c4da4bf5289cad17"),
]


def _anchored_stdout(capsys, name, direction):
    assert main(["gen", *ANCHORED_FILES[name]]) == 0
    with open(name, "w", encoding="utf-8") as f:
        f.write(capsys.readouterr().out)
    assert main(["anchored", "--input", name, "--dir", *map(str, direction)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name,direction,digest", ANCHORED_GOLDEN)
def test_anchored_cli_output_is_unchanged(tmp_path, monkeypatch, capsys, name, direction, digest):
    monkeypatch.chdir(tmp_path)
    out = _anchored_stdout(capsys, name, direction)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_vertical_extremes(square, triangle):
    assert _vertical_extremes(square) == (0, 2)
    a0, c0 = _vertical_extremes(triangle)
    assert triangle[a0] == (0, 0) and triangle[c0] == (0, 1)
    hexa = ConvexPolygon([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)])
    a0, c0 = _vertical_extremes(hexa)
    assert hexa[a0] == (0, 0)  # leftmost of the bottom-edge tie
    assert hexa[c0] == (2, 2)  # rightmost of the top-edge tie


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
