"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers.  Run with `pytest tests/test_acceptance.py -s` to see
the lines; tolerances are fixed here and nowhere else.
"""

import math
import time

import pytest

from quadpara import (
    ConvexPolygon,
    Degenerate,
    Direction,
    SplitMix64,
    anchored_conjugate_pair,
    brute_largest_quad,
    brute_smallest_para,
    canonicalize,
    combined_extremes,
    largest_quadrilateral,
    lattice_ngon,
    parallel_edge_polygon,
    polygon_area,
    random_convex,
    regular_ngon,
    smallest_parallelogram,
    verify_conjugate_pair,
)

REL = 1e-12


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


@pytest.fixture(scope="module")
def base_corpus():
    """500 integer-coordinate hulls, n-target 3..40, coordinate range 1000."""
    return [random_convex(3 + i % 38, 20000 + i, 1000) for i in range(500)]


@pytest.fixture(scope="module")
def large_corpus():
    polys = [lattice_ngon(n, n + 1) for n in (50, 80, 120, 160, 200)]
    polys += [parallel_edge_polygon(m, 10 * m) for m in range(2, 13)]
    return polys


def test_c1_quad_oracle_exact(base_corpus):
    t0 = time.perf_counter()
    for P in base_corpus:
        got = largest_quadrilateral(P).area
        want = brute_largest_quad(P).area
        assert got == want, (P.n, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS quad oracle bit-equal on {len(base_corpus)} polygons"
        f" in {elapsed:.1f}s"
    )


def test_c2_para_oracle_relative(base_corpus, large_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for P in base_corpus + large_corpus:
        got = smallest_parallelogram(P).area
        want = brute_smallest_para(P).area
        worst = max(worst, rel_err(got, want))
        assert rel_err(got, want) <= REL, (P.n, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 PASS para oracle within 1e-12 on"
        f" {len(base_corpus) + len(large_corpus)} polygons"
        f" (worst {worst:.2e}) in {elapsed:.1f}s"
    )


def test_c3_cross_algorithm_agreement(base_corpus, large_corpus):
    worst = 0.0
    for P in base_corpus + large_corpus:
        rep = combined_extremes(P)
        qb = largest_quadrilateral(P).area
        pc = smallest_parallelogram(P).area
        worst = max(worst, rel_err(rep.max_quad.area, qb), rel_err(rep.min_para.area, pc))
        assert rel_err(rep.max_quad.area, qb) <= REL
        assert rel_err(rep.min_para.area, pc) <= REL
    print(
        f"\nACCEPTANCE 3 PASS three algorithms agree pairwise within 1e-12"
        f" (worst {worst:.2e})"
    )


def test_c4_conjugate_ratio_law():
    rng = SplitMix64(777)
    count = 0
    for i in range(50):
        P = random_convex(4 + i % 20, 60000 + i, 1000)
        for _ in range(40):
            u = (rng.randint(-999, 999), rng.randint(-999, 999))
            if u == (0, 0):
                u = (1, 0)
            F, G = anchored_conjugate_pair(P, u)
            assert rel_err(G.area, 2 * F.area) <= REL, (i, u)
            cert = verify_conjugate_pair(F, G, Direction(*u), P)
            assert cert.checks.all_ok, (i, u, cert.checks)
            count += 1
    print(f"\nACCEPTANCE 4 PASS area(G) = 2 area(F) and certificates on {count} anchored pairs")


def test_c5_certificates_at_optima(base_corpus, large_corpus):
    for P in base_corpus + large_corpus:
        rep = combined_extremes(P)
        assert rep.quad_certificate.checks.all_ok, P.n
        assert rep.para_certificate.checks.all_ok, P.n
    print(
        f"\nACCEPTANCE 5 PASS both certificates verify at tol 1e-9*scale on"
        f" {len(base_corpus) + len(large_corpus)} polygons"
    )


def test_c6_named_values():
    sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    rep = combined_extremes(sq)
    assert rep.max_quad.area == 1.0 and rep.min_para.area == 1.0
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    rep = combined_extremes(tri)
    assert rep.max_quad.area == 0.5 and rep.min_para.area == 1.0
    hexa = regular_ngon(6, 1.0)
    rep = combined_extremes(hexa)
    assert rel_err(rep.max_quad.area, math.sqrt(3)) <= REL
    assert rel_err(rep.min_para.area, 2 * math.sqrt(3)) <= REL
    print(
        "\nACCEPTANCE 6 PASS named values: square (1, 1),"
        " right triangle (0.5, 1.0), hexagon (sqrt3, 2*sqrt3)"
    )


def test_c7_linear_predicate_budget():
    quotients = []
    timings = []
    for n in (10**3, 10**4, 10**5, 10**6):
        P = lattice_ngon(n, 424242)
        t0 = time.perf_counter()
        rep = combined_extremes(P)
        timings.append((n, time.perf_counter() - t0))
        assert rep.predicate_count <= 64 * n, (n, rep.predicate_count)
        quotients.append(rep.predicate_count / n)
    assert max(quotients) / min(quotients) <= 2.0, quotients
    times = ", ".join(f"n=10^{round(math.log10(n))}: {t:.2f}s" for n, t in timings)
    print(
        f"\nACCEPTANCE 7 PASS predicate count <= 64n, per-n quotient"
        f" {min(quotients):.2f}..{max(quotients):.2f} (band <= 2x); sweep times {times}"
        f" (1s at n=10^6 is a soft target; see README)"
    )


def test_c8_invariance_suite(base_corpus):
    sub = base_corpus[:100]
    for P in sub:
        rep = combined_extremes(P)
        assert rep.min_para.area / 2 <= rep.max_quad.area * (1 + REL)
        mapped = ConvexPolygon(
            [(2 * p.x + p.y + 3, p.x + 3 * p.y - 5) for p in P.vertices]
        )
        rep2 = combined_extremes(mapped)
        assert rel_err(rep2.max_quad.area, 5 * rep.max_quad.area) <= 1e-9
        assert rel_err(rep2.min_para.area, 5 * rep.min_para.area) <= 1e-9
        k = 1 + P.n // 3
        rolled = ConvexPolygon(P.vertices[k:] + P.vertices[:k])
        rep3 = combined_extremes(rolled)
        assert rep3.max_quad.area == rep.max_quad.area
        assert rep3.min_para.area == rep.min_para.area
    for P in base_corpus[100:]:
        rep = combined_extremes(P)
        assert rep.min_para.area / 2 <= rep.max_quad.area * (1 + REL)
    print(
        "\nACCEPTANCE 8 PASS affine scaling (1e-9), exact relabeling"
        " invariance, and the duality inequality hold on the corpus"
    )


def test_c9_degenerate_inputs():
    for seed in range(25):
        P = random_convex(3, 90000 + seed, 100)
        assert combined_extremes(P).max_quad.area == polygon_area(P)
    for seed in range(25):
        P = parallel_edge_polygon(2, 90100 + seed)
        assert combined_extremes(P).min_para.area == polygon_area(P)
    ring = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
    with pytest.raises(Degenerate):
        ConvexPolygon(ring)
    P = ConvexPolygon(canonicalize(ring))
    assert P.n == 4
    print(
        "\nACCEPTANCE 9 PASS triangles give max_quad = polygon area,"
        " parallelograms give min_para = polygon area, collinear input"
        " rejected raw and accepted after canonicalize"
    )
