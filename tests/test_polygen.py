import math

import numpy as np
import pytest

from quadpara import (
    ConvexPolygon,
    GenSpec,
    SplitMix64,
    generate,
    lattice_ngon,
    parallel_edge_polygon,
    polygon_area,
    random_convex,
    regular_ngon,
)


def splitmix64_reference(seed, count):
    """Independent uint64 reimplementation (numpy) of the documented mixer."""
    out = []
    state = np.uint64(seed)
    inc = np.uint64(0x9E3779B97F4A7C15)
    m1 = np.uint64(0xBF58476D1CE4E5B9)
    m2 = np.uint64(0x94D049BB133111EB)
    with np.errstate(over="ignore"):
        for _ in range(count):
            state = state + inc
            z = state
            z = (z ^ (z >> np.uint64(30))) * m1
            z = (z ^ (z >> np.uint64(27))) * m2
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


def test_splitmix64_matches_independent_reference():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == splitmix64_reference(0, 5)
    rng = SplitMix64(987654321)
    assert [rng.next_u64() for _ in range(100)] == splitmix64_reference(987654321, 100)


def test_regular_ngon_areas():
    r = 1.7
    assert polygon_area(regular_ngon(4, r)) == pytest.approx(2 * r * r, rel=1e-12)
    assert polygon_area(regular_ngon(6, 1.0)) == pytest.approx(
        3 * math.sqrt(3) / 2, rel=1e-12
    )
    assert polygon_area(regular_ngon(3, 1.0)) == pytest.approx(
        3 * math.sqrt(3) / 4, rel=1e-12
    )


def test_regular_ngon_rotation_steps():
    P = regular_ngon(4, 1.0, rotation_steps=1)  # phase = 1/8 turn
    assert P[0].x == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert P[0].y == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_random_convex_deterministic():
    a = random_convex(8, 42, 1000)
    b = random_convex(8, 42, 1000)
    assert a.vertices == b.vertices
    c = random_convex(8, 43, 1000)
    assert a.vertices != c.vertices


def test_random_convex_properties():
    for seed in range(20):
        P = random_convex(3 + seed, seed, 10 + seed)
        assert 3 <= P.n <= 3 + seed
        for p in P.vertices:
            assert p.x == int(p.x) and p.y == int(p.y)
            assert abs(p.x) <= 10 + seed and abs(p.y) <= 10 + seed
        ConvexPolygon(P.vertices)


def test_parallel_edge_polygon_structure():
    for m in range(2, 13):
        P = parallel_edge_polygon(m, 3 * m + 1)
        assert P.n == 2 * m
        for k in range(m):
            ex, ey = P.edge_vector(k)
            ox, oy = P.edge_vector(k + m)
            assert (ex, ey) == (-ox, -oy)  # exactly parallel opposite edges


def test_parallel_edge_polygon_m2_is_parallelogram():
    P = parallel_edge_polygon(2, 9)
    assert P.n == 4
    assert polygon_area(P) > 0


def test_lattice_ngon_exact_sizes():
    for n in (3, 4, 5, 6, 9, 10, 37, 128, 1001):
        P = lattice_ngon(n, 5)
        assert P.n == n
        for p in P.vertices:
            assert p.x == int(p.x) and p.y == int(p.y)


def test_lattice_ngon_deterministic():
    assert lattice_ngon(64, 11).vertices == lattice_ngon(64, 11).vertices
    assert lattice_ngon(64, 11).vertices != lattice_ngon(64, 12).vertices


def test_generate_dispatch():
    assert generate(GenSpec("regular", 6, coord_range=10)).n == 6
    assert generate(GenSpec("random-hull", 12, seed=4)).n <= 12
    assert generate(GenSpec("parallel-edges", 8, seed=4)).n == 8
    assert generate(GenSpec("lattice", 15, seed=4)).n == 15


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec("pentagonal", 5)
    with pytest.raises(ValueError):
        GenSpec("regular", 2)
    with pytest.raises(ValueError):
        GenSpec("regular", 5, coord_range=2)
    with pytest.raises(ValueError):
        generate(GenSpec("parallel-edges", 7))
