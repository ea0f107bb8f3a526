import hashlib
import math
from fractions import Fraction

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
from quadpara.polygen import _half_circle_directions


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


@pytest.mark.parametrize("seed", [0, 1, 987654321, 2**63 + 5, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15])
def test_batch_draw_equals_single_draws_and_the_stream_continues(seed):
    # Seeds near 2**64 wrap the state inside the batch or at its first step.
    calls, batch = SplitMix64(seed), SplitMix64(seed)
    for count in (0, 1, 2, 17, 1000):
        drawn = batch.next_u64s(count)
        assert drawn.dtype == np.uint64 and drawn.shape == (count,)
        assert drawn.tolist() == [calls.next_u64() for _ in range(count)]
        assert batch.state == calls.state
        assert batch.next_u64() == calls.next_u64()


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


# sha256 of lattice_ngon(n, seed).coords() as little-endian float64 rows,
# recorded from the list-loop generator that the array passes replaced.
LATTICE_DIGESTS = {
    (3, 0): "eaa587350f4fd7278b545f4a1552abe3177802e872b67aa14197baac23609b55",
    (4, 0): "4cbf1112e667a58cfb106e919e193b76d561c24b1c23347652dc1922fe40734e",
    (5, 0): "46bfd22925d931f76870d461577a6e3a931d3c99449f7e677bbc587bcb494a00",
    (6, 0): "ed8a963cfe5b1217df261f8ff9ec146b6a2123c534b87c99065a372dbde8671b",
    (9, 0): "d5eee1a1ac27898b27815a4a7fa113cddb97d86fa89874d6fcdcd8cf21a150a9",
    (10, 0): "59a28b542354eb8451ce83036699dadef4169e0715a83093cc4ea420a777152c",
    (37, 0): "9444518a43e59cde007c5063d5b526be19690a7313bb2d6986dd4fad143d08e9",
    (128, 0): "aa6aafbe0c784d6fa49d4a02295932f4a7e8f088a33bd731313fbc3a28315983",
    (1001, 0): "97a09b6bf9326572eeb5721a0e39cbe19b6be6a94750b201e6808afa814ebe44",
    (4096, 0): "368d9b5f1d8dbf4a7a8d1007e4e06767f03893a133a02c9af8102f6eccba12d1",
    (3, 5): "0980bcc13ddd6d0aef50d7e35d8a7ed7fe89740c177fc38528b4879cd5e0c8a0",
    (4, 5): "f3805578311fd42bd2cce8aa2b963c2513ec4732d93c0c7cae0e9ce106c49f1d",
    (5, 5): "1c4a5bfd7e81bc5b19c235ba66ea9191005b85a5942f16da61e5b81ed5931be1",
    (6, 5): "1b7c7d9f890eebac00e261baadc989e9f3eff6b634cda11c2fb371fb7d051fd3",
    (9, 5): "d5b19ad9ff90d1f2ca248c02de9284fa054a6b5741e2d5013d8dd21277cc52ec",
    (10, 5): "00f655baca9d364d606f6fbb8905caaeee817677389637839287146243e61528",
    (37, 5): "94afbcfeb2214bbc284408da6fad72d28870f9c5fd9fadd0303eb0122bfc0f74",
    (128, 5): "44e45ccfab6ea7e3d64947ed6b84b03312c243422584860e52d2d3cca2276caf",
    (1001, 5): "fdd260054b969ee1d13e08cd91936a74719284df8b1a605a3a142e6c461b1ba2",
    (4096, 5): "698d40c3a66f0fb57abe3d3eacd701237dee7d6ca49f915ce525a39797a183be",
    (3, 2**64 - 1): "ff342abca6089d3cb899a61a40e9a9f9c15cdb44498fd03d3b7fd8e6813dcc19",
    (4, 2**64 - 1): "a0485ff9a87adc2629744371e736d9fec07d24d76fb5b60f8f2d926ecebe63e0",
    (5, 2**64 - 1): "e67425cd1cadaa3f331ab0fc6a7f389235b75690e9980e0bfe56d1c27b0598cb",
    (6, 2**64 - 1): "66a08ac2c2697fc37292b8af708016bc007a21d759bb0535b109ede17bf323b0",
    (9, 2**64 - 1): "f31a8455bf5ab8d4528bc9ff9351b66c977ee7aca3a8a3e46bd92831a9ad811b",
    (10, 2**64 - 1): "91edfe134996ec5f282e407765faaaf1ff8b012472a7bd4940184d5e973f2f79",
    (37, 2**64 - 1): "7509d21a8cdb1971eeb85ed36f23924ebb86ea95bcfe12169f36c2129bf58884",
    (128, 2**64 - 1): "68daa6d6f8ced0a9fd5c4189ddd6a1c243dc59bd087ad9db9c02c93ff470873a",
    (1001, 2**64 - 1): "387e050e1209bf981237b6efaa886b84b8336b8fbfdc60836d091ae9d92d2e79",
    (4096, 2**64 - 1): "ed5655e67329c88fdfeb2c7622f36c53ddaba9275c28188bed30f93b220b5222",
}


@pytest.mark.parametrize("n, seed", sorted(LATTICE_DIGESTS))
def test_lattice_ngon_digest_is_pinned(n, seed):
    xy = np.ascontiguousarray(lattice_ngon(n, seed).coords(), dtype="<f8")
    assert hashlib.sha256(xy.tobytes()).hexdigest() == LATTICE_DIGESTS[(n, seed)]


def farey_interior_reference(limit):
    """Fractions 0 < h/k < 1 with k <= limit, ascending, as (h, k) pairs:
    the Stern-Brocot walk that the generator used as a list loop."""
    out = []
    a, b, c, d = 0, 1, 1, limit
    while c <= limit:
        if (c, d) != (1, 1):
            out.append((c, d))
        k = (limit + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


def half_circle_directions_reference(count):
    """The list-loop construction of `polygen._half_circle_directions`."""
    limit = max(2, int(math.sqrt(count / 2.0)) + 2)
    while True:
        octant = [(k, h) for h, k in farey_interior_reference(limit)]
        quad1 = [(1, 0)] + octant + [(1, 1)] + [(h, k) for k, h in reversed(octant)] + [(0, 1)]
        half = quad1[:-1] + [(-y, x) for x, y in quad1[:-1]]
        if len(half) >= count:
            return half[:count]
        limit *= 2


def lattice_ngon_reference(n, seed):
    """The list-loop construction of `lattice_ngon`'s vertex ring."""
    rng = SplitMix64(seed)
    k = (n + 1) // 2
    scales = [rng.randint(1, 3) for _ in range(k)]
    first = [(dx * s, dy * s) for (dx, dy), s in zip(half_circle_directions_reference(k), scales)]
    second = [(-dx, -dy) for dx, dy in first]
    if n % 2:
        first = [(first[0][0] + first[1][0], first[0][1] + first[1][1])] + first[2:]
    pts = []
    x = y = 0
    for dx, dy in first + second:
        pts.append((x, y))
        x += dx
        y += dy
    return pts


def test_farey_reference_is_the_fraction_sort():
    for limit in range(2, 30):
        fractions = sorted({Fraction(h, k) for k in range(2, limit + 1) for h in range(1, k)})
        assert farey_interior_reference(limit) == [(f.numerator, f.denominator) for f in fractions]


def test_half_circle_directions_match_the_list_loop():
    # Counts on either side of the limit's first doubling, and where the
    # quarter turn ends.
    for count in list(range(1, 300)) + [1001, 4096, 10007, 50000]:
        dirs = _half_circle_directions(count)
        assert dirs.dtype == np.int64 and dirs.shape == (2, count)
        assert list(zip(*dirs.tolist())) == half_circle_directions_reference(count)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_lattice_ngon_matches_the_list_loop(seed):
    for n in list(range(3, 200)) + [1001, 4096]:
        expected = [[float(x), float(y)] for x, y in lattice_ngon_reference(n, seed)]
        assert lattice_ngon(n, seed).coords().tolist() == expected


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
