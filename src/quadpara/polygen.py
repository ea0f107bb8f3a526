"""Deterministic convex-polygon generators for tests, benchmarks, and the CLI.

All pseudo-randomness comes from SplitMix64 (state update and output mixing
written out below), so corpora are reproducible bit-for-bit from a seed on
any platform.  The integer generators (random hull, parallel edges, lattice)
use integer arithmetic only; the regular n-gon is the one real-coordinate
generator and is meant for closed-form checks, not exactness tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .geometry import ConvexPolygon, DegenerateSample

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_KINDS = ("regular", "random-hull", "parallel-edges", "lattice")
"""The generator kinds of `GenSpec` and `quadpara gen --kind`."""


class SplitMix64:
    """SplitMix64: 64-bit mix generator.

    state  <- (state + 0x9E3779B97F4A7C15) mod 2**64
    z      <- state
    z      <- ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z      <- ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output <- z ^ (z >> 31)
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> np.ndarray:
        """The next `count` outputs of `next_u64` as one uint64 array,
        leaving the state where `count` calls would leave it.  State i is
        state + i * gamma; uint64 array arithmetic wraps mod 2**64 as the
        masks above do, and every operand is a uint64 (on numpy 1.x a
        Python or signed int would make the result float64)."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; bias is
        irrelevant for corpus generation and keeps the stream portable)."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class GenSpec:
    """A reproducible polygon request, expressible on the CLI."""

    kind: str  # one of _KINDS
    n: int
    seed: int = 0
    coord_range: int = 1000
    rotation: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.coord_range < 4:
            raise ValueError("need coord_range >= 4")


def generate(spec: GenSpec) -> ConvexPolygon:
    if spec.kind == "regular":
        return regular_ngon(spec.n, float(spec.coord_range), spec.rotation)
    if spec.kind == "random-hull":
        return random_convex(spec.n, spec.seed, spec.coord_range)
    if spec.kind == "parallel-edges":
        if spec.n % 2 or spec.n < 4:
            raise ValueError("parallel-edges needs an even n >= 4")
        return parallel_edge_polygon(spec.n // 2, spec.seed)
    return lattice_ngon(spec.n, spec.seed)


def regular_ngon(n: int, circumradius: float = 1.0, rotation_steps: int = 0) -> ConvexPolygon:
    """Regular n-gon, CCW, vertex 0 at angle rotation_steps/(2n) turns."""
    phase = rotation_steps * math.pi / n
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n + phase
        pts.append((circumradius * math.cos(ang), circumradius * math.sin(ang)))
    return ConvexPolygon(pts)


def _strict_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain hull keeping only extreme points (strict turns), CCW."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def half(direction: int) -> list[tuple[int, int]]:
        chain: list[tuple[int, int]] = []
        for p in pts if direction > 0 else reversed(pts):
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(+1)
    upper = half(-1)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else []


def random_convex(n_target: int, seed: int, coord_range: int) -> ConvexPolygon:
    """Convex hull of n_target seeded integer points in a square.

    The result has at most n_target (typically far fewer) vertices, all with
    integer coordinates in [-coord_range, coord_range].  The same arguments
    always reproduce the same polygon.
    """
    if n_target < 3:
        raise ValueError("need n_target >= 3")
    rng = SplitMix64(seed)
    for _ in range(100):
        pts = [
            (rng.randint(-coord_range, coord_range), rng.randint(-coord_range, coord_range))
            for _ in range(n_target)
        ]
        hull = _strict_hull(pts)
        if hull:
            return ConvexPolygon(hull)
    raise DegenerateSample(
        f"no 3 points in convex position after 100 draws (seed={seed}, range={coord_range})"
    )


def _angle_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    """CCW angular order of directions in the half plane dy > 0, or dy == 0
    and dx > 0, starting at (1, 0)."""
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def parallel_edge_polygon(m: int, seed: int) -> ConvexPolygon:
    """A centrally symmetric 2m-gon: m pairs of exactly parallel opposite
    edges with integer coordinates.

    Edge vectors are m seeded primitive integer directions in the upper half
    plane (each scaled by a small random length) followed by their negations,
    so every opposite edge pair is parallel bit-exactly.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    rng = SplitMix64(seed)
    bound = m + 3
    dirs: dict[tuple[int, int], int] = {}
    # The loop stops at m directions, so a larger cap changes no polygon
    # that a smaller one finds.
    for _ in range(4000 + 4 * m):
        if len(dirs) == m:
            break
        dx = rng.randint(-bound, bound)
        dy = rng.randint(0, bound)
        if dx == 0 and dy == 0:
            continue
        if dy == 0 and dx < 0:
            dx = -dx
        g = math.gcd(abs(dx), dy)
        key = (dx // g, dy // g)
        if key not in dirs:
            dirs[key] = rng.randint(1, 3)
    if len(dirs) < m:
        raise DegenerateSample(f"could not find {m} distinct edge directions (seed={seed})")
    edges = sorted(dirs, key=cmp_to_key(_angle_cmp))
    scaled = [(dx * dirs[(dx, dy)], dy * dirs[(dx, dy)]) for dx, dy in edges]
    ring = scaled + [(-dx, -dy) for dx, dy in scaled]
    pts = []
    x = y = 0
    for dx, dy in ring:
        pts.append((x, y))
        x += dx
        y += dy
    return ConvexPolygon(pts)


def _half_circle_directions(count: int) -> np.ndarray:
    """The `count` shortest primitive integer vectors with angles ascending
    from (1, 0) over less than a half turn, as a (2, count) int64 array of
    x and y rows.

    The octant's directions (k, h), 0 < h < k <= limit, are the Farey
    fractions h/k of order `limit`: the pairs with gcd 1, sorted by the
    float quotient.  The sort is exact: two distinct fractions with
    denominators <= limit differ by at least 1/limit**2, far more than the
    quotient's rounding while limit < 2**26.  The limit doubles until the
    half turn holds `count` directions."""
    limit = max(2, int(math.sqrt(count / 2.0)) + 2)
    while True:
        r = np.arange(1, limit + 1)
        h, k = np.nonzero(r[:, None] < r)
        h += 1
        k += 1
        coprime = np.gcd(h, k) == 1
        # The half turn below holds 4 directions per octant fraction, and 4 more.
        if 4 * np.count_nonzero(coprime) + 4 >= count:
            break
        limit *= 2
    h, k = h[coprime], k[coprime]
    order = np.argsort(h / k)
    h, k = h[order], k[order]
    # The quarter turn from (1, 0) up to, not including, (0, 1): (1, 0), the
    # octant, (1, 1), the octant mirrored in the diagonal; then its copy
    # turned by 90 degrees, (x, y) -> (-y, x).
    one, zero = [1], [0]
    qx = np.concatenate((one, k, one, h[::-1]))
    qy = np.concatenate((zero, h, one, k[::-1]))
    return np.stack((np.concatenate((qx, -qy)), np.concatenate((qy, qx))))[:, :count]


def lattice_ngon(n: int, seed: int) -> ConvexPolygon:
    """A strictly convex lattice polygon with exactly n vertices.

    Edge vectors are the shortest primitive integer directions over a half
    turn (scaled by seeded small length factors, one `randint(1, 3)` draw
    each) followed by their negations, so an exact-integer polygon of any
    requested size is available for benchmarking.  For odd n the first two
    edges are merged; the merged direction stays strictly between its
    neighbors, so strict convexity is preserved.  Built in integer array
    passes; vertex 0 is the origin.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    k = (n + 1) // 2
    scale = (SplitMix64(seed).next_u64s(k) % np.uint64(3)).astype(np.int64) + 1
    first = _half_circle_directions(k) * scale
    # ring[:, i] is the sum of edges 0..i; the last sum closes the ring at
    # the origin.  Odd n skips the vertex between the two merged edges.
    ring = np.cumsum(np.concatenate((first, -first), axis=1), axis=1)
    return ConvexPolygon(np.concatenate((ring[:, -1:], ring[:, n % 2 : -1]), axis=1).T)
