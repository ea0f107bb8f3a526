import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadpara import (
    ConvexPolygon,
    GeometryError,
    SplitMix64,
    brute_anchored_quad_area,
    brute_largest_quad,
    brute_smallest_para,
    canonicalize,
    chord_through,
    lattice_ngon,
    longest_chord,
    parallel_edge_polygon,
    polygon_area,
    quad_area,
    random_convex,
    regular_ngon,
    width,
)
from quadpara import oracle
from quadpara.oracle import OraclePara, OracleQuad


# The scalar loops the numpy oracles replace: the reference they must match
# to the bit, ties and all.


def longest_chord_loop(P, u):
    ux, uy = float(u[0]), float(u[1])
    best = None
    best_ext = -1.0
    for q in P.coords().tolist():
        seg = chord_through(P, q, (ux, uy))
        ext = (seg.b.x - seg.a.x) * ux + (seg.b.y - seg.a.y) * uy
        if ext > best_ext:
            best_ext = ext
            best = seg
    assert best is not None
    return best


def brute_anchored_quad_area_loop(P, u):
    return 0.5 * longest_chord_loop(P, u).length() * width(P, u)


def brute_largest_quad_loop(P):
    n = P.n
    pts = P.coords().tolist()
    if n == 3:
        tuples = combinations_with_replacement(range(3), 4)
    else:
        tuples = combinations(range(n), 4)
    best = None
    best_area = -1.0
    for idx in tuples:
        i, j, k, l = idx
        area = quad_area(pts[i], pts[j], pts[k], pts[l])
        if area > best_area:
            best_area = area
            best = idx
    assert best is not None
    return OracleQuad(best, best_area)


def brute_smallest_para_loop(P):
    best_edge = -1
    best_area = math.inf
    for e in range(P.n):
        u = P.edge_vector(e)
        area = longest_chord_loop(P, u).length() * width(P, u)
        if area < best_area:
            best_area = area
            best_edge = e
    return OraclePara(best_edge, best_area)


def assert_oracles_match_loops(P, directions, quad=True):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python float.
    for u in directions:
        assert repr(longest_chord(P, u)) == repr(longest_chord_loop(P, u)), (P, u)
        assert repr(brute_anchored_quad_area(P, u)) == repr(brute_anchored_quad_area_loop(P, u)), (P, u)
    if quad:
        assert repr(brute_largest_quad(P)) == repr(brute_largest_quad_loop(P)), P
    assert repr(brute_smallest_para(P)) == repr(brute_smallest_para_loop(P)), P


def rotated(P, turn, scale=1.0):
    c, s = math.cos(turn) * scale, math.sin(turn) * scale
    x, y = P.coords().T
    return ConvexPolygon(canonicalize(np.column_stack((c * x - s * y, s * x + c * y))))


def oracle_corpus():
    """Tie-heavy lattice and parallel-edge polygons, triangles (the
    multiset case), and float regular and rotated hulls, whose rounded
    coordinates make near-ties."""
    polys = [lattice_ngon(n, n) for n in (3, 4, 5, 6, 9, 16, 27, 40, 64)]
    polys += [parallel_edge_polygon(m, m) for m in (2, 3, 5, 8, 13, 20)]
    polys += [random_convex(3, s, 1000) for s in range(3)]
    polys += [ConvexPolygon([(0.1, 0.2), (3.3, 0.7), (1.1, 2.9)]), ConvexPolygon([(0, 0), (2, 1), (1, 3)])]
    polys += [regular_ngon(n, 1000.0, r) for n, r in ((5, 0), (7, 1), (12, 3), (24, 1), (40, 0))]
    polys += [rotated(random_convex(60, s, 1000), 0.3 + s) for s in range(4)]
    polys += [rotated(lattice_ngon(20, 2), 1.1, 0.01)]
    # Measured in blocks of SPLIT_BLOCK (see the corpus test), the 131^2
    # (vertex, edge) pairs of each direction are split into two blocks of
    # vertices.
    polys += [lattice_ngon(131, 131)]
    return polys


# A value of oracle._CHORD_BLOCK below n^2 for the corpus rings over 128
# vertices.  oracle's own block takes every vertex of a direction at once up
# to 256 vertices, and a ring that large would make the O(n^3) loop
# reference too slow.
SPLIT_BLOCK = 1 << 14


def oracle_directions(P):
    return [(1, 0), (0, 1), (1, 1), (-3, 7), (12, -5), (0.1, 0.7), (1e-3, -2.5), (-123.25, 4.5)] + [
        P.edge_vector(e) for e in range(0, P.n, max(1, P.n // 4))
    ]


@pytest.mark.parametrize("P", oracle_corpus(), ids=lambda P: f"n{P.n}")
def test_oracles_match_scalar_loops_on_corpus(monkeypatch, P):
    if P.n * P.n > SPLIT_BLOCK:
        monkeypatch.setattr(oracle, "_CHORD_BLOCK", SPLIT_BLOCK)
    assert_oracles_match_loops(P, oracle_directions(P), quad=P.n <= 40)


# Values of oracle._CHORD_BLOCK for a ring of n vertices.  brute_smallest_para
# takes _CHORD_BLOCK // 8n directions at a time, and computes their chord
# parameters for _CHORD_BLOCK // n^2 directions, or for one direction and
# vertex blocks of about _CHORD_BLOCK / n, at a time.
BLOCKINGS = {
    "one-vertex": lambda n: 1,
    "7-vertices": lambda n: 7 * n,
    "7-directions": lambda n: 8 * 7 * n,
    "one-direction-of-params": lambda n: n * n,
    "7-directions-of-params": lambda n: 7 * n * n,
    "whole-ring": lambda n: 8 * n**3,
}


@pytest.mark.parametrize(
    "P",
    [
        lattice_ngon(131, 3),
        parallel_edge_polygon(10, 4),
        rotated(random_convex(24, 5, 1000), 0.7),
        regular_ngon(9, 1000.0, 2),
        ConvexPolygon([(0, 0), (2, 1), (1, 3)]),
    ],
    ids=lambda P: f"n{P.n}",
)
def test_para_oracle_does_not_depend_on_its_blocks(monkeypatch, P):
    want = repr(brute_smallest_para_loop(P))
    u = P.edge_vector(1)
    chord = repr(longest_chord_loop(P, u))
    for name, blocking in BLOCKINGS.items():
        monkeypatch.setattr(oracle, "_CHORD_BLOCK", blocking(P.n))
        assert repr(brute_smallest_para(P)) == want, name
        assert repr(longest_chord(P, u)) == chord, name


class RecordingNumpy:
    """numpy, recording the shape of each array whose argmax is taken."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a, *args, **kwargs):
        self.shapes.append(a.shape)
        return np.argmax(a, *args, **kwargs)


# Values of oracle._CHORD_BLOCK for brute_largest_quad on an octagon, and
# the second corners of each pass they give.  The passes take consecutive
# second corners j = 1..5 as long as their (i, j, pair) block has at most
# _CHORD_BLOCK // 4 elements: j = 1, 2 have 2 * 2 * 15 of them, j = 3, 4
# have 4 * 2 * 6, j = 5 alone is the last pass.
QUAD_BLOCKINGS = {
    "one-second-corner": (4, [1, 1, 1, 1, 1]),
    "two-second-corners": (4 * 60, [2, 2, 1]),
    "whole-ring": (4 * 8**4, [5]),
}


# Its largest quadrilaterals are (0, 2, 4, 6), (0, 2, 4, 7), (0, 3, 4, 6)
# and (0, 3, 4, 7): the tie spans the passes of j = 2 and j = 3.
TIED_OCTAGON = lattice_ngon(8, 11)

# Nearly triangles: a vertex lies within rounding of an edge, so the area
# of a tuple that a pass computes but the loop never visits, (0, 2, 2, 4)
# (k = j) on the first and (1, 1, 2, 4) (i = j) on the second, rounds to
# the largest area.
FLAT_PENTAGONS = {
    (0, 2, 2, 4): ConvexPolygon(
        [
            (-2.6062191951181912, 0.3591976157031729),
            (1.9163853133685858, 0.34441749446815556),
            (4.538356677760278, 0.3358487472854801),
            (4.096958170585987, 1.564495894458821),
            (3.227362500425288, 3.985043816510018),
        ]
    ),
    (1, 1, 2, 4): ConvexPolygon(
        [
            (2.7585353560250834, -2.5688290096569415),
            (4.371303562483327, -3.258704601730539),
            (-2.567846252116847, 2.866932616709944),
            (-2.810637650279057, 1.0139576219981152),
            (-2.9595912486548692, -0.12285074622227476),
        ]
    ),
}


@pytest.mark.parametrize(
    "P",
    [
        TIED_OCTAGON,
        *FLAT_PENTAGONS.values(),
        parallel_edge_polygon(4, 7),
        rotated(random_convex(24, 5, 1000), 0.7),
        regular_ngon(9, 1000.0, 2),
        ConvexPolygon([(0, 0), (2, 1), (1, 3)]),
    ],
    ids=lambda P: f"n{P.n}",
)
def test_quad_oracle_does_not_depend_on_its_passes(monkeypatch, P):
    if P is TIED_OCTAGON:
        pts = P.coords().tolist()
        assert {quad_area(*(pts[i] for i in t)) for t in ((0, 2, 4, 6), (0, 3, 4, 6))} == {27.0}
        assert brute_largest_quad_loop(P) == OracleQuad((0, 2, 4, 6), 27.0)
    for t, flat in FLAT_PENTAGONS.items():
        if P is flat:
            pts = P.coords().tolist()
            assert quad_area(*(pts[i] for i in t)) == brute_largest_quad_loop(P).area
    want = repr(brute_largest_quad_loop(P))
    for name, (block, corners) in QUAD_BLOCKINGS.items():
        spy = RecordingNumpy()
        monkeypatch.setattr(oracle, "np", spy)
        monkeypatch.setattr(oracle, "_CHORD_BLOCK", block)
        assert repr(brute_largest_quad(P)) == want, name
        if P.n == 8:
            assert [shape[1] for shape in spy.shapes] == corners, name


@st.composite
def oracle_polygons(draw):
    kind = draw(st.sampled_from(["lattice", "parallel", "hull", "regular", "triangle"]))
    n = draw(st.integers(3, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lattice":
        P = lattice_ngon(n, seed)
    elif kind == "parallel":
        P = parallel_edge_polygon(max(2, n // 2), seed)
    elif kind == "hull":
        P = random_convex(n, seed, draw(st.sampled_from([3, 10, 1000])))
    elif kind == "regular":
        P = regular_ngon(n, draw(st.sampled_from([1.0, 1000.0])), seed % 7)
    else:
        P = random_convex(3, seed, 6)
    move = draw(st.sampled_from(["none", "negate", "rotate"]))
    try:
        if move == "negate":  # a half turn: zero coordinates become -0.0
            P = ConvexPolygon(-P.coords())
        elif move == "rotate":
            P = rotated(P, draw(st.floats(0.0, 2.0 * math.pi)), draw(st.sampled_from([1e-3, 1.0, 7.3])))
    except GeometryError:
        assume(False)
    e = np.abs(np.concatenate(P.edges()))
    assume(((e == 0.0) | (e >= 1e-6)).all())  # edge vectors serve as directions
    return P


# Float components are zero or at least 1e-6 in size: a tiny direction
# overflows t = -c / d, in the loop's numpy expression too, with a warning.
COMPONENT = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
DIRECTION = st.one_of(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(COMPONENT, COMPONENT),
).filter(lambda u: u != (0, 0))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_polygons(), st.lists(DIRECTION, min_size=1, max_size=4))
def test_oracles_match_scalar_loops(P, directions):
    edges = [P.edge_vector(e) for e in range(0, P.n, max(1, P.n // 3))]
    assert_oracles_match_loops(P, directions + edges)


def test_longest_chord(square, triangle, hexagon):
    assert longest_chord(square, (1, 0)).length() == 1
    seg = longest_chord(triangle, (1, 1))
    assert seg.length() == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert (seg.a, seg.b) == ((0, 0), (0.5, 0.5))
    assert longest_chord(hexagon, (1, 0)).length() == pytest.approx(2, rel=1e-12)


def test_brute_anchored_quad_area(square, triangle, hexagon):
    assert brute_anchored_quad_area(square, (1, 0)) == 0.5
    assert brute_anchored_quad_area(triangle, (1, 0)) == 0.5
    assert brute_anchored_quad_area(hexagon, (1, 0)) == pytest.approx(
        math.sqrt(3), rel=1e-12
    )


def test_brute_anchored_direction_invariance(corpus):
    rng = SplitMix64(5)
    for P in corpus[:12]:
        u = (rng.randint(-50, 50), rng.randint(1, 50))
        v = brute_anchored_quad_area(P, u)
        assert brute_anchored_quad_area(P, (-u[0], -u[1])) == v
        assert brute_anchored_quad_area(P, (3 * u[0], 3 * u[1])) == pytest.approx(
            v, rel=1e-12
        )


def test_references_ignore_the_direction_magnitude():
    # width, longest_chord and brute_anchored_quad_area compute with u's
    # _dyadic_unit representative: 2^j u gives u's output, bit for bit, and
    # vectors near overflow or subnormal raise no RuntimeWarning (an error
    # under this suite's configuration).
    P = lattice_ngon(40, 2)

    def outputs(u):
        return width(P, u).hex(), repr(longest_chord(P, u)), brute_anchored_quad_area(P, u).hex()

    for u in ((1, 0), (3, -7), (0.6, 0.8), (123, -457)):
        want = outputs(u)
        for j in range(-1000, 1001):
            assert outputs((math.ldexp(u[0], j), math.ldexp(u[1], j))) == want, (u, j)
    huge = math.ldexp(1e308, -1000)
    assert outputs((1e308, 1e308)) == outputs((huge, huge))
    assert outputs((1e-320, 0)) == outputs((math.ldexp(1e-320, 1074), 0))


def test_brute_largest_quad(square, triangle, hexagon):
    oq = brute_largest_quad(square)
    assert oq.area == 1 and oq.vertex_indices == (0, 1, 2, 3)
    assert brute_largest_quad(hexagon).area == pytest.approx(math.sqrt(3), rel=1e-12)
    ot = brute_largest_quad(triangle)
    assert ot.area == 0.5 == polygon_area(triangle)
    assert len(ot.vertex_indices) == 4  # a 4-multiset over three vertices


def test_brute_smallest_para(square, triangle, hexagon):
    assert brute_smallest_para(square).area == 1
    assert brute_smallest_para(triangle).area == 1.0
    assert brute_smallest_para(hexagon).area == pytest.approx(
        2 * math.sqrt(3), rel=1e-12
    )


def test_brute_smallest_para_equals_twice_min_anchored(corpus):
    for P in corpus[:15]:
        op = brute_smallest_para(P)
        anchored = min(
            brute_anchored_quad_area(P, P.edge_vector(e)) for e in range(P.n)
        )
        assert op.area == 2 * anchored


def test_brute_largest_bounded_by_polygon_area(corpus):
    for P in corpus:
        if P.n > 30:
            continue
        oq = brute_largest_quad(P)
        area = polygon_area(P)
        assert oq.area <= area * (1 + 1e-12)
        if P.n <= 4:
            assert oq.area == pytest.approx(area, rel=1e-12)
        else:
            assert oq.area < area


def test_anchored_never_exceeds_largest(corpus):
    rng = SplitMix64(17)
    for P in corpus[:10]:
        if P.n > 30:
            continue
        best = brute_largest_quad(P).area
        for _ in range(25):
            u = (rng.randint(-99, 99), rng.randint(-99, 99))
            if u == (0, 0):
                continue
            assert brute_anchored_quad_area(P, u) <= best * (1 + 1e-12)


def test_para_oracle_anchor_edge_is_flush(corpus):
    for P in corpus[:10]:
        op = brute_smallest_para(P)
        u = P.edge_vector(op.anchor_edge)
        assert op.area == pytest.approx(
            longest_chord(P, u).length() * width(P, u), rel=1e-12
        )
