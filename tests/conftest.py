import pytest

from quadpara import (
    ConvexPolygon,
    lattice_ngon,
    parallel_edge_polygon,
    random_convex,
    regular_ngon,
)


@pytest.fixture
def square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def triangle():
    return ConvexPolygon([(0, 0), (1, 0), (0, 1)])


@pytest.fixture
def hexagon():
    return regular_ngon(6, 1.0)


def small_corpus():
    """A deterministic mixed bag of integer-coordinate polygons."""
    polys = []
    for i in range(60):
        polys.append(random_convex(3 + i % 30, 4000 + i, 1000))
    for m in range(2, 13):
        polys.append(parallel_edge_polygon(m, m))
    for n in (3, 4, 5, 8, 13, 21, 34):
        polys.append(lattice_ngon(n, n))
    return polys


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()
