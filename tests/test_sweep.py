"""The numpy sweep against the scalar loop it must reproduce exactly."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadpara import (
    ConvexPolygon,
    GeometryError,
    SweepOverrun,
    canonicalize,
    combined_extremes,
    lattice_ngon,
    parallel_edge_polygon,
    random_convex,
    regular_ngon,
)
from quadpara import sweep
from quadpara.sweep import _VECTOR_MIN_N, _combined_sweep, _scalar_sweep, _vector_sweep
from quadpara.polygen import _strict_hull


def circle_hull(count: int, seed: int) -> ConvexPolygon:
    """The hull of `count` seeded integer points near a circle of radius
    2**20: a random hull with hundreds of vertices where `random_convex`,
    drawing from a square, keeps a few dozen."""
    rng = random.Random(seed)
    r = 1 << 20
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(count)]
    return ConvexPolygon(_strict_hull([(round(r * math.cos(t)), round(r * math.sin(t))) for t in angles]))


def moved(P: ConvexPolygon, turn: float, scale: float) -> np.ndarray:
    """The vertex array of P rotated by `turn` radians and scaled."""
    c, s = math.cos(turn) * scale, math.sin(turn) * scale
    x, y = P.coords().T
    return ConvexPolygon(canonicalize(np.column_stack((c * x - s * y, s * x + c * y)))).coords()


@st.composite
def rings(draw):
    kind = draw(st.sampled_from(["lattice", "hull", "circle", "parallel", "regular", "float"]))
    n = draw(st.integers(3, 3 * _VECTOR_MIN_N))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lattice":
        return lattice_ngon(n, seed).coords()
    if kind == "hull":
        return random_convex(n, seed, 1 << 20).coords()
    if kind == "circle":
        return circle_hull(n + 5, seed).coords()
    if kind == "parallel":
        return parallel_edge_polygon(max(2, n // 2), seed).coords()
    if kind == "regular":
        return regular_ngon(n, 1000.0, seed % 5).coords()
    base = lattice_ngon(n, seed) if seed % 2 else circle_hull(n + 5, seed)
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.7, 1e3]))
    try:
        return moved(base, turn, scale)
    except GeometryError:
        assume(False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rings())
def test_sweep_matches_scalar_loop(xy):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python one.
    want = repr(_scalar_sweep(xy))
    assert repr(_combined_sweep(xy)) == want
    fast = _vector_sweep(xy)  # below the crossover too
    assert fast is None or repr(fast) == want


def _no_scalar_loop(xy):
    raise AssertionError("the scalar loop ran")


def test_fast_path_taken_on_exact_corpora(monkeypatch):
    n = 2 * _VECTOR_MIN_N
    polys = [lattice_ngon(n + k, k) for k in range(4)]
    polys += [circle_hull(n, seed) for seed in range(4)]
    polys += [parallel_edge_polygon(n // 2 + k, k) for k in range(4)]
    polys.append(lattice_ngon(250_000, 5))
    want = [repr(_scalar_sweep(P.coords())) for P in polys]
    monkeypatch.setattr(sweep, "_scalar_sweep", _no_scalar_loop)
    for P, w in zip(polys, want):
        assert P.n >= _VECTOR_MIN_N
        assert repr(_combined_sweep(P.coords())) == w, P.n
    rep = combined_extremes(polys[-1])
    assert rep.quad_certificate.checks.all_ok and rep.para_certificate.checks.all_ok


def test_fallback_runs_scalar_loop_on_disagreement(monkeypatch):
    # The chords of a regular polygon are parallel to its edges only up to
    # rounding, so the keys propose an order the loop's predicates refute.
    xy = regular_ngon(2 * _VECTOR_MIN_N, 1000.0).coords()
    assert _vector_sweep(xy) is None
    want = _scalar_sweep(xy)
    calls = []

    def scalar_loop(ring):
        calls.append(ring)
        return want

    monkeypatch.setattr(sweep, "_scalar_sweep", scalar_loop)
    assert _combined_sweep(xy) is want
    assert len(calls) == 1 and calls[0] is xy


@pytest.mark.parametrize("merge", ["diagonal", "support"])
@pytest.mark.parametrize("nth", [0, 1, 5, 40])
def test_proposal_one_step_out_of_order_is_refuted(monkeypatch, merge, nth):
    # Swap two adjacent events of one proposed merge, at its nth change of
    # side.  The loop's own predicate at the state between them must refute
    # the proposal, so the fast path hands the ring to the loop.
    merge_mask = sweep._merge_mask
    calls = []

    def swapped(first, second):
        mask = merge_mask(first, second)
        if len(calls) == ["diagonal", "support"].index(merge):
            sides = np.flatnonzero(mask[1:-1] != mask[2:]) + 1
            i = int(sides[min(nth, sides.size - 1)])
            mask[[i, i + 1]] = mask[[i + 1, i]]
        calls.append(mask)
        return mask

    monkeypatch.setattr(sweep, "_merge_mask", swapped)
    for k in range(3):
        for P in (lattice_ngon(_VECTOR_MIN_N + 37 * k, k), parallel_edge_polygon(_VECTOR_MIN_N // 2 + k, k)):
            calls.clear()
            assert _vector_sweep(P.coords()) is None, P.n


def test_support_choice_after_last_event_is_refuted_when_wrong(monkeypatch):
    # After its last support event the loop chooses between b and d once
    # more; that choice sets u_bd for the diagonal events still to come.
    merge_mask = sweep._merge_mask
    refuted = 0
    for k in range(6):
        P = lattice_ngon(_VECTOR_MIN_N + 37 * k, k)
        last = sweep._SweepSteps.propose(P.coords()).bd_events
        calls = []

        def swapped(first, second):
            mask = merge_mask(first, second)
            if len(calls) == 1:
                mask[[last, last + 1]] = mask[[last + 1, last]]
            calls.append(mask)
            return mask

        monkeypatch.setattr(sweep, "_merge_mask", swapped)
        fast = _vector_sweep(P.coords())
        monkeypatch.undo()
        if calls[1][last] != calls[1][last + 1]:  # the swap changed the proposal
            assert fast is None, P.n
            refuted += 1
    assert refuted


@pytest.mark.parametrize("moved", ["diagonal", "support"])
@pytest.mark.parametrize("nth", [0, 3, 50])
def test_top_level_one_step_out_of_order_is_refuted(monkeypatch, moved, nth):
    # Move one event of the top-level merge past its neighbour of the other
    # kind by nudging its key; the loop's top-level predicate must refute it.
    propose = sweep._SweepSteps.propose

    def nudged(xy):
        steps = propose(xy)
        ac, bd = steps.ac_keys, steps.bd_keys
        if moved == "diagonal":  # ahead of the support event before it
            j = np.searchsorted(bd, ac, side="right")
            k = int(np.flatnonzero(np.diff(j) > 0)[nth]) + 1
            ac[k] = np.nextafter(bd[j[k] - 1], -np.inf)
        else:  # behind the diagonal event after it
            k = np.searchsorted(ac, bd[: steps.bd_events], side="left")
            j = int(np.flatnonzero(np.diff(k) > 0)[nth])
            bd[j] = np.nextafter(ac[k[j]], np.inf)
        return steps

    monkeypatch.setattr(sweep._SweepSteps, "propose", nudged)
    for k in range(3):
        for P in (lattice_ngon(_VECTOR_MIN_N + 37 * k, k), parallel_edge_polygon(_VECTOR_MIN_N // 2 + k, k)):
            assert _vector_sweep(P.coords()) is None, P.n


def test_overrun_raised_alike_on_both_paths():
    # A ring that winds twice: the loop exceeds its event budget.
    xy = lattice_ngon(_VECTOR_MIN_N, 3).coords()
    twice = np.concatenate((xy, xy))
    with pytest.raises(SweepOverrun) as want:
        _scalar_sweep(twice)
    assert _vector_sweep(twice) is None
    with pytest.raises(SweepOverrun) as got:
        _combined_sweep(twice)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scale", [1e-160, 1e150, 1e300])
def test_overflow_and_underflow_handled_like_the_loop(scale):
    # The loop's Python floats overflow to inf, make NaN of inf - inf and
    # underflow to subnormals without a warning; numpy must stay as quiet.
    xy = lattice_ngon(_VECTOR_MIN_N + 12, 3).coords() * scale
    try:
        want = repr(_scalar_sweep(xy))
    except SweepOverrun as exc:
        want = repr(exc)
    fast = _vector_sweep(xy)
    assert fast is None or repr(fast) == want
    try:
        got = repr(_combined_sweep(xy))
    except SweepOverrun as exc:
        got = repr(exc)
    assert got == want
