"""The numpy sweep against the scalar loop it must reproduce exactly."""

import math
import random
import tracemalloc

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



@pytest.mark.parametrize("block", [61, 1000])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(xy=rings())
def test_sweep_blocks_do_not_change_the_result(block, xy):
    # Every per-event stage runs in blocks of _BLOCK events: at small odd
    # block sizes the event runs, the support states and the walk's
    # choices straddle block boundaries, and the result must not move.
    assume(len(xy) >= _VECTOR_MIN_N)
    want = repr(_vector_sweep(xy))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_BLOCK", block)
        got = repr(_vector_sweep(xy))
    assert got == want
    assert got == "None" or got == repr(_scalar_sweep(xy))


@pytest.mark.parametrize("block", [61, 1000])
def test_sweep_blocks_on_parallel_edge_runs(monkeypatch, block):
    # Exactly parallel opposite edges make runs of support events between
    # two diagonal events, which the blocks cut at every offset.
    polys = [parallel_edge_polygon(m, seed) for m, seed in ((_VECTOR_MIN_N // 2, 1), (400, 2), (1531, 3))]
    polys += [lattice_ngon(3001, 4)]
    want = [repr(_scalar_sweep(P.coords())) for P in polys]
    monkeypatch.setattr(sweep, "_BLOCK", block)
    for P, w in zip(polys, want):
        assert repr(_vector_sweep(P.coords())) == w, P.n


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



def test_sweep_memory_per_vertex(monkeypatch):
    # The numpy sweep holds O(n) arrays of about 143 bytes per vertex at
    # once (the doubled coordinates, the walk, the keys of its events from
    # s on, its counts, u_ac and the support states) and works through the
    # rest a block at a time: a new O(n) temporary would show here.  The
    # bound is 2% over the measured peak: the CLI's `both` runs within a
    # few MB of the heap size at which glibc starts returning memory to the
    # system, after which every call faults its pages in anew.
    P = lattice_ngon(250_000, 5)
    xy = P.coords()
    monkeypatch.setattr(sweep, "_scalar_sweep", _no_scalar_loop)
    tracemalloc.start()
    try:
        _combined_sweep(xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 146 * P.n, peak / P.n


@pytest.mark.parametrize("first", [0, 30, 60, 61, 121, 183, 199, None])
def test_first_false_stops_at_the_first_failing_block(monkeypatch, first):
    # The searches for c0, b0 and d0 test blocks of _BLOCK entries in order
    # and stop at the first block holding a False: the first False of a
    # block's first, inner or last entry, or of none, is the whole scan's.
    monkeypatch.setattr(sweep, "_BLOCK", 61)
    flags = np.ones(200, dtype=bool)
    if first is not None:
        flags[first::7] = False
    tested = []

    def block(k):
        tested.append(k.start)
        return flags[k]

    whole = None if flags.all() else int(np.argmin(flags))
    assert sweep._first_false(block, len(flags)) == whole == first
    assert tested == list(range(0, 200 if first is None else first + 1, 61))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rings())
def test_c0_search_stops_within_one_period(xy):
    # The loop's search for c0 has no overrun guard.  On a ring that the
    # constructor accepts it stops before vertex n: the turn at vertex 0,
    # e[n-1] x e[0] > 0, is exactly minus its predicate at vertex n - 1.
    # At vertex n it would evaluate e[0] x e[0], exactly 0.0 or NaN.
    n = len(xy)
    xs, ys = xy[:, 0].tolist() * 2, xy[:, 1].tolist() * 2
    rx, ry = xs[1] - xs[0], ys[1] - ys[0]
    c = 1
    while rx * (ys[c + 1] - ys[c]) - ry * (xs[c + 1] - xs[c]) > 0.0:
        c += 1
    assert c < n
    assert sweep._walk_runs(*ConvexPolygon(xy).edges())[0] == c


def test_fast_path_verdicts_on_float_copies():
    # Today's verdicts on float input, where rounding can make the keys
    # propose an order that the loop's predicates refute: the numpy path
    # answers on some copies of exact polygons and hands the rest to the
    # scalar loop whole.  A path that answers more of them changes this list.
    L, Q = lattice_ngon(2000, 5), parallel_edge_polygon(1000, 5)
    answered = [moved(L, 0.0, 1 / 7), moved(L, 0.0, 1 / 10), moved(L, 0.3, 1.0)]
    declined = [moved(L, 0.0, 1 / 3), moved(L, 0.7, 1.0)]
    declined += [moved(Q, 0.0, 1 / k) for k in (3, 7, 10)] + [moved(Q, turn, 1.0) for turn in (0.3, 0.7)]
    declined += [regular_ngon(n, 1000.0).coords() for n in (_VECTOR_MIN_N, 1000, 5000, 20_000)]
    for xy in answered:
        assert repr(_vector_sweep(xy)) == repr(_scalar_sweep(xy)), len(xy)
    for xy in declined:
        assert _vector_sweep(xy) is None, len(xy)


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


@pytest.mark.parametrize("window", ["diagonal", "support"])
@pytest.mark.parametrize("nth", [0, 1, 5, 40])
def test_proposal_one_step_out_of_order_is_refuted(monkeypatch, window, nth):
    # Swap two adjacent events of the proposed walk at its nth change of
    # side among the diagonal states, or among the support states past
    # state n, which no diagonal event reads.  The loop's own predicate at
    # the state between them must refute the proposal, so the fast path
    # hands the ring to the loop.
    merge_mask = sweep._merge_mask
    for k in range(3):
        for P in (lattice_ngon(_VECTOR_MIN_N + 37 * k, k), parallel_edge_polygon(_VECTOR_MIN_N // 2 + k, k)):
            steps = sweep._SweepSteps.propose(P.coords())
            lo, hi = (1, P.n - 1) if window == "diagonal" else (max(steps.s, P.n), steps.s + steps.bd_events)
            calls = []

            def swapped(first, second):
                mask = merge_mask(first, second)
                if not calls:  # the walk
                    sides = np.flatnonzero(mask[lo:hi] != mask[lo + 1 : hi + 1]) + lo
                    i = int(sides[min(nth, sides.size - 1)])
                    mask[[i, i + 1]] = mask[[i + 1, i]]
                calls.append(mask)
                return mask

            monkeypatch.setattr(sweep, "_merge_mask", swapped)
            assert _vector_sweep(P.coords()) is None, P.n
            monkeypatch.undo()


def test_support_choice_after_last_event_is_refuted_when_wrong(monkeypatch):
    # After its last support event the loop chooses between b and d once
    # more; that choice sets u_bd for the diagonal events still to come.
    # It is the walk's choice in state s + bd_events, past state n here, so
    # no diagonal event reads it.
    merge_mask = sweep._merge_mask
    refuted = 0
    for k in range(6):
        P = lattice_ngon(_VECTOR_MIN_N + 37 * k, k)
        steps = sweep._SweepSteps.propose(P.coords())
        last = steps.s + steps.bd_events
        assert last >= P.n
        calls = []

        def swapped(first, second):
            mask = merge_mask(first, second)
            if not calls:  # the walk
                mask[[last, last + 1]] = mask[[last + 1, last]]
            calls.append(mask)
            return mask

        monkeypatch.setattr(sweep, "_merge_mask", swapped)
        fast = _vector_sweep(P.coords())
        monkeypatch.undo()
        if calls[0][last] != calls[0][last + 1]:  # the swap changed the proposal
            assert fast is None, P.n
            refuted += 1
    assert refuted



@pytest.mark.parametrize("block", [61, 1000])
def test_every_choice_read_is_confirmed_at_any_block_offset(monkeypatch, block):
    # One proposed choice flipped, the walk's counts kept: the loop's
    # predicate in that state alone refutes it, in the diagonal states
    # 1..n-1 and in the support states s..s + bd_events past n, on the
    # first, last and inner states of the blocks.
    monkeypatch.setattr(sweep, "_BLOCK", block)
    xy = lattice_ngon(3001, 4).coords()
    n = len(xy)
    k0 = sweep._antipodal_walk(*ConvexPolygon(xy).edges())[1]
    base = sweep._SweepSteps.propose(xy)
    assert base.ac_agree and base.support_states() is not None

    def flipped(t):
        is_a = base.is_a.copy()
        is_a[t] = not is_a[t]
        return sweep._SweepSteps(base.x, base.y, base.c0, base.s, is_a, base.ca, base.bd_keys, k0)

    for t in (1, block - 1, block, block + 1, 2 * block, n - 1):
        assert not flipped(t).ac_agree, t
    last = base.s + base.bd_events
    for t in sorted({t for t in range(n, last + 1) if (t - base.s) % block in (0, 1, block - 1)} | {n, last}):
        steps = flipped(t)
        assert steps.ac_agree and steps.bd_events == base.bd_events
        assert steps.support_states() is None, t


@pytest.mark.parametrize("moved", ["diagonal", "support", "diagonal-behind", "support-ahead"])
@pytest.mark.parametrize("nth", [0, 3, 50])
def test_top_level_one_step_out_of_order_is_refuted(monkeypatch, moved, nth):
    # Move one event of the top-level merge past its neighbour of the other
    # kind by nudging its key; the loop's top-level predicate must refute it.
    # The first two put a diagonal event too early, which the check at the
    # diagonal events refutes; the last two put it too late, which only the
    # check at the support events refutes.
    propose = sweep._SweepSteps.propose

    def nudged(xy):
        steps = propose(xy)
        ac, bd = steps.ac_keys, steps.bd_keys
        if moved == "diagonal":  # ahead of the support event before it
            j = np.searchsorted(bd, ac, side="right")
            k = int(np.flatnonzero(np.diff(j) > 0)[nth]) + 1
            ac[k] = np.nextafter(bd[j[k] - 1], -np.inf)
        elif moved == "support":  # behind the diagonal event after it
            k = np.searchsorted(ac, bd[: steps.bd_events], side="left")
            j = int(np.flatnonzero(np.diff(k) > 0)[nth])
            bd[j] = np.nextafter(ac[k[j]], np.inf)
        elif moved == "diagonal-behind":  # behind the support event after it
            j = np.searchsorted(bd, ac, side="right")
            k = int(np.flatnonzero(np.diff(j) > 0)[nth])
            ac[k] = bd[j[k]]  # ties go to the support event
        else:  # ahead of the diagonal event before it
            k = np.searchsorted(ac, bd[: steps.bd_events], side="left")
            j = int(np.flatnonzero(np.diff(k) > 0)[nth]) + 1
            bd[j] = ac[k[j] - 1]  # ties go to the support event
        return steps

    monkeypatch.setattr(sweep._SweepSteps, "propose", nudged)
    for k in range(3):
        for P in (lattice_ngon(_VECTOR_MIN_N + 37 * k, k), parallel_edge_polygon(_VECTOR_MIN_N // 2 + k, k)):
            assert _vector_sweep(P.coords()) is None, P.n


def test_top_level_merge_counts_equal_their_binary_searches(corpus):
    # The top-level merge, ties to the support events, read as counts: for
    # each diagonal event the support events before it, and for each
    # support event the diagonal events before it.
    polys = list(corpus)
    for k in range(4):
        polys += [lattice_ngon(_VECTOR_MIN_N + 37 * k, k), parallel_edge_polygon(_VECTOR_MIN_N // 2 + 37 * k, k)]
    float_copies = [moved(P, turn, scale) for P in polys[-8:] for turn, scale in ((0.0, 1.0 / 3.0), (0.7, 1.0))]
    checked = 0
    for xy in [P.coords() for P in polys] + float_copies:
        steps = sweep._SweepSteps.propose(xy)
        if steps is None:
            continue
        bd_before, ac_before = steps.top_level()
        ac, bd = steps.ac_keys, steps.bd_keys
        assert bd_before.tolist() == np.searchsorted(bd, ac, side="right").tolist(), len(xy)
        assert ac_before.tolist() == np.searchsorted(ac, bd[: steps.bd_events], side="left").tolist(), len(xy)
        checked += len(xy) >= _VECTOR_MIN_N
    assert checked >= 12


def test_difference_body_is_the_sweeps_diagonal_states(corpus):
    # One merge: D's half turn lists the sweep's proposed diagonal states
    # 0..n-1, also where rounding leaves a key run unsorted.
    polys = list(corpus) + [lattice_ngon(2000, 5), regular_ngon(2000, 1000.0)]
    float_copies = [moved(lattice_ngon(2000, 5), turn, 1.0 / 3.0) for turn in (0.0, 0.7)]
    for xy in [P.coords() for P in polys] + float_copies:
        n = len(xy)
        steps = sweep._SweepSteps.propose(xy)
        D = ConvexPolygon(xy).difference_body()
        a = steps.ca[:n]
        assert D.a.tolist() == a.tolist(), n
        assert D.c.tolist() == ((steps.c0 + np.arange(n) - a) % n).tolist(), n


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


@pytest.mark.parametrize(
    "name",
    ["clockwise-400", "clockwise-20", "reflex-at-1", "reflex-at-0"],
)
def test_ring_not_ccw_convex_raises_overrun(name):
    # The loop used to walk its indices off the tripled coordinate lists on
    # these rings and raise IndexError.
    if name == "clockwise-400":
        xy = lattice_ngon(400, 3).coords()[::-1]
    elif name == "clockwise-20":
        xy = regular_ngon(20, 10.0).coords()[::-1]
    else:
        xy = regular_ngon(20, 10.0).coords().copy()
        k = int(name[-1])
        xy[k] *= 0.5 if k else 0.8  # pulled inward: a reflex vertex
    xy = np.ascontiguousarray(xy)
    with pytest.raises(SweepOverrun):
        _scalar_sweep(xy)
    with pytest.raises(SweepOverrun):
        _combined_sweep(xy)


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


@pytest.mark.parametrize(
    "xy",
    [
        regular_ngon(18, 1000.0).coords() * 0.37,
        parallel_edge_polygon(3, 550736161).coords() * 0.37,
        parallel_edge_polygon(4, 361598071).coords() * 0.37,
    ],
)
def test_difference_body_where_a_reversed_edge_key_wraps(xy):
    # On these rings -e[c0] is parallel to e[0] up to rounding, and its key,
    # measured from e[0]'s, rounds to just below a full turn.  It must count
    # as just above 0: otherwise the walk takes every a-step first, and D
    # gets pairs with a == c, whose zero vectors have NaN keys.
    P = ConvexPolygon(canonicalize(xy))
    D = P.difference_body()
    assert np.isfinite(D.keys).all() and (D.keys[1:] >= D.keys[:-1]).all()
    assert (D.a != D.c).all()
    c0, _, is_a, _ = sweep._antipodal_walk(*P.edges())
    assert int(is_a[: P.n].sum()) == c0  # the walk passes the loop's state (c0, n)


@pytest.mark.parametrize("state", ["(c0, n)", "(b0, d0)"])
def test_walk_that_misses_a_loop_state_is_declined(monkeypatch, state):
    # The loop's diagonal events end in its state (c0, n), and its support
    # events start in (b0, d0).  Two adjacent events of the walk swapped
    # just before one of those states move the walk off it, and off it
    # alone: propose must decline.
    walk = sweep._antipodal_walk
    for k in range(3):
        P = lattice_ngon(_VECTOR_MIN_N + 37 * k, k)
        steps = sweep._SweepSteps.propose(P.coords())
        t = P.n if state == "(c0, n)" else steps.s
        assert steps.is_a[t - 1] != steps.is_a[t], P.n

        def swapped(ex, ey):
            c0, k0, is_a, keys = walk(ex, ey)
            is_a[[t - 1, t]] = is_a[[t, t - 1]]
            return c0, k0, is_a, keys

        monkeypatch.setattr(sweep, "_antipodal_walk", swapped)
        assert sweep._SweepSteps.propose(P.coords()) is None, P.n
        monkeypatch.undo()
