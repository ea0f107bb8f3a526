"""The merged half-turn sweep behind `extremal.combined_extremes`.

As the diagonal direction turns through half a turn, the sweep visits the
diagonal events, where a diagonal endpoint reaches a vertex and a largest
contained quadrilateral candidate is measured, and the support events,
where a support side goes edge-flush and a smallest enclosing
parallelogram candidate is measured.

It has two implementations with one result.  `_scalar_sweep` is a Python
loop, one step per event, and is the reference.  From `_VECTOR_MIN_N`
vertices on, `_vector_sweep` computes the same steps with numpy: both kinds
of event lie on one walk of the ring's antipodal pairs, stable merges of
float pseudo-angle keys only propose the order of the walk and of the
events, and every decision is still the sign of the loop's own determinant
expression, evaluated on the proposed states.  Where one sign disagrees
with the proposal, the scalar loop runs on the whole ring.

The numpy path reads each walk state once per use: one pass over the
diagonal states computes u_ac and confirms the choices between a and c,
one over the support states computes u_bd and d - b and confirms the
choices between b and d, and both event passes read those arrays.  Every
pass after the merges runs over blocks of consecutive states (`_blocks`),
whose counts and choices are views of the walk's arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .geometry import SweepOverrun


def _scalar_sweep(xy: np.ndarray):
    """The merged half-turn sweep over the (n, 2) vertex array of a CCW
    strictly convex ring, as `ConvexPolygon.coords()` returns it.

    Returns (maxarea, max_state, minarea, min_state, predicate_count) where
    max_state is the vertex-index quadruple of the best contained
    quadrilateral and min_state is (a_slides, a, b, c, d, ubx, uby) for the
    best enclosing parallelogram: its sides through b and d run along
    (ubx, uby), and the diagonal end a, when a_slides, else c, slides on its
    edge to where the chord along (ubx, uby) through the other end meets it
    (`extremal.combined_extremes` builds that corner).

    predicate_count counts every 2x2 determinant sign evaluation the sweep
    performs: b0 + d0 + 3 at the start (the searches for c0, b0 and d0
    evaluate one predicate per vertex they pass and one where they stop,
    and the first choice between b and d one), then 3 per diagonal event
    and 5 per support event, 6 at a flush side parallel to the sliding edge.

    One Python step per event: the reference that `_vector_sweep` must
    reproduce, and the route for small rings and for rings on which its
    proposed order is not confirmed.
    """
    n = len(xy)
    # Flat coordinate lists with raw forward indices; no modulo in the loop.
    xs = xy[:, 0].tolist() * 3
    ys = xy[:, 1].tolist() * 3

    def settle(p, rx, ry, name):
        """The first vertex from p at which the ring stops strictly gaining
        distance to the left of the direction (rx, ry); SweepOverrun past
        vertex 2n."""
        while rx * (ys[p + 1] - ys[p]) - ry * (xs[p + 1] - xs[p]) > 0.0:
            p += 1
            if p > 2 * n:
                raise SweepOverrun(f"{name} did not settle")
        return p

    # Start: a = 0; c0 = the vertex whose supporting line is parallel to
    # edge (0, 1); b0 and d0 = the vertices whose supporting lines are
    # parallel to the chord (a, c0), on its two sides.  The search for c0
    # stops by vertex n, where it evaluates e[0] x e[0]: exactly 0.0, or NaN.
    a = 0
    c0 = c = settle(1, xs[1] - xs[0], ys[1] - ys[0], "c0")
    rx = xs[a] - xs[c]
    ry = ys[a] - ys[c]
    b = settle(a, rx, ry, "support vertex b")
    d = settle(c, -rx, -ry, "support vertex d")
    ndet = b + d + 2  # the searches' c0, b0 + 1 and d0 - c0 + 1

    # A slides on edge (a, a+1); u_ac is the chord direction at which it
    # arrives at the next vertex.
    ac_a = True
    u_acx = xs[c] - xs[a + 1]
    u_acy = ys[c] - ys[a + 1]

    maxarea = 0.0
    max_state = None
    minarea = math.inf
    min_state = None
    guard = 8 * n + 16
    steps = 0
    bd_moved = True

    # A ring that is not CCW and strictly convex can walk an index past the
    # tripled lists before the event guard trips.
    try:
        while True:
            if bd_moved:
                # Of b and d, the one whose edge the support sides reach
                # first advances at the next support event; u_bd is that
                # edge's direction (reversed for d).
                bd_moved = False
                ndet += 1
                ebx = xs[b + 1] - xs[b]
                eby = ys[b + 1] - ys[b]
                edx = xs[d + 1] - xs[d]
                edy = ys[d + 1] - ys[d]
                if ebx * edy - eby * edx <= 0.0:
                    bd_b = True
                    u_bdx, u_bdy = ebx, eby
                else:
                    bd_b = False
                    u_bdx = xs[d] - xs[d + 1]
                    u_bdy = ys[d] - ys[d + 1]
            steps += 1
            if steps > guard:
                raise SweepOverrun(f"more than {guard} sweep events for n={n}")
            ndet += 1
            if u_bdx * u_acy - u_bdy * u_acx >= 0.0:
                # A support side goes edge-flush: enclosing-parallelogram
                # candidate with the sliding diagonal endpoint mid-edge.
                if ac_a:
                    fx = xs[a]
                    fy = ys[a]
                    ex = xs[a + 1] - fx
                    ey = ys[a + 1] - fy
                    sx = xs[c]
                    sy = ys[c]
                else:
                    fx = xs[c]
                    fy = ys[c]
                    ex = xs[c + 1] - fx
                    ey = ys[c + 1] - fy
                    sx = xs[a]
                    sy = ys[a]
                ndet += 3
                den = ex * u_bdy - ey * u_bdx
                if den != 0.0:
                    num = (ex * (sy - fy) - ey * (sx - fx)) * (
                        u_bdx * (ys[d] - ys[b]) - u_bdy * (xs[d] - xs[b])
                    )
                    cand = abs(num / den)
                else:
                    ndet += 1
                    if u_bdx * (sy - fy) - u_bdy * (sx - fx) == 0.0:
                        # Chord lies along the sliding edge itself; the corner
                        # sits at the edge's base vertex.
                        cand = abs(
                            (xs[c] - xs[a]) * (ys[d] - ys[b])
                            - (ys[c] - ys[a]) * (xs[d] - xs[b])
                        )
                    else:
                        # The flush direction cannot meet the sliding edge: a
                        # stale event at a parallel-edge tie; no candidate.
                        cand = math.inf
                if cand < minarea:
                    minarea = cand
                    min_state = (ac_a, a % n, b % n, c % n, d % n, u_bdx, u_bdy)
                if bd_b:
                    b += 1
                else:
                    d += 1
                bd_moved = True
            else:
                # The sliding diagonal endpoint reaches a vertex: contained-
                # quadrilateral candidate with all corners at vertices.
                if ac_a:
                    a += 1
                else:
                    c += 1
                ndet += 1
                ar = abs((xs[c] - xs[a]) * (ys[d] - ys[b]) - (ys[c] - ys[a]) * (xs[d] - xs[b])) * 0.5
                if ar > maxarea:
                    maxarea = ar
                    max_state = (a % n, b % n, c % n, d % n)
                ndet += 1
                eax = xs[a + 1] - xs[a]
                eay = ys[a + 1] - ys[a]
                ecx = xs[c + 1] - xs[c]
                ecy = ys[c + 1] - ys[c]
                if eax * ecy - eay * ecx <= 0.0:
                    ac_a = True
                    u_acx = xs[c] - xs[a + 1]
                    u_acy = ys[c] - ys[a + 1]
                else:
                    ac_a = False
                    u_acx = xs[c + 1] - xs[a]
                    u_acy = ys[c + 1] - ys[a]
                if a % n == c0 % n and c % n == 0:
                    break
    except IndexError:
        raise SweepOverrun(f"sweep ran past the vertex lists for n={n}; not a CCW convex ring?") from None

    if max_state is None or min_state is None:
        raise SweepOverrun("sweep finished without candidates; invalid polygon?")
    return maxarea, max_state, minarea, min_state, ndet


# Rings with fewer vertices take the scalar loop: below this size the numpy
# path's fixed cost per call outweighs its lower cost per vertex.
_VECTOR_MIN_N = 288
# Events per block in the per-event stages of `_vector_sweep`, and edges per
# block in its first-false searches; it bounds their temporaries to a few
# MiB at any n.  The arrays that stay O(n) are the doubled coordinates, the
# walk (its choices, the keys of its events from s on and its counts ca),
# u_ac and its keys, the top level's two count arrays, and the four rows
# of u_bd and d - b over the support states.
_BLOCK = 1 << 14


def _combined_sweep(xy: np.ndarray):
    """The merged half-turn sweep: `_scalar_sweep`'s 5-tuple, computed by
    `_vector_sweep` when the ring has at least `_VECTOR_MIN_N` vertices and
    that path does not decline, and by the scalar loop otherwise."""
    if len(xy) >= _VECTOR_MIN_N:
        swept = _vector_sweep(xy)
        if swept is not None:
            return swept
    return _scalar_sweep(xy)


def _vector_sweep(xy: np.ndarray):
    """`_scalar_sweep`'s 5-tuple computed with numpy, or None when the
    loop's own predicates do not confirm the proposed event order, and at
    the loop's rare branches, which it leaves to the loop: a search for d0
    that wraps past vertex n-1, and a flush side parallel to the sliding
    edge.

    The sweep is two merges of runs already sorted by direction.  The walk
    of the antipodal pairs (`_antipodal_walk`) gives the diagonal events'
    (a, c) as its states 0..n-1 and, as the loop chooses between b and d
    by its predicate between a and c, the support events' (b, d) as its
    states from s = b0 + d0 - c0 on.  The top level merges the chord
    directions u_ac with the support directions u_bd (ties to the support
    events).  Stable merges of pseudo-angle keys (`_merge_mask`) only
    propose these orders.  Every branch predicate that the loop would
    evaluate on the proposed states is then evaluated with the loop's own
    float expressions; when each one agrees, the loop takes the same steps
    (by induction on the steps), and the candidates, evaluated with its
    expressions and picked by its first-strict-extremum rule, are its
    candidates.
    """
    # Python floats overflow to inf and turn inf - inf into NaN silently;
    # the array expressions must do the same.  No division by zero is made.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _SweepSteps.propose(xy)
        if steps is None or not steps.ac_agree:
            return None
        bd_before, ac_before = steps.top_level()
        if (bd := steps.support_states()) is None:
            return None
        best_quad = _diagonal_events(steps, bd, bd_before)
        if best_quad is None:
            return None
        best_para = _support_events(steps, bd, ac_before)
        if best_para is None:
            return None
    maxarea, max_state = best_quad
    minarea, min_state = best_para
    # `_scalar_sweep`'s count rule; the loop counts as it goes, so it checks
    # this formula.
    ndet = steps.s + steps.c0 + 3 + 3 * steps.n + 5 * steps.bd_events
    return maxarea, max_state, minarea, min_state, ndet


def _blocks(stop: int):
    """Consecutive slices of at most _BLOCK indices covering [0, stop)."""
    for lo in range(0, stop, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, stop))


def _direction_keys(dx: np.ndarray, dy: np.ndarray, k0: float) -> np.ndarray:
    """A pseudo-angle of each vector (dx, dy), counterclockwise from the
    direction whose absolute key is k0, in [0, 4].

    The key is dy / (|dx| + |dy|) folded into [0, 4): it rises with the
    angle and needs no trigonometry.  Exactly parallel vectors with integer
    coordinates get equal keys, as each quotient is the correctly rounded
    value of the same real number.
    """
    key = np.abs(dx)
    key += np.abs(dy)
    np.divide(dy, key, out=key)
    np.subtract(2.0, key, out=key, where=dx < 0.0)
    np.add(4.0, key, out=key, where=(dx >= 0.0) & (dy < 0.0))
    key -= k0
    np.add(key, 4.0, out=key, where=key < 0.0)
    return key


def _merge_mask(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """For the merge of two non-decreasing key runs with ties going to
    `first`, the mask of merged positions taken from `first`."""
    # A stable sort keeps `first` ahead of `second` on ties, and merges two
    # sorted runs in linear time.
    return np.argsort(np.concatenate((first, second)), kind="stable") < len(first)


def _walk_runs(ex: np.ndarray, ey: np.ndarray):
    """The two key runs that `_antipodal_walk` merges, or None when the
    loop's search for c0 would not settle.

    Returns (c0, k0, a_run, c_run): the keys of the edges 0..n-1 and of the
    reversed edges c0..n-1, 0..c0-1, from the direction whose absolute key
    is k0, each run made non-decreasing where rounding leaves it unsorted.
    Their first c0 and n - c0 keys make the walk's first half turn.
    """
    rx, ry = float(ex[0]), float(ey[0])
    ex1, ey1 = ex[1:], ey[1:]
    c0 = _first_false(lambda k: rx * ey1[k] - ry * ex1[k] > 0.0, len(ex1))
    if c0 is None:
        return None
    c0 += 1
    k0 = float(_direction_keys(ex[:1], ey[:1], 0.0)[0])
    a_run = _non_decreasing(_direction_keys(ex, ey, k0))
    # Keys of reversed edges come from the negated vectors themselves, so
    # that exactly parallel vectors tie.
    rev = _direction_keys(-ex, -ey, k0)
    c_run = np.concatenate((rev[c0:], rev[:c0]))
    # -e[c0] lies less than a half turn past e[0] (e[0] x e[c0] <= 0): a
    # leading key that rounds to just below a full turn is one just above 0.
    c_run[: _first_false(lambda k: c_run[k] >= 3.0, len(c_run))] = 0.0
    return c0, k0, a_run, _non_decreasing(c_run)


def _antipodal_walk(ex: np.ndarray, ey: np.ndarray):
    """The walk of the antipodal pairs of a CCW strictly convex ring over a
    full turn, for its edge vectors, or None when the loop's search for c0
    would not settle.

    Returns (c0, k0, is_a, runs): from the state (0, c0), event t + 1
    advances a when is_a[t], else c, in the merge of the two key runs of
    `_walk_runs`, ties to a.  The keys only propose, and each reader
    confirms what it uses.
    """
    if (walk := _walk_runs(ex, ey)) is None:
        return None
    c0, k0, a_run, c_run = walk
    # a_run[0] is 0.0, the least key, and ties go to a: the first proposed
    # event advances a, as the loop's first diagonal event always does.
    return c0, k0, _merge_mask(a_run, c_run), (a_run, c_run)


class DifferenceBody(NamedTuple):
    """The vertices p[c[i]] - p[a[i]] of D = P - P over a half turn, in
    counterclockwise order, and their direction keys `keys[i]`, non-
    decreasing from 0, measured from the direction whose absolute key is
    k0 (see `_direction_keys`).  Each pair (a, c) is antipodal: it is state
    i of the sweep's walk (`_antipodal_walk`).  D is centrally symmetric,
    and over the other half turn its pairs are (c, a)."""

    a: np.ndarray
    c: np.ndarray
    keys: np.ndarray
    k0: float

    def crossed_edge(self, ux: float, uy: float) -> int:
        """The index j for which the ray along (ux, uy) meets D on its edge
        from vertex j - 1 to vertex j, mod n: one binary search on the keys
        of the half turn, or on -u's key past it, where the pairs are
        swapped.  The keys only propose."""
        key = _direction_keys(np.array([ux, -ux]), np.array([uy, -uy]), self.k0)
        return int(np.searchsorted(self.keys, key[0] if key[0] < 2.0 else key[1], side="right"))

    def proposal(self, j: int) -> tuple[int, int, bool]:
        """(a, c, c_steps) for D's edge from vertex j - 1 to vertex j, mod n:
        the pair at vertex j - 1, and whether the edge is P's e[c], so that
        a chord along it leaves p[a].  Vertex n is vertex 0 with its pair
        swapped."""
        j %= len(self.a)
        a, c = int(self.a[j - 1]), int(self.c[j - 1])
        return a, c, bool((self.a[j] if j else self.c[0]) == a)


def _difference_body(xy: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> DifferenceBody:
    """D = P - P over a half turn, for the (n, 2) vertex array of a CCW
    strictly convex ring and its edge vectors.  D's edges are P's edges
    e[c], each advancing c, and the reversed edges -e[a], each advancing a:
    the sweep's walk turned by a half turn, so the walk's states 0..n-1 are
    D's vertices: the merge of the first c0 keys of the walk's a-run with
    the first n - c0 of its c-run, the half turn in which a reaches c0 and
    c reaches n.  Their keys only propose, as the walk's do: the anchored
    query that reads D confirms every decision."""
    n = len(xy)
    c0, _, a_run, c_run = _walk_runs(ex, ey)  # settles on a ConvexPolygon
    is_a = _merge_mask(a_run[:c0], c_run[: n - c0])
    a = np.concatenate(([0], np.cumsum(is_a[: n - 1])))
    c = (np.arange(c0, c0 + n) - a) % n  # c0 + the c-steps taken
    wx, wy = xy[c, 0] - xy[a, 0], xy[c, 1] - xy[a, 1]
    w0 = float(_direction_keys(wx[:1], wy[:1], 0.0)[0])
    return DifferenceBody(a, c, _non_decreasing(_direction_keys(wx, wy, w0)), w0)


def _non_decreasing(keys: np.ndarray) -> np.ndarray:
    """keys, or their running maximum where rounding left them unsorted."""
    return keys if (keys[1:] >= keys[:-1]).all() else np.maximum.accumulate(keys)


def _first_false(flags, stop: int) -> Optional[int]:
    """The least i < stop at which the bool array flags(k), for slices k of
    consecutive indices, is False at index i, or None.  The blocks of
    `_blocks` are tested in order, up to the first that holds a False."""
    for k in _blocks(stop):
        block = flags(k)
        i = int(np.argmin(block))
        if not block[i]:
            return k.start + i
    return None


class _SweepSteps:
    """The loop's states along the proposed walk.

    Walk event t + 1 advances a when is_a[t], else c; after t events a has
    advanced ca[t] times.  The walk's states 0..n-1 are the diagonal
    events' (a, c) and its state s + j is the (b, d) of support event j.
    ux, uy and ac_keys are the loop's u_ac in the diagonal states and its
    keys; ac_agree tells whether the loop's choice between a and c equals
    the proposed one in the diagonal states 1..n-1 (the loop makes its
    first choice without a predicate).  bd_keys[j] is the key of u_bd in
    support state j, and the top level puts bd_events support events
    before the last diagonal event.
    """

    def __init__(self, x, y, c0, s, is_a, ca, bd_keys, k0):
        self.x, self.y = x, y
        self.n = n = len(is_a) // 2
        self.c0, self.s = c0, s
        self.is_a, self.ca, self.bd_keys = is_a, ca, bd_keys
        self.ux, self.uy = np.empty(n), np.empty(n)
        self.ac_agree = True
        x1, y1 = x[1:], y[1:]
        for k in _blocks(n):
            a, c, fa = self.run(k)
            xa, ya, xc, yc = x[a], y[a], x[c], y[c]
            xa1, ya1, xc1, yc1 = x1[a], y1[a], x1[c], y1[c]
            self.ux[k] = np.where(fa, xc - xa1, xc1 - xa)
            self.uy[k] = np.where(fa, yc - ya1, yc1 - ya)
            agree = ((xa1 - xa) * (yc1 - yc) - (ya1 - ya) * (xc1 - xc) <= 0.0) == fa
            self.ac_agree &= bool(agree[int(k.start == 0) :].all())  # from state 1 on
        self.ac_keys = _direction_keys(self.ux, self.uy, k0)
        self.bd_events = int(np.searchsorted(bd_keys, self.ac_keys[-1], side="right"))

    @classmethod
    def propose(cls, xy: np.ndarray) -> Optional["_SweepSteps"]:
        """The loop's three initial searches, then the proposed orders; None
        when a search would not settle within one period or the search for
        d0 would wrap past vertex n-1, when the walk does not pass through
        the loop's states (c0, n) and (b0, d0), or when the support state
        after the last event lies beyond the walk."""
        # Two periods and x[2n] = x[0]: a state's raw indices need no modulo.
        x = np.concatenate((xy[:, 0], xy[:, 0], xy[:1, 0]))
        y = np.concatenate((xy[:, 1], xy[:, 1], xy[:1, 1]))
        n = len(xy)
        ex = x[1 : n + 1] - x[:n]
        ey = y[1 : n + 1] - y[:n]

        if (walk := _antipodal_walk(ex, ey)) is None:
            return None
        c0, k0, is_a, runs = walk
        rx = float(x[0] - x[c0])
        ry = float(y[0] - y[c0])
        b0 = _first_false(lambda k: rx * ey[k] - ry * ex[k] > 0.0, n)
        if b0 is None:
            return None
        exc, eyc = ex[c0:], ey[c0:]
        i = _first_false(lambda k: -rx * eyc[k] + ry * exc[k] > 0.0, n - c0)
        if i is None:
            return None
        s = b0 + i  # b0 + d0 - c0
        # The keys of the walk's events from s on, the support events': a
        # steps b0 times and c s - b0 times before event s.
        tail = is_a[s:]
        bd_keys = np.empty(len(tail))
        np.place(bd_keys, tail, runs[0][b0:])
        np.place(bd_keys, ~tail, runs[1][s - b0 :])
        del walk, runs  # the key runs, freed before the counts are allocated
        ca = np.zeros(2 * n + 1, dtype=np.intp)
        ca[1:] = is_a  # a cumulative sum over bools casts slowly
        np.cumsum(ca, out=ca)
        # The loop's diagonal events end at (c0, n), its support events start at (b0, d0).
        if ca[n] != c0 or ca[s] != b0:
            return None

        steps = cls(x, y, c0, s, is_a, ca, bd_keys, k0)
        if not (steps.ac_keys[1:] >= steps.ac_keys[:-1]).all() or steps.bd_events >= len(steps.bd_keys):
            return None
        return steps

    def state(self, t: np.ndarray):
        """Raw a and c after t walk events, and whether the next one
        advances a."""
        a = self.ca[t]
        return a, self.c0 + t - a, self.is_a[t]

    def run(self, k: slice):
        """`state` of the consecutive states k; a and the choices are views
        of ca and is_a."""
        a = self.ca[k]
        c = np.arange(self.c0 + k.start, self.c0 + k.stop)
        c -= a
        return a, c, self.is_a[k]

    def support_states(self):
        """The loop's u_bd and d - b in the support states 0..bd_events,
        which both event passes read: the rows ubx, uby, dbx and dby of a
        (4, bd_events + 1) array, or None where the loop's choice between
        b and d in one of those states is not the proposed one."""
        x, y, x1, y1, s = self.x, self.y, self.x[1:], self.y[1:], self.s
        bd = np.empty((4, self.bd_events + 1))
        for j in _blocks(bd.shape[1]):
            b, d, fb = self.run(slice(s + j.start, s + j.stop))
            xb, yb, xd, yd = x[b], y[b], x[d], y[d]
            ebx, eby = x1[b] - xb, y1[b] - yb
            xd1, yd1 = x1[d], y1[d]
            if not ((ebx * (yd1 - yd) - eby * (xd1 - xd) <= 0.0) == fb).all():
                return None
            bd[0, j] = np.where(fb, ebx, xd - xd1)
            bd[1, j] = np.where(fb, eby, yd - yd1)
            np.subtract(xd, xb, out=bd[2, j])
            np.subtract(yd, yb, out=bd[3, j])
        return bd

    def top_level(self):
        """The top-level merge of the proposed orders, ties to the support
        events: for each diagonal event k, the number of support events
        before it, and for each of the first bd_events support events, the
        number of diagonal events before it."""
        is_bd = _merge_mask(self.bd_keys[: self.bd_events], self.ac_keys)
        # An event's merged position minus its rank in its own run counts
        # the events of the other run ahead of it.
        bd_before = np.flatnonzero(~is_bd)
        bd_before -= np.arange(self.n)
        ac_before = np.flatnonzero(is_bd)
        ac_before -= np.arange(self.bd_events)
        return bd_before, ac_before

    def bd_pair(self, j: int) -> tuple[int, int]:
        """b and d mod n in support state j."""
        b, d, _ = self.state(self.s + j)
        return int(b) % self.n, int(d) % self.n


def _diagonal_events(steps: _SweepSteps, bd: np.ndarray, bd_before: np.ndarray):
    """Confirm the top-level predicate at every diagonal event, and find
    the first largest quadrilateral among the states after them: (maxarea,
    max_state), or None.  bd holds `support_states`, and bd_before[k] is
    the number of support events proposed before diagonal event k."""
    n = steps.n
    ubx, uby, dbx, dby = bd
    maxarea, max_state = 0.0, None
    for k in _blocks(n):
        j = bd_before[k]
        # u_ac in state k is p[c] - p[a] in state k + 1, after the event.
        ux, uy = steps.ux[k], steps.uy[k]
        if (ubx[j] * uy - uby[j] * ux >= 0.0).any():
            return None
        ar = ux * dby[j] - uy * dbx[j]
        ar = np.abs(ar, out=ar) * 0.5
        ar[np.isnan(ar)] = -1.0  # NaN wins none of the loop's comparisons
        i = int(np.argmax(ar))
        if ar[i] > maxarea:
            maxarea = float(ar[i])
            a, c, _ = steps.state(k.start + i + 1)
            b, d = steps.bd_pair(int(j[i]))
            max_state = (int(a) % n, b, int(c) % n, d)
    return None if max_state is None else (maxarea, max_state)


def _support_events(steps: _SweepSteps, bd: np.ndarray, ac_before: np.ndarray):
    """Confirm the top-level predicate at every support event, and find
    the first smallest flush parallelogram: (minarea, min_state), or None.
    None also when a flush side is parallel to the sliding edge (the loop's
    `den == 0` branch), which the loop answers.  bd holds `support_states`,
    and ac_before[j] is the number of diagonal events proposed before
    support event j."""
    x, y, n = steps.x, steps.y, steps.n
    x1, y1 = x[1:], y[1:]
    minarea, min_state = math.inf, None
    for j in _blocks(steps.bd_events):
        ubx, uby, dbx, dby = bd[:, j]
        k = ac_before[j]
        if not (ubx * steps.uy[k] - uby * steps.ux[k] >= 0.0).all():
            return None
        a, c, fa = steps.state(k)
        f = np.where(fa, a, c)
        s = np.where(fa, c, a)
        fx, fy, sx, sy = x[f], y[f], x[s], y[s]
        ex = x1[f] - fx
        ey = y1[f] - fy
        den = ex * uby - ey * ubx
        if (den == 0.0).any():
            return None
        num = (ex * (sy - fy) - ey * (sx - fx)) * (ubx * dby - uby * dbx)
        cand = np.abs(num / den)
        cand[np.isnan(cand)] = math.inf  # as for the areas
        i = int(np.argmin(cand))
        if cand[i] < minarea:
            minarea = float(cand[i])
            b, d = steps.bd_pair(j.start + i)
            min_state = (bool(fa[i]), int(a[i]) % n, b, int(c[i]) % n, d, float(ubx[i]), float(uby[i]))
    return None if min_state is None else (minarea, min_state)
