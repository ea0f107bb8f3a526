"""The merged half-turn sweep behind `extremal.combined_extremes`.

As the diagonal direction turns through half a turn, the sweep visits the
diagonal events, where a diagonal endpoint reaches a vertex and a largest
contained quadrilateral candidate is measured, and the support events,
where a support side goes edge-flush and a smallest enclosing
parallelogram candidate is measured.

It has two implementations with one result.  `_scalar_sweep` is a Python
loop, one step per event, and is the reference.  From `_VECTOR_MIN_N`
vertices on, `_vector_sweep` computes the same steps with numpy: float
pseudo-angle keys only propose the order of the events, and every decision
is still the sign of the loop's own determinant expression, evaluated on
the proposed states.  Where one sign disagrees with the proposal, the
scalar loop runs on the whole ring.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .geometry import SweepOverrun


def _scalar_sweep(xy: np.ndarray):
    """The merged half-turn sweep over the (n, 2) vertex array of a CCW
    strictly convex ring, as `ConvexPolygon.coords()` returns it.

    Returns (maxarea, max_state, minarea, min_state, predicate_count) where
    max_state is the vertex-index quadruple of the best contained
    quadrilateral and min_state is (a_slides, a, b, c, d, ubx, uby, slid)
    for the best enclosing parallelogram.  predicate_count counts every
    2x2 determinant sign evaluation the sweep performs.

    One Python step per event: the reference that `_vector_sweep` must
    reproduce, and the route for small rings and for rings on which its
    proposed order is not confirmed.
    """
    n = len(xy)
    # Flat coordinate lists with raw forward indices; no modulo in the loop.
    xs = xy[:, 0].tolist() * 3
    ys = xy[:, 1].tolist() * 3
    ndet = 0

    # Start: a0 = 0; c0 = the vertex whose supporting line is parallel to
    # edge (0, 1), reached while the triangle over that edge strictly grows.
    e0x = xs[1] - xs[0]
    e0y = ys[1] - ys[0]
    c = 1
    while c <= n:
        ndet += 1
        if e0x * (ys[c + 1] - ys[c]) - e0y * (xs[c + 1] - xs[c]) > 0.0:
            c += 1
        else:
            break
    else:
        raise SweepOverrun("initial support search did not settle")
    a0 = 0
    c0 = c
    a = 0

    # A slides on edge (a, a+1); u_ac is the chord direction at which it
    # arrives at the next vertex.
    ac_a = True
    u_acx = xs[c] - xs[a + 1]
    u_acy = ys[c] - ys[a + 1]

    b = a
    rx = xs[a] - xs[c]
    ry = ys[a] - ys[c]
    while b <= 2 * n:
        ndet += 1
        if rx * (ys[b + 1] - ys[b]) - ry * (xs[b + 1] - xs[b]) > 0.0:
            b += 1
        else:
            break
    else:
        raise SweepOverrun("support vertex b did not settle")
    d = c
    while d <= 2 * n:
        ndet += 1
        if -rx * (ys[d + 1] - ys[d]) + ry * (xs[d + 1] - xs[d]) > 0.0:
            d += 1
        else:
            break
    else:
        raise SweepOverrun("support vertex d did not settle")

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

    maxarea = 0.0
    max_state = None
    minarea = math.inf
    min_state = None
    guard = 8 * n + 16
    steps = 0

    while True:
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
                if cand < minarea:
                    minarea = cand
                    s = ((sx - fx) * u_bdy - (sy - fy) * u_bdx) / den
                    min_state = (
                        ac_a,
                        a % n,
                        b % n,
                        c % n,
                        d % n,
                        u_bdx,
                        u_bdy,
                        (fx + s * ex, fy + s * ey),
                    )
            else:
                ndet += 1
                if u_bdx * (sy - fy) - u_bdy * (sx - fx) == 0.0:
                    # Chord lies along the sliding edge itself; the corner
                    # sits at the edge's base vertex.
                    cand = abs(
                        (xs[c] - xs[a]) * (ys[d] - ys[b])
                        - (ys[c] - ys[a]) * (xs[d] - xs[b])
                    )
                    if cand < minarea:
                        minarea = cand
                        min_state = (ac_a, a % n, b % n, c % n, d % n, u_bdx, u_bdy, (fx, fy))
                # Otherwise the flush direction cannot meet the sliding edge:
                # a stale event at a parallel-edge tie; skip the candidate.
            if bd_b:
                b += 1
            else:
                d += 1
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
        else:
            # The sliding diagonal endpoint reaches a vertex: contained-
            # quadrilateral candidate with all corners at vertices.
            if ac_a:
                a += 1
            else:
                c += 1
            ndet += 1
            ar = (xs[c] - xs[a]) * (ys[d] - ys[b]) - (ys[c] - ys[a]) * (xs[d] - xs[b])
            if ar < 0.0:
                ar = -ar
            ar *= 0.5
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
            if a % n == c0 % n and c % n == a0:
                break

    if max_state is None or min_state is None:
        raise SweepOverrun("sweep finished without candidates; invalid polygon?")
    return maxarea, max_state, minarea, min_state, ndet


# Rings with fewer vertices take the scalar loop: below this size the numpy
# path's fixed cost per call outweighs its lower cost per vertex.
_VECTOR_MIN_N = 288
# Events per block in the per-event stages of `_vector_sweep`; it bounds
# their temporaries to a few MiB at any n.
_BLOCK = 1 << 14


def _combined_sweep(xy: np.ndarray):
    """The merged half-turn sweep: `_scalar_sweep`'s 5-tuple, computed by
    `_vector_sweep` when the ring has at least `_VECTOR_MIN_N` vertices and
    the loop's predicates confirm that path's proposed event order, and by
    the scalar loop otherwise."""
    if len(xy) >= _VECTOR_MIN_N:
        swept = _vector_sweep(xy)
        if swept is not None:
            return swept
    return _scalar_sweep(xy)


def _vector_sweep(xy: np.ndarray):
    """`_scalar_sweep`'s 5-tuple computed with numpy, or None when the
    loop's own predicates do not confirm the proposed event order.

    The sweep is three merges of runs already sorted by direction: the
    diagonal events merge the edges 0..c0-1 with the reversed edges
    c0..n-1 (ties to a), the support events merge the edges from b0 with
    the reversed edges from d0 (ties to b), and the top level merges the
    chord directions u_ac with the support directions u_bd (ties to the
    support events).  Pseudo-angle keys and `searchsorted` only propose
    these orders.  Every branch predicate that the loop would evaluate on
    the proposed states is then evaluated with the loop's own float
    expressions; when each one agrees, the loop takes the same steps (by
    induction on the steps), and the candidates, evaluated with its
    expressions and picked by its first-strict-extremum rule, are its
    candidates.
    """
    # Python floats overflow to inf and turn inf - inf into NaN silently;
    # the array expressions must do the same.  No division by zero is made.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _SweepSteps.propose(xy)
        if steps is None:
            return None
        best_quad = _diagonal_events(steps)
        if best_quad is None:
            return None
        best_para = _support_events(steps)
        if best_para is None:
            return None
    maxarea, max_state = best_quad
    minarea, min_state, flat_skips = best_para
    # The loop's count: its three searches and first support choice, then 3
    # per diagonal event, 5 per support event and 1 more per flat one.
    ndet = steps.b0 + steps.d0 + 3 + 3 * steps.n + 5 * steps.bd_events + flat_skips
    return maxarea, max_state, minarea, min_state, ndet


def _blocks(stop: int):
    """Consecutive index ranges of at most _BLOCK events covering [0, stop)."""
    for lo in range(0, stop, _BLOCK):
        yield np.arange(lo, min(lo + _BLOCK, stop))


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


def _is_sorted(keys: np.ndarray) -> bool:
    return bool((keys[1:] >= keys[:-1]).all())


def _rising_prefix(keys: np.ndarray) -> np.ndarray:
    """The keys up to their first descent (or NaN)."""
    drop = np.flatnonzero(~(keys[1:] >= keys[:-1]))
    return keys[: drop[0] + 1] if drop.size else keys


def _merge_mask(first: np.ndarray, second: np.ndarray) -> Optional[np.ndarray]:
    """For the merge of two non-decreasing key runs with ties going to
    `first`, the mask of merged positions taken from `first`; None when a
    run is not sorted."""
    if not (_is_sorted(first) and _is_sorted(second)):
        return None
    mask = np.zeros(len(first) + len(second), dtype=bool)
    mask[np.arange(len(first)) + np.searchsorted(second, first, side="left")] = True
    return mask


def _first_false(flags: np.ndarray) -> Optional[int]:
    i = int(np.argmin(flags))
    return None if flags[i] else i


class _SweepSteps:
    """The loop's states along a proposed event order.

    Diagonal event k + 1 advances a when is_a[k], else c; after k diagonal
    events a has advanced ca[k] times.  Support event j + 1 advances b when
    is_b[j], else d; after j support events b has advanced cb[j] times.
    ac_keys[k] and bd_keys[j] are the keys of the directions u_ac and u_bd
    of those events, and the top level puts bd_events support events before
    the last diagonal event.
    """

    def __init__(self, x, y, ex, ey, c0, b0, d0, is_a, is_b, bd_keys, k0):
        self.x, self.y, self.ex, self.ey = x, y, ex, ey
        self.n = len(ex)
        self.c0, self.b0, self.d0 = c0, b0, d0
        self.is_a, self.is_b, self.bd_keys = is_a, is_b, bd_keys
        self.ca = np.concatenate(([0], np.cumsum(is_a)))
        self.cb = np.concatenate(([0], np.cumsum(is_b)))
        self.ac_keys = np.empty(self.n)
        for k in _blocks(self.n):
            *_, ux, uy = self.diagonal(k)
            self.ac_keys[k] = _direction_keys(ux, uy, k0)
        self.bd_events = int(np.searchsorted(bd_keys, self.ac_keys[-1], side="right"))

    @classmethod
    def propose(cls, xy: np.ndarray) -> Optional["_SweepSteps"]:
        """The loop's three initial searches, then the proposed orders; None
        when a search would not settle within one period, when a run is not
        sorted by key, or when the support state after the last event lies
        beyond the proposed support runs."""
        n = len(xy)
        x = np.concatenate((xy[:, 0], xy[:1, 0]))  # x[n] is x[0]
        y = np.concatenate((xy[:, 1], xy[:1, 1]))
        ex = x[1:] - x[:-1]
        ey = y[1:] - y[:-1]

        e0x, e0y = float(ex[0]), float(ey[0])
        i = _first_false(e0x * ey[1:] - e0y * ex[1:] > 0.0)
        if i is None:
            return None
        c0 = i + 1
        rx = float(x[0] - x[c0])
        ry = float(y[0] - y[c0])
        b0 = _first_false(rx * ey - ry * ex > 0.0)
        if b0 is None:
            return None
        past_d = -rx * ey + ry * ex > 0.0
        i = _first_false(past_d[c0:])
        if i is None:
            i = _first_false(past_d[:c0])
            if i is None:
                return None
            i += n - c0
        d0 = c0 + i

        k0 = float(_direction_keys(ex[:1], ey[:1], 0.0)[0])
        keys = _direction_keys(ex, ey, k0)
        # Keys of reversed edges come from the negated vectors themselves,
        # so that exactly parallel vectors tie.
        rev_keys = _direction_keys(-ex, -ey, k0)
        # keys[0] is 0.0, the least key, and ties go to a: the first proposed
        # diagonal event advances a, as the loop's always does.
        is_a = _merge_mask(keys[:c0], rev_keys[c0:])
        if is_a is None:
            return None
        # From b0 and d0 the runs would wrap past a full turn.
        b_run = _rising_prefix(keys[b0:])
        d_run = _rising_prefix(np.concatenate((rev_keys[d0 % n :], rev_keys[: d0 % n])))
        is_b = _merge_mask(b_run, d_run)
        bd_keys = np.empty(len(is_b))
        bd_keys[is_b] = b_run
        bd_keys[~is_b] = d_run
        del keys, rev_keys, b_run, d_run  # freed before the per-event arrays exist

        steps = cls(x, y, ex, ey, c0, b0, d0, is_a, is_b, bd_keys, k0)
        if not _is_sorted(steps.ac_keys) or steps.bd_events >= len(bd_keys):
            return None
        return steps

    def diagonal(self, k: np.ndarray):
        """Raw a and c after k diagonal events, whether the next one advances
        a, and the loop's u_ac in that state."""
        a = self.ca[k]
        fa = self.is_a[k]
        c = self.c0 + k - a
        hi = np.where(fa, c, c + 1)
        lo = np.where(fa, a + 1, a)
        return a, c, fa, self.x[hi] - self.x[lo], self.y[hi] - self.y[lo]

    def support(self, j: np.ndarray):
        """b and d (mod n) after j support events, whether the next one
        advances b, and the loop's u_bd in that state."""
        cb = self.cb[j]
        fb = self.is_b[j]
        b = (self.b0 + cb) % self.n
        d = (self.d0 + j - cb) % self.n
        hi = np.where(fb, b + 1, d)
        lo = np.where(fb, b, d + 1)
        return b, d, fb, self.x[hi] - self.x[lo], self.y[hi] - self.y[lo]

    def diagonal_agrees(self, a, c, fa) -> np.ndarray:
        """Where the loop's choice between a and c equals the proposed one."""
        ex, ey, c = self.ex, self.ey, c % self.n
        return (ex[a] * ey[c] - ey[a] * ex[c] <= 0.0) == fa

    def support_agrees(self, b, d, fb) -> np.ndarray:
        """Where the loop's choice between b and d equals the proposed one."""
        ex, ey = self.ex, self.ey
        return (ex[b] * ey[d] - ey[b] * ex[d] <= 0.0) == fb

    def slid_corner(self, a: int, c: int, ac_a: bool, ubx: float, uby: float):
        """The loop's sliding corner of a flush candidate, in its scalar
        expressions: where the chord parallel to (ubx, uby) through the fixed
        endpoint meets the sliding edge."""
        f, s = (a, c) if ac_a else (c, a)
        x, y = self.x, self.y
        fx, fy, sx, sy = float(x[f]), float(y[f]), float(x[s]), float(y[s])
        ex = float(x[f + 1]) - fx
        ey = float(y[f + 1]) - fy
        den = ex * uby - ey * ubx
        if den == 0.0:
            return (fx, fy)
        t = ((sx - fx) * uby - (sy - fy) * ubx) / den
        return (fx + t * ex, fy + t * ey)


def _diagonal_events(steps: _SweepSteps):
    """Confirm the top-level and diagonal predicates at every diagonal
    event, and find the first largest quadrilateral among the states after
    them: (maxarea, max_state), or None."""
    x, y, n = steps.x, steps.y, steps.n
    maxarea, max_state = 0.0, None
    for k in _blocks(n):
        a, c, fa, uax, uay = steps.diagonal(k)
        j = np.searchsorted(steps.bd_keys, steps.ac_keys[k], side="right")
        b, d, _, ubx, uby = steps.support(j)
        if (ubx * uay - uby * uax >= 0.0).any():
            return None
        # State 0's choice is the loop's initial one, made without a predicate.
        if not steps.diagonal_agrees(a, c, fa)[k > 0].all():
            return None
        a = a + fa  # the state after the event
        c = c + ~fa
        ar = (x[c] - x[a]) * (y[d] - y[b]) - (y[c] - y[a]) * (x[d] - x[b])
        ar = np.abs(ar, out=ar) * 0.5
        ar[np.isnan(ar)] = -1.0  # NaN wins none of the loop's comparisons
        i = int(np.argmax(ar))
        if ar[i] > maxarea:
            maxarea = float(ar[i])
            max_state = (int(a[i]) % n, int(b[i]), int(c[i]) % n, int(d[i]))
    return None if max_state is None else (maxarea, max_state)


def _support_events(steps: _SweepSteps):
    """Confirm the top-level and support predicates at every support event
    and the support choice after the last one, and find the first smallest
    flush parallelogram: (minarea, min_state, the number of events whose
    flush side is parallel to the sliding edge), or None."""
    x, y, n = steps.x, steps.y, steps.n
    last = np.array([steps.bd_events])
    if not steps.support_agrees(*steps.support(last)[:3]).all():
        return None
    minarea, min_state, flat_skips = math.inf, None, 0
    for j in _blocks(steps.bd_events):
        b, d, fb, ubx, uby = steps.support(j)
        if not steps.support_agrees(b, d, fb).all():
            return None
        k = np.searchsorted(steps.ac_keys, steps.bd_keys[j], side="left")
        a, c, fa, uax, uay = steps.diagonal(k)
        if not (ubx * uay - uby * uax >= 0.0).all():
            return None
        f = np.where(fa, a, c)
        s = np.where(fa, c, a)
        fx, fy, sx, sy = x[f], y[f], x[s], y[s]
        ex = x[f + 1] - fx
        ey = y[f + 1] - fy
        den = ex * uby - ey * ubx
        num = (ex * (sy - fy) - ey * (sx - fx)) * (ubx * (y[d] - y[b]) - uby * (x[d] - x[b]))
        live = den != 0.0
        cand = np.full(len(j), math.inf)
        np.divide(num, den, out=cand, where=live)
        np.abs(cand, out=cand)
        flat = ~live
        flat_skips += int(np.count_nonzero(flat))
        # A chord along the sliding edge itself: the corner is its base vertex.
        flat &= ubx * (sy - fy) - uby * (sx - fx) == 0.0
        if flat.any():
            whole = (x[c] - x[a]) * (y[d] - y[b]) - (y[c] - y[a]) * (x[d] - x[b])
            cand[flat] = np.abs(whole[flat])
        cand[np.isnan(cand)] = math.inf  # as for the areas
        i = int(np.argmin(cand))
        if cand[i] < minarea:
            minarea = float(cand[i])
            ai, ci, ac_a = int(a[i]), int(c[i]), bool(fa[i])
            u = float(ubx[i]), float(uby[i])
            slid = steps.slid_corner(ai, ci, ac_a, *u)
            min_state = (ac_a, ai % n, int(b[i]), ci % n, int(d[i]), *u, slid)
    return None if min_state is None else (minarea, min_state, flat_skips)
