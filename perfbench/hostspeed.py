"""Host-speed probe: times measured in units of the CPU's uncontended speed.

On a shared host the CPU this process runs on alternates, many times a
second, between its full speed and a mode about 40% slower (most likely
another tenant's work on the same physical core; see README, Steadiness).
Runs of identical work therefore differ by up to 40%, and a 2 s operation
always spans both modes.  The probe measures the speed at which the CPU is running
while the program runs: a fixed snippet of interpreter work is timed right
before and right after each timed interval and, from a SIGALRM every
`INTERVAL_S`, inside it.  An interval's normalised time is its wall time
(less the probe's own time) times the mean of `REF_NS / sample`, the CPU's
mean speed relative to the reference over the samples, so it reads as the
time the interval would have taken at the reference speed.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter_ns

INTERVAL_S = 0.005
# The first KEEP samples are kept for the run's record (their percentiles),
# in an array allocated up front, so that the probe's memory does not grow.
KEEP = 1 << 16
# About the snippet's time at full speed (its 5th percentile over a run) on
# the 2.1 GHz Xeon the benchmark was sized on; it only fixes the unit of
# normalised times.
REF_NS = 25_000.0


# Interpreter work of the kind the package does: unpacking point tuples
# and taking cross products.
_POINTS = [(float(i), float(i * i % 17)) for i in range(200)]


def _snippet() -> float:
    s = 0.0
    pts = _POINTS
    for i in range(len(pts) - 2):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[i + 1], pts[i + 2]
        s += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return s


class Probe:
    """Install with `with Probe() as probe:`; time with `probe.time(fn)`."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.kept = array("q", bytes(8 * KEEP))
        self.n_kept = 0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter_ns()
        _snippet()
        self.samples.append(perf_counter_ns() - t0)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _take(self) -> list[int]:
        taken, self.samples = self.samples, []
        k = min(KEEP - self.n_kept, len(taken))
        self.kept[self.n_kept:self.n_kept + k] = array("q", taken[:k])
        self.n_kept += k
        return taken

    def time(self, fn, *args):
        """Run fn(*args) and return (result, exception, raw_ns, normalised_ns).
        An exception fn raises is returned, not raised."""
        self.sample()
        before = self._take()[-1:]
        exc = result = None
        t0 = perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as e:  # an operation failure is a result
            exc = e
        t1 = perf_counter_ns()
        inside = self._take()
        self.sample()
        after = self._take()[-1:]
        raw = t1 - t0 - sum(inside)
        samples = before + inside + after
        speed = sum(REF_NS / d for d in samples) / len(samples)
        return result, exc, raw, raw * speed
