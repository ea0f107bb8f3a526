"""Span recorder for the traced run.

Spans are recorded by timing wrappers installed, for the duration of a
traced pass, on the public names that each calling module looks up.  The
package source is never edited.  Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name).  A name is wrapped where its caller looks
# it up: `quadpara.cli` for the CLI commands, `quadpara.extremal` for calls
# made inside the extremal module, and the package itself for the calls the
# benchmark makes.  The oracles' own chord_through calls stay unwrapped, so
# they count as oracle self time.
WRAP_POINTS = (
    ("quadpara.cli", "main", "cli.main"),
    ("quadpara.cli", "load_polygon", "cli.load_polygon"),
    ("quadpara.cli", "canonicalize", "geometry.canonicalize"),
    ("quadpara.cli", "ConvexPolygon", "geometry.ConvexPolygon"),
    ("quadpara.cli", "combined_extremes", "extremal.combined_extremes"),
    ("quadpara.cli", "largest_quadrilateral", "extremal.largest_quadrilateral"),
    ("quadpara.cli", "smallest_parallelogram", "extremal.smallest_parallelogram"),
    ("quadpara.cli", "brute_largest_quad", "oracle.brute_largest_quad"),
    ("quadpara.cli", "brute_smallest_para", "oracle.brute_smallest_para"),
    ("quadpara", "canonicalize", "geometry.canonicalize"),
    ("quadpara", "ConvexPolygon", "geometry.ConvexPolygon"),
    ("quadpara", "combined_extremes", "extremal.combined_extremes"),
    ("quadpara", "anchored_conjugate_pair", "extremal.anchored_conjugate_pair"),
    ("quadpara", "verify_conjugate_pair", "extremal.verify_conjugate_pair"),
    ("quadpara.extremal", "verify_conjugate_pair", "extremal.verify_conjugate_pair"),
    ("quadpara.extremal", "contains_point", "geometry.contains_point"),
    ("quadpara.extremal", "chord_through", "geometry.chord_through"),
)

OP_SPAN = "bench.op"


def _count_report(counts: Counter, args, result) -> None:
    counts["extremal.predicates"] += result.predicate_count
    counts["extremal.vertices"] += args[0].n


def _count_certificate(counts: Counter, args, result) -> None:
    counts["extremal.certs_checked"] += 1
    counts["extremal.certs_ok"] += int(result.checks.all_ok)


def _count_input(counts: Counter, args, result) -> None:
    counts["cli.input_bytes"] += os.path.getsize(args[0])


# Counters read from a span's arguments and result, after the span has ended.
HOOKS = {
    "extremal.combined_extremes": _count_report,
    "extremal.verify_conjugate_pair": _count_certificate,
    "cli.load_polygon": _count_input,
}


class Tracer:
    """Spans as (name, start_ns, end_ns, parent_id, op_id) tuples; a span's id
    is its index in `spans`.  `counts` holds the call count of every span
    name plus the hook counters, for the pass in progress."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self._op_id)
                counts[name] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers of WRAP_POINTS; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, span in WRAP_POINTS:
                mod = sys.modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(span, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark operation."""
        self._op_id = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (OP_SPAN, t0, t1, None, op_id)

    def take_counts(self) -> Counter:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts

    def totals(self) -> tuple[dict, dict]:
        """Per span name: total inclusive and total self time, in ns.  Self
        time is a span's duration minus that of its direct children."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total: Counter = Counter()
        self_time: Counter = Counter()
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child[sid]
        return total, self_time

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, t0, t1, parent, op_id) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
