"""quadpara benchmark: one workload, one seed, a closed loop of one client.

    python3 perfbench/run.py --workload both-large --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src.  The
run makes its inputs from the seed (set-up, repeated and timed), runs one
untimed warm-up operation, then runs whole passes over the inputs, one
operation at a time, until --seconds have passed.  Every output is checked
after the timed loop.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and it carries the per-layer metrics.  Times are normalised to
the host's uncontended CPU speed by the probe in hostspeed.py.  The run
exits 1 if any operation failed or a check did not hold, and 2 if it could
not start.  Results and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REF_NS, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
# The timed loop's records are allocated, and their pages touched, before it
# starts, so that the benchmark's own memory does not grow with the number of
# operations (a faster program runs more of them) and peak_rss_mib measures
# the program.  A run ends early, at a pass boundary, if they fill up.
MAX_OPS = 1 << 17
MIN_TRACED_PASSES = 2

# (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# Per-layer metrics, reported with --trace 1: (name, unit, kind, source).
# "ms" is inclusive span time and "self_ms" span time minus child spans,
# both per operation; "calls" is the span's call count per operation.
PER_LAYER = (
    ("cli.load_polygon.self_ms", "ms/op", "self_ms", "cli.load_polygon"),
    ("cli.main.self_ms", "ms/op", "self_ms", "cli.main"),
    ("cli.input_bytes", "bytes/op", "count", "cli.input_bytes"),
    ("geometry.canonicalize.ms", "ms/op", "ms", "geometry.canonicalize"),
    ("geometry.ConvexPolygon.ms", "ms/op", "ms", "geometry.ConvexPolygon"),
    ("geometry.contains_point.calls", "calls/op", "count", "geometry.contains_point"),
    ("geometry.contains_point.ms", "ms/op", "ms", "geometry.contains_point"),
    ("geometry.chord_through.calls", "calls/op", "count", "geometry.chord_through"),
    ("geometry.chord_through.ms", "ms/op", "ms", "geometry.chord_through"),
    ("extremal.combined_extremes.self_ms", "ms/op", "self_ms", "extremal.combined_extremes"),
    ("extremal.verify_conjugate_pair.calls", "calls/op", "count", "extremal.verify_conjugate_pair"),
    ("extremal.verify_conjugate_pair.ms", "ms/op", "ms", "extremal.verify_conjugate_pair"),
    ("extremal.anchored_conjugate_pair.self_ms", "ms/op", "self_ms", "extremal.anchored_conjugate_pair"),
    ("extremal.largest_quadrilateral.ms", "ms/op", "ms", "extremal.largest_quadrilateral"),
    ("extremal.smallest_parallelogram.ms", "ms/op", "ms", "extremal.smallest_parallelogram"),
    ("oracle.brute_largest_quad.ms", "ms/op", "ms", "oracle.brute_largest_quad"),
    ("oracle.brute_smallest_para.ms", "ms/op", "ms", "oracle.brute_smallest_para"),
    ("extremal.predicates_per_vertex", "1/vertex", "ratio", ("extremal.predicates", "extremal.vertices")),
    ("extremal.certs_ok_ratio", "ratio", "ratio", ("extremal.certs_ok", "extremal.certs_checked")),
    ("trace.ops_per_s_ratio", "ratio", "overhead", None),
)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quadpara").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args, import_s: float, numpy_import_s: float, import_times: list, probe: Probe) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        # OpenBLAS starts its worker threads when numpy is imported; nothing
        # else in the process starts threads, so this is the pool size.
        "blas_threads_observed": process_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
        "import_s": import_s,
        "numpy_import_s": numpy_import_s,
        "import_rep_s": import_times,
        "probe_ref_ns": REF_NS,
        "probe_samples_kept": probe.n_kept,
        "probe_p5_ns": percentile(sorted(probe.kept[:probe.n_kept]), 5),
        "probe_p50_ns": statistics.median(probe.kept[:probe.n_kept]),
    }


@dataclass
class Loop:
    """What the timed loop keeps: every operation's normalised and raw
    duration, whether it was traced, the first output digest of each item,
    the operations that raised or whose output differed from that first
    digest, and the process's peak memory when the loop ended."""

    durations: array = field(default_factory=lambda: array("q", bytes(8 * MAX_OPS)))
    raw: array = field(default_factory=lambda: array("q", bytes(8 * MAX_OPS)))
    traced: array = field(default_factory=lambda: array("b", bytes(MAX_OPS)))
    first: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # op id -> message
    pass_counts: list = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0
    peak_rss_mib: float = 0.0


def run_passes(wl, seconds: float, tracer, probe: Probe) -> Loop:
    """Whole passes over wl.items until `seconds` have passed (and, when
    tracing, until enough traced passes exist).  Odd passes are traced when
    a tracer is given."""
    loop = Loop()
    op_id = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and loop.passes % 2 == 1
        with tracer.installed() if traced else nullcontext():
            for index, item in enumerate(wl.items):
                span = tracer.op(op_id) if traced else nullcontext()

                def op():
                    with span:
                        return wl.op(item)

                result, exc, raw_ns, norm_ns = probe.time(op)
                error = None if exc is None else f"{type(exc).__name__}: {exc}"
                if error is None:
                    try:
                        digest = wl.digest(result)
                        if digest != loop.first.setdefault(index, digest):
                            error = "output differs from the first run of this input"
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    del result
                if error is not None:
                    loop.errors[op_id] = error
                loop.durations[op_id] = round(norm_ns)
                loop.raw[op_id] = raw_ns
                loop.traced[op_id] = traced
                op_id += 1
        if traced:
            loop.pass_counts.append(tracer.take_counts())
        loop.passes += 1
        if op_id + len(wl.items) > MAX_OPS or (
            time.perf_counter() - start >= seconds
            and (tracer is None or len(loop.pass_counts) >= MIN_TRACED_PASSES)
        ):
            break
    loop.wall_s = time.perf_counter() - start
    loop.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for records in (loop.durations, loop.raw, loop.traced):
        del records[op_id:]
    return loop


def check_outputs(wl, loop: Loop) -> list[str]:
    """Check the first output of each item.  Returns one message per failed
    operation: one that raised, whose output differed from its item's first
    output, or whose item's first output failed the check."""
    failures = dict(loop.errors)
    for index, digest in loop.first.items():
        try:
            problems = wl.check(index, digest)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            for k in range(loop.passes):
                failures.setdefault(index + k * len(wl.items), "; ".join(problems))
    return [f"op {op_id} (item {op_id % len(wl.items)}): {msg}" for op_id, msg in sorted(failures.items())]


def end_to_end_metrics(wl, loop: Loop, setup_s: float) -> tuple[dict, dict]:
    durations = sorted(d / 1e6 for d in loop.durations)
    raw = sorted(d / 1e6 for d in loop.raw)
    tail = percentile(durations, wl.tail_pct)
    values = {
        "ops_per_s": 1e3 * len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations),
        "op_tail_ms": tail,
        "peak_rss_mib": loop.peak_rss_mib,
        "setup_s": setup_s,
    }
    details = {
        "op_tail_percentile": wl.tail_pct,
        "op_tail_samples": len(durations),
        "op_tail_samples_beyond": sum(1 for d in durations if d > tail),
        "wall_s": loop.wall_s,
        "raw_ops_per_s": 1e3 * len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_tail_ms": percentile(raw, wl.tail_pct),
    }
    return values, details


def layer_metrics(tracer, loop: Loop) -> tuple[dict, dict]:
    counts = loop.pass_counts[0]
    traced = [d for d, t in zip(loop.durations, loop.traced) if t]
    untraced = [d for d, t in zip(loop.durations, loop.traced) if not t]
    total, self_ns = tracer.totals()
    values = {}
    rates = {
        "traced_ops_per_s": len(traced) / (sum(traced) / 1e9),
        "untraced_ops_per_s": len(untraced) / (sum(untraced) / 1e9),
    }
    for name, _, kind, source in PER_LAYER:
        if kind == "ms":
            v = total[source] / len(traced) / 1e6
        elif kind == "self_ms":
            v = self_ns[source] / len(traced) / 1e6
        elif kind == "count":
            v = counts[source] / counts["ops"]
        elif kind == "ratio":
            num, den = source
            v = counts[num] / counts[den] if counts[den] else 0.0
        else:
            v = rates["traced_ops_per_s"] / rates["untraced_ops_per_s"]
        values[name] = v
    return values, rates


def check_counts(pass_counts, path: Path) -> list[str]:
    """The exact counters must repeat in every traced pass of this run and
    in earlier runs of the same source, workload and seed."""
    problems = []
    first = dict(pass_counts[0])
    for k, counts in enumerate(pass_counts[1:], start=2):
        if dict(counts) != first:
            problems.append(f"counters of traced pass {k} differ from pass 1")
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8"))
        if recorded != first:
            problems.append(f"counters differ from the earlier run recorded in {path.name}")
    else:
        path.write_text(json.dumps(first, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadpara" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with Probe() as probe:
        return run(args, probe)


def timed(probe: Probe, fn, *args) -> float:
    """fn(*args)'s normalised time in seconds; its exceptions propagate."""
    _, exc, _, ns = probe.time(fn, *args)
    if exc is not None:
        raise exc
    return ns / 1e9


def timed_imports(probe: Probe) -> tuple[float, list[float]]:
    """Import numpy, then the package SETUP_REPS times afresh.  Returns the
    normalised import times, numpy's and the package's, in seconds.

    numpy's import is timed once and kept out of setup_s: it reads and
    links numpy's files and is the least steady part of set-up (its time
    stepped by a third between two sets of runs), and no change to the
    package alters it.  Dependencies the package imports for the first time
    count in the first repetition only, which the median leaves out."""
    numpy_s = timed(probe, importlib.import_module, "numpy")
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "quadpara" or m.startswith("quadpara.")]:
            del sys.modules[name]
        times.append(timed(probe, importlib.import_module, "quadpara.cli"))
    return numpy_s, times


def run(args, probe: Probe) -> int:
    numpy_import_s, import_times = timed_imports(probe)
    import_s = statistics.median(import_times)

    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"inputs-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            workdir = scratch / f"rep{rep}"
            workdir.mkdir(parents=True)
            setup_times.append(timed(probe, wl.setup, args.seed, workdir))
        setup_s = import_s + statistics.median(setup_times)

        try:  # warm-up; its output is not counted
            wl.op(wl.items[0])
        except Exception:
            pass
        # The benchmark's own objects (inputs, references) move out of the
        # collector's view, so collections during the timed loop cost what
        # they would cost the program alone.
        gc.collect()
        gc.freeze()

        tracer = tracing.Tracer() if args.trace else None
        loop = run_passes(wl, args.seconds, tracer, probe)
        failures = check_outputs(wl, loop)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args, import_s, numpy_import_s, import_times, probe)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    self_check = []
    if args.trace:
        for counts in loop.pass_counts:
            counts["ops"] = len(wl.items)
        key = f"counts-{args.workload}-seed{args.seed}-{env['source_sha256'][:16]}.json"
        self_check = check_counts(loop.pass_counts, OUT / key)
        values, details = layer_metrics(tracer, loop)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        tracer.write(str(OUT / f"spans-{tag}.jsonl"))
    else:
        values, details = end_to_end_metrics(wl, loop, setup_s)
        units = dict(END_TO_END)
    details.update(
        attempted=len(loop.durations),
        failed=len(failures),
        failed_frac=len(failures) / len(loop.durations),
        setup_rep_s=setup_times,
    )

    correct = not failures and not self_check
    for line in failures[:20] + self_check:
        print(f"FAIL {line}")
    if len(failures) > 20:
        print(f"FAIL ... {len(failures) - 20} more failed operations")
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    if not args.trace:
        print(
            f"{args.workload} op_tail_ms is p{wl.tail_pct:g} of {details['op_tail_samples']} operations,"
            f" {details['op_tail_samples_beyond']} beyond it"
        )
        print(f"{args.workload} failed_frac = {details['failed_frac']!r} ratio")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": correct, "attempted": len(loop.durations), "failed": len(failures), "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "details": details, **result}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
