"""Command-line interface: compute extremes, verify them against the brute
oracles, generate polygon corpora, benchmark the sweep, and draw SVG figures.

Reports go to standard output as JSON with sorted keys; floats use Python's
shortest round-trip repr, so output is byte-identical across runs.  Wall
times are diagnostics and go to standard error only.

Exit codes: 0 success; 1 verification failure, a failing certificate of a
printed or drawn figure, or benchmark assertion failure; 2 parse/validation
error; 3 internal sweep overrun.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .extremal import (
    ExtremesReport,
    ParaResult,
    QuadResult,
    anchored_conjugate_pair,
    combined_extremes,
    largest_quadrilateral,
    smallest_parallelogram,
    verify_conjugate_pair,
)
from .geometry import (
    ConvexPolygon,
    DegenerateSample,
    Direction,
    GeometryError,
    SweepOverrun,
    _canonical_polygon,
    canonicalize,  # noqa: F401 (perfbench/spans.py wraps cli.canonicalize)
    polygon_area,
)
from .oracle import brute_largest_quad, brute_smallest_para
from .polygen import _KINDS, GenSpec, generate, lattice_ngon

QUAD_ORACLE_MAX_N = 40
PARA_ORACLE_MAX_N = 200
ORACLE_REL_TOL = 1e-12


class InputError(ValueError):
    """A polygon file that cannot be parsed or validated."""


# Line breaks of str.splitlines that np.loadtxt does not end a line at: it
# reads \x0b, \x0c and \x1c-\x1e as whitespace, and a lone "\r" after a "#"
# puts the rest of the text into the comment.  "\r\n" would be safe, but
# `load_polygon` reads with universal newlines, so a "\r" never reaches the
# parser from a file.  Text holding any of them is left to the per-line loop.
_LOOSE_LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def _parse_text_vertices(text: str) -> np.ndarray:
    """The (n, 2) float64 array of the 'x y' lines of `text`.

    Well-formed text is read by one bulk `np.loadtxt` pass.  When the bulk
    pass could read the text differently from the per-line loop, or finds
    anything wrong with it, the loop reads it instead, and it alone reports
    errors: either way the result is the loop's.
    """
    if text.isascii() and not any(c in text for c in _LOOSE_LINE_BREAKS):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty text only warns
                xy = np.loadtxt(io.StringIO(text), dtype=np.float64, comments="#", ndmin=2)
        except (ValueError, Warning):  # the loop names the line at fault
            pass
        else:
            if xy.shape[1] == 2 and np.isfinite(xy).all():
                return xy
    return _parse_text_lines(text)


def _parse_text_lines(text: str) -> np.ndarray:
    """The per-line reader behind `_parse_text_vertices`: the reference for
    what the text format accepts, and the only code that reports parse
    errors, each naming its line."""
    verts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'x y', got {raw.strip()!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: not a number: {raw.strip()!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"line {lineno}: coordinates must be finite")
        verts.append((x, y))
    return np.array(verts, dtype=np.float64).reshape(-1, 2)


def _json_float(value) -> float:
    """float(value) for a JSON number or numeric string; JSON true and false
    are refused, which float() would read as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _parse_json_vertices(text: str) -> list[tuple[float, float]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError("JSON document must be an object with a 'vertices' array")
    if not isinstance(doc["vertices"], list):
        raise InputError("'vertices' must be an array of [x, y] pairs")
    verts = []
    for i, pair in enumerate(doc["vertices"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"vertices[{i}]: expected a coordinate pair")
        try:
            x, y = _json_float(pair[0]), _json_float(pair[1])
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"vertices[{i}]: expected a coordinate pair") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"vertices[{i}]: coordinates must be finite")
        verts.append((x, y))
    return verts


def load_polygon(path: str) -> ConvexPolygon:
    """Read a polygon file (text 'x y' lines, or JSON for .json paths),
    fix orientation, drop duplicate/collinear vertices, and validate."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    try:
        if path.endswith(".json"):
            verts = _parse_json_vertices(text)
        else:
            verts = _parse_text_vertices(text)
        return _canonical_polygon(verts)
    except (InputError, GeometryError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _points(points) -> list[list[float]]:
    return [[p.x, p.y] for p in points]


def _quad_dict(q: QuadResult) -> dict:
    return {
        "area": q.area,
        "corners": _points(q.corners),
        "vertex_indices": list(q.vertex_indices),
    }


def _para_dict(g: ParaResult) -> dict:
    return {
        "area": g.area,
        "corners": _points(g.corners),
        "side_dir_ac": [g.side_dir_ac.dx, g.side_dir_ac.dy],
        "side_dir_bd": [g.side_dir_bd.dx, g.side_dir_bd.dy],
        "touch_indices": list(g.touch_indices),
    }


def _checks_dict(cert) -> dict:
    """Every field of `CertificateChecks`, and `all_ok`."""
    c = cert.checks
    return {f.name: getattr(c, f.name) for f in fields(c)} | {"all_ok": c.all_ok}


def _report_dict(source: str, P: ConvexPolygon, rep: ExtremesReport) -> dict:
    return {
        "input": source,
        "n": P.n,
        "polygon_area": polygon_area(P),
        "max_quad": _quad_dict(rep.max_quad),
        "min_para": _para_dict(rep.min_para),
        "certificates": {
            "quad": _checks_dict(rep.quad_certificate),
            "para": _checks_dict(rep.para_certificate),
        },
        "predicate_count": rep.predicate_count,
    }


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _certified(*certs) -> int:
    """0 when every certificate of a printed figure holds, else 1."""
    if all(cert.checks.all_ok for cert in certs):
        return 0
    print("error: a certificate of the printed result failed", file=sys.stderr)
    return 1


def _run_extremes(args, keys: tuple[str, ...]) -> int:
    P = load_polygon(args.input)
    t0 = time.perf_counter()
    rep = combined_extremes(P)
    elapsed = (time.perf_counter() - t0) * 1000.0
    doc = _report_dict(args.input, P, rep)
    doc = {k: v for k, v in doc.items() if k in keys}
    _emit(doc)
    print(f"time_ms={elapsed:.3f}", file=sys.stderr)
    certs = {"max_quad": rep.quad_certificate, "min_para": rep.para_certificate}
    return _certified(*(cert for k, cert in certs.items() if k in keys))


def cmd_quad(args) -> int:
    return _run_extremes(args, ("input", "n", "max_quad", "predicate_count"))


def cmd_para(args) -> int:
    return _run_extremes(args, ("input", "n", "min_para", "predicate_count"))


def cmd_both(args) -> int:
    return _run_extremes(
        args,
        ("input", "n", "polygon_area", "max_quad", "min_para", "certificates", "predicate_count"),
    )


def cmd_anchored(args) -> int:
    P = load_polygon(args.input)
    u = Direction(args.dir[0], args.dir[1]).canonical()
    quad, para = anchored_conjugate_pair(P, u)
    cert = verify_conjugate_pair(quad, para, u, P)
    _emit(
        {
            "input": args.input,
            "anchor": [u.dx, u.dy],
            "quad": _quad_dict(quad),
            "para": _para_dict(para),
            "area_ratio": para.area / quad.area if quad.area else math.inf,
            "certificate": _checks_dict(cert),
        }
    )
    return _certified(cert)


def cmd_verify(args) -> int:
    P = load_polygon(args.input)
    rep = combined_extremes(P)
    rows: list[tuple[str, str, str]] = []

    def check(name: str, ok: bool, note: str = "") -> None:
        rows.append((name, "ok" if ok else "FAIL", note))

    def rel_eq(x: float, y: float) -> bool:
        return abs(x - y) <= ORACLE_REL_TOL * max(abs(x), abs(y), 1e-300)

    check("quad-certificate", rep.quad_certificate.checks.all_ok)
    check("para-certificate", rep.para_certificate.checks.all_ok)

    lq = largest_quadrilateral(P)
    check("quad-vs-vertex-walk", rel_eq(rep.max_quad.area, lq.area), f"{lq.area!r}")
    sp = smallest_parallelogram(P)
    check("para-vs-edge-scan", rel_eq(rep.min_para.area, sp.area), f"{sp.area!r}")

    if P.n <= QUAD_ORACLE_MAX_N:
        oq = brute_largest_quad(P)
        check("quad-oracle", rel_eq(rep.max_quad.area, oq.area), f"{oq.area!r}")
    else:
        rows.append(("quad-oracle", "skip", f"n={P.n} over budget {QUAD_ORACLE_MAX_N}"))
    if P.n <= PARA_ORACLE_MAX_N:
        op = brute_smallest_para(P)
        check("para-oracle", rel_eq(rep.min_para.area, op.area), f"{op.area!r}")
    else:
        rows.append(("para-oracle", "skip", f"n={P.n} over budget {PARA_ORACLE_MAX_N}"))

    check(
        "duality-half-para",
        rep.min_para.area / 2.0 <= rep.max_quad.area * (1.0 + ORACLE_REL_TOL),
        f"{rep.min_para.area / 2.0!r} <= {rep.max_quad.area!r}",
    )

    if args.expect:
        try:
            expected = json.loads(Path(args.expect).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"{args.expect}: {exc}") from None
        if not isinstance(expected, dict):
            raise InputError(f"{args.expect}: expected a JSON object")
        for key, name, got in (
            ("max_quad", "expect-max-quad", rep.max_quad.area),
            ("min_para", "expect-min-para", rep.min_para.area),
        ):
            if key not in expected:
                continue
            entry = expected[key]
            try:
                want = _json_float(entry["area"])
            except (TypeError, KeyError, ValueError, OverflowError):
                raise InputError(f"{args.expect}: '{key}' must be an object with a numeric 'area'") from None
            check(name, rel_eq(got, want), f"expected {entry['area']!r}, got {got!r}")

    width_name = max(len(r[0]) for r in rows)
    for name, status, note in rows:
        line = f"{status:<4} {name:<{width_name}}"
        if note:
            line += f"  {note}"
        sys.stdout.write(line.rstrip() + "\n")
    failed = any(status == "FAIL" for _, status, _ in rows)
    sys.stdout.write(("FAIL" if failed else "ok") + f" {args.input}\n")
    return 1 if failed else 0


def cmd_gen(args) -> int:
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        coord_range=args.coord_range,
        rotation=args.rotation,
    )
    try:
        P = generate(spec)
    except (ValueError, DegenerateSample) as exc:
        raise InputError(str(exc)) from None
    sys.stdout.write(
        f"# quadpara gen kind={spec.kind} n={spec.n} seed={spec.seed}"
        f" coord-range={spec.coord_range} rotation={spec.rotation}\n"
    )
    for x, y in P.coords().tolist():
        sys.stdout.write(f"{x!r} {y!r}\n")
    return 0


def cmd_bench(args) -> int:
    failed = False
    sys.stdout.write("n predicates predicates_per_n\n")
    for i, n in enumerate(args.sizes):
        if n < 3:
            raise InputError(f"size {n}: need n >= 3")
        P = lattice_ngon(n, args.seed)
        t0 = time.perf_counter()
        rep = combined_extremes(P)
        elapsed = (time.perf_counter() - t0) * 1000.0
        per_n = rep.predicate_count / n
        sys.stdout.write(f"{n} {rep.predicate_count} {per_n!r}\n")
        print(f"n={n} time_ms={elapsed:.3f}", file=sys.stderr)
        if args.assert_linear and per_n > args.budget:
            print(f"n={n}: {per_n:.2f} predicates/vertex exceeds budget {args.budget}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _svg_polygon(points, style: str) -> str:
    coords = " ".join(f"{x!r},{-y!r}" for x, y in points)
    return f'  <polygon points="{coords}" {style}/>\n'


def _svg_arrow(base, direction: Direction, length: float, stroke: float) -> str:
    norm = math.hypot(direction.dx, direction.dy)
    ux, uy = direction.dx / norm, direction.dy / norm
    x0, y0 = base
    x1, y1 = x0 + length * ux, y0 + length * uy
    hx, hy = -0.18 * length * ux, -0.18 * length * uy
    px, py = -uy, ux
    h1 = (x1 + hx + 0.12 * length * px, y1 + hy + 0.12 * length * py)
    h2 = (x1 + hx - 0.12 * length * px, y1 + hy - 0.12 * length * py)
    d = (
        f"M {x0!r} {-y0!r} L {x1!r} {-y1!r} "
        f"M {h1[0]!r} {-h1[1]!r} L {x1!r} {-y1!r} L {h2[0]!r} {-h2[1]!r}"
    )
    return (
        f'  <path d="{d}" fill="none" stroke="#444444" stroke-width="{stroke!r}"/>\n'
    )


def render_svg(P: ConvexPolygon, rep: ExtremesReport) -> str:
    """A deterministic SVG 1.1 figure: the polygon filled, the largest
    quadrilateral outlined, the smallest parallelogram dashed, and the two
    anchor directions drawn as arrows."""
    gx = [p.x for p in rep.min_para.corners]
    gy = [p.y for p in rep.min_para.corners]
    x0, x1 = min(gx), max(gx)
    y0, y1 = min(gy), max(gy)
    margin = 0.05 * max(x1 - x0, y1 - y0)
    vx, vy = x0 - margin, -(y1 + margin)
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    stroke = 0.004 * max(vw, vh)
    dash = 2.5 * stroke

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" '
        f'viewBox="{vx!r} {vy!r} {vw!r} {vh!r}">\n'
    )
    out.append(
        _svg_polygon(
            P.coords().tolist(),
            f'fill="#d7e8f4" stroke="#35607c" stroke-width="{stroke!r}"',
        )
    )
    out.append(
        _svg_polygon(
            rep.max_quad.corners,
            f'fill="none" stroke="#b03a2e" stroke-width="{stroke!r}"',
        )
    )
    out.append(
        _svg_polygon(
            rep.min_para.corners,
            f'fill="none" stroke="#1e1e1e" stroke-width="{stroke!r}" '
            f'stroke-dasharray="{dash!r} {dash!r}"',
        )
    )
    qa, qc = rep.max_quad.corners[0], rep.max_quad.corners[2]
    mid = ((qa.x + qc.x) / 2.0, (qa.y + qc.y) / 2.0)
    alen = 0.18 * max(vw, vh)
    out.append(_svg_arrow(mid, rep.quad_certificate.anchor, alen, stroke))
    gmid = (sum(gx) / 4.0, sum(gy) / 4.0)
    out.append(_svg_arrow(gmid, rep.para_certificate.anchor, alen, stroke))
    out.append("</svg>\n")
    return "".join(out)


def cmd_svg(args) -> int:
    P = load_polygon(args.input)
    rep = combined_extremes(P)
    svg = render_svg(P, rep)
    if args.out:
        try:
            Path(args.out).write_text(svg, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"{args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(svg)
    return _certified(rep.quad_certificate, rep.para_certificate)


def _nonnegative_float(text: str) -> float:
    """argparse type for `--budget`: a finite number >= 0.  A NaN or
    infinite budget would pass every predicate count."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


@functools.cache  # built once per process: each parse starts from a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadpara",
        description=(
            "Largest contained quadrilateral and smallest enclosing "
            "parallelogram of a convex polygon."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="polygon file ('x y' lines, or JSON for .json)")

    p = sub.add_parser("quad", help="largest contained quadrilateral")
    add_input(p)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("para", help="smallest enclosing parallelogram")
    add_input(p)
    p.set_defaults(func=cmd_para)

    p = sub.add_parser("both", help="both extremes with certificates")
    add_input(p)
    p.set_defaults(func=cmd_both)

    p = sub.add_parser("anchored", help="conjugate pair anchored to a direction")
    add_input(p)
    p.add_argument("--dir", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p.set_defaults(func=cmd_anchored)

    p = sub.add_parser("verify", help="recompute and cross-check everything")
    add_input(p)
    p.add_argument("--expect", help="JSON report with expected max_quad/min_para areas")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a polygon file on stdout")
    p.add_argument("--kind", default="random-hull", choices=_KINDS)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coord-range", type=int, default=1000, dest="coord_range")
    p.add_argument("--rotation", type=int, default=0, help="regular only: phase in 1/(2n) turns")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="predicate-count benchmark over generated polygons")
    p.add_argument("sizes", nargs="+", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert-linear", action="store_true", dest="assert_linear")
    p.add_argument("--budget", type=_nonnegative_float, default=64.0, help="max predicates per vertex (default 64)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("svg", help="draw polygon, quadrilateral, and parallelogram")
    add_input(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_svg)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepOverrun as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
