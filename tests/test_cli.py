import dataclasses
import hashlib
import json
import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import quadpara
from quadpara import CertificateChecks, DegenerateSample, SweepOverrun, cli, lattice_ngon
from quadpara.cli import InputError, main

SQUARE = "0 0\n1 0\n1 1\n0 1\n"
TRIANGLE = "# right triangle\n0 0\n1 0\n0 1\n"


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE)
    return str(p)


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_both_square(capsys, square_file):
    code, out, err = run(capsys, "both", "--input", square_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_quad"]["area"] == 1.0
    assert doc["min_para"]["area"] == 1.0
    assert doc["certificates"]["quad"]["all_ok"]
    assert doc["certificates"]["para"]["all_ok"]
    assert "time_ms=" in err


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate edit of this list.
    names = sorted(n for n, v in vars(quadpara).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == [
        "CertificateChecks", "ConjugateCertificate", "ConvexPolygon", "Degenerate", "DegenerateSample",
        "Direction", "ExtremesReport", "GenSpec", "GeometryError", "NonFinite", "NotConvex", "OraclePara",
        "OracleQuad", "ParaResult", "ParallelLines", "Point", "QuadResult", "Segment", "SplitMix64",
        "SweepOverrun", "TooFewVertices", "anchored_conjugate_pair", "brute_anchored_quad_area",
        "brute_largest_quad", "brute_smallest_para", "canonicalize", "chord_through", "combined_extremes",
        "contains_point", "extreme_vertex", "generate", "largest_quadrilateral", "lattice_ngon",
        "longest_chord", "parallel_edge_polygon", "polygon_area", "quad_area", "random_convex",
        "regular_ngon", "smallest_parallelogram", "verify_conjugate_pair", "width",
    ]


def test_certificate_json_keys_are_the_check_fields(capsys, square_file):
    keys = {f.name for f in dataclasses.fields(CertificateChecks)} | {"all_ok"}
    _, out, _ = run(capsys, "both", "--input", square_file)
    assert [set(c) for c in json.loads(out)["certificates"].values()] == [keys, keys]
    _, out, _ = run(capsys, "anchored", "--input", square_file, "--dir", "1", "0")
    assert set(json.loads(out)["certificate"]) == keys


def test_quad_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "quad", "--input", triangle_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_quad"]["area"] == 0.5
    assert "min_para" not in doc


def test_para_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "para", "--input", triangle_file)
    assert code == 0
    assert json.loads(out)["min_para"]["area"] == 1.0


def test_stdout_deterministic(capsys, square_file):
    _, out1, _ = run(capsys, "both", "--input", square_file)
    _, out2, _ = run(capsys, "both", "--input", square_file)
    assert out1 == out2


def test_json_input(capsys, tmp_path):
    p = tmp_path / "hexagon.json"
    pts = [
        [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
    ]
    p.write_text(json.dumps({"vertices": pts}))
    code, out, _ = run(capsys, "both", "--input", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["max_quad"]["area"] == pytest.approx(math.sqrt(3), rel=1e-12)
    assert doc["min_para"]["area"] == pytest.approx(2 * math.sqrt(3), rel=1e-12)


@pytest.mark.parametrize(
    "name,content",
    [("square.txt", SQUARE), ("square.json", json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))],
    ids=["text", "json"],
)
def test_polygon_file_with_byte_order_mark(capsys, tmp_path, monkeypatch, name, content):
    # Editors on Windows save UTF-8 with a byte-order mark; it is skipped.
    # The report names the input: give both files one relative path.
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(content.encode())
    code, want, _ = run(capsys, "both", "--input", name)
    assert code == 0
    Path(name).write_bytes(b"\xef\xbb\xbf" + content.encode())
    assert run(capsys, "both", "--input", name)[:2] == (0, want)


def test_verify_expect_report_with_byte_order_mark(capsys, square_file, tmp_path):
    p = tmp_path / "expect.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps({"max_quad": {"area": 1.0}, "min_para": {"area": 1.0}}).encode())
    code, out, _ = run(capsys, "verify", "--input", square_file, "--expect", str(p))
    assert code == 0
    assert "expect-max-quad" in out and "expect-min-para" in out


@pytest.mark.parametrize(
    "vertices",
    [
        5,
        None,
        "0 0 1 0 0 1",
        {"x": [0, 1, 0], "y": [0, 0, 1]},
        [[0, 0, 7], [1, 0, 7], [0, 1, 7]],
        [[0, 0], [1, 0], [0, 1, 7]],
        [[0, 0], [1], [0, 1]],
        [[0, 0], {"x": 1, "y": 0}, [0, 1]],
        [[0, 0], "10", [0, 1]],
        [[0, 0], [10**400, 0], [0, 1]],
        [[False, False], [True, False], [False, True]],
    ],
)
def test_json_malformed_vertices_exit_2(capsys, tmp_path, vertices):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": vertices}))
    code, out, err = run(capsys, "quad", "--input", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "vertices" in err


def test_clockwise_and_collinear_inputs_fixed(capsys, tmp_path):
    p = tmp_path / "weak.txt"
    p.write_text("0 0\n0 2\n2 2\n2 0\n1 0\n")  # clockwise, one mid-edge vertex
    code, out, _ = run(capsys, "both", "--input", str(p))
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_anchored_direction_identification(capsys, square_file):
    code, out1, _ = run(capsys, "anchored", "--input", square_file, "--dir", "1", "0")
    assert code == 0
    doc = json.loads(out1)
    assert doc["area_ratio"] == pytest.approx(2.0, rel=1e-12)
    assert doc["certificate"]["all_ok"]
    _, out2, _ = run(capsys, "anchored", "--input", square_file, "--dir", "-1", "-0")
    assert out1 == out2


@pytest.mark.parametrize("x,y", [("1e308", "1e308"), ("1e-200", "0"), ("1e-320", "0"), ("1e200", "1e200")])
def test_anchored_direction_of_extreme_magnitude(capsys, tmp_path, x, y):
    # The pair is built for the direction, not for the vector's magnitude:
    # no overflow, no underflow, and the certificate holds.
    assert main(["gen", "--kind", "lattice", "--n", "40", "--seed", "2"]) == 0
    path = tmp_path / "lattice-40.txt"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    code, out, err = run(capsys, "anchored", "--input", str(path), "--dir", x, y)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["anchor"] == [float(x), float(y)]
    assert doc["certificate"]["all_ok"]
    assert doc["area_ratio"] == pytest.approx(2.0, rel=1e-12)


def test_anchored_zero_direction(capsys, square_file):
    code, _, err = run(capsys, "anchored", "--input", square_file, "--dir", "0", "0")
    assert code == 2
    assert "direction" in err


def test_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n1 zzz\n0 1\n")
    code, out, err = run(capsys, "quad", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "quad", "--input", "/nonexistent/poly.txt")
    assert code == 2
    assert "error" in err


def test_nonconvex_rejected(capsys, tmp_path):
    p = tmp_path / "dent.txt"
    p.write_text("0 0\n4 0\n4 4\n2 1\n0 4\n")
    code, _, err = run(capsys, "quad", "--input", str(p))
    assert code == 2


def test_gen_deterministic_and_loadable(capsys, tmp_path):
    code, out1, _ = run(capsys, "gen", "--kind", "random-hull", "--n", "16", "--seed", "9")
    assert code == 0
    _, out2, _ = run(capsys, "gen", "--kind", "random-hull", "--n", "16", "--seed", "9")
    assert out1 == out2
    p = tmp_path / "gen.txt"
    p.write_text(out1)
    code, out, _ = run(capsys, "verify", "--input", str(p))
    assert code == 0
    assert "quad-oracle" in out


def test_gen_kinds(capsys):
    # parallel-edges 8000 needs 4000 distinct directions: more draws than a
    # fixed cap of 4000 allows.
    for kind, n in (("regular", 7), ("parallel-edges", 8), ("lattice", 11), ("parallel-edges", 8000)):
        code, out, _ = run(capsys, "gen", "--kind", kind, "--n", str(n), "--coord-range", "50")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == n


def test_gen_degenerate_sample_exits_2(capsys, monkeypatch):
    def degenerate(spec):
        raise DegenerateSample(f"could not find {spec.n // 2} distinct edge directions (seed={spec.seed})")

    monkeypatch.setattr(cli, "generate", degenerate)
    code, out, err = run(capsys, "gen", "--kind", "parallel-edges", "--n", "8")
    assert code == 2 and out == ""
    assert err == "error: could not find 4 distinct edge directions (seed=0)\n"


def test_overflowing_ring_exits_2(capsys, tmp_path):
    # One error line, and no RuntimeWarning, which the test configuration
    # turns into an error: at 1e200 and 1e300 canonicalize's own products
    # overflow, at 1e150 only the constructor's.
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "300", "--seed", "3")
    rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
    for scale in (1e150, 1e200, 1e300):
        p = tmp_path / f"huge-{scale:g}.txt"
        p.write_text("".join(f"{float(x) * scale!r} {float(y) * scale!r}\n" for x, y in rows))
        code, out, err = run(capsys, "both", "--input", str(p))
        assert code == 2 and out == "", scale
        assert err.startswith(f"error: {p}: coordinates too large") and err.count("\n") == 1, err


def test_failing_certificate_of_a_printed_figure_exits_1(capsys, tmp_path):
    # Scaled far down, the sweep's parallelogram numerator underflows and the
    # printed min_para area is 0.0, which its certificate refutes; further
    # down, the anchored pair's areas are subnormal and its certificate
    # fails.  Each command still prints its report.
    xy = lattice_ngon(64, 3).coords()
    for scale, cmd, code_want in (
        (1e-85, "quad", 0),
        (1e-85, "para", 1),
        (1e-85, "both", 1),
        (1e-85, "svg", 1),
        (1e-160, "anchored", 1),
    ):
        p = tmp_path / f"tiny-{scale!r}.txt"
        p.write_text("".join(f"{x * scale!r} {y * scale!r}\n" for x, y in xy.tolist()))
        argv = ["--dir", "1", "0"] if cmd == "anchored" else []
        code, out, err = run(capsys, cmd, "--input", str(p), *argv)
        assert code == code_want, cmd
        if cmd == "svg":
            assert out.startswith("<svg") and out.endswith("</svg>\n")
            assert ("certificate" in err) == (code == 1), cmd
            continue
        doc = json.loads(out)
        if cmd == "para":
            assert doc["min_para"]["area"] == 0.0
        if cmd == "both":
            assert doc["certificates"]["quad"]["all_ok"] and not doc["certificates"]["para"]["all_ok"]
        if cmd == "anchored":
            assert not doc["certificate"]["all_ok"]
        assert ("certificate" in err) == (code == 1), cmd


def test_verify_clean_exit(capsys, triangle_file):
    code, out, _ = run(capsys, "verify", "--input", triangle_file)
    assert code == 0
    assert "FAIL" not in out
    assert "quad-oracle" in out and "para-oracle" in out


def test_verify_expect_negative_control(capsys, square_file, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"max_quad": {"area": 1.0}, "min_para": {"area": 1.0}}))
    code, out, _ = run(capsys, "verify", "--input", square_file, "--expect", str(good))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"max_quad": {"area": 0.9}, "min_para": {"area": 1.0}}))
    code, out, _ = run(capsys, "verify", "--input", square_file, "--expect", str(bad))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "report",
    [
        7,
        "report",
        [1.0, 1.0],
        {"max_quad": 5},
        {"max_quad": {}},
        {"max_quad": {"area": "x"}},
        {"max_quad": {"area": None}},
        {"max_quad": [1.0]},
        {"min_para": {"area": [1.0]}},
        {"min_para": {"area": 10**400}},
        {"max_quad": {"area": True}},
    ],
)
def test_verify_expect_malformed_report_exit_2(capsys, square_file, tmp_path, report):
    p = tmp_path / "report.json"
    p.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify", "--input", square_file, "--expect", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {p}: ")


@pytest.mark.parametrize(
    "option,name,content,message",
    [
        ("--input", "poly.json", b"{not json", "line 1: invalid JSON: "),
        ("--input", "poly.json", b"[[0, 0], [1, 0], [0, 1]]", "JSON document must be an object"),
        ("--input", "poly.json", b'{"vertices": [[0, 0], [1e999, 0], [0, 1]]}', "vertices[1]: coordinates must be finite"),
        ("--input", "poly.txt", b"0 0\n1 0\n\xff\xfe 1\n", "'utf-8' codec can't decode byte 0xff"),
        ("--input", "poly.json", b'{"vertices": [[0, 0], [1, 0], [0, 1]], "\xff": 1}', "'utf-8' codec can't decode"),
        ("--expect", "report.json", b"max_quad", "Expecting value"),
        ("--expect", "report.json", b'{"max_quad": {"area": 1.0}, "\xfe": 1}', "'utf-8' codec can't decode"),
    ],
    ids=["invalid-json", "json-not-object", "json-non-finite", "text-not-utf8", "json-not-utf8", "expect-not-json", "expect-not-utf8"],
)
def test_unreadable_file_exits_2_naming_it(capsys, square_file, tmp_path, option, name, content, message):
    # Invalid input, including a file that is not UTF-8, exits 2 with an
    # error naming the file; exit 1 is kept for verification failures.
    p = tmp_path / name
    p.write_bytes(content)
    argv = ["--input", str(p)] if option == "--input" else ["--input", square_file, "--expect", str(p)]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {p}: ") and message in err


def test_sweep_overrun_exits_3(capsys, square_file, monkeypatch):
    def overrun(P):
        raise SweepOverrun("more than 48 sweep events for n=4")

    monkeypatch.setattr(cli, "combined_extremes", overrun)
    code, out, err = run(capsys, "both", "--input", square_file)
    assert code == 3 and out == ""
    assert err == "internal error: more than 48 sweep events for n=4\n"


def test_bench_size_below_3_exits_2(capsys):
    code, _, err = run(capsys, "bench", "2")
    assert code == 2
    assert err == "error: size 2: need n >= 3\n"


def test_verify_skips_para_oracle_over_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "201", "--seed", "1")
    p = tmp_path / "n201.txt"
    p.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(p))
    assert code == 0
    assert "skip para-oracle          n=201 over budget 200\n" in out


def test_verify_skips_quad_oracle_over_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "45", "--seed", "1")
    p = tmp_path / "n45.txt"
    p.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(p))
    assert code == 0
    assert "skip" in out and "quad-oracle" in out


def test_repeated_main_calls_share_no_options(capsys, square_file, tmp_path):
    # The parser is built once per process; no option of one call may
    # reach the next.
    assert cli._build_parser() is cli._build_parser()
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"max_quad": {"area": 0.9}}))
    code, out, _ = run(capsys, "verify", "--input", square_file, "--expect", str(expect))
    assert code == 1 and "expect-max-quad" in out
    code, out, _ = run(capsys, "verify", "--input", square_file)
    assert code == 0 and "expect" not in out
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "5", "--seed", "2", "--coord-range", "40")
    assert out.startswith("# quadpara gen kind=lattice n=5 seed=2 coord-range=40 rotation=0\n")
    code, out, _ = run(capsys, "gen")
    assert out.startswith("# quadpara gen kind=random-hull n=12 seed=0 coord-range=1000 rotation=0\n")
    assert run(capsys, "bench", "50", "--assert-linear", "--budget", "0.001")[0] == 1
    assert run(capsys, "bench", "50")[0] == 0
    code, out, _ = run(capsys, "anchored", "--input", square_file, "--dir", "0", "1")
    assert json.loads(out)["anchor"] == [0.0, 1.0]
    code, out, _ = run(capsys, "anchored", "--input", square_file, "--dir", "1", "0")
    assert json.loads(out)["anchor"] == [1.0, 0.0]


def test_bench_assert_linear(capsys):
    code, out, err = run(capsys, "bench", "200", "400", "--assert-linear")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n predicates")
    assert len(lines) == 3
    code, _, err = run(capsys, "bench", "200", "--assert-linear", "--budget", "0.001")
    assert code == 1


def test_tol_and_budget_reject_nonfinite_and_negative(capsys, square_file):
    # A NaN budget never trips --assert-linear: a usage error, like every
    # other value that is not a finite number >= 0.
    for value in ("inf", "-inf", "nan", "1e400", "-1", "-0.5", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "40", "--assert-linear", f"--budget={value}"])
        assert exc.value.code == 2
        assert "not a finite number >= 0" in capsys.readouterr().err
    assert run(capsys, "bench", "40", "--assert-linear", "--budget=0")[0] == 1
    # The certificate tolerance is fixed (extremal.CERT_TOL): no subcommand
    # takes a tolerance, so none can loosen a certificate.
    for cmd in (["quad"], ["para"], ["both"], ["anchored", "--dir", "1", "0"], ["verify"], ["svg"]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--input", square_file, "--tol=1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol=1e-6" in capsys.readouterr().err


def test_svg_structure_and_determinism(capsys, tmp_path, square_file):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "svg", "--input", square_file, "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<polygon") == 3
    assert svg.count("<path") == 2  # the two anchor arrows
    assert 'stroke-dasharray' in svg
    code, _, _ = run(capsys, "svg", "--input", square_file, "--out", str(out_path))
    assert out_path.read_text() == svg


def test_svg_stdout_and_unwritable(capsys, square_file):
    code, out, _ = run(capsys, "svg", "--input", square_file)
    assert code == 0
    assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
    code, _, err = run(capsys, "svg", "--input", square_file, "--out", "/nonexistent/dir/f.svg")
    assert code == 2


def test_svg_hexagon_touch_vertices_on_para_sides(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "regular", "--n", "6", "--coord-range", "10")
    p = tmp_path / "hex.txt"
    p.write_text(out)
    code, rep_out, _ = run(capsys, "both", "--input", str(p))
    doc = json.loads(rep_out)
    corners = doc["min_para"]["corners"]
    touches = doc["min_para"]["touch_indices"]
    verts = [list(map(float, l.split())) for l in out.splitlines() if not l.startswith("#")]
    for k, ti in enumerate(touches):
        px, py = corners[k]
        qx, qy = corners[(k + 1) % 4]
        vx, vy = verts[ti]
        ex, ey = qx - px, qy - py
        dist = abs(ex * (vy - py) - ey * (vx - px)) / math.hypot(ex, ey)
        assert dist <= 1e-9 * 10


# `quadpara gen` arguments of the polygon files behind the digests below.
REPORT_FILES = {
    "lattice-64.txt": ["--kind", "lattice", "--n", "64", "--seed", "3"],
    "lattice-1000.txt": ["--kind", "lattice", "--n", "1000", "--seed", "11"],
    "hull-400.txt": ["--kind", "random-hull", "--n", "400", "--seed", "7"],
    "parallel-12.txt": ["--kind", "parallel-edges", "--n", "12", "--seed", "5"],
    "regular-9.txt": ["--kind", "regular", "--n", "9"],
    # Two parallel support edges meet the sweep loop's b/d tie rule.
    "regular-4.txt": ["--kind", "regular", "--n", "4"],
    "regular-30-r1.txt": ["--kind", "regular", "--n", "30", "--rotation", "1"],
    # `verify` runs both brute oracles on n = 4-40, only the parallelogram
    # one on n = 52-200.
    "lattice-4.txt": ["--kind", "lattice", "--n", "4", "--seed", "1"],
    "lattice-23.txt": ["--kind", "lattice", "--n", "23", "--seed", "5"],
    "lattice-40.txt": ["--kind", "lattice", "--n", "40", "--seed", "2"],
    "parallel-24.txt": ["--kind", "parallel-edges", "--n", "24", "--seed", "3"],
    "regular-7.txt": ["--kind", "regular", "--n", "7", "--rotation", "1"],
    "regular-40.txt": ["--kind", "regular", "--n", "40", "--rotation", "3"],
    "hull-2000.txt": ["--kind", "random-hull", "--n", "2000", "--seed", "3"],  # 23 vertices
    "lattice-52.txt": ["--kind", "lattice", "--n", "52", "--seed", "4"],
    "parallel-100.txt": ["--kind", "parallel-edges", "--n", "100", "--seed", "6"],
    "regular-150.txt": ["--kind", "regular", "--n", "150", "--rotation", "1"],
    "lattice-200.txt": ["--kind", "lattice", "--n", "200", "--seed", "9"],
}

# SHA-256 of the stdout of `quadpara both|quad|para --input FILE`, run in the
# directory holding FILE (the report echoes the path).  Recorded while the
# calipers module still carried a second copy of the half-turn sweep beside
# `extremal._combined_sweep`: the JSON reports must stay byte-identical.
REPORT_GOLDEN = [
    ("lattice-64.txt", "both", "ed9419bc2369debe4d88fdd84c87a570921c77bba767e5256e9150a38356c0b6"),
    ("lattice-64.txt", "quad", "17fad025b7348bc2505fbfd02644619621591cfc3ee469b2e0328ab3a04debaa"),
    ("lattice-64.txt", "para", "d797e44cb29a43d56cc06e7089a18499d8f536b5f7869c814fa843254437537f"),
    ("lattice-1000.txt", "both", "3caeefddf2d85c63790b041e868b0e9ba4b0c860aed0251558ace416db5ca93a"),
    ("lattice-1000.txt", "quad", "abe0f181666ec2937f01256ad566378219cc6ba9085a7da3b304f0c36b510592"),
    ("lattice-1000.txt", "para", "fedc03f75400b35a3526ee2564aa2f82e625204baed0a4c5e31e71409efb8157"),
    ("hull-400.txt", "both", "2d152833603656537142abef9bfe72c8209f12b2dfe05e7eb4bbd276a7b4ae34"),
    ("hull-400.txt", "quad", "687bd065b339ad20274e63ce89264ca7859114f48dda17f2ed9c38d50de0fafb"),
    ("hull-400.txt", "para", "6fd3ebbe2d5ad4b5b5fd41ab2b795bae62b3f37534ffa208a1f486f2ba8312bb"),
    ("parallel-12.txt", "both", "4ee4f07a0c0090641484dda2a54f10cc7517419cf3cb672710d0c71dcef80aa9"),
    ("parallel-12.txt", "quad", "c1f0cf68669233bfe4648092aa9c85c56c805441c71861a1bd47a187f3761610"),
    ("parallel-12.txt", "para", "c6cda4f00df62ccdcb02f822be0d4302d9b38decbc1818e8fa12b2a28a22a39c"),
    ("regular-9.txt", "both", "72ed24353d370b89a855940b674fd8b2146f92e4181f8afd386b4cc986ec02dd"),
    ("regular-9.txt", "quad", "dafed5b6902635005a28519702e85a8bb7c34ec9f38780d263b5f3bb3d9f50e8"),
    ("regular-9.txt", "para", "a405e91cce9db39d44e4156f732e04c5cf3b4db5d6582b2b8535c9231d7f09ec"),
    ("regular-4.txt", "para", "ad5ba2d5dc16bf715892db97da313a1714e90d999e4aa2f1b95868552635ab32"),
    ("regular-30-r1.txt", "para", "aadf205a9679bd114b0d292b558fe4ec90da7f353f28a30919ec5d4a784b9012"),
]

# SHA-256 of the stdout of `quadpara verify --input FILE`.  Recorded while the
# brute oracles were Python loops over vertex tuples with one `chord_through`
# call per vertex: the oracle areas printed must stay bit-identical.
VERIFY_GOLDEN = [
    ("lattice-4.txt", "verify", "a8819ce027a1d5f5a1b1efc4d981210dab389f62ef6846c64ae789534f033732"),
    ("lattice-23.txt", "verify", "e96e876e6741038b9e054fdabba5a508aa151fa75a88755609312247d9aae725"),
    ("lattice-40.txt", "verify", "2f73229bba396f8966ec033de61779043338ab5bc5f14a650c90f7983d064341"),
    ("parallel-24.txt", "verify", "d50f3726437df94a999b94b70cb5f180608c845cf7b80d262781064013e2b3b9"),
    ("regular-7.txt", "verify", "b0d413e395989c2bdfa48684f872dca69dbf0469e6ad16dcc00faa7f3fdc96c2"),
    ("regular-40.txt", "verify", "a24806018e0f37cebb82b151482f9f97ac8bb0136ea9102f5b8c71125a14ecf6"),
    ("hull-2000.txt", "verify", "cd9440ddef8fda337d1caa9c8e9f6f41fbf342f105fca546b2bcfecddcbd658c"),
    ("lattice-52.txt", "verify", "388e577f5505a2bf6d25bd52c52bd13057b5dd2f83b358110136357d8798596e"),
    ("parallel-100.txt", "verify", "dda080db616203edb5f1b5ac050983be4aa9d821891fafd947f5d46b4776dd7b"),
    ("regular-150.txt", "verify", "bcfb8a0c9f4f83caad4088a5ab7eec1b5f95551a66e078bcf2dfd4db0934e3e3"),
    ("lattice-200.txt", "verify", "4341f3b029dbb60d2baccaf431e44260f748577aeba97baf7d4aa40eebea8cc3"),
]


# SHA-256 of the stdout of `quadpara svg --input FILE`.  Recorded while
# `calipers.py` still held the vertex walk's start and the interval walks:
# the figures must stay byte-identical.  `quadpara anchored` stdout is pinned
# by ANCHORED_GOLDEN in test_extremal.py.
SVG_GOLDEN = [
    ("lattice-64.txt", "svg", "0aeebc7a50f591854ccce21dafd067981df93f881131045b29151fa9aec0217f"),
    ("hull-400.txt", "svg", "79c6c0faaedf1fcb0b8771f689826431121f70c89fd60f117b7ecd02e5ba4154"),
    ("parallel-12.txt", "svg", "8be01d025a905b9b4e29d698b27ccb144a455b7c11e04eb3eb472972e26f926c"),
]


@pytest.mark.parametrize("name,command,digest", REPORT_GOLDEN + VERIFY_GOLDEN + SVG_GOLDEN)
def test_report_cli_output_is_unchanged(tmp_path, monkeypatch, capsys, name, command, digest):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", *REPORT_FILES[name]]) == 0
    with open(name, "w", encoding="utf-8") as f:
        f.write(capsys.readouterr().out)
    code, out, _ = run(capsys, command, "--input", name)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Text parsing: one bulk np.loadtxt pass, with the per-line loop
# `_parse_text_lines` as the reference and the only source of parse errors.


def _parse_outcome(parse, text):
    try:
        xy = parse(text)
    except InputError as exc:
        return "error", str(exc)
    assert xy.dtype == np.float64 and xy.ndim == 2 and xy.shape[1] == 2
    return "ok", xy.shape, xy.tobytes()  # bytes, so the sign of -0.0 counts


RISKY_TOKENS = [
    "0", "-0", "-0.0", "+0.0", "1", "+1", "-1", "+-1", "--1", ".", ".5", "5.", "-.5", "e", "1e5",
    "1E-3", "1e", "1e+", "e5", "_", "1_0", "1__0", "_1", "1_", "1.0_1", "1d0", "1D0", "0x10",
    "0x1p3", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "infinity", "1e400", "-1e400",
    "1e-400", "00012", "1e0001", "\u0661\u0662", "\u0663.5", "\uff11", "\xb2", "1\x00",
]
TEXT_TOKENS = st.one_of(
    st.sampled_from(RISKY_TOKENS),
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
TEXT_SEPARATORS = st.sampled_from(
    [" ", " ", " ", "  ", "\t", " \t ", "\x1f", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"]
)
TEXT_COMMENTS = st.sampled_from(["", "", "", " #", "# note", "#1 2", " # x\r3 4", "#\x0c5 6"])
TEXT_LINE_ENDS = st.sampled_from(
    ["\n", "\n", "\n", "\n\n", "\n \t\n", "\n# c\n", "\r", "\r\n", "\x0b", "\x0c",
     "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028"]
)


@st.composite
def risky_line(draw):
    tokens = draw(st.lists(TEXT_TOKENS, min_size=1, max_size=3))
    line = tokens[0] + "".join(draw(TEXT_SEPARATORS) + t for t in tokens[1:])
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(TEXT_COMMENTS) + draw(TEXT_LINE_ENDS)


@settings(max_examples=600, deadline=None)
@given(st.lists(risky_line(), max_size=6).map("".join))
@example("")  # numpy warns about an empty text
@example("# header only\n")
@example("1 2#\r3 4\n5 6\n")  # numpy reads "3 4" as part of the comment
@example("1\x0b2\n3 4\n5 6\n")  # numpy reads \x0b, \x0c and \x1c-\x1e as spaces
@example("1\x0c2\n3 4\n5 6\n")
@example("1\x1c2\n3 4\n5 6\n")
@example("1\x1e2\n3 4\n5 6\n")
@example("1\x852\n3 4\n5 6\n")  # and \x85 and \u2028, which are not ASCII
@example("1\u20282\n3 4\n5 6\n")
@example("\u0661 2\n3 4\n5 6\n")
@example("1 2\n3 nan\n5 6\n")
@example("1 2 3\n")
def test_text_parse_matches_per_line_loop(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _parse_outcome(cli._parse_text_vertices, text)
    assert caught == []  # nothing reaches stderr
    assert got == _parse_outcome(cli._parse_text_lines, text)


def _loop_not_called(text):
    raise AssertionError("the per-line loop ran")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FORMATS = st.sampled_from(["{!r}", "{:.17e}", "{:.40f}", "{:.3g}", "{:+.25e}"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FORMATS), min_size=1, max_size=20))
def test_text_bulk_path_parses_like_float(rows):
    text = "".join(f"{fmt.format(x)} {fmt.format(y)}\n" for x, y, fmt in rows)
    want = np.array([[float(t) for t in line.split()] for line in text.splitlines()])
    assume(np.isfinite(want).all())  # "{:.3g}" can round past the largest float
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_parse_text_lines", _loop_not_called)
        got = cli._parse_text_vertices(text)
    assert got.tobytes() == want.tobytes()


def test_gen_file_takes_bulk_path(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "200", "--seed", "4")
    assert code == 0 and out.startswith("# quadpara gen")
    want = cli._parse_text_lines(out)
    p = tmp_path / "lattice.txt"
    p.write_text(out)
    monkeypatch.setattr(cli, "_parse_text_lines", _loop_not_called)
    assert cli._parse_text_vertices(out).tobytes() == want.tobytes()
    assert cli.load_polygon(str(p)).n == 200
