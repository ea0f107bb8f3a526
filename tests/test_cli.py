import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadpara import cli
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
    for kind, n in (("regular", 7), ("parallel-edges", 8), ("lattice", 11)):
        code, out, _ = run(capsys, "gen", "--kind", kind, "--n", str(n), "--coord-range", "50")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == n


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


def test_verify_skips_quad_oracle_over_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--kind", "lattice", "--n", "45", "--seed", "1")
    p = tmp_path / "n45.txt"
    p.write_text(out)
    code, out, _ = run(capsys, "verify", "--input", str(p))
    assert code == 0
    assert "skip" in out and "quad-oracle" in out


def test_bench_assert_linear(capsys):
    code, out, err = run(capsys, "bench", "200", "400", "--assert-linear")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n predicates")
    assert len(lines) == 3
    code, _, err = run(capsys, "bench", "200", "--assert-linear", "--budget", "0.001")
    assert code == 1


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
]


@pytest.mark.parametrize("name,command,digest", REPORT_GOLDEN)
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
