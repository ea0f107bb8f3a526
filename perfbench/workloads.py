"""The four workloads: inputs made from a seed, one operation, output checks.

Each workload has `setup(seed, workdir)`, which generates (and, for the CLI
workloads, writes) its inputs and sets `items`; `op(item)`, one timed
operation through public calls only; `digest(result)`, the part of a result
that is kept for checking; and `check(index, digest)`, which returns the
list of problems with the first output for `items[index]`.  Every later
output for the same item must equal that first digest exactly.

Names are looked up on the `quadpara` modules at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import quadpara as qp
from quadpara import cli, oracle, polygen

REL_TOL = 1e-12
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def rel_close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y), 1e-300)


def write_text(path: Path, P) -> None:
    path.write_text("".join(f"{p.x!r} {p.y!r}\n" for p in P.vertices), encoding="utf-8")


def write_json(path: Path, P) -> None:
    path.write_text(json.dumps({"vertices": [[p.x, p.y] for p in P.vertices]}), encoding="utf-8")


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_digest(result):
    # stderr carries wall times on success, so only a failure's is kept.
    rc, out, err = result
    return rc, out, err if rc else ""


class BothLarge:
    """`quadpara both` in-process on one lattice polygon with n = 250 000."""

    name = "both-large"
    tail_pct = 50.0
    n = 250_000

    def setup(self, seed: int, workdir: Path) -> None:
        self.recorded = load_reference().get(str(seed))
        self.P = polygen.lattice_ngon(self.n, seed)
        path = workdir / "lattice.txt"
        write_text(path, self.P)
        self.items = [str(path)]

    def op(self, path):
        return run_cli(["both", "--input", path])

    digest = staticmethod(cli_digest)

    def check(self, index: int, digest) -> list[str]:
        rc, out, err = digest
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        doc = json.loads(out)
        quad, para = doc["max_quad"]["area"], doc["min_para"]["area"]
        problems = [
            f"{name} certificate fails"
            for name, checks in doc["certificates"].items()
            if not checks["all_ok"]
        ]
        walk = qp.largest_quadrilateral(self.P).area
        if quad != walk:
            problems.append(f"max_quad area {quad!r} != vertex walk {walk!r}")
        scan = qp.smallest_parallelogram(self.P).area
        if not rel_close(para, scan):
            problems.append(f"min_para area {para!r} != edge scan {scan!r}")
        if self.recorded is not None and [quad, para] != self.recorded:
            problems.append(f"areas {[quad, para]!r} != recorded {self.recorded!r}")
        return problems


def load_reference() -> dict:
    """Recorded `both-large` areas [max_quad, min_para] by seed."""
    doc = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if doc["n"] != BothLarge.n:
        raise ValueError(f"{REFERENCE_FILE.name} was recorded for n={doc['n']}")
    return doc["areas"]


class BatchSmall:
    """`ConvexPolygon(canonicalize(ring))` then `combined_extremes`, over a
    corpus of small rings; half of them are given clockwise."""

    name = "batch-small"
    tail_pct = 95.0

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        # The sizes are fixed, so the work per pass barely depends on the seed.
        polys = [
            polygen.random_convex(n_points, rng.getrandbits(32), 1 << 20)
            for n_points in range(8, 57)
        ]
        polys += [polygen.parallel_edge_polygon(m, rng.getrandbits(32)) for m in range(2, 33)]
        polys += [polygen.lattice_ngon(n, rng.getrandbits(32)) for n in range(5, 129, 4)]
        rng.shuffle(polys)
        self.polys = polys
        self.items = [
            [(p.x, p.y) for p in (P.vertices[::-1] if i % 2 else P.vertices)]
            for i, P in enumerate(polys)
        ]

    def op(self, ring):
        return qp.combined_extremes(qp.ConvexPolygon(qp.canonicalize(ring)))

    @staticmethod
    def digest(rep):
        return (
            rep.max_quad.area,
            rep.min_para.area,
            rep.quad_certificate.checks.all_ok,
            rep.para_certificate.checks.all_ok,
            rep.predicate_count,
        )

    def check(self, index: int, digest) -> list[str]:
        quad, para, quad_ok, para_ok, _ = digest
        P = self.polys[index]
        problems = [f"{name} certificate fails" for name, ok in (("quad", quad_ok), ("para", para_ok)) if not ok]
        # Within the brute oracles' budgets use them; beyond, the vertex walk
        # and the edge scan are the independent routes.
        if P.n <= cli.QUAD_ORACLE_MAX_N:
            ref_quad = oracle.brute_largest_quad(P).area
            ref_para = oracle.brute_smallest_para(P).area
        else:
            ref_quad = qp.largest_quadrilateral(P).area
            ref_para = qp.smallest_parallelogram(P).area
        if quad != ref_quad:
            problems.append(f"n={P.n}: max_quad area {quad!r} != {ref_quad!r}")
        if not rel_close(para, ref_para):
            problems.append(f"n={P.n}: min_para area {para!r} != {ref_para!r}")
        return problems


class AnchoredQueries:
    """`anchored_conjugate_pair` then `verify_conjugate_pair`, for seeded
    integer directions on one lattice polygon with n = 4096."""

    name = "anchored-queries"
    tail_pct = 75.0
    n = 4096
    directions = 8

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.P = polygen.lattice_ngon(self.n, rng.getrandbits(32))
        dirs: list[tuple[int, int]] = []
        while len(dirs) < self.directions:
            u = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
            if u != (0, 0) and u not in dirs:
                dirs.append(u)
        self.items = dirs

    def op(self, u):
        quad, para = qp.anchored_conjugate_pair(self.P, u)
        return quad, para, qp.verify_conjugate_pair(quad, para, u, self.P)

    @staticmethod
    def digest(result):
        quad, para, cert = result
        return quad.area, para.area, cert.checks.all_ok

    def check(self, index: int, digest) -> list[str]:
        quad, _, ok = digest
        u = self.items[index]
        problems = [] if ok else [f"u={u}: certificate fails"]
        ref = oracle.brute_anchored_quad_area(self.P, u)
        if not rel_close(quad, ref):
            problems.append(f"u={u}: quad area {quad!r} != brute {ref!r}")
        return problems


class VerifyOracle:
    """`quadpara verify` in-process over files within the oracle budgets:
    n <= 40 runs both brute oracles, 40 < n <= 200 only the parallelogram
    one.  Five of the eleven files are .json, the others text."""

    name = "verify-oracle"
    tail_pct = 75.0
    sizes = (8, 52, 16, 80, 24, 110, 32, 140, 40, 4, 12)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.items = []
        for i, n in enumerate(self.sizes):
            if (i // 2) % 2:
                P = polygen.parallel_edge_polygon(n // 2, rng.getrandbits(32))
            else:
                P = polygen.lattice_ngon(n, rng.getrandbits(32))
            if i % 4 in (0, 3):
                path = workdir / f"poly{i:02d}.json"
                write_json(path, P)
            else:
                path = workdir / f"poly{i:02d}.txt"
                write_text(path, P)
            self.items.append(str(path))

    def op(self, path):
        return run_cli(["verify", "--input", path])

    digest = staticmethod(cli_digest)

    def check(self, index: int, digest) -> list[str]:
        rc, out, err = digest
        problems = [line for line in out.splitlines() if line.startswith("FAIL")]
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()}")
        return problems


WORKLOADS = {w.name: w for w in (BothLarge, BatchSmall, AnchoredQueries, VerifyOracle)}
