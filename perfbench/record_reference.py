"""Record the `both-large` reference areas for a range of seeds.

    python3 perfbench/record_reference.py 0 32

adds to perfbench/reference.json the [max_quad area, min_para area] of
seeds 0..31, as `quadpara both` prints them.  Each pair is cross-checked
first: the quadrilateral area must equal the vertex walk's bit for bit and
the parallelogram area must agree with the edge scan within 1e-12
relative.  Run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    lo, hi = int(argv[0]), int(argv[1])
    wl = workloads.BothLarge()
    areas = workloads.load_reference()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for seed in range(lo, hi):
            wl.setup(seed, Path(tmp))
            digest = wl.digest(wl.op(wl.items[0]))
            wl.recorded = None  # check against the independent routes only
            problems = wl.check(0, digest)
            if problems:
                print(f"seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            doc = json.loads(digest[1])
            areas[str(seed)] = [doc["max_quad"]["area"], doc["min_para"]["area"]]
            print(seed, areas[str(seed)], flush=True)
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(areas.items(), key=lambda kv: int(kv[0])))
    text = f'{{\n "n": {wl.n},\n "areas": {{\n{rows}\n }}\n}}\n'
    workloads.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
