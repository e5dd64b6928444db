"""Write one workload's seeded input and what a correct program must report.

    python3 bench/prepare.py KIND SEED ROWS DIR

writes DIR/input.csv and DIR/expect.json. It runs as its own process so
that the benchmark process, which spawns the measured CLI children, never
loads numpy or the generated columns: on Linux a child's peak RSS starts
from its parent's resident size at spawn.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from gen import generate
from reference import expected_report


def main(argv: list[str]) -> int:
    kind, seed, rows, out = argv[1], int(argv[2]), int(argv[3]), Path(argv[4])
    data = generate(kind, seed, rows, str(out / "input.csv"))
    expect = {
        "facts": data.facts(),
        "defects": {str(line): kind for line, kind in data.defects.items()},
        "report": None if data.defects else expected_report(data),
    }
    with open(out / "expect.json", "w", encoding="utf-8") as fh:
        json.dump(expect, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
