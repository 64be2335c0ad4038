#!/usr/bin/env python3
"""Run the whole identity-verification grid and emit one JSON line per report.

The grid is the acceptance suite's (``bernring.selftest.GRID``).  Exits nonzero
if any instance fails.  Usage: python scripts/verify_grid.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bernring.selftest import GRID


def main() -> int:
    failures = 0
    for fn, cases in GRID.items():
        for case in cases:
            report = fn(*case)
            print(json.dumps(report.to_json_dict()))
            if not report.verified:
                failures += 1
    print(f"# {failures} failures", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
