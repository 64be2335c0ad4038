"""The identity grid script's output, pinned by the sha256 digest in ``tests/verify_grid.sha256``.

Every ``IdentityReport`` of the acceptance grid is one JSON line of ``scripts/verify_grid.py``, so
any drift in a report's values, verdict, JSON or LaTeX changes the digest.  After an intended
change, record the new one with ``python3 scripts/verify_grid.py | sha256sum``.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verify_grid_stdout_matches_the_recorded_digest():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_grid.py")], capture_output=True, check=True
    )
    recorded = (ROOT / "tests" / "verify_grid.sha256").read_text().strip()
    assert hashlib.sha256(run.stdout).hexdigest() == recorded
