"""The benchmark harness self-test, run as a subprocess.

``perfbench/run.py --smoke`` runs every workload shape on tiny graphs, plain
and traced, and checks the metric names against BENCHMARK.json. The traced
run patches library functions by name, so it fails when one of them is
removed or renamed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke: ok" in done.stdout.splitlines()
