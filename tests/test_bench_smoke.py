"""The benchmark's own smoke test (``perfbench/smoke.py``), run as a tier-1 test.

It runs short benchmark passes and checks that every declared metric is
reported, that no case fails or drifts from the recorded answer digests, and
that two traced runs give the same per-layer counts.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "smoke: ok" in res.stdout
