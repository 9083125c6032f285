"""Smoke test of scripts/fault_probe.py: one condition, two frames."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fault_probe.py"


def test_prints_ms_and_faults_per_frame_position():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--conditions", "noon", "--frames", "2", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for disparity in ("gt", "block"):
        rows = [ln.split() for ln in lines
                if ln.startswith(f"{disparity} ") and ln.split()[1].isdigit()]
        assert [int(r[1]) for r in rows] == [0, 1]
        assert all(float(r[2]) > 0 and int(r[3]) >= 0 for r in rows)
        assert any(ln.startswith(f"{disparity} first-frame faults") for ln in lines)
