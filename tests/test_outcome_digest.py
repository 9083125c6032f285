"""Smoke test of scripts/outcome_digest.py: one seed, one frame per condition."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outcome_digest.py"


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_write_covers_the_grid_and_diff_counts_mismatches(tmp_path):
    digest = tmp_path / "a.jsonl"
    proc = run("write", "--seeds", 1, "--frames", 1, "--out", digest)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in digest.read_text().splitlines()]
    # 2 extractors x 2 disparity sources x 2 modes x 8 conditions
    assert len(rows) == 64
    assert {(r["extractor"], r["disparity"], r["mode"]) for r in rows} == {
        (e, d, m) for e in ("learned", "analytic") for d in ("gt", "block")
        for m in ("dense", "sparse")
    }
    assert all(r["pose"] is None or len(r["pose"]) == 12 for r in rows)

    proc = run("diff", digest, digest)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rows"] == 64 and report["max_pose_delta"] == 0.0

    changed = [dict(rows[0], inliers=rows[0]["inliers"] + 1), *rows[2:]]
    other = tmp_path / "b.jsonl"
    other.write_text("".join(json.dumps(r) + "\n" for r in changed))
    proc = run("diff", digest, other)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["inlier_mismatches"], report["only_in_first"]) == (1, 1)
