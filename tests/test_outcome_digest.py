"""Smoke tests of scripts/outcome_digest.py: one seed, one frame per
condition; two training batches on each of two seeds."""

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


def test_train_writes_one_row_per_batch_and_diff_flags_gating(tmp_path):
    digest = tmp_path / "t.jsonl"
    proc = run("train", "--seeds", 1, 2, "--batches", 2, "--out", digest)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in digest.read_text().splitlines()]
    assert [(r["seed"], r["batch"]) for r in rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert rows[0]["grad_sha256"] != rows[2]["grad_sha256"]  # each seed its own pairs
    for r in rows:
        assert len(r["sample_losses"]) == len(r["gated"]) == len(r["skipped"]) == 4
        assert len(r["grad_sha256"]) == 64 and r["grad_norm"] > 0.0

    proc = run("diff", digest, digest)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["train_rows"] == 4 and report["rows"] == 0
    assert report["bitwise_mismatches"] == 0 and report["max_grad_norm_rel_delta"] == 0.0

    other = tmp_path / "u.jsonl"
    nudged = dict(rows[0], grad_sha256="0" * 64, grad_norm=rows[0]["grad_norm"] * (1 + 1e-12))
    other.write_text("".join(json.dumps(r) + "\n" for r in (nudged, *rows[1:])))
    proc = run("diff", digest, other)
    assert proc.returncode == 0  # a last-bit gradient change is reported, not fatal
    report = json.loads(proc.stdout)
    assert report["bitwise_mismatches"] == 1 and report["max_grad_norm_rel_delta"] > 0.0

    skipped = dict(rows[1], skipped=[True, *rows[1]["skipped"][1:]])
    other.write_text("".join(json.dumps(r) + "\n" for r in (rows[0], skipped, *rows[2:])))
    proc = run("diff", digest, other)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["skipped_mismatches"], report["gated_mismatches"]) == (1, 0)
