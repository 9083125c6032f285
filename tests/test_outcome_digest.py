"""Smoke tests of scripts/outcome_digest.py: one seed, one frame per
condition; two training batches on each of two seeds; and the same digests
from processes on one and on two BLAS threads."""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from stereoloc import harness, synth

from oracles import render_one

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
    assert all(len(r["gt_offset"]) == 3 for r in rows)
    assert all((r["reason"] is None) != r["failure"] for r in rows)
    assert {r["reason"] for r in rows} <= {None, *harness.FAILURE_REASONS.values(),
                                           "below_inlier_threshold"}
    assert all(len(r["live_sha256"]) == len(r["vertex_sha256"]) == 64 for r in rows)
    # each condition renders its own live frame; the map is one noon vertex
    assert len({r["live_sha256"] for r in rows}) == 8
    assert len({r["vertex_sha256"] for r in rows if r["disparity"] == "gt"}) == 1

    proc = run("diff", digest, digest)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rows"] == 64 and report["max_pose_delta"] == 0.0
    assert report["max_pose_delta_by_extractor"] == {"analytic": 0.0, "learned": 0.0}
    assert report["frame_mismatches"] == 0

    posed = next(i for i, r in enumerate(rows) if r["pose"] and r["extractor"] == "learned")
    moved = dict(rows[posed], pose=[x + 1e-6 * (j == 9) for j, x in enumerate(rows[posed]["pose"])])
    other = tmp_path / "b.jsonl"
    other.write_text("".join(json.dumps(moved if i == posed else r) + "\n"
                             for i, r in enumerate(rows)))
    proc = run("diff", digest, other)
    assert proc.returncode == 0  # a pose that moved is reported, not fatal
    report = json.loads(proc.stdout)
    assert 0.0 < report["max_pose_delta"] == report["max_pose_delta_by_extractor"]["learned"]
    assert report["max_pose_delta_by_extractor"]["analytic"] == 0.0

    changed = [dict(rows[0], inliers=rows[0]["inliers"] + 1), *rows[2:]]
    other.write_text("".join(json.dumps(r) + "\n" for r in changed))
    proc = run("diff", digest, other)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["inlier_mismatches"], report["only_in_first"]) == (1, 1)
    assert report["frame_mismatches"] == 0

    failed = [dict(r, failure=True, pose=None, reason="ransac_consensus") for r in rows[:2]]
    first, second = tmp_path / "c.jsonl", tmp_path / "d.jsonl"
    first.write_text("".join(json.dumps(r) + "\n" for r in (*failed, *rows[2:])))
    # an older checkout's digest holds a null reason: only both-sided reasons compare
    older = [dict(failed[0], reason=None), dict(failed[1], reason="degenerate")]
    second.write_text("".join(json.dumps(r) + "\n" for r in (*older, *rows[2:])))
    proc = run("diff", first, second)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["reason_mismatches"] == 1 and report["failure_mismatches"] == 0
    second.write_text("".join(json.dumps(r) + "\n" for r in (older[0], *failed[1:], *rows[2:])))
    proc = run("diff", first, second)
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["reason_mismatches"] == 0

    rerendered = [rows[0], dict(rows[1], vertex_sha256="0" * 64), *rows[2:]]
    other.write_text("".join(json.dumps(r) + "\n" for r in rerendered))
    proc = run("diff", digest, other)
    assert proc.returncode == 1  # a frame that changed is fatal, whatever the outcome
    report = json.loads(proc.stdout)
    assert report["frame_mismatches"] == 1 and report["inlier_mismatches"] == 0


def load_script():
    spec = importlib.util.spec_from_file_location("outcome_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_a_frame_hashes_by_its_values_in_any_float_dtype(scene, K_default):
    """A frame loaded from a map holds float32 planes; it hashes as its
    float64 promotion, as a frame loaded in float64 did."""
    digest = load_script()
    frame = render_one(scene, (0.1, 0.0, 0.2), K_default, synth.CONDITIONS["noon"], (48, 64))
    f32 = synth.StereoFrame(*(np.float32(x) for x in (frame.left, frame.right,
                                                      frame.disparity)), frame.pose)
    f64 = synth.StereoFrame(*(x.astype(np.float64) for x in (f32.left, f32.right,
                                                            f32.disparity)), frame.pose)
    assert digest.frames_sha256([f32]) == digest.frames_sha256([f64])
    assert digest.frames_sha256([f32]) != digest.frames_sha256([frame])


def test_write_records_a_null_reason_from_results_without_one(tmp_path, monkeypatch):
    """As `--src` on a checkout whose LocalizationResult has no reason."""
    digest = load_script()
    localize = harness.localize

    def reasonless(*args, **kwargs):
        r = localize(*args, **kwargs)
        return types.SimpleNamespace(pose=r.pose, inliers=r.inliers, failure=r.failure)

    monkeypatch.setattr(harness, "localize", reasonless)
    rows = list(itertools.islice(digest.digest_rows([1], 1, tmp_path), 8))
    assert len(rows) == 8 and all("reason" in r and r["reason"] is None for r in rows)


def test_write_records_the_ground_truth_offset_that_repeat_computes(tmp_path, monkeypatch):
    """Each row's `gt_offset` is its live frame's planar offset from its
    vertex, as `harness.repeat` computes it for the same frames and map."""
    digest = load_script()
    maps, calls = [], []
    nearest_vertex, localize = harness.nearest_vertex, harness.localize

    def seen_map(teach_map, world_pose):
        maps.append(teach_map)
        return nearest_vertex(teach_map, world_pose)

    def seen_call(frame, *args):
        calls.append((frame, args))
        return localize(frame, *args)

    monkeypatch.setattr(harness, "nearest_vertex", seen_map)
    monkeypatch.setattr(harness, "localize", seen_call)
    rows = list(itertools.islice(digest.digest_rows([1], 1, tmp_path), 8))
    monkeypatch.undo()
    _, extractor, params, K = calls[0][1]
    report = harness.repeat([frame for frame, _ in calls], maps[0], extractor, params, K)
    assert [r["gt_offset"] for r in rows] == [
        [o.alpha, o.beta, o.gamma] for o in report.gt_offsets]


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
    assert len({r["pairs_sha256"] for r in rows}) == 4

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
    assert report["frame_mismatches"] == 0

    rerendered = dict(rows[2], pairs_sha256="0" * 64)
    other.write_text("".join(json.dumps(r) + "\n" for r in (*rows[:2], rerendered, rows[3])))
    proc = run("diff", digest, other)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["frame_mismatches"], report["bitwise_mismatches"]) == (1, 0)

    skipped = dict(rows[1], skipped=[True, *rows[1]["skipped"][1:]])
    other.write_text("".join(json.dumps(r) + "\n" for r in (rows[0], skipped, *rows[2:])))
    proc = run("diff", digest, other)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["skipped_mismatches"], report["gated_mismatches"]) == (1, 0)


def test_digests_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """Identical seeds give byte-identical digests in separate processes,
    one on one BLAS thread and one on two: the learned and the analytic
    localizations of seed 1 (one live frame per condition), and two
    training batches with their gradients."""
    for command, flags in (("write", ["--frames", 1]), ("train", ["--batches", 2])):
        procs = {}
        for threads in (1, 2):
            env = {**os.environ, **dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads))}
            out = tmp_path / f"{command}-{threads}.jsonl"
            procs[out] = subprocess.Popen(
                [sys.executable, str(SCRIPT), command, "--seeds", "1", *map(str, flags),
                 "--out", str(out)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        for out, proc in procs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        one, two = (out.read_bytes() for out in procs)
        assert one == two, command
