#!/usr/bin/env python3
"""Per-localization and per-training-batch outcomes, and the diff of two
such digests.

    python3 scripts/outcome_digest.py write --out change.jsonl
    python3 scripts/outcome_digest.py write --src ../parent/src --out parent.jsonl
    python3 scripts/outcome_digest.py train --seeds 1 2 --out change-train.jsonl
    python3 scripts/outcome_digest.py diff parent.jsonl change.jsonl

`write` runs the repeat flow of the benchmark over a grid: per seed,
extractor (the committed benchmark checkpoint, and the analytic extractor)
and disparity source (`gt`, `block`), it teaches a 64x48 noon path, saves
and reloads the map, then localizes the offset live frames of every
`DAY_SCHEDULE` condition in dense and in sparse mode. It writes one JSON
line per localization: the grid keys, the frame, the inlier count, the
failure flag and the pose (`C` row-major then `r`, or null). `--src`
imports `stereoloc` from another checkout's `src`, so two versions of the
code run the same grid with the same weights.

`train` runs the train-desk batches of the benchmark: per seed, the
committed checkpoint's gradients on the first batches of 4 of the training
split of 80 pairs at 32x24. It writes one JSON line per batch: the seed,
the batch, its loss, each sample's loss, gated count and skipped flag, and
the SHA-256 and L2 norm of the flattened gradient (tensors in name order,
float64).

`diff` matches the rows of two digests by their keys. Over localization
rows it reports rows missing from either side, inlier and failure
mismatches, and the largest absolute pose difference over rows where both
sides have a pose. Over training rows it reports rows whose loss, sample
losses or gradient differ in any bit, gated and skipped mismatches, and the
largest relative deltas of the losses and of the gradient norm. It exits 1
when any row is missing, or any inlier count, failure flag, gated count or
skipped flag differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CHECKPOINT = ROOT / "perfbench" / "checkpoint"
SCENE_SEED = 3
SIZE = (48, 64)
TEACH_FRAMES = 10
KEYS = ("seed", "extractor", "disparity", "mode", "condition", "frame")
TRAIN_KEYS = ("seed", "batch")
TRAIN_PAIRS = 80  # 16 validation pairs and a 64-pair training split
TRAIN_BATCH = 4
TRAIN_BATCHES = 16
TRAIN_SIZE = (24, 32)


def digest_rows(seeds: list[int], frames: int, work: Path):
    """Yield one row per localization of the grid."""
    from stereoloc import features, harness, synth

    weights, _ = features.load_checkpoint(CHECKPOINT)
    extractors = {"learned": harness.LearnedExtractor(weights),
                  "analytic": harness.AnalyticExtractor(window=weights.config.window)}
    scene = synth.generate_scene(SCENE_SEED)
    K = synth.default_intrinsics(SIZE[1], SIZE[0])
    poses = synth.path_poses(TEACH_FRAMES)
    for seed in seeds:
        rs = 16 * seed
        teach = synth.render_sequence(scene, poses, "noon", K, SIZE, seed=rs)
        live_poses, _ = synth.offset_poses(poses, seed=seed)
        live = {cond: synth.render_sequence(scene, live_poses[:frames], cond, K, SIZE,
                                            seed=rs + 1 + i)
                for i, cond in enumerate(synth.DAY_SCHEDULE)}
        for name, extractor in extractors.items():
            for disparity in ("gt", "block"):
                map_dir = work / f"map_{seed}_{name}_{disparity}"
                harness.save_map(map_dir, harness.teach(teach, extractor, K, disparity))
                loaded = harness.load_map(map_dir)
                for mode in ("dense", "sparse"):
                    params = harness.LocalizeParams(mode=mode, disparity=disparity)
                    for cond, frames_c in live.items():
                        for i, frame in enumerate(frames_c):
                            vertex = harness.nearest_vertex(loaded, frame.pose)
                            r = harness.localize(frame, vertex, extractor, params, loaded.K)
                            pose = (None if r.pose is None
                                    else [*r.pose.C.ravel().tolist(), *r.pose.r.tolist()])
                            yield {"seed": seed, "extractor": name, "disparity": disparity,
                                   "mode": mode, "condition": cond, "frame": i,
                                   "inliers": r.inliers, "failure": r.failure, "pose": pose}


def train_rows(seeds: list[int], batches: int, work: Path):
    """Yield one row per training batch, per seed."""
    import numpy as np

    from stereoloc import features, synth, training

    weights, _ = features.load_checkpoint(CHECKPOINT)
    for seed in seeds:
        data = synth.make_dataset(work / f"pairs_{seed}", synth.generate_scene(SCENE_SEED),
                                  count=TRAIN_PAIRS, seed=seed, size=TRAIN_SIZE)
        samples, manifest = synth.load_dataset(data)
        train, _ = training.split_dataset(samples, 0.2)
        K = synth.camera_from_dict(manifest["camera"])
        for b in range(batches):
            batch = train[b * TRAIN_BATCH:(b + 1) * TRAIN_BATCH]
            loss, grads, stats = training.total_loss(batch, weights, training.LossConfig(), K)
            flat = np.concatenate([grads[name].ravel() for name in sorted(grads)])
            yield {"seed": seed, "batch": b, "loss": loss,
                   "sample_losses": [s.total for s in stats],
                   "gated": [s.n_gated for s in stats], "skipped": [s.skipped for s in stats],
                   "grad_sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
                   "grad_norm": float(np.linalg.norm(flat))}


def read_digest(path: Path) -> dict[tuple, dict]:
    """Rows keyed by their grid keys; a training row's key starts with
    "train"."""
    rows = (json.loads(line) for line in path.read_text().splitlines() if line.strip())
    return {("train", *(row[k] for k in TRAIN_KEYS)) if "batch" in row
            else tuple(row[k] for k in KEYS): row for row in rows}


def _rel(x: float, y: float) -> float:
    """Relative difference of two finite values; 0 when either is NaN."""
    if math.isnan(x) or math.isnan(y) or x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def diff_train(a: dict[tuple, dict], b: dict[tuple, dict], shared: set) -> dict:
    def losses(row):
        return [row["loss"], *row["sample_losses"]]

    return {
        "train_rows": len(shared),
        "bitwise_mismatches": sum(
            repr(losses(a[k])) != repr(losses(b[k])) or a[k]["grad_sha256"] != b[k]["grad_sha256"]
            for k in shared),
        "gated_mismatches": sum(a[k]["gated"] != b[k]["gated"] for k in shared),
        "skipped_mismatches": sum(a[k]["skipped"] != b[k]["skipped"] for k in shared),
        "max_loss_rel_delta": max((_rel(x, y) for k in shared
                                   for x, y in zip(losses(a[k]), losses(b[k]))), default=0.0),
        "max_grad_norm_rel_delta": max((_rel(a[k]["grad_norm"], b[k]["grad_norm"])
                                        for k in shared), default=0.0),
    }


def diff(a: dict[tuple, dict], b: dict[tuple, dict]) -> dict:
    shared_all = a.keys() & b.keys()
    trained = {k for k in shared_all if k[0] == "train"}
    shared = shared_all - trained
    deltas = [max(abs(x - y) for x, y in zip(a[k]["pose"], b[k]["pose"]))
              for k in shared if a[k]["pose"] is not None and b[k]["pose"] is not None]
    return {
        "rows": len(shared),
        "only_in_first": len(a.keys() - shared_all),
        "only_in_second": len(b.keys() - shared_all),
        "inlier_mismatches": sum(a[k]["inliers"] != b[k]["inliers"] for k in shared),
        "failure_mismatches": sum(a[k]["failure"] != b[k]["failure"] for k in shared),
        "pose_presence_mismatches": sum((a[k]["pose"] is None) != (b[k]["pose"] is None)
                                        for k in shared),
        "max_pose_delta": max(deltas, default=0.0),
        **diff_train(a, b, trained),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="localize the grid and write one JSON line per frame")
    w.add_argument("--out", type=Path, required=True)
    w.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory to import stereoloc from (default: this checkout's src)")
    w.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    w.add_argument("--frames", type=int, default=TEACH_FRAMES,
                   help=f"live frames per condition, at most {TEACH_FRAMES}")
    t = sub.add_parser("train", help="run the training batches and write one JSON line each")
    t.add_argument("--out", type=Path, required=True)
    t.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory to import stereoloc from (default: this checkout's src)")
    t.add_argument("--seeds", type=int, nargs="+", default=[1])
    t.add_argument("--batches", type=int, default=TRAIN_BATCHES,
                   help=f"batches of the training split to run, at most {TRAIN_BATCHES}")
    d = sub.add_parser("diff", help="compare two digests")
    d.add_argument("first", type=Path)
    d.add_argument("second", type=Path)
    args = ap.parse_args(argv)

    if args.command == "diff":
        report = diff(read_digest(args.first), read_digest(args.second))
        print(json.dumps(report))
        bad = ("only_in_first", "only_in_second", "inlier_mismatches", "failure_mismatches",
               "gated_mismatches", "skipped_mismatches")
        return int(any(report[k] for k in bad))

    if args.command == "write" and not 1 <= args.frames <= TEACH_FRAMES:
        ap.error(f"--frames must be in 1..{TEACH_FRAMES}")
    if args.command == "train" and not 1 <= args.batches <= TRAIN_BATCHES:
        ap.error(f"--batches must be in 1..{TRAIN_BATCHES}")
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory(prefix="outcome-digest-") as tmp:
        rows = (digest_rows(args.seeds, args.frames, Path(tmp)) if args.command == "write"
                else train_rows(args.seeds, args.batches, Path(tmp)))
        lines = [json.dumps(row) for row in rows]
    args.out.write_text("\n".join(lines) + "\n")
    what = "localizations" if args.command == "write" else "training batches"
    print(f"{len(lines)} {what} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
