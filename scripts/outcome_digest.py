#!/usr/bin/env python3
"""Per-localization outcomes, and the diff of two such digests.

    python3 scripts/outcome_digest.py write --out change.jsonl
    python3 scripts/outcome_digest.py write --src ../parent/src --out parent.jsonl
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

`diff` matches the rows of two digests by their keys and reports rows
missing from either side, inlier and failure mismatches, and the largest
absolute pose difference over rows where both sides have a pose. It exits
1 when any row is missing or any inlier count or failure flag differs.
"""

from __future__ import annotations

import argparse
import json
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


def read_digest(path: Path) -> dict[tuple, dict]:
    rows = (json.loads(line) for line in path.read_text().splitlines() if line.strip())
    return {tuple(row[k] for k in KEYS): row for row in rows}


def diff(a: dict[tuple, dict], b: dict[tuple, dict]) -> dict:
    shared = a.keys() & b.keys()
    deltas = [max(abs(x - y) for x, y in zip(a[k]["pose"], b[k]["pose"]))
              for k in shared if a[k]["pose"] is not None and b[k]["pose"] is not None]
    return {
        "rows": len(shared),
        "only_in_first": len(a.keys() - shared),
        "only_in_second": len(b.keys() - shared),
        "inlier_mismatches": sum(a[k]["inliers"] != b[k]["inliers"] for k in shared),
        "failure_mismatches": sum(a[k]["failure"] != b[k]["failure"] for k in shared),
        "pose_presence_mismatches": sum((a[k]["pose"] is None) != (b[k]["pose"] is None)
                                        for k in shared),
        "max_pose_delta": max(deltas, default=0.0),
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
    d = sub.add_parser("diff", help="compare two digests")
    d.add_argument("first", type=Path)
    d.add_argument("second", type=Path)
    args = ap.parse_args(argv)

    if args.command == "diff":
        report = diff(read_digest(args.first), read_digest(args.second))
        print(json.dumps(report))
        bad = ("only_in_first", "only_in_second", "inlier_mismatches", "failure_mismatches")
        return int(any(report[k] for k in bad))

    if not 1 <= args.frames <= TEACH_FRAMES:
        ap.error(f"--frames must be in 1..{TEACH_FRAMES}")
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory(prefix="outcome-digest-") as tmp:
        lines = [json.dumps(row) for row in digest_rows(args.seeds, args.frames, Path(tmp))]
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} localizations -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
