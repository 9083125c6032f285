#!/usr/bin/env python3
"""Teach-vs-repeat condition sweep: teach one map per lighting condition,
repeat every condition against it, and emit the square mean-inlier matrix
(rows = teach condition, columns = repeat condition).

    python scripts/condition_matrix.py --out runs/matrix --ckpt runs/exp0/train/checkpoint
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stereoloc import features, harness, synth


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/matrix")
    ap.add_argument("--ckpt", help="checkpoint directory; analytic features if omitted")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--scene-seed", type=int, default=3)
    ap.add_argument("--frames", type=int, default=12)
    ap.add_argument("--conditions", nargs="+", default=list(synth.DAY_SCHEDULE))
    args = ap.parse_args(argv)

    if args.ckpt:
        weights, _ = features.load_checkpoint(args.ckpt)
        extractor = harness.LearnedExtractor(weights)
    else:
        extractor = harness.AnalyticExtractor(window=8)

    scene = synth.generate_scene(args.scene_seed)
    K = synth.default_intrinsics(64, 48)
    poses = synth.path_poses(args.frames)
    live_poses, _ = synth.offset_poses(poses, seed=args.seed)
    params = harness.LocalizeParams()

    # the live frames of a condition are the same under every teach
    # condition: render them once, one pose sequence in a row
    live = [
        synth.render_sequence(
            scene, live_poses, rep_cond, K, (48, 64), seed=args.seed * 100 + 50 + j
        )
        for j, rep_cond in enumerate(args.conditions)
    ]
    records = []
    for i, teach_cond in enumerate(args.conditions):
        teach_frames = synth.render_sequence(
            scene, poses, teach_cond, K, (48, 64), seed=args.seed * 100 + i
        )
        teach_map = harness.teach(teach_frames, extractor, K)
        for rep_cond, live_frames in zip(args.conditions, live):
            report = harness.repeat(live_frames, teach_map, extractor, params, K)
            records.append(
                harness.RunRecord(f"{teach_cond}_vs_{rep_cond}", teach_cond, rep_cond, report)
            )
            print(f"teach {teach_cond:10s} repeat {rep_cond:10s} "
                  f"mean inliers {report.mean_inliers:6.1f} "
                  f"failures {report.failure_count}/{args.frames}")

    written = harness.emit_report(records, args.out)
    print(f"\nwrote {len(written)} files under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
