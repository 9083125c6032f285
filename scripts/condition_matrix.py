#!/usr/bin/env python3
"""Teach-vs-repeat condition sweep: teach one map per lighting condition,
repeat every condition against it, and report the mean-inlier condition
matrix (rows = teach condition, columns = repeat condition).

Thin wrapper over the CLI subcommands, as scripts/run_experiment.py is:

    python scripts/condition_matrix.py --out runs/matrix --ckpt runs/exp0/train/checkpoint

Without `--ckpt` the maps are taught with analytic features. Each repeat
condition's live sequence is rendered once per teach sequence from one
seed, so its frames are the same under every teach condition. The matrix
and the per-run table land in `<out>/report`.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stereoloc.cli import main as cli
from stereoloc.synth import DAY_SCHEDULE


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/matrix")
    ap.add_argument("--ckpt", help="checkpoint directory; analytic features if omitted")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--scene-seed", type=int, default=3)
    ap.add_argument("--frames", type=int, default=12)
    ap.add_argument("--conditions", nargs="+", default=list(DAY_SCHEDULE))
    args = ap.parse_args(argv)

    out = Path(args.out)
    scene = ["--scene-seed", str(args.scene_seed)]
    extractor = ["--ckpt", args.ckpt] if args.ckpt else ["--features", "analytic"]
    steps, repeat_dirs = [], []
    for i, teach_cond in enumerate(args.conditions):
        teach_seq, map_dir = out / f"teach_{teach_cond}", out / f"map_{teach_cond}"
        steps.append(["synth", "--kind", "path", "--count", str(args.frames),
                      "--condition", teach_cond, "--seed", str(args.seed * 100 + i), *scene,
                      "--out", str(teach_seq)])
        steps.append(["teach", "--frames", str(teach_seq), *extractor, "--out", str(map_dir)])
        for j, rep_cond in enumerate(args.conditions):
            name = f"{teach_cond}_vs_{rep_cond}"
            seq, rep = out / f"seq_{name}", out / f"repeat_{name}"
            repeat_dirs.append(rep)
            steps.append(["synth", "--kind", "repeat", "--of", str(teach_seq),
                          "--condition", rep_cond, "--seed", str(args.seed * 100 + 50 + j),
                          *scene, "--out", str(seq)])
            steps.append(["repeat", "--map", str(map_dir), "--frames", str(seq), *extractor,
                          "--name", name, "--out", str(rep)])
    steps.append(["report", "--runs", *[str(d) for d in repeat_dirs],
                  "--out", str(out / "report")])

    for step in steps:
        print(f"\n== stereoloc {' '.join(step[:4])} ...")
        code = cli(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
