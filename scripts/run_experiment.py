#!/usr/bin/env python3
"""End-to-end desk-scale experiment: generate data, train the extractor,
teach a path at noon, repeat it across the lighting schedule, and report:
`report` names the per-run table and the condition matrix it writes under
`<out>/report`.

Thin wrapper over the CLI subcommands, so the whole chain is reproducible
from one root seed:

    python scripts/run_experiment.py --out runs/exp0 --seed 11
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stereoloc.cli import main as cli
from stereoloc.synth import DAY_SCHEDULE


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/experiment")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--scene-seed", type=int, default=3)
    ap.add_argument("--train-count", type=int, default=250)
    ap.add_argument("--frames", type=int, default=50)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--lr", type=float, default=2e-3)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes for a fast smoke run")
    args = ap.parse_args(argv)

    out = Path(args.out)
    if args.quick:
        args.train_count, args.frames, args.epochs = 30, 8, 3

    scene = ["--scene-seed", str(args.scene_seed)]
    steps = [
        ["synth", "--kind", "pairs", "--count", str(args.train_count),
         "--size", "32x24", "--seed", str(args.seed), *scene,
         "--out", str(out / "pairs")],
        ["train", "--data", str(out / "pairs"), "--lr", str(args.lr),
         "--epochs", str(args.epochs), "--patience", str(args.epochs),
         "--seed", str(args.seed), "--out", str(out / "train")],
        ["synth", "--kind", "path", "--count", str(args.frames),
         "--condition", "noon", "--seed", str(args.seed), *scene,
         "--out", str(out / "teach_seq")],
        ["teach", "--frames", str(out / "teach_seq"),
         "--ckpt", str(out / "train" / "checkpoint"), "--out", str(out / "map")],
    ]
    repeat_dirs = []
    for i, cond in enumerate(DAY_SCHEDULE):
        seq = out / f"seq_{cond}"
        rep = out / f"repeat_{cond}"
        repeat_dirs.append(rep)
        steps.append(["synth", "--kind", "repeat", "--of", str(out / "teach_seq"),
                      "--condition", cond, "--seed", str(args.seed + 1 + i), *scene,
                      "--out", str(seq)])
        steps.append(["repeat", "--map", str(out / "map"), "--frames", str(seq),
                      "--ckpt", str(out / "train" / "checkpoint"),
                      "--name", cond, "--seed", str(args.seed), "--out", str(rep)])
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
