#!/usr/bin/env python3
"""Per-frame latency and minor page faults of the repeat-day flow.

    python3 scripts/fault_probe.py --disparity gt block

Teaches a 64x48 noon path with the committed benchmark checkpoint and
saves the map, then, per day condition, loads the map and localizes the
offset live frames one by one (as `perfbench/run.py --workload repeat-day`
does, and `repeat-block` for `block` disparity). Every round repeats teach,
save and all conditions; the first round is a warm-up and is not reported.
For each frame position after `load_map` the probe prints the median
`localize` time and the median minor page faults of this process over the
measured rounds and conditions, read with `resource.getrusage`. Position 0
meets a freshly loaded map; the later positions are the steady state.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from stereoloc import features, harness, synth  # noqa: E402

CHECKPOINT = ROOT / "perfbench" / "checkpoint"
SCENE_SEED = 3
SIZE = (48, 64)
TEACH_FRAMES = 10


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def probe(disparity: str, seed: int, conditions: list[str], frames: int, rounds: int,
          work: Path) -> dict[int, list[tuple[float, int]]]:
    """{frame position: [(ms, minor faults) per measured localize]}."""
    weights, _ = features.load_checkpoint(CHECKPOINT)
    extractor = harness.LearnedExtractor(weights)
    scene = synth.generate_scene(SCENE_SEED)
    K = synth.default_intrinsics(SIZE[1], SIZE[0])
    poses = synth.path_poses(TEACH_FRAMES)
    rs = 16 * seed
    teach = synth.render_sequence(scene, poses, "noon", K, SIZE, seed=rs)
    live_poses, _ = synth.offset_poses(poses, seed=seed)
    live = {
        cond: synth.render_sequence(scene, live_poses[:frames], cond, K, SIZE, seed=rs + 1 + i)
        for i, cond in enumerate(synth.DAY_SCHEDULE) if cond in conditions
    }
    params = harness.LocalizeParams(disparity=disparity)
    map_dir = work / f"map_{disparity}"

    samples: dict[int, list[tuple[float, int]]] = {}
    for round_ in range(rounds + 1):
        tm = harness.teach(teach, extractor, K, disparity_source=disparity)
        harness.save_map(map_dir, tm)
        for frames_c in live.values():
            loaded = harness.load_map(map_dir)
            for pos, frame in enumerate(frames_c):
                vertex = harness.nearest_vertex(loaded, frame.pose)
                f0 = minor_faults()
                t0 = time.perf_counter()
                harness.localize(frame, vertex, extractor, params, loaded.K)
                dt = time.perf_counter() - t0
                df = minor_faults() - f0
                if round_:
                    samples.setdefault(pos, []).append((1e3 * dt, df))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--disparity", nargs="+", choices=("gt", "block"), default=["gt", "block"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--conditions", nargs="+", default=list(synth.DAY_SCHEDULE),
                    choices=synth.DAY_SCHEDULE)
    ap.add_argument("--frames", type=int, default=TEACH_FRAMES,
                    help=f"live frames per condition, at most {TEACH_FRAMES}")
    ap.add_argument("--rounds", type=int, default=3, help="measured rounds after the warm-up")
    args = ap.parse_args(argv)
    if not 1 <= args.frames <= TEACH_FRAMES or args.rounds < 1:
        ap.error(f"--frames must be in 1..{TEACH_FRAMES} and --rounds at least 1")

    with tempfile.TemporaryDirectory(prefix="fault-probe-") as tmp:
        for disparity in args.disparity:
            samples = probe(disparity, args.seed, args.conditions, args.frames, args.rounds,
                            Path(tmp))
            print(f"{disparity}: position, median ms, median minor faults "
                  f"({len(samples[0])} localizations each)")
            for pos, vals in sorted(samples.items()):
                ms = statistics.median(v[0] for v in vals)
                faults = statistics.median(v[1] for v in vals)
                print(f"{disparity} {pos:3d} {ms:8.2f} {faults:8.0f}")
            steady = [v[1] for pos, vals in samples.items() if pos for v in vals]
            if steady:
                print(f"{disparity} first-frame faults {statistics.median(v[1] for v in samples[0]):.0f}"
                      f", steady-state faults {statistics.median(steady):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
