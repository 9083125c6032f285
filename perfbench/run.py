#!/usr/bin/env python3
"""stereoloc benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload repeat-day --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from --seed; the program only sees them):

- train-desk: the acceptance training recipe (32x24 pairs from scene 3,
  channels (8,16,32), window 8, lr 2e-3, batch 4, per-epoch validation)
  driven through `training.train` without early stopping, one epoch per
  call, each call resuming from the committed checkpoint, until --seconds
  have passed.
- repeat-day: teach a 64x48 noon path (dense matching, ground-truth
  disparity) with the committed checkpoint and save the map; then, per
  `DAY_SCHEDULE` condition, `load_map` and `repeat` offset live frames.
- repeat-block: repeat-day with `disparity="block"` for teach and repeat.

Every workload reports the same end-to-end metrics, measured with tracing
off. Times are scaled to a reference machine speed (see SpeedProbe); the
detail line keeps the raw throughput and the median scale factor.

A "step" is one training step (`total_loss` with gradients plus
`adam_step`) on train-desk and one `localize` call on the repeat
workloads. An "item" is a training sample or a localized frame. The
forward-only pass is validation (per validation sample) or teach plus
`save_map` (per taught frame). Quality comes from the validation split on
train-desk (matches kept by the ground-truth gate; samples not skipped)
and from the localized frames on the repeat workloads (inliers; frames
localized). Pose RMSE, failures per condition and the final validation
loss go to the detail line only: they move too much from seed to seed to
carry a bound. `failed` counts operations that raised or produced wrong
output; a frame that does not localize is a recorded outcome, not a failed
operation.

With --trace 1 the run measures half its time untraced and half under the
tracer, and reports per-layer metrics normalised per item (per set-up for
the rendering layers) plus the tracing overhead per item.

The last stdout line is the result JSON; the line before it holds the
environment stamp and workload detail.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common
from common import BLAS_THREADS, CHECKPOINT_DIR, ROOT, SCENE_SEED, git_sha, verify_checkpoint

import numpy as np

from stereoloc import features, harness, synth, training
from tracer import Tracer

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_STEPS = 100  # p90 needs at least 10 samples beyond it

# Contract headers, as documented in README.md ("CSV schemas").
LOSS_CURVE_HEADER = ["epoch", "train_loss", "val_loss", "val_pose_err"]
RUN_CSV_HEADER = ["frame", "inliers", "failure", "pose_error", "heading_error"]

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "items_per_s": "1/s",
    "forward_ms_per_item": "ms",
    "mean_inliers": "count",
    "localized_fraction": "fraction",
}

_PRIMITIVES = ("conv2d", "upsample_bilinear", "bilinear_sample", "rigid_align",
               "softmax", "row_znorm", "matmul")
# name -> unit. Spans: ".ms" total, ".self_ms" self time, ".calls" count,
# all per item; the rest are computed in layer_metrics.
PER_LAYER = {
    "training.total_loss.self_ms": "ms/item",
    "training.adam_step.ms": "ms/item",
    "training.validate.ms": "ms/item",
    "training.total_loss.skipped_fraction": "fraction",
    "training.total_loss.gated_fraction": "fraction",
    "autodiff.backward.self_ms": "ms/item",
    **{f"autodiff.pullback.{p}.ms": "ms/item" for p in _PRIMITIVES},
    **{f"autodiff.{p}.ms": "ms/item" for p in _PRIMITIVES},
    "autodiff.tape.nodes": "count/item",
    "features.forward.calls": "count/item",
    "features.forward.self_ms": "ms/item",
    "features.extract_keypoints.ms": "ms/item",
    "matching.match_all.self_ms": "ms/item",
    "estimator.ransac_pose.self_ms": "ms/item",
    "estimator.ransac_pose.calls": "count/item",
    "estimator.ransac_pose.inlier_ratio": "fraction",
    "estimator.align_core.calls": "count/item",
    "estimator.align_core.degenerate": "count/item",
    "estimator.gt_outlier_gate.ms": "ms/item",
    "synth.block_match_disparity.calls": "count/item",
    "synth.block_match_disparity.ms": "ms/item",
    "synth.render_stereo.ms": "ms/setup",
    "synth.make_dataset.ms": "ms/setup",
    "harness.localize.self_ms": "ms/item",
    "harness.teach.self_ms": "ms/item",
    "harness.nearest_vertex.ms": "ms/item",
    "harness.save_map.self_ms": "ms/item",
    "harness.load_map.self_ms": "ms/item",
    "storage.write_blob.ms": "ms/item",
    "storage.write_blob.bytes": "B/item",
    "storage.read_blob.ms": "ms/item",
    "storage.read_blob.bytes": "B/item",
    "bench.tracing.overhead_ms": "ms/item",
}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no timings."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def csv_header(path: Path) -> list[str]:
    with open(path, newline="") as f:
        return next(csv.reader(f))


class SpeedProbe:
    """Fixed reference work, small matrix products and an interpreter loop
    like the workloads' mix, that measures how fast the machine is right
    now. On a shared host one core's speed swings by a fifth within seconds
    as co-tenants come and go; see Timeline for how the probe is used."""

    # The probe's median time on a 2-core x86_64 Xeon host with OpenBLAS
    # 0.3.31 and one BLAS thread; scaled times read as if run at that speed.
    REF_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 72))
        self._b = rng.standard_normal((72, 3072))
        self.time()  # first-call costs

    def time(self) -> float:
        t0 = time.perf_counter()
        for _ in range(12):
            self._a @ self._b
        x = 0
        for i in range(6000):
            x += i
        return time.perf_counter() - t0


class Timeline:
    """Speed probes between units of work, and the intervals measured.

    A probe runs before every step and around every measured interval.
    Workload time between two consecutive probes is scaled by REF_S over
    their mean, which removes most of the host's speed swings from the
    reported times while leaving probe time out of them."""

    def __init__(self):
        self.probe = SpeedProbe()
        self._starts: list[float] = []  # probe k ran from _starts[k] ...
        self._ends: list[float] = []  # ... to _ends[k]
        self._secs: list[float] = []
        self.factors: list[float] = []  # of the gap after probe k
        self.mark()

    def mark(self) -> None:
        t0 = time.perf_counter()
        secs = self.probe.time()
        if self._secs:
            self.factors.append(2 * SpeedProbe.REF_S / (self._secs[-1] + secs))
        self._starts.append(t0)
        self._ends.append(time.perf_counter())
        self._secs.append(secs)

    def scaled(self, a: float, b: float, raw: bool = False) -> float:
        """Workload seconds in [a, b], probes excluded, each gap scaled
        (unscaled with raw). Call after a probe that follows b."""
        total = 0.0
        for k in range(max(bisect.bisect_right(self._ends, a) - 1, 0), len(self.factors)):
            lo, hi = max(a, self._ends[k]), min(b, self._starts[k + 1])
            if hi > lo:
                total += (hi - lo) * (1.0 if raw else self.factors[k])
            if self._starts[k + 1] >= b:
                break
        return total

    @contextlib.contextmanager
    def interval(self):
        """Time the block, then probe, so the interval is closed by a probe."""
        span = _Span()
        span.start = time.perf_counter()
        yield span
        span.end = time.perf_counter()
        self.mark()


class _Span:
    start = end = 0.0


class Measurement:
    """What one timed loop produced: step intervals, intervals of the main
    product path and of the forward-only pass, and item counts."""

    def __init__(self):
        self.clock = Timeline()
        self.steps: list[tuple[float, float]] = []
        self.product: list[tuple[float, float]] = []
        self.items = 0
        self.forward: list[tuple[float, float]] = []
        self.forward_items = 0
        self.final = None  # what quality() reads: the last train result or day

    def step_ms(self) -> list[float]:
        return [1e3 * self.clock.scaled(a, b) for a, b in self.steps]

    def product_s(self, raw: bool = False) -> float:
        return sum(self.clock.scaled(a, b, raw) for a, b in self.product)

    def forward_ms_per_item(self) -> float:
        return 1e3 * sum(self.clock.scaled(a, b) for a, b in self.forward) / self.forward_items


@contextlib.contextmanager
def step_clock(m: Measurement):
    """Probe and time training steps (total_loss with gradients through
    adam_step) and validation at the training module's attributes, which
    `train` looks up at call time."""
    total_loss, adam_step, validate = training.total_loss, training.adam_step, training.validate
    started = [0.0]

    def timed_loss(samples, weights, lcfg, K, compute_grads=True):
        if compute_grads:
            m.clock.mark()
            started[0] = time.perf_counter()
        return total_loss(samples, weights, lcfg, K, compute_grads)

    def timed_adam(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        m.steps.append((started[0], time.perf_counter()))
        return out

    def timed_validate(samples, *args, **kwargs):
        m.clock.mark()
        with m.clock.interval() as span:
            out = validate(samples, *args, **kwargs)
        m.forward.append((span.start, span.end))
        m.forward_items += len(samples)
        return out

    training.total_loss, training.adam_step, training.validate = (
        timed_loss, timed_adam, timed_validate)
    try:
        yield
    finally:
        training.total_loss, training.adam_step, training.validate = (
            total_loss, adam_step, validate)


@contextlib.contextmanager
def localize_clock(m: Measurement):
    """Probe before and time every `localize` call, at the harness module
    attribute `repeat` looks up at call time."""
    localize = harness.localize

    def timed_localize(*args, **kwargs):
        m.clock.mark()
        t0 = time.perf_counter()
        out = localize(*args, **kwargs)
        m.steps.append((t0, time.perf_counter()))
        return out

    harness.localize = timed_localize
    try:
        yield
    finally:
        harness.localize = localize


# ---------------------------------------------------------------------------
# workloads


class TrainDesk:
    pairs = 80  # 64 train / 16 validation
    epochs = 1  # per training.train call

    def __init__(self):
        self.tcfg = training.TrainConfig(learning_rate=common.TRAIN_LR,
                                         batch_size=common.TRAIN_BATCH,
                                         max_epochs=self.epochs,
                                         early_stop_patience=self.epochs, seed=0)
        self.lcfg = training.LossConfig()

    def setup(self, seed: int, work: Path) -> dict:
        # Training resumes from the committed checkpoint: that is the regime
        # most of the acceptance run spends its epochs in, and it keeps the
        # share of skipped samples (which skip the backward pass) small and
        # steady across seeds, so step times do not jump between modes.
        verify_checkpoint()
        weights, _ = features.load_checkpoint(CHECKPOINT_DIR)
        scene = synth.generate_scene(SCENE_SEED)
        data = synth.make_dataset(work / "pairs", scene, count=self.pairs, seed=seed,
                                  size=common.TRAIN_SIZE)
        samples, manifest = synth.load_dataset(data)
        train, val = training.split_dataset(samples, 0.2)
        return {"train": train, "val": val, "K": synth.camera_from_dict(manifest["camera"]),
                "weights": weights, "work": work}

    def warm_up(self, s: dict) -> None:
        training.total_loss(s["train"][: self.tcfg.batch_size], s["weights"], self.lcfg, s["K"])

    def run(self, s: dict, seconds: float, min_steps: int) -> Measurement:
        m = Measurement()
        curves_text = None
        out = s["work"] / "train"
        t_start = time.perf_counter()
        with step_clock(m):
            while time.perf_counter() - t_start < seconds or len(m.steps) < min_steps:
                with m.clock.interval() as span:
                    result = training.train(s["train"], s["val"], s["weights"], self.tcfg,
                                            self.lcfg, s["K"], out_dir=out)
                m.product.append((span.start, span.end))
                m.items += len(s["train"]) * self.epochs
                text = self.check_curves(out / "loss_curves.csv", result)
                require(curves_text in (None, text),
                        "identical training runs gave different loss curves")
                curves_text = text
                m.final = result
        return m

    def check_curves(self, path: Path, result) -> str:
        require(csv_header(path) == LOSS_CURVE_HEADER,
                f"loss-curve header {csv_header(path)} != {LOSS_CURVE_HEADER}")
        require(len(result.curves) == self.epochs + 1, "training stopped early")
        for row in result.curves:
            losses = [row["val_loss"], row["val_pose_err"]]
            if row["epoch"] > 0:
                losses.append(row["train_loss"])
            require(all(math.isfinite(x) for x in losses), f"non-finite loss in {row}")
        return path.read_text()

    def quality(self, s: dict, m: Measurement) -> dict:
        """Validation pose error of the trained weights."""
        val, result = s["val"], m.final
        _, _, stats = training.total_loss(val, result.weights, self.lcfg, s["K"],
                                             compute_grads=False)
        ok = [(st.est, smp.gt) for st, smp in zip(stats, val) if not st.skipped]
        require(bool(ok), "every validation sample was skipped")
        h, w = val[0].source.left.shape
        window = result.weights.config.window
        n_kp = (h // window) * (w // window)
        sq = [(e.alpha - g.alpha) ** 2 + (e.beta - g.beta) ** 2 for e, g in ok]
        q = {
            "pose_rmse_m": math.sqrt(float(np.mean(sq))),
            "mean_inliers": float(np.mean([n_kp - st.n_gated for st in stats])),
            "localized_fraction": len(ok) / len(val),
            "val_loss": result.curves[-1]["val_loss"],
        }
        require(all(math.isfinite(v) for v in q.values()), f"non-finite quality {q}")
        return q


class Repeat:
    # Ten vertices keep every offset live frame nearest its own vertex (true
    # for all of seeds 0-299), so each localization meets a cold vertex and
    # pays the same two extractor passes; with denser paths some frames hit
    # a vertex a neighbour already warmed, and the step-time median jumps
    # between the two modes from seed to seed.
    teach_frames = 10
    size = (48, 64)

    def __init__(self, disparity: str):
        self.disparity = disparity
        self.params = harness.LocalizeParams(disparity=disparity)

    def setup(self, seed: int, work: Path) -> dict:
        verify_checkpoint()
        weights, _ = features.load_checkpoint(CHECKPOINT_DIR)
        scene = synth.generate_scene(SCENE_SEED)
        K = synth.default_intrinsics(self.size[1], self.size[0])
        poses = synth.path_poses(self.teach_frames)
        rs = 16 * seed
        teach = synth.render_sequence(scene, poses, "noon", K, self.size, seed=rs)
        live_poses, _ = synth.offset_poses(poses, seed=seed)
        live = {
            cond: synth.render_sequence(scene, live_poses, cond, K, self.size, seed=rs + 1 + i)
            for i, cond in enumerate(synth.DAY_SCHEDULE)
        }
        return {"extractor": harness.LearnedExtractor(weights), "K": K, "teach": teach,
                "live": live, "work": work}

    def warm_up(self, s: dict) -> None:
        extractor = s["extractor"]
        tm = harness.teach(s["teach"][:2], extractor, s["K"], disparity_source=self.disparity)
        frame = s["live"]["noon"][0]
        harness.localize(frame, tm.vertices[0], extractor, self.params, s["K"])

    def run(self, s: dict, seconds: float, min_steps: int) -> Measurement:
        m = Measurement()
        map_dir = s["work"] / "map"
        extractor = s["extractor"]
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or len(m.steps) < min_steps:
            with m.clock.interval() as span:
                tm = harness.teach(s["teach"], extractor, s["K"], disparity_source=self.disparity)
                harness.save_map(map_dir, tm)
            m.forward.append((span.start, span.end))
            m.forward_items += len(s["teach"])
            if m.final is None:
                self.check_round_trip(tm, map_dir)

            reports = []
            for cond, frames in s["live"].items():
                with localize_clock(m), m.clock.interval() as span:
                    loaded = harness.load_map(map_dir)
                    report = harness.repeat(frames, loaded, extractor, self.params, loaded.K)
                m.product.append((span.start, span.end))
                m.items += len(frames)
                self.check_report(report, frames, s["work"] / f"run_{cond}.csv")
                reports.append(report)
            day = self.summarize(reports)
            require(m.final in (None, day), "identical repeat passes gave different results")
            m.final = day
        return m

    @staticmethod
    def check_round_trip(tm: harness.TeachMap, map_dir: Path) -> None:
        """Every vertex array survives save_map -> load_map exactly, up to
        the documented float32 storage."""
        loaded = harness.load_map(map_dir)
        require(len(loaded.vertices) == len(tm.vertices), "map lost vertices")
        f32 = lambda a: np.asarray(a, dtype="<f4").astype(float)  # noqa: E731
        for a, b in zip(tm.vertices, loaded.vertices):
            pairs = [(f32(a.coords), b.coords), (f32(a.descriptors), b.descriptors),
                     (f32(a.scores), b.scores), (f32(a.points3d), b.points3d),
                     (f32(a.frame.left), b.frame.left), (f32(a.frame.right), b.frame.right),
                     (f32(a.frame.disparity), b.frame.disparity),
                     (a.world_pose, b.world_pose)]
            require(a.frame_id == b.frame_id
                    and all(x.shape == y.shape and np.array_equal(x, y) for x, y in pairs),
                    f"vertex {a.frame_id} does not round-trip through the map files")

    @staticmethod
    def check_report(report, frames, csv_path: Path) -> None:
        require(len(report.results) == len(frames),
                f"{len(report.results)} frames localized of {len(frames)} attempted")
        if report.failure_count < len(frames):
            require(math.isfinite(report.pose_rmse), "non-finite pose RMSE")
        harness.write_run_csv(report, csv_path)
        require(csv_header(csv_path) == RUN_CSV_HEADER,
                f"run-CSV header {csv_header(csv_path)} != {RUN_CSV_HEADER}")

    @staticmethod
    def quality(s: dict, m: Measurement) -> dict:
        return m.final

    @staticmethod
    def summarize(reports) -> dict:
        results = [r for rep in reports for r in rep.results]
        offsets = [g for rep in reports for g in rep.gt_offsets]
        ok = [(r.planar, g) for r, g in zip(results, offsets) if not r.failure]
        sq = [(p.alpha - g.alpha) ** 2 + (p.beta - g.beta) ** 2 for p, g in ok]
        q = {
            "pose_rmse_m": math.sqrt(float(np.mean(sq))) if sq else math.nan,
            "mean_inliers": float(np.mean([r.inliers for r in results])),
            "localized_fraction": len(ok) / len(results),
            "failures_by_condition": [rep.failure_count for rep in reports],
        }
        require(bool(ok), "no frame localized in a whole day")
        return q


WORKLOADS = {
    "train-desk": TrainDesk,
    "repeat-day": lambda: Repeat("gt"),
    "repeat-block": lambda: Repeat("block"),
}


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    beyond = len(values) * (1 - q / 100)
    require(beyond >= 10, f"p{q:g} of {len(values)} samples has fewer than 10 beyond it")
    return float(np.percentile(values, q))


def end_to_end(setup_times: list[float], m: Measurement, q: dict) -> dict:
    steps = m.step_ms()
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": percentile(steps, 90),
        "items_per_s": m.items / m.product_s(),
        "forward_ms_per_item": m.forward_ms_per_item(),
        "mean_inliers": q["mean_inliers"],
        "localized_fraction": q["localized_fraction"],
    }


def layer_metrics(tr: Tracer, items: int, setup_tr: Tracer, overhead_ms: float) -> dict:
    spans, counts = tr.spans, tr.counts
    out = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        span = spans.get(base)
        if name in ("synth.render_stereo.ms", "synth.make_dataset.ms"):
            s = setup_tr.spans.get(base)
            out[name] = 1e3 * s.total if s else 0.0
        elif stat == "ms":
            out[name] = 1e3 * span.total / items if span else 0.0
        elif stat == "self_ms":
            out[name] = 1e3 * span.self / items if span else 0.0
        elif stat == "calls":
            out[name] = span.calls / items if span else 0.0
        elif stat == "degenerate":
            out[name] = span.errors["DegenerateGeometry"] / items if span else 0.0
        elif stat in ("bytes", "nodes"):
            out[name] = counts[name] / items
        elif stat == "inlier_ratio":
            offered = counts["estimator.ransac_pose.offered"]
            out[name] = counts["estimator.ransac_pose.inliers"] / offered if offered else 0.0
        elif stat == "skipped_fraction":
            n = counts["training.total_loss.samples"]
            out[name] = counts["training.total_loss.skipped"] / n if n else 0.0
        elif stat == "gated_fraction":
            n = counts["training.total_loss.matches"]
            out[name] = counts["training.total_loss.gated"] / n if n else 0.0
        elif name == "bench.tracing.overhead_ms":
            out[name] = overhead_ms
        else:
            raise KeyError(name)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    workload = WORKLOADS[args.workload]()
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    attempted = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            setup_times = []
            setup_tr = Tracer()
            clock = Timeline()
            for i in range(SETUPS):
                traced = args.trace and i == SETUPS - 1
                with setup_tr.installed() if traced else contextlib.nullcontext():
                    with clock.interval() as span:
                        state = workload.setup(args.seed, Path(tmp) / f"setup{i}")
                setup_times.append(clock.scaled(span.start, span.end))
            workload.warm_up(state)

            if not args.trace:
                m = workload.run(state, args.seconds, MIN_STEPS)
                attempted = m.items
                quality = workload.quality(state, m)
                metrics = end_to_end(setup_times, m, quality)
                detail.update(steps=len(m.steps), items=m.items, quality=quality,
                              raw_items_per_s=m.items / m.product_s(raw=True),
                              speed_factor=statistics.median(m.clock.factors))
            else:
                half = args.seconds / 2
                plain = workload.run(state, half, 0)
                tr = Tracer()
                with tr.installed():
                    traced = workload.run(state, half, 0)
                attempted = plain.items + traced.items
                overhead = 1e3 * (traced.product_s() / traced.items
                                  - plain.product_s() / plain.items)
                metrics = layer_metrics(tr, traced.items, setup_tr, overhead)
                detail.update(items=traced.items, quality=workload.quality(state, traced))
        except CheckFailed as exc:
            detail["check_failed"] = str(exc)
            print(json.dumps({"env": environment(), "detail": detail}))
            print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                              "failed": max(attempted, 1), "metrics": {}}))
            return 1

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"env": environment(), "detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
