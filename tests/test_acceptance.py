"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. Criteria 6 and 7 share one trained extractor (the expensive fixture);
everything else is self-contained and fast.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from stereoloc import features, harness, matching, synth, training
from stereoloc.autodiff import Tape
from stereoloc.cli import gradient_cross_check, main
from stereoloc.estimator import RansacParams, ransac_pose
from stereoloc.features import KeypointSet
from stereoloc.geometry import (
    CameraIntrinsics,
    PlanarPose,
    backproject_points,
    se3_to_planar,
)
from stereoloc.training import LossConfig, TrainConfig

from oracles import (
    AlignmentProblem,
    feature_map,
    keypoint_loss,
    match_all_reference,
    match_attention,
    pose_loss,
    project_points,
    weighted_alignment,
)
from test_estimator import grid_search_planar, planar_instance

SCENE_SEED = 3
DATA_SEED = 11
EXTRACTOR_SEED = 5


def emit(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}", flush=True)


def check(criterion: int, ok: bool, detail: str) -> None:
    emit(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def trained_rig(tmp_path_factory):
    """Dataset generation + full training + teach/repeat frames, timed."""
    tmp = tmp_path_factory.mktemp("acceptance")
    timings = {}

    t0 = time.perf_counter()
    scene = synth.generate_scene(SCENE_SEED)
    data_dir = synth.make_dataset(tmp / "pairs", scene, count=250, seed=DATA_SEED,
                                  size=(24, 32))
    samples, manifest = synth.load_dataset(data_dir)
    K_train = synth.camera_from_dict(manifest["camera"])
    train_samples, val_samples = training.split_dataset(samples, 0.2)
    timings["dataset"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cfg = features.ExtractorConfig(channels=(8, 16, 32), window=8, seed=EXTRACTOR_SEED)
    weights = features.init_weights(cfg)
    tcfg = TrainConfig(learning_rate=2e-3, batch_size=4, max_epochs=20,
                       early_stop_patience=20, seed=0)
    result = training.train(train_samples, val_samples, weights, tcfg, LossConfig(),
                            K_train, out_dir=tmp / "train")
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    K = synth.default_intrinsics(64, 48)
    poses = synth.path_poses(50)
    teach_frames = synth.render_sequence(scene, poses, "noon", K, (48, 64), seed=100)
    live_poses, _ = synth.offset_poses(poses, seed=200)
    repeat_frames = {
        cond: synth.render_sequence(scene, live_poses, cond, K, (48, 64), seed=300 + i)
        for i, cond in enumerate(["night", "midnight"])
    }
    timings["render_paths"] = time.perf_counter() - t0

    maps = {}
    reports = {}
    t0 = time.perf_counter()
    for name, extractor in (
        ("trained", harness.LearnedExtractor(result.weights)),
        ("analytic", harness.AnalyticExtractor(window=8)),
    ):
        teach_map = harness.teach(teach_frames, extractor, K)
        maps[name] = teach_map
        for cond, frames in repeat_frames.items():
            reports[(name, cond)] = harness.repeat(
                frames, teach_map, extractor, harness.LocalizeParams(), K
            )
    timings["teach_repeat"] = time.perf_counter() - t0

    return {
        "result": result,
        "curves": result.curves,
        "reports": reports,
        "timings": timings,
        "n_frames": len(poses),
    }


def test_criterion_1_gradient_correctness(tmp_path):
    start = time.perf_counter()
    scene = synth.generate_scene(SCENE_SEED)
    synth.make_dataset(tmp_path / "pair", scene, count=1, seed=DATA_SEED, size=(24, 32))
    samples, manifest = synth.load_dataset(tmp_path / "pair")
    K = synth.camera_from_dict(manifest["camera"])
    weights = features.init_weights(
        features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=EXTRACTOR_SEED)
    )
    rel = gradient_cross_check(samples, weights, LossConfig(), K)
    elapsed = time.perf_counter() - start
    check(
        1,
        rel < 1e-4 and elapsed < 60.0,
        f"total-loss gradient vs central differences: rel err {rel:.2e} "
        f"(tol 1e-4) in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_alignment_exactness():
    worst_rot = worst_tr = 0.0
    for seed in range(20):
        ps, pt, w, _, T = planar_instance(seed, n=5, noise=0.0)
        pose = weighted_alignment(AlignmentProblem(ps, pt, w))
        worst_rot = max(worst_rot, float(np.linalg.norm(pose.C - T.C)))
        worst_tr = max(worst_tr, float(np.linalg.norm(pose.r - T.r)))

    worst_grid = 0.0
    for seed in range(50):
        ps, pt, w, pp, _ = planar_instance(seed + 100, n=5, noise=5e-4)
        est = se3_to_planar(weighted_alignment(AlignmentProblem(ps, pt, w)))
        grid = grid_search_planar(ps, pt, w, pp, half_range=0.02, spacing=1e-3)
        worst_grid = max(
            worst_grid,
            abs(est.alpha - grid[0]), abs(est.beta - grid[1]), abs(est.gamma - grid[2]),
        )
    check(
        2,
        worst_rot < 1e-9 and worst_tr < 1e-9 and worst_grid <= 1e-3 + 1e-12,
        f"noise-free recovery rot {worst_rot:.2e} / tr {worst_tr:.2e} (tol 1e-9); "
        f"grid-search deviation {worst_grid:.2e} (spacing 1e-3, 50 noisy instances)",
    )


def test_criterion_3_camera_roundtrip():
    rng = np.random.default_rng(0)
    K = CameraIntrinsics(fu=60.0, fv=58.0, cu=31.5, cv=23.5, b=0.3)
    p = np.stack(
        [rng.uniform(-3, 3, 1000), rng.uniform(-2, 2, 1000), rng.uniform(0.5, 10, 1000)],
        axis=1,
    )
    err_p = np.abs(backproject_points(project_points(p, K), K) - p).max()
    obs = np.stack(
        [rng.uniform(0, 63, 1000), rng.uniform(0, 47, 1000), rng.uniform(1, 30, 1000)],
        axis=1,
    )
    err_y = np.abs(project_points(backproject_points(obs, K), K) - obs).max()
    check(
        3,
        err_p < 1e-12 and err_y < 1e-12,
        f"project/backproject roundtrips on 1000 points: {err_p:.2e}, {err_y:.2e} (tol 1e-12)",
    )


def test_criterion_4_matching_oracle():
    worst = 0.0
    worst_rows = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tape = Tape()
        desc = rng.normal(size=(6, 12, 16))
        stack, _ = feature_map(
            tape, desc, rng.uniform(0.2, 0.8, size=(12, 16)), np.zeros((12, 16))
        )
        src = rng.normal(size=(4, 6))
        kps = KeypointSet(  # a batch of one
            tape.constant(np.ones((1, 4, 2))), tape.constant(src[None]),
            tape.constant(np.full((1, 4), 0.5)),
        )
        points, _ = matching.match_all(kps, [stack], tau=15.0)
        ref = match_all_reference(src, desc, tau=15.0)
        worst = max(worst, float(np.abs(points.value[0] - ref).max()))
        attn = match_attention(kps, stack, 15.0)
        worst_rows = max(worst_rows, float(np.abs(attn.value.sum(axis=-1) - 1).max()))
    check(
        4,
        worst < 1e-10 and worst_rows < 1e-9,
        f"match_all vs double-loop reference on 20 random 16x12 instances: "
        f"{worst:.2e} (tol 1e-10); softmax row sums off by {worst_rows:.2e} (tol 1e-9)",
    )


def test_criterion_5_ransac_robustness():
    from test_estimator import TestRansac

    worst_pose = 0.0
    all_masks_exact = True
    for seed in range(20):
        ps, pt, w, T, true_mask = TestRansac.contaminated_instance(
            seed, n=30, outlier_fraction=0.3, offset=5.0
        )
        params = RansacParams(iterations=500, inlier_threshold=0.1, min_inliers=6,
                              seed=seed)
        pose, mask = ransac_pose(ps, pt, w, params)
        all_masks_exact &= bool(np.array_equal(mask, true_mask))
        worst_pose = max(
            worst_pose,
            float(np.abs(pose.C - T.C).max()),
            float(np.linalg.norm(pose.r - T.r)),
        )
    check(
        5,
        all_masks_exact and worst_pose < 1e-6,
        f"30% gross outliers, 500 iterations, 20 seeds: pose err {worst_pose:.2e} "
        f"(tol 1e-6), masks exact: {all_masks_exact}",
    )


def test_criterion_6_training_efficacy(trained_rig):
    curves = trained_rig["curves"]
    baseline = curves[0]["val_pose_err"]
    within_20 = [c["val_pose_err"] for c in curves if 0 < c["epoch"] <= 20]
    best = min(within_20)
    drop_ok = best <= 0.5 * baseline

    report = trained_rig["reports"][("trained", "night")]
    inliers_ok = report.mean_inliers >= 20.0
    failure_ok = report.failure_fraction < 0.05

    total_time = sum(trained_rig["timings"].values())
    time_ok = total_time < 15 * 60
    check(
        6,
        drop_ok and inliers_ok and failure_ok and time_ok,
        f"val pose loss {baseline:.3f} -> {best:.3f} "
        f"({100 * (1 - best / baseline):.0f}% drop, need >=50%); night repeat over "
        f"{trained_rig['n_frames']} frames: mean inliers {report.mean_inliers:.1f} "
        f"(need >=20), failure fraction {report.failure_fraction:.3f} (need <0.05); "
        f"pipeline {total_time:.0f}s (budget 900s)",
    )


def test_criterion_7_trained_beats_analytic(trained_rig):
    reports = trained_rig["reports"]
    night_t = reports[("trained", "night")].mean_inliers
    night_a = reports[("analytic", "night")].mean_inliers
    mid_t = reports[("trained", "midnight")].mean_inliers
    mid_a = reports[("analytic", "midnight")].mean_inliers
    check(
        7,
        night_t > night_a and mid_t > mid_a,
        f"mean inliers under the two strongest conditions, trained vs analytic: "
        f"night {night_t:.1f} > {night_a:.1f}, midnight {mid_t:.1f} > {mid_a:.1f}",
    )


def _run_mini_pipeline(root: Path) -> dict[str, Path]:
    data = root / "data"
    teach_seq = root / "teach"
    night_seq = root / "night"
    run = root / "run"
    map_dir = root / "map"
    rep = root / "rep"
    assert main(["synth", "--kind", "pairs", "--count", "10", "--size", "32x24",
                 "--seed", "5", "--scene-seed", str(SCENE_SEED), "--out", str(data)]) == 0
    assert main(["synth", "--kind", "path", "--count", "6", "--condition", "noon",
                 "--seed", "5", "--scene-seed", str(SCENE_SEED), "--out", str(teach_seq)]) == 0
    assert main(["synth", "--kind", "repeat", "--of", str(teach_seq), "--condition",
                 "night", "--seed", "6", "--scene-seed", str(SCENE_SEED),
                 "--out", str(night_seq)]) == 0
    assert main(["train", "--data", str(data), "--lr", "1e-3", "--epochs", "2",
                 "--patience", "3", "--channels", "2,3,4", "--val-fraction", "0.2",
                 "--out", str(run)]) == 0
    assert main(["teach", "--frames", str(teach_seq), "--ckpt", str(run / "checkpoint"),
                 "--out", str(map_dir)]) == 0
    assert main(["repeat", "--map", str(map_dir), "--frames", str(night_seq),
                 "--ckpt", str(run / "checkpoint"), "--mode", "sparse",
                 "--name", "night", "--out", str(rep)]) == 0
    return {"data": data, "run": run, "rep": rep}


def test_criterion_8_determinism(tmp_path):
    a = _run_mini_pipeline(tmp_path / "a")
    b = _run_mini_pipeline(tmp_path / "b")

    mismatches = []
    for f in sorted(a["data"].glob("*.f32")) + [a["data"] / "manifest.json"]:
        if f.read_bytes() != (b["data"] / f.name).read_bytes():
            mismatches.append(f"dataset/{f.name}")
    if (a["run"] / "loss_curves.csv").read_bytes() != (b["run"] / "loss_curves.csv").read_bytes():
        mismatches.append("loss_curves.csv")
    if (a["rep"] / "run_night.csv").read_bytes() != (b["rep"] / "run_night.csv").read_bytes():
        mismatches.append("run_night.csv")
    check(
        8,
        not mismatches,
        "identical seeds give bitwise-identical dataset files, loss curves, and "
        f"run CSVs (mismatches: {mismatches or 'none'})",
    )


def test_criterion_9_loss_identities():
    rng = np.random.default_rng(7)
    worst_z = worst_self = worst_rot = 0.0
    for _ in range(100):
        p_s = rng.normal(size=(5, 3))
        p_t = rng.normal(size=(5, 3))
        gt = PlanarPose(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1))
        shifted = p_t.copy()
        shifted[:, 2] += rng.uniform(-100, 100)
        worst_z = max(worst_z, abs(keypoint_loss(p_s, shifted, gt) - keypoint_loss(p_s, p_t, gt)))

        pp = PlanarPose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        worst_self = max(worst_self, pose_loss(pp, pp, rng.uniform(0.5, 2.0)))

        ga, gb = rng.uniform(-math.pi, math.pi, 2)
        a = PlanarPose(0.0, 0.0, ga)
        b = PlanarPose(0.0, 0.0, gb)
        worst_rot = max(
            worst_rot, abs(pose_loss(a, b, 1.0) - 4.0 * (1.0 - math.cos(ga - gb)))
        )
    check(
        9,
        worst_z < 1e-12 and worst_self < 1e-12 and worst_rot < 1e-12,
        f"keypoint-loss z-invariance {worst_z:.2e}, pose_loss(a,a) {worst_self:.2e}, "
        f"rotation closed form {worst_rot:.2e} (all tol 1e-12, 100 instances each)",
    )
