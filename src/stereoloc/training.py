"""Losses, Adam optimization, and the training loop.

Each training batch records one tape. Over the whole batch at once: one
extractor forward on the source frames, their descriptors and scores on the
targets, windowed keypoint detection, dense soft matching and stereo 3D
lifting. Then per sample: ground-truth outlier gating, the keypoint loss
(planar coordinates of gated pairs) plus the pose loss on the
differentiable weighted-SVD alignment. One backward pass runs on the sum.
Early stopping watches the validation loss; the best-validation weights
win.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import estimator, features, matching, storage
from .autodiff import Tape, Var
from .errors import ConfigError, DegenerateGeometry, DegenerateGradient
from .geometry import CameraIntrinsics, PlanarPose, planar_to_se3, valid_disparity
from .synth import Sample


@dataclass(frozen=True)
class LossConfig:
    lam: float = 1.0  # rotation/translation balance in the pose loss
    keypoint_weight: float = 1.0  # keypoint loss weight relative to pose loss
    gate_threshold: float = 0.5  # planar gating of training outliers (metres)
    tau: float = matching.DEFAULT_TEMPERATURE

    def __post_init__(self):
        if min(self.lam, self.gate_threshold, self.tau) <= 0:
            raise ValueError("lam, gate_threshold, and tau must be positive")
        if self.keypoint_weight < 0:  # 0 is the pose-loss-only limit case
            raise ValueError("keypoint_weight must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 4
    max_epochs: int = 20
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


# ---------------------------------------------------------------------------
# per-batch tape construction

# Samples recorded on one tape: the training batch. Validation hands
# `total_loss` all its samples, and one tape over them all would hold every
# image's maps at once.
TAPE_SAMPLES = 4


@dataclass
class SampleStats:
    total: float = math.nan
    keypoint: float = math.nan
    pose: float = math.nan
    n_gated: int = 0
    skipped: bool = False
    est: PlanarPose | None = None


def _lift(coords: Var, disp_maps: np.ndarray, K: CameraIntrinsics) -> Var:
    """Backproject (B, N, 2) tape keypoints through their images'
    ground-truth disparity maps (B, H, W); returns (B, N, 3). A keypoint
    whose bilinear footprint weights an invalid pixel lifts to NaN, which the
    gate drops; such pixels are sampled as 0 plus a mask channel, so no
    non-finite value reaches the tape."""
    tape = coords.tape
    valid = valid_disparity(disp_maps)
    maps = tape.constant(np.stack([np.where(valid, disp_maps, 0.0), ~valid]))
    sampled = ad.bilinear_sample(maps, coords)
    d = ad.reshape(ad.take(sampled, slice(0, 1), axis=-1), coords.shape[:-1])
    ok = (sampled.value[..., 1] == 0) & valid_disparity(d.value)
    return ad.backproject(coords, d, K, ok)


def _scalar(x: Var) -> Var:
    return ad.reshape(x, ())


def _batch_matches(
    tape: Tape,
    params: dict[str, Var],
    cfg: features.ExtractorConfig,
    batch: list[Sample],
    K: CameraIntrinsics,
    lcfg: LossConfig,
) -> tuple[Var, Var, Var]:
    """Record the batch's shared pipeline, up to the ground-truth gate: one
    extractor pass over the sources and one over the targets, keypoints,
    soft matches and both lifts. Returns the lifted source points and
    matches as rows (B*N, 3) and the match weights as (B*N,), sample b
    owning rows b*N to (b+1)*N."""
    sources = np.stack([s.source.left for s in batch])
    targets = np.stack([s.target.left for s in batch])
    fmap_s = features.forward(sources, params, cfg, tape)
    fmap_t = features.forward_target(targets, params, cfg, tape)
    kps = features.extract_keypoints(fmap_s, cfg.window)
    target_points, match_w = matching.match_all(kps, fmap_t, tau=lcfg.tau)

    p_s = _lift(kps.coords, np.stack([s.source.disparity for s in batch]), K)
    p_t = _lift(target_points, np.stack([s.target.disparity for s in batch]), K)
    rows = match_w.value.size
    return (ad.reshape(p_s, (rows, 3)), ad.reshape(p_t, (rows, 3)),
            ad.reshape(match_w, (rows,)))


def build_sample_loss(
    p_s: Var,
    p_t: Var,
    match_w: Var,
    rows: slice,
    sample: Sample,
    lcfg: LossConfig,
) -> tuple[Var | None, SampleStats]:
    """Record one sample's loss on its batch's tape, from the sample's
    `rows` of the batch's lifted points, matches and match weights (see
    `_batch_matches`); returns (loss, stats).

    Samples with fewer than 4 gated matches, or whose alignment is too
    degenerate to differentiate, are skipped (loss None).
    """
    tape = p_s.tape
    stats = SampleStats()
    keep = estimator.gt_outlier_gate(
        p_s.value[rows], p_t.value[rows], sample.gt, lcfg.gate_threshold
    )
    idx = rows.start + np.flatnonzero(keep)
    stats.n_gated = int(len(keep) - len(idx))
    if len(idx) < 4:
        stats.skipped = True
        return None, stats

    p_s_g = ad.take(p_s, idx, axis=0)
    p_t_g = ad.take(p_t, idx, axis=0)
    w_g = ad.take(match_w, idx, axis=0)

    # keypoint loss: planar residual against the ground-truth transform
    T_gt = planar_to_se3(sample.gt)
    pred = ad.add(ad.matmul(p_s_g, tape.constant(T_gt.C.T)), tape.constant(T_gt.r))
    diff = ad.sub(ad.take(pred, [0, 1], axis=1), ad.take(p_t_g, [0, 1], axis=1))
    l_kp = ad.sum_(ad.mul(diff, diff))

    # pose loss: differentiable weighted alignment, planar-extracted
    try:
        aligned = ad.rigid_align(p_s_g, p_t_g, w_g)
    except (DegenerateGeometry, DegenerateGradient):
        stats.skipped = True
        return None, stats
    c00 = _scalar(ad.take(aligned, [0]))
    c10 = _scalar(ad.take(aligned, [3]))
    rx = _scalar(ad.take(aligned, [9]))
    ry = _scalar(ad.take(aligned, [10]))
    yaw = ad.atan2(c10, c00)
    # For z-axis rotations the Frobenius term reduces to 4 * (1 - cos dyaw).
    dt_x = ad.sub(rx, sample.gt.alpha)
    dt_y = ad.sub(ry, sample.gt.beta)
    rot = ad.mul(ad.sub(1.0, ad.cos(ad.sub(yaw, sample.gt.gamma))), 4.0 * lcfg.lam)
    l_pose = ad.add(ad.add(ad.mul(dt_x, dt_x), ad.mul(dt_y, dt_y)), rot)

    total = ad.add(ad.mul(l_kp, lcfg.keypoint_weight), l_pose)
    stats.total = float(total.value)
    stats.keypoint = float(l_kp.value)
    stats.pose = float(l_pose.value)
    stats.est = PlanarPose(float(rx.value), float(ry.value), float(yaw.value))
    return total, stats


def total_loss(
    samples: list[Sample],
    weights: features.ExtractorWeights,
    lcfg: LossConfig,
    K: CameraIntrinsics,
    compute_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None, list[SampleStats]]:
    """Mean loss over samples, with gradients accumulated in a fixed order.

    Each run of up to TAPE_SAMPLES samples records one tape and, with
    gradients, one backward pass over the sum of its losses. Skipped samples
    contribute nothing; if every sample is skipped the loss is nan and the
    gradients are zero.
    """
    cfg = weights.config
    grad_sum = (
        {k: np.zeros_like(v) for k, v in weights.tensors.items()}
        if compute_grads
        else None
    )
    losses = []
    stats_all = []
    for start in range(0, len(samples), TAPE_SAMPLES):
        batch = samples[start : start + TAPE_SAMPLES]
        tape = Tape(grad=compute_grads)
        params = weights.bind(tape)
        p_s, p_t, match_w = _batch_matches(tape, params, cfg, batch, K, lcfg)
        per = len(match_w.value) // len(batch)  # keypoints per sample
        kept = []
        for b, sample in enumerate(batch):
            loss, stats = build_sample_loss(
                p_s, p_t, match_w, slice(b * per, (b + 1) * per), sample, lcfg
            )
            stats_all.append(stats)
            if loss is not None:
                kept.append(loss)
                losses.append(float(loss.value))
        if compute_grads and kept:
            grads = ad.backward(tape, functools.reduce(ad.add, kept))
            for name in grad_sum:
                grad_sum[name] += grads[params[name].index]
    n = len(losses)
    mean = float(np.mean(losses)) if n else math.nan
    if compute_grads and n:
        for name in grad_sum:
            grad_sum[name] /= n
    return mean, grad_sum, stats_all


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_params(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            {k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    weights: features.ExtractorWeights
    curves: list[dict]
    best_epoch: int
    stopped_epoch: int


def validate(
    samples: list[Sample],
    weights: features.ExtractorWeights,
    lcfg: LossConfig,
    K: CameraIntrinsics,
) -> tuple[float, float, int]:
    """Forward-only mean total loss, mean pose loss, and the number of
    skipped samples, which the means leave out."""
    mean, _, stats = total_loss(samples, weights, lcfg, K, compute_grads=False)
    pose_losses = [s.pose for s in stats if not s.skipped]
    skipped = len(stats) - len(pose_losses)
    return mean, float(np.mean(pose_losses)) if pose_losses else math.nan, skipped


def train(
    train_samples: list[Sample],
    val_samples: list[Sample],
    weights: features.ExtractorWeights,
    tcfg: TrainConfig,
    lcfg: LossConfig,
    K: CameraIntrinsics,
    out_dir: str | Path | None = None,
    log=None,
) -> TrainResult:
    """Adam epochs with early stopping on the validation loss.

    Writes the best-validation checkpoint plus CSV loss curves when out_dir
    is given; epoch 0 records the untrained validation baseline.
    """
    if not train_samples or not val_samples:
        raise ConfigError("train and validation splits must be nonempty")
    weights = weights.copy()
    state = AdamState.for_params(weights.tensors)

    val_loss, val_pose, _ = validate(val_samples, weights, lcfg, K)
    curves = [
        {"epoch": 0, "train_loss": math.nan, "val_loss": val_loss, "val_pose_err": val_pose}
    ]
    best_val = val_loss if math.isfinite(val_loss) else math.inf  # a NaN is never beaten
    best_epoch = 0
    best_weights = weights.copy()
    patience_left = tcfg.early_stop_patience
    stopped = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        order = np.random.default_rng([tcfg.seed, epoch]).permutation(len(train_samples))
        epoch_losses = []
        for start in range(0, len(order), tcfg.batch_size):
            batch = [train_samples[i] for i in order[start : start + tcfg.batch_size]]
            mean, grads, _ = total_loss(batch, weights, lcfg, K)
            if not math.isfinite(mean):
                continue
            epoch_losses.append(mean)
            adam_step(weights.tensors, grads, state, tcfg.learning_rate)
        train_mean = float(np.mean(epoch_losses)) if epoch_losses else math.nan
        val_loss, val_pose, skipped = validate(val_samples, weights, lcfg, K)
        curves.append(
            {"epoch": epoch, "train_loss": train_mean, "val_loss": val_loss,
             "val_pose_err": val_pose}
        )
        if log:
            note = f" ({skipped} of {len(val_samples)} validation samples skipped)"
            log(f"epoch {epoch}: train {train_mean:.5f} val {val_loss:.5f} "
                f"pose {val_pose:.5f}{note if skipped else ''}")
        stopped = epoch
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = weights.copy()
            patience_left = tcfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    if out_dir is not None:
        out_dir = Path(out_dir)
        features.save_checkpoint(
            out_dir / "checkpoint",
            best_weights,
            extra={"tau": lcfg.tau, "best_epoch": best_epoch, "seed": tcfg.seed},
        )
        storage.write_csv(out_dir / "loss_curves.csv", list(curves[0]), [
            [repr(v) if isinstance(v, float) else v for v in row.values()] for row in curves
        ])
    return TrainResult(best_weights, curves, best_epoch, stopped)


def split_dataset(
    samples: list[Sample], val_fraction: float = 0.2
) -> tuple[list[Sample], list[Sample]]:
    """Deterministic tail split."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    n_val = max(1, int(round(len(samples) * val_fraction)))
    if n_val >= len(samples):
        raise ConfigError("dataset too small for the requested split")
    return samples[:-n_val], samples[-n_val:]
