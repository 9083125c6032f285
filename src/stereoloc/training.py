"""Losses, Adam optimization, and the training loop.

Each training batch records one tape. Over the whole batch at once: one
extractor forward on the source frames, their descriptors and scores on the
targets, windowed keypoint detection, dense soft matching, stereo 3D
lifting, gating (a pair either of whose points did not lift, or that the
ground truth calls an outlier, weighs zero), the keypoint loss (planar
coordinates of the kept pairs) and the pose loss on the differentiable
weighted-SVD alignment. One backward pass runs on the sum of the kept samples' losses.
The tapes are float32 (`TRAINING_DTYPE`); the gradient checks pass float64.
Early stopping watches the validation loss; the best-validation weights
win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import estimator, features, matching, storage
from .autodiff import Tape, Var
from .errors import ConfigError
from .geometry import CameraIntrinsics, PlanarPose, planar_to_se3, valid_disparity
from .synth import Sample


@dataclass(frozen=True)
class LossConfig:
    lam: float = 1.0  # rotation/translation balance in the pose loss
    keypoint_weight: float = 1.0  # keypoint loss weight relative to pose loss
    gate_threshold: float = 0.5  # planar gating of training outliers (metres)
    tau: float = matching.DEFAULT_TEMPERATURE

    def __post_init__(self):
        for name in ("lam", "gate_threshold", "tau"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.keypoint_weight < math.inf:  # 0 is the pose-loss-only limit case
            raise ValueError("keypoint_weight must be nonnegative and finite")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 4
    max_epochs: int = 20
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


# ---------------------------------------------------------------------------
# per-batch tape construction

# Training and validation tapes: float32, but for the alignment and the pose
# loss that reads it; the gradient checks pass float64.
TRAINING_DTYPE = np.float32

# Samples recorded on one tape: the training batch. Validation hands
# `total_loss` all its samples, and one tape over them all would hold every
# image's maps at once.
TAPE_SAMPLES = 4


@dataclass
class SampleStats:
    total: float = math.nan
    pose: float = math.nan
    n_gated: int = 0
    skipped: bool = False
    est: PlanarPose | None = None


def _lift(coords: Var, disp_maps: np.ndarray, K: CameraIntrinsics) -> tuple[Var, np.ndarray]:
    """Backproject (B, N, 2) tape keypoints through their images'
    ground-truth disparity maps (B, H, W); returns the (B, N, 3) points and
    the (B, N) mask of the lifted ones. A keypoint whose bilinear footprint
    weights an invalid pixel lifts to zero with zero gradient, and the mask
    gates it; such pixels are sampled as 0 plus a mask channel, so no
    non-finite value reaches the tape."""
    tape = coords.tape
    valid = valid_disparity(disp_maps)
    maps = tape.constant(np.stack([np.where(valid, disp_maps, 0.0), ~valid]))
    sampled = ad.bilinear_sample(maps, coords)
    d = ad.reshape(ad.take(sampled, slice(0, 1), axis=-1), coords.shape[:-1])
    ok = (sampled.value[..., 1] == 0) & valid_disparity(d.value)
    return ad.backproject(coords, d, K, ok), ok


def batch_loss(
    tape: Tape,
    params: dict[str, Var],
    cfg: features.ExtractorConfig,
    batch: list[Sample],
    K: CameraIntrinsics,
    lcfg: LossConfig,
) -> tuple[Var | None, list[SampleStats]]:
    """Record a batch's loss on one tape: one extractor pass over the sources
    and one without the keypoint branch (`encode`) over the targets,
    keypoints, soft matches and both lifts; then the ground-truth gate, the
    keypoint and pose losses and the weighted alignment over the batch at
    once. Returns the sum of the kept samples' losses (None if none is kept)
    and each sample's stats.

    A sample is skipped when fewer than 4 of its matches pass the gate, or
    when its alignment is too degenerate to differentiate (a NaN row).
    """
    sources = np.stack([s.source.left for s in batch])
    targets = np.stack([s.target.left for s in batch])
    kps = features.extract_keypoints(*features.forward(sources, params, cfg, tape), cfg.window)
    target_parts, _ = features.encode(targets, params, cfg, tape)
    target_points, match_w = matching.match_all(kps, target_parts, tau=lcfg.tau)
    p_s, ok_s = _lift(kps.coords, np.stack([s.source.disparity for s in batch]), K)
    p_t, ok_t = _lift(target_points, np.stack([s.target.disparity for s in batch]), K)

    # An unlifted point sits at the camera origin, which can pass the gate.
    keep = ok_s & ok_t & np.stack([
        estimator.gt_outlier_gate(ps, pt, s.gt, lcfg.gate_threshold)
        for ps, pt, s in zip(p_s.value, p_t.value, batch)
    ])
    w = ad.mul(match_w, tape.constant(keep))  # gated pairs weigh zero

    # keypoint loss: planar residual against the ground-truth transform
    T_gt = [planar_to_se3(s.gt) for s in batch]
    pred = ad.add(ad.matmul(p_s, tape.constant(np.stack([T.C.T[:, :2] for T in T_gt]))),
                  tape.constant(np.stack([T.r[:2] for T in T_gt])[:, None]))
    diff = ad.mul(ad.sub(pred, ad.take(p_t, slice(0, 2), axis=2)), tape.constant(keep[..., None]))
    l_kp = ad.sum_(ad.mul(diff, diff), axis=(1, 2))

    # pose loss: differentiable weighted alignment, planar-extracted
    aligned = ad.rigid_align(p_s, p_t, w)
    gt = np.array([[s.gt.alpha, s.gt.beta, s.gt.gamma] for s in batch])
    yaw = ad.atan2(ad.take(aligned, 3, axis=1), ad.take(aligned, 0, axis=1))
    dt = ad.sub(ad.take(aligned, slice(9, 11), axis=1), gt[:, :2])
    # For z-axis rotations the Frobenius term reduces to 4 * (1 - cos dyaw).
    rot = ad.mul(ad.sub(1.0, ad.cos(ad.sub(yaw, gt[:, 2]))), 4.0 * lcfg.lam)
    l_pose = ad.add(ad.sum_(ad.mul(dt, dt), axis=1), rot)
    total = ad.add(ad.mul(l_kp, lcfg.keypoint_weight), l_pose)

    n_kept = keep.sum(axis=1)
    kept = (n_kept >= 4) & ~np.isnan(aligned.value[:, 0])
    stats = []
    for i, ok in enumerate(kept):
        st = SampleStats(n_gated=int(keep.shape[1] - n_kept[i]), skipped=not ok)
        if ok:
            st.total, st.pose = float(total.value[i]), float(l_pose.value[i])
            rx, ry = aligned.value[i, 9:11]
            st.est = PlanarPose(float(rx), float(ry), float(yaw.value[i]))
        stats.append(st)
    loss = ad.sum_(ad.take(total, np.flatnonzero(kept))) if kept.any() else None
    return loss, stats


def total_loss(
    samples: list[Sample],
    weights: features.ExtractorWeights,
    lcfg: LossConfig,
    K: CameraIntrinsics,
    compute_grads: bool = True,
    dtype=TRAINING_DTYPE,
) -> tuple[float, dict[str, np.ndarray] | None, list[SampleStats]]:
    """Mean loss over samples, with gradients accumulated in a fixed order.

    Each run of up to TAPE_SAMPLES samples records one tape of `dtype` and,
    with gradients, one backward pass over the sum of its losses; the
    returned gradients are float64, as the weights are. Skipped samples
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
        tape = Tape(grad=compute_grads, dtype=dtype)
        params = weights.bind(tape)
        loss, stats = batch_loss(
            tape, params, cfg, samples[start : start + TAPE_SAMPLES], K, lcfg
        )
        stats_all += stats
        losses += [s.total for s in stats if not s.skipped]
        if compute_grads and loss is not None:
            grads = ad.backward(tape, loss)
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


# Adam's moment decay rates and denominator floor, Kingma and Ba's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for k, p in params.items():
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    weights: features.ExtractorWeights
    curves: list[dict]
    best_epoch: int


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
    return TrainResult(best_weights, curves, best_epoch)


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
