"""Reference implementations and helpers that only tests use.

The scalar `zncc` and the double-loop `match_all_reference` are oracles
written independently of the vectorized production code they check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from stereoloc import autodiff as ad
from stereoloc import features, harness, matching, storage, synth
from stereoloc.autodiff import Tape, Var
from stereoloc.errors import (
    DegenerateGeometry,
    InsufficientMatches,
    InvalidViewpoint,
    LocalizationFailure,
    OutOfBounds,
    StereolocError,
    TeachFailure,
)
from stereoloc.estimator import RansacParams, align_core, check_alignable
from stereoloc.features import KeypointSet
from stereoloc.geometry import (
    CameraIntrinsics,
    PlanarPose,
    SE3Pose,
    backproject_points,
    rot_z,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# matching


def zncc(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-normalized cross correlation of two vectors, in [-1, 1].

    Zero-variance inputs correlate to 0 by convention.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or a.shape != b.shape:
        raise ValueError("zncc needs two equal-length vectors with D >= 2")
    ca = a - a.mean()
    cb = b - b.mean()
    na = np.linalg.norm(ca)
    nb = np.linalg.norm(cb)
    if na <= ad.ZNCC_VARIANCE_FLOOR or nb <= ad.ZNCC_VARIANCE_FLOOR:
        return 0.0
    return float(ca @ cb / (na * nb))


def match_all_reference(
    src_desc: np.ndarray,
    target_desc: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Naive double-loop soft matcher used as test oracle: for each source
    descriptor, softmax over per-pixel scalar ZNCC, then the weighted sum of
    coordinates. target_desc is (D, H, W); returns (N, 2) points."""
    d, h, w = target_desc.shape
    out = np.zeros((len(src_desc), 2))
    for i, sd in enumerate(src_desc):
        vals = np.empty(h * w)
        coords = np.empty((h * w, 2))
        k = 0
        for v in range(h):
            for u in range(w):
                vals[k] = zncc(sd, target_desc[:, v, u])
                coords[k] = (u, v)
                k += 1
        e = np.exp(tau * vals - (tau * vals).max())
        sm = e / e.sum()
        out[i] = sm @ coords
    return out


def soft_match(
    source_descriptor: Var, target: Var, tau: float
) -> tuple[Var, Var, Var]:
    """Match one descriptor against every pixel of a target stack of a batch
    of one.

    Returns (point (2,), descriptor (D,), score ()) at the softmax-weighted
    coordinate.
    """
    d = source_descriptor.value.shape[0]
    tape = source_descriptor.tape
    one = KeypointSet(None, ad.reshape(source_descriptor, (1, 1, d)),
                      tape.constant(np.ones((1, 1))))
    pts, _ = matching.match_all(one, [target], tau)
    desc, scores = features.sample_at(target, pts)
    return (
        ad.reshape(pts, (2,)),
        ad.reshape(desc, (d,)),
        ad.reshape(scores, ()),
    )


def matchset_weights(source: KeypointSet, target: Var, tau: float) -> Var:
    """`match_all`'s weights into a target stack, recomputed from the
    keypoints and the descriptors and scores sampled at the matched
    points."""
    points, _ = matching.match_all(source, [target], tau)
    desc, scores = features.sample_at(target, points)
    return matching.match_weights(source.descriptors, desc, source.scores, scores)


def match_attention(source: KeypointSet, target: Var, tau: float) -> Var:
    """The (B, N, M) softmax rows `match_all` weighs the pixels of a target
    stack by, captured from its one `ad.softmax` call."""
    rows = []
    softmax = ad.softmax

    def captured(*args, **kwargs):
        rows.append(softmax(*args, **kwargs))
        return rows[-1]

    ad.softmax = captured
    try:
        matching.match_all(source, [target], tau)
    finally:
        ad.softmax = softmax
    (attn,) = rows
    return attn


# ---------------------------------------------------------------------------
# feature maps


def feature_map(tape: Tape, descriptors, scores, logits=None) -> tuple[Var, Var | None]:
    """The feature stack of a batch of one image, (D+1, 1, H, W), and its
    (1, H, W) logits, from (D, H, W) descriptors, (H, W) scores and optional
    (H, W) logits, each a plain array or a variable on `tape`. The stack is
    its own one part."""
    desc, sc = (x if isinstance(x, Var) else tape.constant(x) for x in (descriptors, scores))
    d, h, w = desc.shape
    stack = ad.concat([ad.reshape(desc, (d, 1, h, w)), ad.reshape(sc, (1, 1, h, w))], axis=0)
    if logits is not None:
        logits = ad.reshape(logits if isinstance(logits, Var) else tape.constant(logits),
                            (1, h, w))
    return stack, logits


def split_stack(stack) -> tuple[Array, Array]:
    """The (D+1, 1, H, W) feature stack of a batch of one, plain or on a
    tape, as plain descriptors (D, H, W) and scores (H, W)."""
    value = stack.value if isinstance(stack, Var) else stack
    if value.shape[1] != 1:
        raise ValueError(f"a stack of {value.shape[1]} images, not one")
    return value[:-1, 0], value[-1, 0]


def _box_mean_reference(img: Array, radius: int) -> Array:
    """`features._box_mean` on one (H, W) image, as it was before the
    extractor took only batches."""
    k = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    c = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    h, w = img.shape
    total = c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]
    return total[:h, :w] / (k * k)


def analytic_features_reference(image: Array) -> tuple[Array, Array]:
    """`features.analytic_features` on one (H, W) image, as it was before
    the extractor took only batches: the (D+1, H, W) stack and the (H, W)
    logits, as plain arrays."""
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    channels = []
    for s in (1, 2, 4):
        mu = _box_mean_reference(img, s)
        wide = _box_mean_reference(img, 2 * s + 1)
        var = np.maximum(_box_mean_reference(img * img, 2 * s + 1) - wide * wide, 0.0)
        sigma = np.sqrt(var)
        denom = sigma + (1e-9 * float(sigma.max()) or 1.0)
        bandpass = (mu - wide) / denom
        gx = (np.roll(mu, -1, axis=1) - np.roll(mu, 1, axis=1)) / denom
        gy = (np.roll(mu, -1, axis=0) - np.roll(mu, 1, axis=0)) / denom
        gx[:, 0] = gx[:, 1 % w]
        gx[:, -1] = gx[:, -2 % w]
        gy[0] = gy[1 % h]
        gy[-1] = gy[-2 % h]
        channels.extend([bandpass, gx, gy])
    gx = channels[1]
    gy = channels[2]
    grad_mag = np.sqrt(gx * gx + gy * gy)
    scores = grad_mag / max(float(grad_mag.max()), 1e-12)
    gx2 = _box_mean_reference(channels[4] * channels[4], 2)
    gy2 = _box_mean_reference(channels[5] * channels[5], 2)
    gxy = _box_mean_reference(channels[4] * channels[5], 2)
    response = gx2 * gy2 - gxy * gxy - 0.05 * (gx2 + gy2) ** 2
    logits = 4.0 * response / max(float(np.abs(response).max()), 1e-12)
    return np.stack(channels + [scores], axis=0), logits


# ---------------------------------------------------------------------------
# image primitives


def im2col_reference(x: Array, kh: int, kw: int) -> Array:
    """(C, H, W) zero-padded 'same' -> (C*kh*kw, H*W), as one gather over
    a sliding-window view of the padded input."""
    c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # windows: (C, H, W, kh, kw)
    return windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h * w)


def conv2d_weight_grad_reference(x: Array, g: Array, kh: int, kw: int) -> Array:
    """`ad.conv2d`'s weight gradient by the formula it used before it kept
    its input instead of the column matrix: the upstream rows against the
    input's im2col columns, summed over the images of a (C, B, H, W) batch."""
    images = [x] if x.ndim == 3 else [x[:, b] for b in range(x.shape[1])]
    upstream = [g] if g.ndim == 3 else [g[:, b] for b in range(g.shape[1])]
    c_out = g.shape[0]
    gw = sum(gi.reshape(c_out, -1) @ im2col_reference(xi, kh, kw).T
             for xi, gi in zip(images, upstream))
    return gw.reshape(c_out, x.shape[0], kh, kw)


def avgpool2_reference(x: Array) -> Array:
    """2x2 average pooling, stride 2, as numpy's mean over the two pooled
    axes of a (C, H/2, 2, W/2, 2) view."""
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def avgpool2_pullback_reference(g: Array) -> Array:
    """`ad.avgpool2`'s pullback as it was before the shared 2x2 helpers: the
    scaled upstream gradient repeated twice along each of the last two axes."""
    return np.repeat(np.repeat(g * 0.25, 2, axis=-2), 2, axis=-1)


def upsample_nearest_reference(x: Array) -> Array:
    """`ad.upsample_nearest`'s forward as two `np.repeat` calls."""
    return np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)


def upsample_nearest_pullback_reference(g: Array) -> Array:
    """`ad.upsample_nearest`'s pullback as numpy's sum over the two
    repeated axes of a (..., h, 2, w, 2) view."""
    *lead, h, w = g.shape
    return g.reshape(*lead, h // 2, 2, w // 2, 2).sum(axis=(-3, -1))


def conv2d_reference(x: Array, weight: Array, bias: Array) -> Array:
    """`ad.conv2d`'s forward with the bias added out of place."""
    c_out, _, kh, kw = weight.shape
    _, h, w = x.shape
    return (weight.reshape(c_out, -1) @ ad._im2col(x, kh, kw)).reshape(c_out, h, w) + bias[
        :, None, None
    ]


def softmax_reference(x: Array, axis: int = -1) -> Array:
    """`ad.softmax`'s forward with fresh arrays for each step. An entry whose
    shifted value lies below log(n * tiny), for n entries along `axis`, is
    +0.0: its weight could come out subnormal."""
    shifted = x - x.max(axis=axis, keepdims=True)
    floor = math.log(float(np.finfo(x.dtype).tiny) * x.shape[axis])
    with np.errstate(under="ignore"):
        e = np.where(shifted < floor, 0.0, np.exp(shifted))
    return e / e.sum(axis=axis, keepdims=True)


# The in-place softmax `ad.softmax` replaced: the exp masked to the entries
# at or above the floor, then a maximum that zeroes the rest.
def softmax_masked_exp(x: Array, axis: int = -1) -> Array:
    out = x - x.max(axis=axis, keepdims=True)
    floor = math.log(float(np.finfo(out.dtype).tiny) * x.shape[axis])
    np.exp(out, out=out, where=out >= floor)
    np.maximum(out, 0, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def sigmoid_reference(x: Array) -> Array:
    """`ad.sigmoid`'s forward as it was before it computed its exp once."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def znorm_rows_reference(x: Array) -> tuple[Array, Array]:
    """`ad.znorm_rows` with fresh arrays for each step."""
    centered = x - x.mean(axis=1, keepdims=True)
    norm = np.sqrt((centered * centered).sum(axis=1, keepdims=True))
    ok = norm > ad.ZNCC_VARIANCE_FLOOR
    out = np.where(ok, centered / np.where(ok, norm, 1.0), 0.0)
    return out, np.where(ok, norm, np.inf)


def bilinear_sample_reference(m: Var, pts: Var) -> Var:
    """`ad.bilinear_sample` with the map gradient scattered by four
    `np.add.at` calls, one per corner. Needs H, W >= 2 for the pullback."""
    mv, pv = m.value, pts.value
    c, h, w = mv.shape
    u = np.clip(pv[:, 0], 0.0, float(w - 1))
    v = np.clip(pv[:, 1], 0.0, float(h - 1))
    x0 = np.clip(np.floor(u).astype(int), 0, w - 2) if w > 1 else np.zeros(len(u), int)
    y0 = np.clip(np.floor(v).astype(int), 0, h - 2) if h > 1 else np.zeros(len(v), int)
    fx = (u - x0)[:, None]
    fy = (v - y0)[:, None]
    m00 = mv[:, y0, x0].T
    m01 = mv[:, y0, x0 + 1].T if w > 1 else m00
    m10 = mv[:, y0 + 1, x0].T if h > 1 else m00
    m11 = mv[:, y0 + 1, x0 + 1].T if (h > 1 and w > 1) else m00
    out = (
        m00 * (1 - fx) * (1 - fy)
        + m01 * fx * (1 - fy)
        + m10 * (1 - fx) * fy
        + m11 * fx * fy
    )

    def pull(g):
        gm = np.zeros_like(mv)
        np.add.at(gm, (slice(None), y0, x0), (g * (1 - fx) * (1 - fy)).T)
        np.add.at(gm, (slice(None), y0, x0 + 1), (g * fx * (1 - fy)).T)
        np.add.at(gm, (slice(None), y0 + 1, x0), (g * (1 - fx) * fy).T)
        np.add.at(gm, (slice(None), y0 + 1, x0 + 1), (g * fx * fy).T)
        du = ((m01 - m00) * (1 - fy) + (m11 - m10) * fy) if w > 1 else np.zeros_like(out)
        dv = ((m10 - m00) * (1 - fx) + (m11 - m01) * fx) if h > 1 else np.zeros_like(out)
        gp = np.stack([(g * du).sum(axis=1), (g * dv).sum(axis=1)], axis=1)
        return gm, gp

    return m.tape.record(out, (m, pts), pull)


# ---------------------------------------------------------------------------
# alignment


@dataclass(frozen=True)
class AlignmentProblem:
    """Matched source/target 3D points with per-pair weights in [0, 1]."""

    p_s: np.ndarray
    p_t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        p_s = np.asarray(self.p_s, dtype=float)
        p_t = np.asarray(self.p_t, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if not (p_s.shape == p_t.shape and p_s.ndim == 2 and p_s.shape[1] == 3):
            raise ValueError("point sets must both be (N, 3)")
        if w.shape != (p_s.shape[0],):
            raise ValueError("weights must be (N,)")
        if w.sum() <= 0:
            raise ValueError("weights must have positive sum")
        if int((w > 0).sum()) < 3:
            raise ValueError("need at least 3 positively weighted pairs")
        object.__setattr__(self, "p_s", p_s)
        object.__setattr__(self, "p_t", p_t)
        object.__setattr__(self, "w", w)


def weighted_alignment(prob: AlignmentProblem) -> SE3Pose:
    """Pose minimizing the weighted squared alignment cost."""
    C, r, _ = align_core(prob.p_s, prob.p_t, prob.w)
    return SE3Pose(C, r)


def svd_alignment_gradient(
    points_s: Array, points_t: Array, weights: Array, upstream: Array
) -> tuple[Array, Array, Array]:
    """Gradients of the batched weighted alignment w.r.t. its inputs.

    `upstream` is (B, 12), rows [dL/dC.ravel(), dL/dr]; returns gradients
    for the (B, N, 3) source points, target points and (B, N) weights.
    """
    tape = Tape()
    ps = tape.param(points_s)
    pt = tape.param(points_t)
    w = tape.param(weights)
    out = ad.rigid_align(ps, pt, w)
    loss = ad.sum_(ad.mul(out, tape.constant(np.asarray(upstream, dtype=float))))
    grads = ad.backward(tape, loss)
    return grads[ps.index], grads[pt.index], grads[w.index]


def alignment_cost(p_s, p_t, w, C, r) -> float:
    """The weighted squared-residual objective at a candidate pose."""
    res = p_s @ C.T + r - p_t
    return float((w * (res * res).sum(axis=1)).sum())


def ransac_pose_reference(
    p_s: np.ndarray,
    p_t: np.ndarray,
    w: np.ndarray,
    params: RansacParams,
) -> tuple[SE3Pose, np.ndarray]:
    """Hypothesize-and-verify pose estimation with 3-point minimal sets,
    one hypothesis at a time: the loop the stacked `ransac_pose` must match
    bitwise (same draws, same masks, same final pose)."""
    p_s = np.asarray(p_s, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    w = np.asarray(w, dtype=float)
    n = p_s.shape[0]
    if n < 3:
        raise InsufficientMatches(f"{n} matches < 3-point minimal set")

    rng = np.random.default_rng(params.seed)
    ones = np.ones(3)
    best_count = 0
    best_mask = np.zeros(n, dtype=bool)
    for _ in range(params.iterations):
        idx = rng.choice(n, size=3, replace=False)
        try:
            C, r, _ = align_core(p_s[idx], p_t[idx], ones)
        except DegenerateGeometry:
            continue
        res = np.linalg.norm(p_s @ C.T + r - p_t, axis=1)
        mask = res < params.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_count < max(params.min_inliers, 3):
        raise LocalizationFailure(
            f"consensus {best_count} below minimum {params.min_inliers}"
        )

    w_in = w[best_mask]
    if w_in.sum() <= 0 or int((w_in > 0).sum()) < 3:
        w_in = np.ones(best_count)
    pose = weighted_alignment(AlignmentProblem(p_s[best_mask], p_t[best_mask], w_in))
    return pose, best_mask


def gt_outlier_gate_reference(
    p_s: np.ndarray,
    p_t_hat: np.ndarray,
    T_gt: PlanarPose,
    threshold: float,
) -> np.ndarray:
    """One sample's gate, from its planar pose: the mask of the (N, 3)
    pairs whose planar (x, y) error under the ground-truth transform stays
    within the threshold. The batched `estimator.gt_outlier_gate` must
    match it bitwise, sample by sample."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    T = planar_to_se3(T_gt)
    pred = np.asarray(p_s, dtype=float) @ T.C.T + T.r
    err = np.linalg.norm(pred[:, :2] - np.asarray(p_t_hat, dtype=float)[:, :2], axis=1)
    return err <= threshold


# ---------------------------------------------------------------------------
# losses (array forms; the tape path is built in training.batch_loss)


def keypoint_loss(p_s: np.ndarray, p_t_hat: np.ndarray, gt: PlanarPose) -> float:
    """Squared planar error between ground-truth-transformed source points
    and matched target points; z is excluded."""
    T = planar_to_se3(gt)
    pred = np.asarray(p_s, float) @ T.C.T + T.r
    diff = pred[:, :2] - np.asarray(p_t_hat, float)[:, :2]
    return float((diff * diff).sum())


def pose_loss(est: PlanarPose, gt: PlanarPose, lam: float) -> float:
    """Squared translation error plus lam * squared Frobenius rotation error
    of the planar-embedded poses."""
    Te = planar_to_se3(est)
    Tg = planar_to_se3(gt)
    dr = Te.r - Tg.r
    drot = Te.C @ Tg.C.T - np.eye(3)
    return float(dr @ dr + lam * (drot * drot).sum())


# ---------------------------------------------------------------------------
# geometry


class DegenerateDepth(StereolocError):
    """3D point at or behind the camera plane; cannot be projected."""


def project_points(P: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Map (N, 3) camera-frame points to an (N, 3) array of left-image
    pixel plus disparity, (u_l, v_l, d)."""
    P = np.asarray(P, dtype=float)
    z = P[:, 2]
    if np.any(z <= 0):
        raise DegenerateDepth("all point depths must be positive")
    return np.stack(
        [K.fu * P[:, 0] / z + K.cu, K.fv * P[:, 1] / z + K.cv, K.fu * K.b / z],
        axis=1,
    )


def planar_to_se3(pp: PlanarPose) -> SE3Pose:
    """Embed a planar pose as a z-axis rotation plus in-plane translation."""
    return SE3Pose(rot_z(pp.gamma), np.array([pp.alpha, pp.beta, 0.0]))


def matrix(T: SE3Pose) -> np.ndarray:
    """4x4 homogeneous form."""
    M = np.eye(4)
    M[:3, :3] = T.C
    M[:3, 3] = T.r
    return M


def compose(a: SE3Pose, b: SE3Pose) -> SE3Pose:
    """a after b: (a*b)(p) = a(b(p))."""
    return SE3Pose(a.C @ b.C, a.C @ b.r + a.r)


def inverse(T: SE3Pose) -> SE3Pose:
    return SE3Pose(T.C.T, -T.C.T @ T.r)


def apply(T: SE3Pose, p: np.ndarray) -> np.ndarray:
    """Transform a 3-vector or an (N, 3) stack of points."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        return T.C @ p + T.r
    return p @ T.C.T + T.r


def backproject_jacobian(y, K: CameraIntrinsics) -> np.ndarray:
    """Analytic 3x3 Jacobian of backprojection w.r.t. (u_l, v_l, d)."""
    y = np.asarray(y, dtype=float)
    p = backproject_points(y[None], K)[0]
    d = y[2]
    J = np.zeros((3, 3))
    J[0, 0] = K.b / d
    J[1, 1] = K.b * K.fu / (K.fv * d)
    J[:, 2] = -p / d
    return J


# ---------------------------------------------------------------------------
# teaching


def teach_reference(frames, extractor, K: CameraIntrinsics, disparity_source: str = "gt"):
    """`harness.teach` one frame at a time: each frame's extractor pass is a
    batch of one, followed at once by its checks."""
    if disparity_source not in harness.DISPARITY_SOURCES:
        raise ValueError(
            f"disparity must be one of {harness.DISPARITY_SOURCES}, not {disparity_source!r}")
    if not frames:
        raise TeachFailure("empty teach sequence")
    vertices = []
    for i, frame in enumerate(frames):
        try:
            coords, desc, scores, p3d, parts = harness._keypoints_numpy(
                extractor, [frame], disparity_source, K)[0]
        except (OutOfBounds, InsufficientMatches) as e:  # non-finite pixels, or a bad size
            raise TeachFailure(f"frame {i}: {e}") from e
        try:  # no pose can be found against a vertex the alignment refuses
            check_alignable(p3d)
        except DegenerateGeometry as e:
            raise TeachFailure(f"frame {i}: {len(p3d)} lifted points: {e}") from e
        vertices.append(harness.MapVertex(i, np.asarray(frame.pose, float), coords, desc, scores,
                                          p3d, frame, parts))
    return harness.TeachMap(vertices, K, extractor.ident)


# ---------------------------------------------------------------------------
# reporting


def read_run_csv(path: str | Path) -> dict:
    """Parse a run CSV back into its aggregate statistics."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            rows.append(row)
    inliers = np.array([int(r["inliers"]) for r in rows])
    failures = np.array([int(r["failure"]) for r in rows], dtype=bool)
    pose_err = np.array([float(r["pose_error"]) for r in rows])
    head_err = np.array([float(r["heading_error"]) for r in rows])
    ok = ~failures
    return {
        "mean_inliers": float(inliers.mean()),
        "failure_count": int(failures.sum()),
        "failure_fraction": float(failures.mean()),
        "pose_rmse": float(np.sqrt(np.mean(pose_err[ok] ** 2))) if ok.any() else math.nan,
        "heading_rmse": float(np.sqrt(np.mean(head_err[ok] ** 2))) if ok.any() else math.nan,
    }


# ---------------------------------------------------------------------------
# block matching


# The dense matcher `synth.block_match_disparity` replaced: cumulative sums
# over every pixel, one pass per disparity.
def block_match_reference(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer-disparity SAD block matching on a rectified pair: a 5x5
    window, disparities 0..16 and a variance floor of 1e-4.

    Returns (disparity, valid). Pixels are invalid at the borders, where the
    window's texture variance is below the floor, or where the search range
    is cut off by the image edge.
    """
    window, max_disparity, variance_floor = 5, 16, 1e-4
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    h, w = left.shape
    half = window // 2

    def box_sum(img):
        c = np.cumsum(np.cumsum(np.pad(img, ((1, 0), (1, 0))), axis=0), axis=1)
        k = window
        return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]

    # Columns with no right-image data under a shift get a huge (finite)
    # penalty, so contaminated windows never beat a real candidate.
    best_cost = np.full((h - 2 * half, w - 2 * half), np.inf)
    best_d = np.zeros_like(best_cost, dtype=int)
    for d in range(max_disparity + 1):
        shifted = np.full_like(right, 1e6)
        if d == 0:
            shifted = right
        else:
            shifted[:, d:] = right[:, :-d]
        cost = box_sum(np.abs(left - shifted))
        better = cost < best_cost
        best_cost = np.where(better, cost, best_cost)
        best_d = np.where(better, d, best_d)

    disparity = np.zeros((h, w))
    disparity[half : h - half, half : w - half] = best_d
    valid = np.zeros((h, w), dtype=bool)
    valid[half : h - half, half : w - half] = True

    mu = box_sum(left) / (window * window)
    var = box_sum(left * left) / (window * window) - mu * mu
    valid[half : h - half, half : w - half] &= var > variance_floor
    # search must not run off the left edge
    us = np.arange(w)[None, :]
    valid &= (us - disparity) >= half
    return disparity, valid


def block_match_everywhere(left, right) -> tuple[np.ndarray, np.ndarray]:
    """`synth.block_match_disparity` queried at every pixel, as (H, W)
    (disparity, valid) maps."""
    h, w = np.shape(left)
    v, u = np.divmod(np.arange(h * w), w)
    d, valid = synth.block_match_disparity(left, right, u, v)
    return d.reshape(h, w), valid.reshape(h, w)


# ---------------------------------------------------------------------------
# rendering


def render_one(
    scene: synth.Scene,
    pose,
    K: CameraIntrinsics,
    photo: synth.PhotometricParams = synth.CONDITIONS["identity"],
    size: tuple[int, int] = (48, 64),
    noise_seed: int = 0,
) -> synth.StereoFrame:
    """One pose's frame: `synth.render_stereo` on a stack of one."""
    return synth.render_stereo(scene, np.asarray(pose, dtype=float)[None], K, [photo], size,
                               [noise_seed])[0]


# The renderer `synth.render_stereo` replaced: one scalar-salted hash per
# lattice corner, and one ray cast per camera.
def _hash01(ix: np.ndarray, iy: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic lattice noise in [0, 1) from integer coordinates."""
    salt_mix = (int(salt) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        ^ np.uint64(salt_mix)
    )
    h ^= h >> np.uint64(31)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return (h >> np.uint64(11)).astype(float) / float(1 << 53)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def texture(scene: synth.Scene, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Procedural albedo in (0, 1), defined on the whole plane."""
    total = np.zeros_like(np.asarray(x, dtype=float))
    amp_sum = 0.0
    for o in range(synth.TEXTURE_OCTAVES):
        freq = synth.TEXTURE_FREQ * (2.0**o)
        amp = 0.5**o
        fx = np.asarray(x, dtype=float) * freq
        fy = np.asarray(y, dtype=float) * freq
        ix = np.floor(fx).astype(np.int64)
        iy = np.floor(fy).astype(np.int64)
        tx = _smoothstep(fx - ix)
        ty = _smoothstep(fy - iy)
        salt = scene.seed * 1000003 + o * 7919
        v00 = _hash01(ix, iy, salt)
        v10 = _hash01(ix + 1, iy, salt)
        v01 = _hash01(ix, iy + 1, salt)
        v11 = _hash01(ix + 1, iy + 1, salt)
        total += amp * ((v00 * (1 - tx) + v10 * tx) * (1 - ty)
                        + (v01 * (1 - tx) + v11 * tx) * ty)
        amp_sum += amp
    norm = total / amp_sum
    return np.clip(0.5 + synth.TEXTURE_CONTRAST * (norm - 0.5), 0.02, 0.98)


def cast_rays(
    scene: synth.Scene,
    pose,
    K: CameraIntrinsics,
    uv: np.ndarray,
    right: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect pixel rays with the scene.

    Returns (intensity, depth, hit_points). `uv` is (M, 2) sub-pixel image
    coordinates; depth is camera-frame z. The right camera sits one baseline
    along the camera x-axis.
    """
    x, y, yaw = float(pose[0]), float(pose[1]), float(pose[2])
    h_cam = synth.CAMERA_HEIGHT
    if scene.blocks.size and h_cam <= scene.blocks[:, 4].max():
        raise InvalidViewpoint("camera at or below the tallest block")
    x_c, y_c, z_c = synth._cam_axes(yaw)
    origin = np.array([x, y, h_cam])
    if right:
        origin = origin + K.b * x_c

    uv = np.asarray(uv, dtype=float)
    du = (uv[:, 0] - K.cu) / K.fu
    dv = (uv[:, 1] - K.cv) / K.fv
    dirs = du[:, None] * x_c + dv[:, None] * y_c + z_c  # camera z-component is 1

    # ground plane z=0: depth equals camera height for every ray
    t_best = np.full(len(uv), h_cam)
    albedo = np.ones(len(uv))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x0, x1, y0, y1, bh, alb in scene.blocks:
            tx1 = (x0 - origin[0]) / dirs[:, 0]
            tx2 = (x1 - origin[0]) / dirs[:, 0]
            ty1 = (y0 - origin[1]) / dirs[:, 1]
            ty2 = (y1 - origin[1]) / dirs[:, 1]
            tz_near = h_cam - bh  # top plane (dirs z = -1)
            t_near = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
            t_near = np.maximum(t_near, tz_near)
            t_far = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
            t_far = np.minimum(t_far, h_cam)
            hit = (t_near <= t_far) & (t_near > 0) & (t_near < t_best)
            t_best = np.where(hit, t_near, t_best)
            albedo = np.where(hit, alb, albedo)

    hits = origin + t_best[:, None] * dirs
    intensity = texture(scene, hits[:, 0], hits[:, 1]) * albedo
    return intensity, t_best, hits


# The dataset writer `synth.make_dataset` replaced: draw, render and write
# one pair at a time, one render per frame.
def make_dataset(
    out_dir: str | Path,
    scene: synth.Scene,
    count: int,
    seed: int,
    size: tuple[int, int] = (48, 64),
) -> Path:
    extent, motion, schedule = synth.SOURCE_EXTENT, synth.MOTION_BOUNDS, synth.DAY_SCHEDULE
    out_dir = Path(out_dir)
    h, w = size
    K = synth.default_intrinsics(w, h)
    rng = np.random.default_rng([int(seed), 4])
    samples = []
    for i in range(count):
        src_pose = np.array([
            rng.uniform(-extent[0], extent[0]),
            rng.uniform(-extent[1], extent[1]),
            rng.uniform(-math.pi, math.pi),
        ])
        pp = PlanarPose(
            rng.uniform(-motion["alpha"], motion["alpha"]),
            rng.uniform(-motion["beta"], motion["beta"]),
            rng.uniform(-motion["gamma"], motion["gamma"]),
        )
        tgt_pose = synth.solve_target_pose(src_pose, pp)
        src_cond = schedule[int(rng.integers(len(schedule)))]
        tgt_cond = schedule[int(rng.integers(len(schedule)))]
        src = render_one(scene, src_pose, K, synth.CONDITIONS[src_cond], size,
                         noise_seed=seed * 1000003 + 2 * i)
        tgt = render_one(scene, tgt_pose, K, synth.CONDITIONS[tgt_cond], size,
                         noise_seed=seed * 1000003 + 2 * i + 1)
        fname = f"sample_{i:05d}.f32"
        storage.write_blob(out_dir / fname,
                           np.stack([synth.frame_blob(src), synth.frame_blob(tgt)]))
        samples.append({
            "file": fname,
            "pose": [pp.alpha, pp.beta, pp.gamma],
            "src_pose": src_pose.tolist(),
            "tgt_pose": tgt_pose.tolist(),
            "src_condition": src_cond,
            "tgt_condition": tgt_cond,
        })
    storage.write_manifest(out_dir, {
        "kind": "pairs",
        "seed": int(seed),
        "scene_seed": scene.seed,
        "image_size": [h, w],
        "camera": asdict(K),
        "motion_bounds": motion,
        "schedule": list(schedule),
        "samples": samples,
    })
    return out_dir
