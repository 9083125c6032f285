"""Weighted rigid alignment of matched 3D point pairs, with ground-truth
outlier gating for training and RANSAC for inference.

The alignment minimizes sum_i w_i * ||C @ p_s_i + r - p_t_i||^2 via the
closed form: weighted centroid subtraction, SVD of the weighted
cross-covariance, and the determinant sign correction that forces a proper
rotation.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InsufficientMatches, LocalizationFailure
from .geometry import PlanarPose, SE3Pose, planar_to_se3

# Second singular value of the cross-covariance below this fraction of the
# first means the points are effectively collinear.
COLLINEARITY_TOL = 1e-9


@dataclass(frozen=True)
class RansacParams:
    iterations: int = 200
    inlier_threshold: float = 0.1
    min_inliers: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")
        operator.index(self.seed)  # an int: the memoized minimal sets key on it


def rotation_from_covariance(W: np.ndarray):
    """Closed-form rotations for a (..., 3, 3) stack of cross-covariances.

    Returns (C, aux, collinear): C = U D Vt is the rotation maximizing
    tr(C^T W), with D = diag(1, 1, sign det(U Vt)) forcing a proper
    rotation; aux is the tuple (U, s, Vt, D); collinear flags the entries
    whose points are nearly collinear (second singular value near zero).
    """
    U, s, Vt = np.linalg.svd(W)
    D = np.broadcast_to(np.eye(3), W.shape).copy()
    D[..., 2, 2] = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    C = U @ D @ Vt
    collinear = s[..., 1] <= COLLINEARITY_TOL * np.maximum(s[..., 0], 1e-300)
    return C, (U, s, Vt, D), collinear


def align_core(p_s: np.ndarray, p_t: np.ndarray, w: np.ndarray):
    """Closed-form weighted alignment; returns (C, r, svd factors).

    Weights are normalized internally, so the solution is invariant to a
    uniform rescaling of w. Zero-weight pairs are dropped up front, which
    makes the solution bitwise independent of their presence.
    """
    p_s = np.asarray(p_s, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    w = np.asarray(w, dtype=float)
    active = w > 0
    if not active.all():
        p_s, p_t, w = p_s[active], p_t[active], w[active]
    if len(w) < 3 or w.sum() <= 0:
        raise DegenerateGeometry("fewer than 3 positively weighted pairs")
    wn = w / w.sum()
    mu_s = wn @ p_s
    mu_t = wn @ p_t
    a = p_s - mu_s
    b = p_t - mu_t
    W = (b * wn[:, None]).T @ a
    C, aux, collinear = rotation_from_covariance(W)
    if collinear:
        raise DegenerateGeometry(f"weighted points nearly collinear (spectrum {aux[1]})")
    r = mu_t - C @ mu_s
    return C, r, aux


@functools.lru_cache(maxsize=64)
def _minimal_sets(seed: int, n: int, iterations: int) -> np.ndarray:
    """(iterations, 3) minimal-set indices into n pairs: one draw per
    iteration, in order, from a fresh generator on the seed; memoized, so
    the returned array is read-only."""
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
    idx.flags.writeable = False
    return idx


def ransac_pose(
    p_s: np.ndarray,
    p_t: np.ndarray,
    w: np.ndarray,
    params: RansacParams,
) -> tuple[SE3Pose, np.ndarray]:
    """Hypothesize-and-verify pose estimation with 3-point minimal sets.

    Returns the final pose (weighted alignment on the largest consensus set)
    and the boolean inlier mask. Inliers are pairs whose 3D residual under
    the hypothesis falls below the threshold.
    """
    p_s = np.asarray(p_s, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    w = np.asarray(w, dtype=float)
    n = p_s.shape[0]
    if n < 3:
        raise InsufficientMatches(f"{n} matches < 3-point minimal set")

    # The hypotheses follow the seed's stream exactly; every minimal set is
    # solved at once. Each stacked product below is the same BLAS call per
    # hypothesis that align_core makes for one minimal set.
    idx = _minimal_sets(params.seed, n, params.iterations)
    wn = np.ones(3) / 3.0
    A, B = p_s[idx], p_t[idx]  # (I, 3, 3) minimal sets
    mu_s = wn @ A
    mu_t = wn @ B
    # Non-finite pairs give NaN covariances and residuals; both are masked.
    with np.errstate(invalid="ignore"):
        W = ((B - mu_t[:, None]) * wn[:, None]).transpose(0, 2, 1) @ (A - mu_s[:, None])
        # One non-finite matrix would fail the whole stacked SVD: solve such
        # hypotheses on a stand-in and discard them.
        finite = np.isfinite(W).all(axis=(1, 2))
        W[~finite] = np.eye(3)
        C, _, collinear = rotation_from_covariance(W)
        r = mu_t - (C @ mu_s[:, :, None])[:, :, 0]
        res = np.linalg.norm(p_s @ C.transpose(0, 2, 1) + r[:, None] - p_t, axis=2)
    masks = res < params.inlier_threshold  # never true for a NaN residual
    counts = np.where(finite & ~collinear, masks.sum(axis=1), 0)
    best = int(np.argmax(counts))  # the first of the largest, as a strict > scan
    best_count = int(counts[best])
    best_mask = masks[best]

    if best_count < max(params.min_inliers, 3):
        raise LocalizationFailure(
            f"consensus {best_count} below minimum {params.min_inliers}"
        )

    w_in = w[best_mask]
    if w_in.sum() <= 0 or int((w_in > 0).sum()) < 3:
        w_in = np.ones(best_count)
    C, r, _ = align_core(p_s[best_mask], p_t[best_mask], w_in)
    return SE3Pose(C, r), best_mask


def gt_outlier_gate(
    p_s: np.ndarray,
    p_t_hat: np.ndarray,
    T_gt: PlanarPose,
    threshold: float,
) -> np.ndarray:
    """Boolean mask keeping pairs whose planar (x, y) error under the
    ground-truth transform stays within the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    T = planar_to_se3(T_gt)
    pred = np.asarray(p_s, dtype=float) @ T.C.T + T.r
    err = np.linalg.norm(pred[:, :2] - np.asarray(p_t_hat, dtype=float)[:, :2], axis=1)
    return err <= threshold
