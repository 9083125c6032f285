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
from .geometry import SE3Pose

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
        if not 0 < self.inlier_threshold < np.inf:  # NaN fails too
            raise ValueError("inlier_threshold must be positive and finite")
        operator.index(self.seed)  # an int: the memoized minimal sets key on it


def _spectrum(W: np.ndarray):
    """The SVD (U, s, Vt) of a (..., 3, 3) stack of cross-covariances, and the
    flag of the nearly collinear entries (second singular value near zero)."""
    U, s, Vt = np.linalg.svd(W)
    return U, s, Vt, s[..., 1] <= COLLINEARITY_TOL * np.maximum(s[..., 0], 1e-300)


def _proper_rotation(U: np.ndarray, Vt: np.ndarray):
    """C = U D Vt, a proper rotation by D = diag(1, 1, sign det(U Vt)), and D."""
    D = np.broadcast_to(np.eye(3), U.shape).copy()
    D[..., 2, 2] = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    return U @ D @ Vt, D


def rotation_from_covariance(W: np.ndarray):
    """Closed-form rotations for a (..., 3, 3) stack of cross-covariances:
    (C, (U, s, Vt, D), collinear), C the proper rotation maximizing
    tr(C^T W) and collinear the flag of `_spectrum`."""
    U, s, Vt, collinear = _spectrum(W)
    C, D = _proper_rotation(U, Vt)
    return C, (U, s, Vt, D), collinear


def _centred_spectrum(p_s, p_t, w):
    """align_core up to its refusals: drop zero-weight pairs, refuse fewer
    than 3 positively weighted pairs, centre on the weighted centroids and
    refuse a nearly collinear cross-covariance. Returns the centroids and
    the cross-covariance's SVD."""
    p_s, p_t, w = (np.asarray(a, dtype=float) for a in (p_s, p_t, w))
    active = w > 0
    if not active.all():
        p_s, p_t, w = p_s[active], p_t[active], w[active]
    if len(w) < 3 or w.sum() <= 0:
        raise DegenerateGeometry("fewer than 3 positively weighted pairs")
    wn = w / w.sum()
    mu_s = wn @ p_s
    mu_t = wn @ p_t
    W = ((p_t - mu_t) * wn[:, None]).T @ (p_s - mu_s)
    U, s, Vt, collinear = _spectrum(W)
    if collinear:
        raise DegenerateGeometry(f"weighted points nearly collinear (spectrum {s})")
    return mu_s, mu_t, U, s, Vt


def check_alignable(points: np.ndarray) -> None:
    """Raise the DegenerateGeometry of `align_core(points, points, ones)`: fewer
    than 3 points, or duplicated or collinear ones. The pose is not solved."""
    _centred_spectrum(points, points, np.ones(len(points)))


def align_core(p_s: np.ndarray, p_t: np.ndarray, w: np.ndarray):
    """Closed-form weighted alignment; returns (C, r, svd factors).

    Weights are normalized internally, so the solution is invariant to a
    uniform rescaling of w. Zero-weight pairs are dropped up front, which
    makes the solution bitwise independent of their presence.
    """
    mu_s, mu_t, U, s, Vt = _centred_spectrum(p_s, p_t, w)
    C, D = _proper_rotation(U, Vt)
    return C, mu_t - C @ mu_s, (U, s, Vt, D)


@functools.lru_cache(maxsize=64)
def _minimal_sets(seed: int, n: int, iterations: int) -> np.ndarray:
    """(iterations, 3) minimal-set indices into n pairs: one draw per
    iteration, in order, from a fresh generator on the seed; memoized, so
    the returned array is read-only."""
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
    idx.flags.writeable = False
    return idx


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the vectors along axis 1."""
    return (a.take((1, 2, 0), axis=1) * b.take((2, 0, 1), axis=1)
            - a.take((2, 0, 1), axis=1) * b.take((1, 2, 0), axis=1))


@np.errstate(invalid="ignore", divide="ignore")  # a duplicated point divides 0 by 0
def _minimal_set_poses(A: np.ndarray, B: np.ndarray):
    """Equal-weight alignments of (I, 3, 3) source and target minimal sets,
    one point per row, in closed form; returns (C, r, collinear) as
    align_core solves each set, with C a (I, 3, 3) view.

    Three centered points span a plane, so the cross-covariance W has rank
    2 (Arun, Huang & Blostein 1987; Horn 1987). Each triangle gets a frame:
    its first edge, the normal crossed with that edge, and the normal. In
    these frames W is the 2x2 in-plane covariance M of the centered points,
    and both triangles run counter-clockwise, so det M = |n_s| |n_t| / 3 is
    never negative: the best rotation turns the plane by
    arctan2(M10 - M01, M00 + M11) and keeps the normal. M's singular values
    are W's, so a set is collinear, as in rotation_from_covariance, when
    s1 <= COLLINEARITY_TOL * s0, that is det M <= COLLINEARITY_TOL * s0^2.
    A duplicated point, an exactly collinear set or a non-finite point
    gives a non-finite C.
    """
    V = np.stack([A.transpose(1, 2, 0), B.transpose(1, 2, 0)])  # (source/target, point, xyz, I)
    e1 = V[:, 1] - V[:, 0]
    e2 = V[:, 2] - V[:, 0]
    normal = _cross(e1, e2)
    len1 = np.sqrt((e1 * e1).sum(axis=1))
    area = np.sqrt((normal * normal).sum(axis=1))  # twice the triangle's area
    # each axis from one cross product and its own norm, so the frame is
    # orthonormal to rounding even when the normal is only roughly known
    x = e1 / len1[:, None]
    y = _cross(normal, e1)
    y /= np.sqrt((y * y).sum(axis=1))[:, None]
    z = _cross(x, y)
    # in-plane coordinates, centered: the points sit at (0, 0), (len1, 0)
    # and (u2, v2) before centering
    u2 = (e1 * e2).sum(axis=1) / len1
    v2 = area / len1
    mean_u = (len1 + u2) / 3.0
    us, ut = np.stack([-mean_u, len1 - mean_u, u2 - mean_u], axis=1)
    m00 = (ut * us).sum(axis=0)
    m01 = v2[0] * ut[2]
    m10 = v2[1] * us[2]
    m11 = (2.0 / 3.0) * v2[0] * v2[1]
    turn = np.hypot(m00 + m11, m10 - m01)  # s0 + s1
    s0 = 0.5 * (turn + np.hypot(m00 - m11, m10 + m01))
    collinear = ~(area[0] * area[1] / 3.0 > COLLINEARITY_TOL * s0 * s0)  # also for NaN
    cos = (m00 + m11) / turn
    sin = (m10 - m01) / turn
    # C = x_t a^T + y_t b^T + z_t z_s^T, held transposed: Ct[col, row, i]
    a = cos * x[0] - sin * y[0]
    b = sin * x[0] + cos * y[0]
    Ct = a[:, None] * x[1] + b[:, None] * y[1] + z[0][:, None] * z[1]
    mu = V[:, 0] + (e1 + e2) / 3.0
    r = mu[1] - (Ct * mu[0][:, None]).sum(axis=0)
    return Ct.transpose(2, 1, 0), r.T, collinear


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
    # solved at once in closed form, within about 1e-12 of align_core's SVD
    # on a well-conditioned set, and all of them are scored by one product.
    idx = _minimal_sets(params.seed, n, params.iterations)
    C, r, collinear = _minimal_set_poses(p_s[idx], p_t[idx])
    # Non-finite pairs give non-finite rotations and NaN residuals; both are
    # masked.
    with np.errstate(invalid="ignore"):
        res = (p_s @ C.transpose(2, 1, 0).reshape(3, -1)).reshape(n, 3, -1)  # (n, xyz, I)
        res += r.T
        res -= p_t[:, :, None]
        np.square(res, out=res)
        res = np.sqrt(res.sum(axis=1))
    masks = res < params.inlier_threshold  # never true for a NaN residual
    finite = np.isfinite(C).all(axis=(1, 2))
    counts = np.where(finite & ~collinear, masks.sum(axis=0), 0)
    best = int(np.argmax(counts))  # the first of the largest, as a strict > scan
    best_count = int(counts[best])
    best_mask = masks[:, best]

    if best_count < max(params.min_inliers, 3):
        raise LocalizationFailure(
            f"consensus {best_count} below minimum {params.min_inliers}"
        )

    w_in = w[best_mask]
    if w_in.sum() <= 0 or int((w_in > 0).sum()) < 3:
        w_in = np.ones(best_count)
    C, r, _ = align_core(p_s[best_mask], p_t[best_mask], w_in)
    return SE3Pose(C, r), best_mask


def gt_outlier_gate(residuals: np.ndarray, threshold: float) -> np.ndarray:
    """The mask of the pairs whose planar (x, y) residual under the ground
    truth, (..., 2), stays within the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return np.linalg.norm(residuals, axis=-1) <= threshold
