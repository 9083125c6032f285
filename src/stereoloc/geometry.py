"""Stereo backprojection, SE(3) transforms, and the planar pose parameterization.

Conventions: image coordinates are (u, v) with u along columns and v along
rows; disparity is u_left - u_right in pixels; 3D points are in the camera
frame with z pointing into the scene (metres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDisparity

# Disparities at or below this are treated as invalid rather than producing
# astronomically deep points; so is a non-finite one.
MIN_DISPARITY = 1e-6

ORTHONORMALITY_TOL = 1e-9


def _frozen_array(a, shape) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CameraIntrinsics:
    """Rectified stereo rig: focal lengths and principal point in pixels,
    baseline in metres."""

    fu: float
    fv: float
    cu: float
    cv: float
    b: float

    def __post_init__(self):
        if not (self.fu > 0 and self.fv > 0):
            raise ValueError("focal lengths must be positive")
        if not self.b > 0:
            raise ValueError("baseline must be positive")


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform: p_out = C @ p_in + r."""

    C: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", _frozen_array(self.C, (3, 3)))
        object.__setattr__(self, "r", _frozen_array(self.r, (3,)))
        err = np.abs(self.C @ self.C.T - np.eye(3)).max()
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"rotation not orthonormal (max error {err:.2e})")
        det = np.linalg.det(self.C)
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"rotation determinant {det} != +1")


def wrap_angle(gamma: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    g = math.remainder(float(gamma), 2.0 * math.pi)
    if g <= -math.pi:
        g += 2.0 * math.pi
    return g


@dataclass(frozen=True)
class PlanarPose:
    """3-DOF planar motion: longitudinal alpha, lateral beta (metres),
    heading gamma (radians, normalized to (-pi, pi])."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", wrap_angle(self.gamma))


def rot_z(gamma: float) -> np.ndarray:
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def planar_to_se3(pp: PlanarPose) -> SE3Pose:
    """Embed a planar pose as a z-axis rotation plus in-plane translation."""
    return SE3Pose(rot_z(pp.gamma), np.array([pp.alpha, pp.beta, 0.0]))


def se3_to_planar(T: SE3Pose) -> PlanarPose:
    """Extract (x, y, yaw) from a transform; drops any out-of-plane motion."""
    return PlanarPose(T.r[0], T.r[1], math.atan2(T.C[1, 0], T.C[0, 0]))


def valid_disparity(d: np.ndarray) -> np.ndarray:
    """Mask of the disparities that backproject: finite and above
    MIN_DISPARITY."""
    return np.isfinite(d) & (d > MIN_DISPARITY)


def backproject_points(Y: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Inverse stereo model: (N, 3) observations (u_l, v_l, d) -> (N, 3)
    camera-frame points."""
    Y = np.asarray(Y, dtype=float)
    d = Y[:, 2]
    if not valid_disparity(d).all():
        raise InvalidDisparity("all disparities must be finite and exceed the validity floor")
    s = K.b / d
    return np.stack(
        [s * (Y[:, 0] - K.cu), s * (K.fu / K.fv) * (Y[:, 1] - K.cv), s * K.fu],
        axis=1,
    )
