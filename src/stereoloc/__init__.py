"""Differentiable stereo visual localization with learned features and a
synthetic teach-and-repeat evaluation harness."""

from .errors import StereolocError
from .geometry import CameraIntrinsics, PlanarPose, SE3Pose

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "PlanarPose",
    "SE3Pose",
    "StereolocError",
    "__version__",
]
