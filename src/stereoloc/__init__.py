"""Differentiable stereo visual localization with learned features and a
synthetic teach-and-repeat evaluation harness."""

import ctypes

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> bool:
    """Fix glibc malloc's mmap threshold at 32 MB and its trim threshold at
    64 MB for this process; returns whether both were set.

    Left dynamic, glibc raises the mmap threshold after the first freed
    large array, so later frames' arrays land on the heap; a freed heap top
    above the trim threshold then goes back to the OS after every frame,
    and the next frame faults it back in. Pinned, the frame's transients
    stay mapped. Does nothing where there is no `mallopt` (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(M_TRIM_THRESHOLD, 64 << 20)
    return bool(mmap_set and trim_set)


pin_malloc_thresholds()

from .errors import StereolocError  # noqa: E402
from .geometry import CameraIntrinsics, PlanarPose, SE3Pose  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "PlanarPose",
    "SE3Pose",
    "StereolocError",
    "__version__",
]
