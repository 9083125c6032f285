"""Exception types shared across the toolkit."""


class StereolocError(Exception):
    """Base class for all toolkit errors."""


class InvalidDisparity(StereolocError):
    """Disparity non-finite, or too small (or negative), to backproject to a
    finite point."""


class ShapeError(StereolocError):
    """Array shapes inconsistent with the requested operation."""


class OutOfBounds(StereolocError):
    """Sample point outside the valid image domain."""


class DegenerateGeometry(StereolocError):
    """Point configuration too degenerate (e.g. collinear) for alignment."""


class DegenerateGradient(StereolocError):
    """Alignment spectrum too close to tied; gradients would be meaningless."""


class LocalizationFailure(StereolocError):
    """RANSAC consensus fell below the minimum inlier count."""


class InsufficientMatches(StereolocError):
    """Fewer matches than the minimal set needed for pose hypotheses."""


class TeachFailure(StereolocError):
    """A taught frame produced too few usable keypoints to map."""


class InvalidViewpoint(StereolocError):
    """Camera placed below or inside the rendered surface."""


class ConfigError(StereolocError):
    """Invalid or inconsistent run configuration."""
