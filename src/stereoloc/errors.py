"""Exception types shared across the toolkit."""


class StereolocError(Exception):
    """Base class for all toolkit errors."""


class InvalidDisparity(StereolocError):
    """Disparity non-finite, or too small (or negative), to backproject to a
    finite point."""


class ShapeError(StereolocError):
    """Array shapes inconsistent with the requested operation."""


class ImageSizeError(ShapeError):
    """Image height or width not divisible as the extractor needs."""


class OutOfBounds(StereolocError):
    """Sample point outside the valid image domain."""


class DegenerateGeometry(StereolocError):
    """Point configuration too degenerate (e.g. collinear) for alignment."""


class LocalizationFailure(StereolocError):
    """RANSAC consensus fell below the minimum inlier count."""


class InsufficientMatches(StereolocError):
    """Fewer matches than the minimal set needed for pose hypotheses."""


class TeachFailure(StereolocError):
    """A teach sequence that cannot be mapped: it is empty, or a frame has
    non-finite pixels or no keypoints (as at a size the extractor cannot
    take), is not the size of frame 0, or lifts fewer than 3 points, or
    only duplicated or collinear ones."""


class InvalidViewpoint(StereolocError):
    """Camera placed below or inside the rendered surface."""


class ConfigError(StereolocError):
    """Invalid or inconsistent run configuration."""
