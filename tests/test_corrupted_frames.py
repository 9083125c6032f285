"""Property test over corrupted live frames: whatever pixels and disparity
a loaded frame holds, `localize` records a result with a reason, or none on
success, and numpy warns nothing on the way."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stereoloc import features, synth
from stereoloc.harness import (
    DISPARITY_SOURCES,
    FAILURE_REASONS,
    MODES,
    AnalyticExtractor,
    LearnedExtractor,
    LocalizationResult,
    LocalizeParams,
    localize,
    teach,
)
from stereoloc.synth import StereoFrame

F32_MAX = float(np.finfo(np.float32).max)
SCALE = float(np.float32(1e30))
REASONS = set(FAILURE_REASONS.values()) | {"below_inlier_threshold"}


def _patch(value):
    def apply(img, box, *_):
        out = img.copy()
        out[box] = value
        return out
    return apply


# Each class maps an image, a patch and a drawn float32 value to new pixels.
PIXELS = {
    "clean": lambda img, box, x: img,
    "constant": lambda img, box, x: np.full_like(img, x),
    "zero": lambda img, box, x: np.zeros_like(img),
    "all NaN": lambda img, box, x: np.full_like(img, np.nan),
    "+inf patch": _patch(np.inf),
    "-inf patch": _patch(-np.inf),
    "float32-max patch": _patch(F32_MAX),
    "-float32-max patch": _patch(-F32_MAX),
    "float32-max frame": lambda img, box, x: img * (F32_MAX / img.max()),
    "scaled": lambda img, box, x: img * abs(x),
}

# disparity planes; 1e-300 is positive but below geometry.MIN_DISPARITY
DISPARITY = {
    "clean": lambda d, box: d,
    "zero": lambda d, box: np.zeros_like(d),
    "NaN patch": _patch(np.nan),
    "negative": lambda d, box: -d,
    "+inf patch": _patch(np.inf),
    "1e-300": lambda d, box: np.full_like(d, 1e-300),
}


@pytest.fixture(scope="module")
def maps(scene, K_default):
    frames = synth.render_sequence(scene, synth.path_poses(3), "noon", K_default, (48, 64),
                                   seed=50)
    analytic = AnalyticExtractor(window=8)
    learned = LearnedExtractor(
        features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)))
    return frames[1], {name: (ex, teach(frames, ex, K_default).vertices[1])
                       for name, ex in (("analytic", analytic), ("learned", learned))}


@settings(max_examples=150)
@given(pixels=st.sampled_from(sorted(PIXELS)), views=st.sampled_from(["left", "both"]),
       disparity=st.sampled_from(sorted(DISPARITY)),
       extractor=st.sampled_from(["analytic", "learned"]), mode=st.sampled_from(MODES),
       source=st.sampled_from(DISPARITY_SOURCES),
       top=st.integers(0, 47), left=st.integers(0, 63), height=st.integers(1, 48),
       width=st.integers(1, 64),
       value=st.floats(-SCALE, SCALE, width=32))
@example(pixels="float32-max frame", views="both", disparity="clean", extractor="learned",
         mode="dense", source="gt", top=0, left=0, height=1, width=1, value=1.0)
@example(pixels="float32-max patch", views="left", disparity="clean", extractor="learned",
         mode="sparse", source="block", top=10, left=20, height=10, width=10, value=1.0)
def test_a_corrupted_live_frame_is_a_recorded_result(
    maps, K_default, pixels, views, disparity, extractor, mode, source, top, left, height,
    width, value,
):
    frame, by_name = maps
    ex, vertex = by_name[extractor]
    box = np.s_[top : top + height, left : left + width]

    def corrupt(img):  # pixels as a float32 blob holds them
        return PIXELS[pixels](img, box, value).astype(np.float32).astype(float)

    live = StereoFrame(corrupt(frame.left),
                       corrupt(frame.right) if views == "both" else frame.right,
                       DISPARITY[disparity](frame.disparity, box), frame.pose)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = localize(live, vertex, ex, LocalizeParams(mode=mode, disparity=source), K_default)
    assert isinstance(res, LocalizationResult)
    assert res.reason is None or res.reason in REASONS
    assert (res.pose is None) == (res.reason not in (None, "below_inlier_threshold"))
