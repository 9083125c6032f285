"""Property tests over corrupted frames, and numpy warns nothing on the way
in any of them:
- whatever pixels and disparity a loaded live frame holds, `localize`
  records a result with a reason, or none on success;
- a taught sequence with corrupted frames teaches, or fails naming its
  first bad frame, exactly as one frame at a time;
- a training batch with a corrupted pair has a finite loss and finite
  gradients, or a NaN loss with every sample skipped and zero gradients."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stereoloc import features, synth, training
from stereoloc.errors import TeachFailure
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

from oracles import teach_reference

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


# Lift classes of a taught frame: a copy of the sequence's frame 0, whose
# lifts duplicate that vertex's, and a disparity valid on one pixel row, so
# that only keypoints whose nearest row it is lift: a thin band, nearly or
# exactly collinear, or fewer than 3 points.
def _one_row(frame, frames, row):
    disparity = np.full_like(frame.disparity, np.nan)
    disparity[row] = frame.disparity[row]
    return dataclasses.replace(frame, disparity=disparity)


LIFTS = {
    "duplicate of frame 0": lambda frame, frames, row: frames[0],
    "lifts on one row": _one_row,
}


@pytest.fixture(scope="module")
def teach_rig(scene, K_default):
    frames = synth.render_sequence(scene, synth.path_poses(5), "noon", K_default, (48, 64),
                                   seed=60)
    learned = LearnedExtractor(
        features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)))
    return frames, {"analytic": AnalyticExtractor(window=8), "learned": learned}


def _taught(teach_fn, frames, ex, K, source):
    """The vertices' arrays as bytes, or the TeachFailure's message."""
    try:
        taught = teach_fn(frames, ex, K, source)
    except TeachFailure as e:
        return str(e)
    return [(v.frame_id, v.world_pose.tobytes(), v.frame is frames[v.frame_id],
             *(a.dtype.str + repr(a.shape) + a.tobytes().hex()
               for a in (v.coords, v.descriptors, v.scores, v.points3d, *v.parts)))
            for v in taught.vertices]


@settings(max_examples=40)
@given(n=st.integers(3, 5),
       bad=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(sorted(PIXELS) + sorted(LIFTS))),
                    min_size=1, max_size=2),
       extractor=st.sampled_from(["analytic", "learned"]),
       source=st.sampled_from(DISPARITY_SOURCES), top=st.integers(0, 47),
       left=st.integers(0, 63), height=st.integers(1, 48), width=st.integers(1, 64),
       value=st.floats(-SCALE, SCALE, width=32))
@example(n=3, bad=[(1, "all NaN")], extractor="learned", source="gt", top=0, left=0, height=1,
         width=1, value=1.0)
@example(n=5, bad=[(4, "+inf patch"), (2, "lifts on one row")], extractor="analytic",
         source="gt", top=20, left=0, height=3, width=64, value=1.0)
def test_teach_in_batches_is_teach_one_frame_at_a_time(
    teach_rig, K_default, n, bad, extractor, source, top, left, height, width, value,
):
    """Bad frames land in either slot of a batch and in a trailing batch of
    one: teach builds the vertices of the one-frame-at-a-time reference, bit
    for bit, or raises its TeachFailure, message for message."""
    frames, extractors = teach_rig
    box = np.s_[top : top + height, left : left + width]
    seq = list(frames[:n])
    for i, name in bad:
        f = seq[i % n]
        if name in LIFTS:
            seq[i % n] = LIFTS[name](f, seq, top)
        else:  # pixels as a float32 blob holds them, in both views
            views = (PIXELS[name](img, box, value).astype(np.float32).astype(float)
                     for img in (f.left, f.right))
            seq[i % n] = StereoFrame(*views, f.disparity, f.pose)
    ex = extractors[extractor]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _taught(teach, seq, ex, K_default, source)
    assert got == _taught(teach_reference, seq, ex, K_default, source)


@pytest.fixture(scope="module")
def pairs(scene, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pairs")
    synth.make_dataset(directory, scene, count=5, seed=11, size=(24, 32))
    samples, manifest = synth.load_dataset(directory)
    weights = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=1))
    return samples, synth.camera_from_dict(manifest["camera"]), weights


@settings(max_examples=40)
@given(n=st.integers(1, 5), at=st.integers(0, 4), side=st.sampled_from(["source", "target"]),
       pixels=st.sampled_from(sorted(PIXELS)), disparity=st.sampled_from(sorted(DISPARITY)),
       disparity_side=st.sampled_from(["source", "target"]),
       top=st.integers(0, 23), left=st.integers(0, 31), height=st.integers(1, 24),
       width=st.integers(1, 32), value=st.floats(-SCALE, SCALE, width=32))
@example(n=4, at=1, side="source", pixels="float32-max frame", disparity="clean",
         disparity_side="source", top=0, left=0, height=1, width=1, value=1.0)
@example(n=5, at=4, side="target", pixels="clean", disparity="zero", disparity_side="target",
         top=0, left=0, height=1, width=1, value=1.0)
def test_a_corrupted_training_pair_is_a_finite_loss_or_skipped(
    pairs, n, at, side, pixels, disparity, disparity_side, top, left, height, width, value,
):
    """One pair of a batch has its pixels corrupted in one left image and
    its disparity in one view: the mean loss and gradients are finite, or
    the loss is NaN with every sample skipped and the gradients zero. Each
    sample has its stats, in order: the clean pairs' are those of the batch
    without the corruption."""
    samples, K, weights = pairs
    batch = list(samples[:n])
    box = np.s_[top : top + height, left : left + width]
    bad = batch[at % n]
    frame = getattr(bad, side)
    left_img = PIXELS[pixels](frame.left, box, value).astype(np.float32).astype(float)
    bad = dataclasses.replace(bad, **{side: dataclasses.replace(frame, left=left_img)})
    frame = getattr(bad, disparity_side)
    bad = dataclasses.replace(bad, **{disparity_side: dataclasses.replace(
        frame, disparity=DISPARITY[disparity](frame.disparity, box))})
    batch[at % n] = bad
    lcfg = training.LossConfig(gate_threshold=2.0)  # keeps every clean pair of these
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, grads, stats = training.total_loss(batch, weights, lcfg, K)
    assert len(stats) == n and all(isinstance(s, training.SampleStats) for s in stats)
    if math.isfinite(loss):
        assert not all(s.skipped for s in stats)
        assert all(np.isfinite(g).all() for g in grads.values())
    else:
        assert math.isnan(loss) and all(s.skipped for s in stats)
        assert all(not g.any() for g in grads.values())
    _, _, clean = training.total_loss(samples[:n], weights, lcfg, K, compute_grads=False)
    assert [repr(s) for i, s in enumerate(stats) if i != at % n] == [
        repr(s) for i, s in enumerate(clean) if i != at % n]
