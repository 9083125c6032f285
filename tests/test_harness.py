import dataclasses
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from stereoloc import autodiff as ad
from stereoloc import estimator, features, harness, matching, synth
from stereoloc.autodiff import Tape
from stereoloc.errors import ConfigError, DegenerateGeometry, ShapeError, TeachFailure
from stereoloc.estimator import RansacParams, align_core
from stereoloc.harness import (
    AnalyticExtractor,
    LearnedExtractor,
    LocalizeParams,
    load_map,
    localize,
    nearest_vertex,
    repeat,
    save_map,
    teach,
    write_condition_matrix,
    write_run_csv,
)
from stereoloc.geometry import se3_to_planar
from stereoloc.synth import StereoFrame

from oracles import project_points, read_run_csv, render_one


@pytest.fixture(scope="module")
def rig(scene, K_default):
    poses = synth.path_poses(8)
    frames = synth.render_sequence(scene, poses, "noon", K_default, (48, 64), seed=50)
    extractor = AnalyticExtractor(window=8)
    teach_map = teach(frames, extractor, K_default)
    return frames, extractor, teach_map


class TestTeach:
    def test_one_vertex_per_frame(self, rig):
        frames, _, teach_map = rig
        assert len(teach_map.vertices) == len(frames)
        assert [v.frame_id for v in teach_map.vertices] == list(range(len(frames)))

    def test_an_unknown_disparity_source_is_refused_before_any_frame(self, rig, K_default):
        frames, _, _ = rig
        with pytest.raises(ValueError, match="^disparity must be one of"):  # no extractor runs
            teach(frames, object(), K_default, disparity_source="blocks")

    def test_deterministic(self, rig, K_default):
        frames, extractor, teach_map = rig
        again = teach(frames, extractor, K_default)
        for a, b in zip(teach_map.vertices, again.vertices):
            assert a.coords.tobytes() == b.coords.tobytes()
            assert a.points3d.tobytes() == b.points3d.tobytes()

    def test_lifts_reproject_onto_keypoints(self, rig, K_default):
        _, _, teach_map = rig
        for v in teach_map.vertices:
            obs = project_points(v.points3d, K_default)
            assert np.abs(obs[:, :2] - v.coords).max() < 0.5

    def test_empty_sequence_rejected(self, K_default):
        with pytest.raises(TeachFailure):
            teach([], AnalyticExtractor(), K_default)

    def test_invalid_disparity_everywhere_rejected(self, rig, K_default):
        frames, extractor, _ = rig
        bad = StereoFrame(
            frames[0].left, frames[0].right,
            np.zeros_like(frames[0].disparity), frames[0].pose,
        )
        with pytest.raises(TeachFailure):
            teach([bad], extractor, K_default)

    def test_infinite_disparity_everywhere_names_the_frame(self, rig, K_default):
        # +inf must not lift the keypoints to the camera origin
        frames, extractor, _ = rig
        bad = StereoFrame(frames[1].left, frames[1].right,
                          np.full_like(frames[1].disparity, np.inf), frames[1].pose)
        with pytest.raises(TeachFailure, match="frame 1"):
            teach([frames[0], bad, frames[2]], extractor, K_default)

    def test_infinite_disparity_patch_drops_only_its_keypoints(self, rig, K_default):
        frames, extractor, teach_map = rig
        disparity = frames[0].disparity.copy()
        disparity[10:30, 15:45] = np.inf
        patched = StereoFrame(frames[0].left, frames[0].right, disparity, frames[0].pose)
        vertex = teach([patched], extractor, K_default).vertices[0]
        assert 3 <= len(vertex.points3d) < len(teach_map.vertices[0].points3d)
        assert np.isfinite(vertex.points3d).all() and (vertex.points3d[:, 2] > 0).all()

    def test_non_finite_frame_names_the_frame(self, rig, K_default):
        frames, extractor, _ = rig
        left = frames[1].left.copy()
        left[10:20, 20:30] = np.nan
        patched = StereoFrame(left, frames[1].right, frames[1].disparity, frames[1].pose)
        with pytest.raises(TeachFailure, match="frame 1"):
            teach([frames[0], patched, frames[2]], extractor, K_default)

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_a_frame_of_another_size_names_the_frame_and_both_sizes(self, rig, scene, K_default,
                                                                     at):
        # a 32x24 frame extracts, but its vertex would not load with the map
        frames, extractor, _ = rig
        small = render_one(scene, (0.1, 0.0, 0.2), synth.default_intrinsics(32, 24),
                           synth.CONDITIONS["noon"], (24, 32))
        seq = [*frames[:at], small, *frames[at:4]]
        with pytest.raises(TeachFailure, match=f"^frame {at}: 32x24 pixels, but frame 0 has "
                                               "64x48$"):
            teach(seq, extractor, K_default)
        before = seq[at - 1]  # a bad frame before it fails first
        left = before.left.copy()
        left[0, 0] = np.nan
        seq[at - 1] = StereoFrame(left, before.right, before.disparity, before.pose)
        with pytest.raises(TeachFailure, match=f"^frame {at - 1}: sample point outside"):
            teach(seq, extractor, K_default)


@dataclass
class GridExtractor:
    """Analytic features whose keypoints sit on whole pixels: two rows and
    three columns into each window."""

    window: int = 8
    ident = "grid"

    def features_on(self, tape, images):
        parts, _ = features.analytic_features(images, tape)
        logits = np.zeros(images.shape)
        logits[:, 2::self.window, 3::self.window] = 1e3
        return parts, tape.constant(logits)


class TestTeachRefusesDegenerateVertices:
    """A frame whose valid lifted points are collinear is a TeachFailure
    that names it: only the keypoints on pixel rows with a valid disparity
    lift, and one row of them at one depth lies on one 3D line."""

    @staticmethod
    def frame_valid_on_rows(frame, rows):
        disparity = np.full_like(frame.disparity, np.nan)
        disparity[rows] = 4.0
        return StereoFrame(frame.left, frame.right, disparity, frame.pose)

    def test_collinear_lifts_name_the_frame(self, rig, K_default):
        frames, _, _ = rig
        line = self.frame_valid_on_rows(frames[1], [2])
        good = [self.frame_valid_on_rows(f, [2, 10]) for f in (frames[0], frames[2])]
        with pytest.raises(TeachFailure, match="frame 1: 8 lifted points"):
            teach([good[0], line, good[1]], GridExtractor(), K_default)

    @staticmethod
    def row_at_two_depths(frame, eps):
        """Valid on row 2 only, at disparity 4 and 4 (1 + eps) on alternate
        keypoints: the points span a plane, whose width is of order eps."""
        disparity = np.full_like(frame.disparity, np.nan)
        disparity[2] = 4.0
        disparity[2, 11::16] = 4.0 * (1 + eps)
        return StereoFrame(frame.left, frame.right, disparity, frame.pose)

    def test_a_nearly_collinear_vertex_is_refused(self, rig, K_default):
        # the centered points' second singular value is 1.7e-6 of the
        # first, the cross-covariance's its square: no pose can be found
        # against such a vertex, so it is not taught
        frames, _, _ = rig
        with pytest.raises(TeachFailure, match="frame 0: 8 lifted points: .*collinear"):
            teach([self.row_at_two_depths(frames[0], 1e-6)], GridExtractor(), K_default)

    def test_a_thin_plane_of_lifts_teaches_and_localizes(self, rig, K_default):
        frames, _, _ = rig
        frame = self.row_at_two_depths(frames[0], 1e-3)
        vertex = teach([frame], GridExtractor(), K_default).vertices[0]
        res = localize(frame, vertex, GridExtractor(), LocalizeParams(mode="sparse"), K_default)
        assert res.pose is not None and res.inliers == len(vertex.points3d) == 8

    def test_two_rows_of_lifts_teach(self, rig, K_default):
        frames, _, _ = rig
        vertex = teach([self.frame_valid_on_rows(frames[0], [2, 10])], GridExtractor(),
                       K_default).vertices[0]
        assert len(vertex.points3d) == 16
        assert np.array_equal(np.unique(vertex.coords[:, 1]), [2.0, 10.0])

    @staticmethod
    def refusal(check, *args) -> str | None:
        try:
            check(*args)
        except DegenerateGeometry as e:
            return str(e)
        return None

    def test_teach_refuses_exactly_the_sets_align_core_refuses(self, rig, K_default,
                                                               monkeypatch):
        """The lifts of the fixed frames above, as teach checks them, and a
        seeded draw of generic, duplicated, collinear, nearly collinear
        (width 1e-7 to 1e-3) and too small point sets: teach's check refuses
        a set, with the same message, exactly when align_core refuses to
        align it with itself."""
        frames, _, _ = rig
        check, lifts = estimator.check_alignable, []
        monkeypatch.setattr(estimator, "check_alignable", lambda p: (lifts.append(p), check(p)))
        fixed = [self.frame_valid_on_rows(frames[1], [2]), self.row_at_two_depths(frames[0], 1e-6),
                 self.row_at_two_depths(frames[0], 1e-3),
                 self.frame_valid_on_rows(frames[0], [2, 10])]
        taught = []
        for frame in fixed:
            try:
                taught.append(len(teach([frame], GridExtractor(), K_default).vertices))
            except TeachFailure:
                taught.append(0)
        assert taught == [0, 0, 1, 1] and len(lifts) == len(fixed)

        rng = np.random.default_rng(29)
        sets = list(lifts)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            generic = rng.normal(size=(n, 3)) + [0.0, 0.0, 5.0]
            along = rng.normal(size=(n, 1))
            direction = rng.normal(size=3)
            line = generic[0] + along * direction
            across = np.cross(direction, rng.normal(size=3))
            width = 10.0 ** rng.uniform(-7, -3)
            sets += [generic, line, line + width * rng.normal(size=(n, 1)) * across,
                     np.repeat(generic[:1], n, axis=0), generic[rng.integers(0, 2, n)],
                     generic[: int(rng.integers(0, 3))]]
        refused = []
        for p in sets:
            expected = self.refusal(align_core, p, p, np.ones(len(p)))
            assert self.refusal(check, p) == expected, p
            refused.append(expected is not None)
        # both outcomes occur among the nearly collinear sets
        near = refused[len(lifts) + 2::6]
        assert any(near) and not all(near)


class TestLocalize:
    def test_sparse_self_localization_is_exact(self, rig, K_default):
        frames, extractor, teach_map = rig
        params = LocalizeParams(mode="sparse")
        n = len(teach_map.vertices[0].coords)
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert res.inliers == n
        assert not res.failure
        assert np.abs(res.pose.C - np.eye(3)).max() < 1e-6
        assert np.abs(res.pose.r).max() < 1e-6

    def test_dense_self_localization_mostly_inliers(self, rig, K_default):
        # hand-built descriptors are ambiguous in flat regions, so dense
        # self-matching recovers most but not all keypoints; the exact
        # all-N contract belongs to sparse mode (above) and to trained
        # features (acceptance suite)
        frames, extractor, teach_map = rig
        params = LocalizeParams(mode="dense")
        n = len(teach_map.vertices[0].coords)
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert res.inliers >= 0.6 * n
        assert not res.failure

    def test_far_vertex_fails(self, rig, K_default):
        frames, extractor, teach_map = rig
        res = localize(frames[0], teach_map.vertices[-1], extractor,
                       LocalizeParams(), K_default)
        assert res.failure

    def test_failure_rule_threshold(self, rig, K_default):
        frames, extractor, teach_map = rig
        n = len(teach_map.vertices[0].coords)
        params = LocalizeParams(mode="sparse", failure_inliers=n + 1)
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert res.inliers == n and res.failure  # pose found, still below bar
        params = LocalizeParams(mode="sparse", failure_inliers=1)
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert not res.failure

    def test_read_only_with_respect_to_map(self, rig, K_default):
        frames, extractor, teach_map = rig
        params = LocalizeParams()
        before = teach_map.vertices[0].points3d.tobytes()
        a = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        b = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert teach_map.vertices[0].points3d.tobytes() == before
        assert a.inliers == b.inliers
        assert a.pose.C.tobytes() == b.pose.C.tobytes()

    @pytest.mark.parametrize("setting, value", [("mode", "Dense"), ("disparity", "stereo")])
    def test_an_unknown_mode_or_disparity_source_is_refused_at_construction(self, setting,
                                                                           value):
        with pytest.raises(ValueError, match=f"^{setting} must be one of"):
            LocalizeParams(**{setting: value})

    def test_block_disparity_mode_runs(self, rig, K_default):
        frames, extractor, teach_map = rig
        params = LocalizeParams(mode="sparse", disparity="block")
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert res.inliers >= 3 or res.failure

    def test_block_matching_reads_only_the_lifted_pixels(self, rig, K_default, monkeypatch):
        frames, extractor, teach_map = rig
        vertex = teach_map.vertices[0]
        pixels = []
        block_match = synth.block_match_disparity

        def counted(left, right, u, v):
            pixels.append(len(u))
            return block_match(left, right, u, v)

        monkeypatch.setattr(synth, "block_match_disparity", counted)
        params = LocalizeParams(mode="dense", disparity="block")
        a = localize(frames[0], vertex, extractor, params, K_default)
        b = localize(frames[0], vertex, extractor, params, K_default)
        h, w = frames[0].left.shape
        keypoints = (h // extractor.window) * (w // extractor.window)
        # per localization: the live keypoints, then the dense matches
        assert len(pixels) == 4
        assert max(pixels) <= keypoints
        assert a.inliers == b.inliers


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_right_patch_costs_only_the_keypoints_that_see_it(
        self, rig, K_default, bad
    ):
        frames, extractor, teach_map = rig
        f = frames[0]
        right = f.right.copy()
        right[10:30, 10:40] = bad
        patched = StereoFrame(f.left, right, f.disparity, f.pose)
        params = LocalizeParams(mode="sparse", disparity="block")
        clean = localize(f, teach_map.vertices[0], extractor, params, K_default)
        res = localize(patched, teach_map.vertices[0], extractor, params, K_default)
        assert not res.failure
        assert 0 < res.inliers < clean.inliers

class TestNonFiniteFramesWarnNothing:
    """A live frame with an infinite patch is a recorded failure, and numpy
    prints no RuntimeWarning on the way: the extractors meet inf - inf and
    0 * inf there, which the harness expects."""

    @pytest.fixture(scope="class")
    def maps(self, rig, K_default):
        frames, analytic, analytic_map = rig
        learned = LearnedExtractor(
            features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9))
        )
        return frames, {
            "analytic": (analytic, analytic_map),
            "learned": (learned, teach(frames[:3], learned, K_default)),
        }

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("extractor", ["analytic", "learned"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_patch_is_a_recorded_failure(self, maps, K_default, value, extractor, mode):
        frames, by_name = maps
        ex, teach_map = by_name[extractor]
        left = frames[1].left.copy()
        left[10:20, 20:30] = value
        patched = StereoFrame(left, frames[1].right, frames[1].disparity, frames[1].pose)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = localize(patched, teach_map.vertices[1], ex, LocalizeParams(mode=mode),
                           K_default)
        assert res.failure and res.pose is None and res.inliers == 0


class OneRowScores(GridExtractor):
    """GridExtractor whose scores are zero off pixel row 2, so only the
    keypoints on that row weigh in a sparse pose fit."""

    def features_on(self, tape, images):
        (stack,), logits = super().features_on(tape, images)
        stack = stack.value.copy()
        stack[-1] = 0.0
        stack[-1, :, 2] = 1.0
        return [tape.constant(stack)], logits


class TestFailureReasons:
    """Each failure localize records carries exactly one reason."""

    def test_success_has_no_reason(self, rig, K_default):
        frames, extractor, teach_map = rig
        res = localize(frames[0], teach_map.vertices[0], extractor,
                       LocalizeParams(mode="sparse"), K_default)
        assert not res.failure and res.reason is None

    def test_insufficient_matches(self, rig, K_default):
        frames, extractor, teach_map = rig
        f = frames[0]
        blind = StereoFrame(f.left, f.right, np.full_like(f.disparity, np.nan), f.pose)
        res = localize(blind, teach_map.vertices[0], extractor, LocalizeParams(), K_default)
        assert (res.failure, res.reason, res.pose, res.inliers) == (
            True, "insufficient_matches", None, 0)

    def test_ransac_consensus(self, rig, K_default):
        frames, extractor, teach_map = rig
        n = len(teach_map.vertices[0].coords)
        params = LocalizeParams(mode="sparse", ransac=RansacParams(min_inliers=n + 1))
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert (res.failure, res.reason, res.pose) == (True, "ransac_consensus", None)

    def test_degenerate(self, rig, K_default):
        """Every pair is an inlier, but the refit weighs only the 8 on one
        pixel row at one depth, which lie on one 3D line."""
        frames, _, _ = rig
        f = frames[0]
        flat = StereoFrame(f.left, f.right, np.full_like(f.disparity, 4.0), f.pose)
        extractor = OneRowScores()
        vertex = teach([flat], extractor, K_default).vertices[0]
        res = localize(flat, vertex, extractor, LocalizeParams(mode="sparse"), K_default)
        assert (res.failure, res.reason, res.pose) == (True, "degenerate", None)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_non_finite(self, rig, K_default, mode):
        frames, extractor, teach_map = rig
        left = frames[1].left.copy()
        left[10:20, 20:30] = np.inf
        patched = StereoFrame(left, frames[1].right, frames[1].disparity, frames[1].pose)
        res = localize(patched, teach_map.vertices[1], extractor, LocalizeParams(mode=mode),
                       K_default)
        assert (res.failure, res.reason, res.pose) == (True, "non_finite", None)

    def test_below_inlier_threshold(self, rig, K_default):
        frames, extractor, teach_map = rig
        n = len(teach_map.vertices[0].coords)
        params = LocalizeParams(mode="sparse", failure_inliers=n + 1)
        res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
        assert (res.failure, res.reason, res.inliers) == (True, "below_inlier_threshold", n)
        assert res.pose is not None

    def test_failure_and_planar_derive_from_reason_and_pose(self, rig, K_default):
        """A result stores its reason and pose; `failure` and `planar` are
        read from them."""
        frames, extractor, teach_map = rig
        for failure_inliers in (1, len(teach_map.vertices[0].coords) + 1):
            params = LocalizeParams(mode="sparse", failure_inliers=failure_inliers)
            res = localize(frames[0], teach_map.vertices[0], extractor, params, K_default)
            assert res.failure == (res.reason is not None)
            assert res.planar == se3_to_planar(res.pose)
        res.pose = None
        assert res.planar is None


class TestOnePixelFrames:
    """A live frame 1 px wide or high is a recorded failure, a taught one a
    TeachFailure that names it, and numpy warns nothing on the way."""

    @pytest.fixture(scope="class")
    def maps(self, rig, K_default):
        frames, analytic, analytic_map = rig
        learned = LearnedExtractor(
            features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9))
        )
        return frames, {
            "analytic": (analytic, analytic_map),
            "learned": (learned, teach(frames[:2], learned, K_default)),
        }

    @staticmethod
    def thin_frame(scene, size):
        K = synth.default_intrinsics(size[1], size[0])
        return render_one(scene, (0.1, 0.0, 0.2), K, synth.CONDITIONS["dusk"], size)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("extractor", ["analytic", "learned"])
    @pytest.mark.parametrize("size", [(1, 64), (48, 1), (1, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_localize_records_a_failure(self, scene, maps, K_default, size, extractor, mode):
        frames, by_name = maps
        ex, teach_map = by_name[extractor]
        frame = self.thin_frame(scene, size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = localize(frame, teach_map.vertices[0], ex, LocalizeParams(mode=mode),
                           K_default)
        assert (res.failure, res.reason, res.pose, res.inliers) == (
            True, "insufficient_matches", None, 0)

    @pytest.mark.parametrize("extractor", ["analytic", "learned"])
    @pytest.mark.parametrize("size", [(1, 64), (48, 1), (1, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_teach_names_the_frame(self, scene, maps, K_default, size, extractor):
        frames, by_name = maps
        ex, _ = by_name[extractor]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TeachFailure, match="frame 1: no keypoints"):
                teach([frames[0], self.thin_frame(scene, size)], ex, K_default)

    def test_a_shape_error_elsewhere_still_raises(self, scene, maps, K_default):
        frames, by_name = maps
        ex, teach_map = by_name["learned"]
        f = frames[0]
        with pytest.raises(ShapeError):  # not an image at all
            localize(StereoFrame(f.left[0], f.right[0], f.disparity[0], f.pose),
                     teach_map.vertices[0], ex, LocalizeParams(), K_default)
        v = teach_map.vertices[0]
        short = harness.MapVertex(v.frame_id, v.world_pose, v.coords, v.descriptors, v.scores,
                                  v.points3d, v.frame, v.parts[1:])
        with pytest.raises(ValueError):  # dense parts of another descriptor length
            localize(f, short, ex, LocalizeParams(mode="dense"), K_default)


class TestRepeat:
    def test_self_repeat_sparse_is_clean(self, rig, K_default):
        frames, extractor, teach_map = rig
        report = repeat(frames, teach_map, extractor, LocalizeParams(mode="sparse"),
                        K_default)
        assert report.failure_count == 0
        assert report.failure_fraction == 0.0
        assert report.pose_rmse < 1e-3
        assert report.mean_inliers == len(teach_map.vertices[0].coords)

    def test_self_repeat_dense_no_failures(self, rig, K_default):
        frames, extractor, teach_map = rig
        report = repeat(frames, teach_map, extractor, LocalizeParams(), K_default)
        assert report.failure_count == 0
        assert report.pose_rmse < 5e-2

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_nan_patched_frame_is_a_recorded_failure(self, rig, K_default, mode):
        frames, extractor, teach_map = rig
        left = frames[1].left.copy()
        left[10:20, 20:30] = np.nan
        patched = StereoFrame(left, frames[1].right, frames[1].disparity, frames[1].pose)
        seq = [frames[0], patched, frames[2]]
        report = repeat(seq, teach_map, extractor, LocalizeParams(mode=mode), K_default)
        assert len(report.results) == len(seq)
        assert report.results[1].failure and report.results[1].inliers == 0
        assert not report.results[0].failure and not report.results[2].failure

    def test_nearest_vertex_association(self, rig):
        frames, _, teach_map = rig
        for i, frame in enumerate(frames):
            assert nearest_vertex(teach_map, frame.pose).frame_id == i

    def test_aggregates_consistent_with_results(self, rig, K_default):
        frames, extractor, teach_map = rig
        report = repeat(frames, teach_map, extractor, LocalizeParams(), K_default)
        assert report.mean_inliers == pytest.approx(
            np.mean([r.inliers for r in report.results])
        )
        assert report.failure_count == sum(r.failure for r in report.results)


class TestReporting:
    def test_run_csv_roundtrip(self, rig, K_default, tmp_path):
        frames, extractor, teach_map = rig
        report = repeat(frames, teach_map, extractor, LocalizeParams(), K_default)
        path = tmp_path / "run.csv"
        write_run_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,inliers,failure,pose_error,heading_error"
        assert len(lines) == 1 + len(frames)
        back = read_run_csv(path)
        assert back["mean_inliers"] == pytest.approx(report.mean_inliers)
        assert back["failure_count"] == report.failure_count
        assert back["failure_fraction"] == pytest.approx(report.failure_fraction)
        assert back["pose_rmse"] == pytest.approx(report.pose_rmse, rel=1e-9)
        assert back["heading_rmse"] == pytest.approx(report.heading_rmse, rel=1e-9)

    def test_condition_matrix_square(self, tmp_path):
        conds = ["dawn", "noon", "night"]
        cells = {(tc, rc): 10.0 * i + j for i, tc in enumerate(conds)
                 for j, rc in enumerate(conds)}
        write_condition_matrix(cells, tmp_path / "m.csv")
        matrix = (tmp_path / "m.csv").read_text().splitlines()
        assert matrix[0] == "teach\\repeat,dawn,night,noon"
        assert len(matrix) == 1 + len(conds)
        for line, tc in zip(matrix[1:], sorted(conds)):
            cells_read = line.split(",")
            assert cells_read[0] == tc
            assert cells_read[1:] == [repr(cells[tc, rc]) for rc in sorted(conds)]

    def test_condition_matrix_marks_a_missing_pair_nan(self, tmp_path):
        write_condition_matrix({("noon", "dusk"): 12.5, ("dusk", "noon"): 3.0},
                               tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().splitlines() == [
            "teach\\repeat,dusk,noon", "dusk,nan,3.0", "noon,12.5,nan"]

    def test_condition_matrix_requires_runs(self, tmp_path):
        with pytest.raises(ValueError, match="no runs"):
            write_condition_matrix({}, tmp_path / "m.csv")
        assert not (tmp_path / "m.csv").exists()


class TestMapPersistence:
    def test_roundtrip_preserves_structure(self, rig, K_default, tmp_path):
        frames, extractor, teach_map = rig
        save_map(tmp_path / "m", teach_map)
        loaded = load_map(tmp_path / "m")
        assert len(loaded.vertices) == len(teach_map.vertices)
        assert loaded.extractor_ident == teach_map.extractor_ident
        for a, b in zip(teach_map.vertices, loaded.vertices):
            assert np.allclose(b.coords, a.coords, atol=1e-4)
            assert np.allclose(b.points3d, a.points3d, atol=1e-4)
            assert np.array_equal(b.descriptors, a.descriptors.astype(np.float32))

    def test_loaded_map_localizes_deterministically(self, rig, K_default, tmp_path):
        frames, extractor, teach_map = rig
        save_map(tmp_path / "m", teach_map)
        a = repeat(frames, load_map(tmp_path / "m"), extractor, LocalizeParams(), K_default)
        b = repeat(frames, load_map(tmp_path / "m"), extractor, LocalizeParams(), K_default)
        assert [r.inliers for r in a.results] == [r.inliers for r in b.results]
        assert a.pose_rmse == b.pose_rmse

    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "analytic"])
    def test_reloaded_vertex_arrays_view_one_float32_blob(
        self, rig, K_default, tmp_path, learned
    ):
        """Every reloaded array but the 3D points and the pose is a float32
        view into the vertex's one blob, in the dtype and shape teach made
        it, frames as stored; the 3D points promote to float64."""
        frames, analytic, _ = rig
        extractor = (LearnedExtractor(features.init_weights(TestStatelessLocalize.CFG))
                     if learned else analytic)
        teach_map = teach(frames[:2], extractor, K_default)
        save_map(tmp_path / "m", teach_map)
        loaded = load_map(tmp_path / "m")
        for a, b in zip(teach_map.vertices, loaded.vertices):
            viewed = [b.coords, b.descriptors, b.scores, b.frame.left, b.frame.right,
                      b.frame.disparity, *b.parts]
            base = b.frame.left.base
            assert base is not None and base.dtype == np.float32
            assert all(x.base is base and x.dtype == np.float32 for x in viewed)
            for name in ("coords", "descriptors", "scores"):
                assert getattr(a, name).dtype == getattr(b, name).dtype, name
            assert [p.dtype for p in a.parts] == [np.float32] * len(a.parts)
            assert [p.shape for p in a.parts] == [p.shape for p in b.parts]
            assert all(np.array_equal(p, q) for p, q in zip(a.parts, b.parts))
            assert b.points3d.dtype == b.world_pose.dtype == np.float64
            assert np.array_equal(b.points3d, a.points3d.astype(np.float32))

    def test_rejects_non_map(self, tmp_path):
        from stereoloc import storage

        storage.write_manifest(tmp_path / "x", {"kind": "pairs"})
        with pytest.raises(ValueError):
            load_map(tmp_path / "x")


class TestStatelessLocalize:
    CFG = features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)

    def test_dense_repeat_refuses_another_extractors_map(self, rig, K_default):
        """A vertex's stored dense parts are the teaching extractor's, so a
        map taught by another is refused, as in sparse mode."""
        frames, _, _ = rig
        a = LearnedExtractor(features.init_weights(self.CFG))
        b = LearnedExtractor(features.init_weights(dataclasses.replace(self.CFG, seed=10)))
        teach_map = teach(frames[:2], a, K_default)
        with pytest.raises(ConfigError, match=f"{a.ident}.*{b.ident}"):
            repeat(frames[:1], teach_map, b, LocalizeParams(mode="dense"), K_default)

    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "analytic"])
    def test_rebuilt_stack_is_the_vertex_frames_stack(self, rig, K_default, tmp_path,
                                                       learned):
        """The stack rebuilt from a vertex's parts, as taught and as
        reloaded, is byte-equal to the stack of a fresh pass over the
        vertex's frame: `encode`'s parts for the learned extractor,
        `features_on`'s for the analytic one."""
        frames, analytic, _ = rig
        extractor = LearnedExtractor(features.init_weights(self.CFG)) if learned else analytic
        teach_map = teach(frames[:2], extractor, K_default)
        save_map(tmp_path / "m", teach_map)
        for taught, loaded in zip(teach_map.vertices, load_map(tmp_path / "m").vertices):
            tape = Tape(grad=False, dtype=harness.INFERENCE_DTYPE)
            image = taught.frame.left[None]
            if learned:
                weights = extractor.weights
                parts, _ = features.encode(image, weights.bind(tape), weights.config, tape)
            else:
                parts, _ = extractor.features_on(tape, image)
            fresh = features.stack_parts(parts)
            for v in (taught, loaded):
                rebuilt = features.stack_parts([tape.constant(p[:, None]) for p in v.parts])
                assert rebuilt.value.dtype == fresh.value.dtype == np.float32
                assert rebuilt.value.tobytes() == fresh.value.tobytes()

    def test_matching_into_kept_parts_is_matching_into_their_stack(self, rig, K_default):
        """`match_all` joins the target stack from a vertex's kept parts as
        `stack_parts` does: the same points and weights, bit for bit."""
        frames, _, _ = rig
        vertex = teach(frames[:1], LearnedExtractor(features.init_weights(self.CFG)),
                       K_default).vertices[0]
        tape = Tape(grad=False, dtype=harness.INFERENCE_DTYPE)
        parts = [tape.constant(p[:, None]) for p in vertex.parts]
        assert len(parts) == len(self.CFG.channels) + 1
        kps = features.KeypointSet(*(tape.constant(v[None]) for v in (
            vertex.coords, vertex.descriptors, vertex.scores)))
        by_parts = matching.match_all(kps, parts, tau=harness.DEFAULT_LOCALIZE_TAU)
        by_stack = matching.match_all(kps, [features.stack_parts(parts)],
                                      tau=harness.DEFAULT_LOCALIZE_TAU)
        for a, b in zip(by_parts, by_stack):
            assert a.value.dtype == np.float32 and a.value.tobytes() == b.value.tobytes()

    def test_every_dense_localize_runs_10_convs_on_two_no_grad_tapes(
        self, rig, K_default, monkeypatch
    ):
        frames, _, _ = rig
        extractor = LearnedExtractor(features.init_weights(self.CFG))
        teach_map = teach(frames[:2], extractor, K_default)
        vertex = teach_map.vertices[0]
        convs = []
        conv2d = ad.conv2d

        def counted(*args):
            convs.append(1)
            return conv2d(*args)

        tapes = []

        def recorded(grad=True, dtype=np.float64):
            tapes.append(Tape(grad, dtype))
            return tapes[-1]

        records = []
        record = Tape.record

        def counted_record(*args):
            records.append(1)
            return record(*args)

        passes = []
        encode = features.encode

        def counted_encode(*args):
            passes.append(1)
            return encode(*args)

        samples = []
        bilinear_sample = ad.bilinear_sample

        def counted_sample(*args):
            samples.append(1)
            return bilinear_sample(*args)

        monkeypatch.setattr(ad, "conv2d", counted)
        monkeypatch.setattr(ad, "bilinear_sample", counted_sample)
        monkeypatch.setattr(harness, "Tape", recorded)
        monkeypatch.setattr(Tape, "record", counted_record)
        monkeypatch.setattr(features, "encode", counted_encode)
        for _ in range(2):  # a vertex localized before costs the same again
            for counts in (convs, tapes, records, passes, samples):
                counts.clear()
            localize(frames[0], vertex, extractor, LocalizeParams(mode="dense"), K_default)
            # all 10 for the live frame's full forward; the vertex's stack
            # is rebuilt from its stored parts, with no extractor pass
            assert len(convs) == 10
            # one per primitive (constants are not records): the vertex's 25
            # extractor records give way to 3 upsamples and a concat, and
            # each stack sample takes its score channel by one int take
            assert len(records) == 68
            assert len(tapes) == 2  # live frame; vertex stack and matching
            assert not any(t.grad for t in tapes)
            assert all(t.dtype == np.float32 for t in tapes)
            assert all(len(t) == 0 for t in tapes)
            assert len(passes) == 1  # the live frame's
            # the live keypoints and the matched points each sample a stack once
            assert len(samples) == 2

    def test_repeat_memory_stays_flat(self, rig, K_default):
        frames, extractor, used_map = rig
        params = LocalizeParams(mode="dense")
        repeat(frames, used_map, extractor, params, K_default)  # fills memoized tables
        teach_map = teach(frames, extractor, K_default)  # the rig's map, untouched
        f32 = harness.INFERENCE_DTYPE
        parts, _ = extractor.features_on(Tape(grad=False, dtype=f32), frames[0].left[None])
        stack = features.stack_parts(parts).value
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = repeat(frames, teach_map, extractor, params, K_default)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # every frame localized against its own vertex
        assert report.failure_count == 0 and len(report.results) == len(teach_map.vertices)
        assert grown < stack.nbytes


class TestExtractorIdent:
    CFG = features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)

    def test_names_the_weights_not_the_seed(self):
        weights = features.init_weights(self.CFG)
        a = LearnedExtractor(weights)
        assert a.ident.startswith("learned-") and len(a.ident) == len("learned-") + 12
        assert LearnedExtractor(weights.copy()).ident == a.ident
        other = features.init_weights(dataclasses.replace(self.CFG, seed=10))
        assert LearnedExtractor(other).ident != a.ident

    def test_a_saved_checkpoint_keeps_the_ident(self, tmp_path):
        weights = features.init_weights(self.CFG)
        features.save_checkpoint(tmp_path / "ck", weights)
        loaded, _ = features.load_checkpoint(tmp_path / "ck")
        assert LearnedExtractor(loaded).ident == LearnedExtractor(weights).ident

    def test_sparse_repeat_needs_the_teaching_extractor(self, rig, K_default):
        frames, analytic, teach_map = rig
        learned = LearnedExtractor(features.init_weights(self.CFG))
        with pytest.raises(ConfigError, match=f"analytic.*{learned.ident}"):
            repeat(frames[:1], teach_map, learned, LocalizeParams(mode="sparse"), K_default)


class TestInferenceDtype:
    CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint"

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "analytic"])
    def test_localize_computes_in_float32_and_poses_in_float64(
        self, rig, K_default, monkeypatch, mode, learned
    ):
        frames, analytic, _ = rig
        extractor = (LearnedExtractor(features.load_checkpoint(self.CHECKPOINT)[0])
                     if learned else analytic)
        teach_map = teach(frames[:2], extractor, K_default)
        vertex = teach_map.vertices[0]
        dtypes = []
        record = Tape.record

        def dtype_record(tape, value, parents, pullback):
            var = record(tape, value, parents, pullback)
            dtypes.append((tape.grad, var.value.dtype))
            return var

        monkeypatch.setattr(Tape, "record", dtype_record)
        res = localize(frames[0], vertex, extractor, LocalizeParams(mode=mode), K_default)
        assert not res.failure
        assert dtypes and set(dtypes) == {(False, np.dtype(np.float32))}
        assert res.pose.C.dtype == res.pose.r.dtype == np.float64
        assert teach_map.vertices[0].points3d.dtype == np.float64


class TestNoSubnormals:
    @pytest.mark.parametrize("learned", [True, False], ids=["learned", "analytic"])
    def test_dense_repeat_records_no_subnormal_float32_value(
        self, rig, K_default, monkeypatch, learned
    ):
        """A subnormal value sends numpy's kernels off their fast paths, in
        the operation that makes it and in every product that reads it."""
        frames, analytic, rig_map = rig
        if learned:
            checkpoint = features.load_checkpoint(TestInferenceDtype.CHECKPOINT)[0]
            extractor = LearnedExtractor(checkpoint)
            teach_map = teach(frames[:4], extractor, K_default)
        else:
            extractor, teach_map = analytic, rig_map
        tiny = np.finfo(np.float32).tiny
        subnormal = []
        record = Tape.record

        def checked_record(tape, value, parents, pullback):
            var = record(tape, value, parents, pullback)
            if var.value.dtype == np.float32:
                size = np.abs(var.value)
                subnormal.append(int(((size > 0) & (size < tiny)).sum()))
            return var

        monkeypatch.setattr(Tape, "record", checked_record)
        report = repeat(frames[:4], teach_map, extractor, LocalizeParams(), K_default)
        assert report.failure_count == 0
        assert subnormal and not any(subnormal)


class TestLearnedExtractorPath:
    def test_learned_extractor_teaches_and_localizes(self, scene, K_default):
        from stereoloc import features

        cfg = features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)
        extractor = LearnedExtractor(features.init_weights(cfg))
        poses = synth.path_poses(3)
        frames = synth.render_sequence(scene, poses, "noon", K_default, (48, 64), seed=60)
        teach_map = teach(frames, extractor, K_default)
        assert len(teach_map.vertices) == 3
        res = localize(frames[1], teach_map.vertices[1], extractor,
                       LocalizeParams(mode="sparse"), K_default)
        assert res.inliers == len(teach_map.vertices[1].coords)
        assert not res.failure
