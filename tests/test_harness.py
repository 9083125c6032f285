import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stereoloc import autodiff as ad
from stereoloc import features, harness, synth
from stereoloc.autodiff import Tape
from stereoloc.errors import ConfigError, TeachFailure
from stereoloc.harness import (
    AnalyticExtractor,
    LearnedExtractor,
    LocalizeParams,
    RunRecord,
    emit_report,
    load_map,
    localize,
    nearest_vertex,
    repeat,
    save_map,
    teach,
    write_run_csv,
)
from stereoloc.synth import StereoFrame

from oracles import project_points, read_run_csv


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

    def test_condition_matrix_square(self, rig, K_default, tmp_path):
        frames, extractor, teach_map = rig
        report = repeat(frames[:2], teach_map, extractor, LocalizeParams(), K_default)
        conds = ["dawn", "noon", "night"]
        records = [
            RunRecord(f"{tc}-{rc}", tc, rc, report) for tc in conds for rc in conds
        ]
        written = emit_report(records, tmp_path)
        matrix = (tmp_path / "condition_matrix.csv").read_text().splitlines()
        header = matrix[0].split(",")
        assert header[0] == "teach\\repeat"
        assert header[1:] == sorted(conds)
        assert len(matrix) == 1 + len(conds)
        for line in matrix[1:]:
            cells = line.split(",")
            assert cells[0] in conds
            assert len(cells) == 1 + len(conds)
        assert len(written) == len(records) + 1

    def test_emit_report_requires_runs(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)


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
    def test_reloaded_vertex_arrays_keep_their_taught_dtypes(
        self, rig, K_default, tmp_path, learned
    ):
        frames, analytic, _ = rig
        extractor = (LearnedExtractor(features.init_weights(TestStatelessLocalize.CFG))
                     if learned else analytic)
        teach_map = teach(frames[:2], extractor, K_default)
        save_map(tmp_path / "m", teach_map)
        loaded = load_map(tmp_path / "m")
        for a, b in zip(teach_map.vertices, loaded.vertices):
            for name in ("world_pose", "coords", "descriptors", "scores", "points3d"):
                assert getattr(a, name).dtype == getattr(b, name).dtype, name
            for name in ("left", "right", "disparity"):
                assert getattr(a.frame, name).dtype == getattr(b.frame, name).dtype, name
            assert b.descriptors.dtype == np.float32
            assert b.points3d.dtype == b.frame.left.dtype == np.float64

    def test_rejects_non_map(self, tmp_path):
        from stereoloc import storage

        storage.write_manifest(tmp_path / "x", {"kind": "pairs"})
        with pytest.raises(ValueError):
            load_map(tmp_path / "x")


class TestStatelessLocalize:
    CFG = features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9)

    def test_another_extractor_sees_a_fresh_vertex(self, rig, K_default):
        frames, _, _ = rig
        a = LearnedExtractor(features.init_weights(self.CFG))
        b = LearnedExtractor(features.init_weights(self.CFG, seed=10))
        teach_map = teach(frames[:2], a, K_default)
        params = LocalizeParams(mode="dense")
        used = teach_map.vertices[0]
        fresh = teach(frames[:1], a, K_default).vertices[0]
        localize(frames[0], used, a, params, K_default)
        res_used = localize(frames[0], used, b, params, K_default)
        res_fresh = localize(frames[0], fresh, b, params, K_default)
        f32 = harness.INFERENCE_DTYPE
        expected = b.target_on(Tape(grad=False, dtype=f32), used.frame.left).stack.value
        other = a.target_on(Tape(grad=False, dtype=f32), used.frame.left).stack.value
        assert expected.tobytes() != other.tobytes()
        assert res_used.inliers == res_fresh.inliers
        assert res_used.failure == res_fresh.failure

    def test_every_dense_localize_runs_17_convs_on_two_no_grad_tapes(
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
        target_on = extractor.target_on

        def vertex_pass(*args):
            passes.append(target_on(*args))
            return passes[-1]

        samples = []
        bilinear_sample = ad.bilinear_sample

        def counted_sample(*args):
            samples.append(1)
            return bilinear_sample(*args)

        monkeypatch.setattr(ad, "conv2d", counted)
        monkeypatch.setattr(ad, "bilinear_sample", counted_sample)
        monkeypatch.setattr(harness, "Tape", recorded)
        monkeypatch.setattr(Tape, "record", counted_record)
        monkeypatch.setattr(extractor, "target_on", vertex_pass)
        for _ in range(2):  # a vertex localized before costs the same again
            for counts in (convs, tapes, records, passes, samples):
                counts.clear()
            localize(frames[0], vertex, extractor, LocalizeParams(mode="dense"), K_default)
            # 10 for the live frame's full forward, 7 for the vertex's
            # descriptors and scores (3 encoder, bottleneck, 3 score decoder)
            assert len(convs) == 17
            assert len(records) == 91  # one per primitive; constants are not records
            assert len(tapes) == 2  # live frame; vertex pass and matching
            assert not any(t.grad for t in tapes)
            assert all(t.dtype == np.float32 for t in tapes)
            assert all(len(t) == 0 for t in tapes)
            assert len(passes) == 1
            # the live keypoints and the matched points each sample a stack once
            assert len(samples) == 2

    def test_repeat_memory_stays_flat(self, rig, K_default):
        frames, extractor, used_map = rig
        params = LocalizeParams(mode="dense")
        repeat(frames, used_map, extractor, params, K_default)  # fills memoized tables
        teach_map = teach(frames, extractor, K_default)  # the rig's map, untouched
        f32 = harness.INFERENCE_DTYPE
        stack = extractor.target_on(Tape(grad=False, dtype=f32), frames[0].left).stack.value
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
        assert LearnedExtractor(features.init_weights(self.CFG, seed=10)).ident != a.ident

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
        report = repeat(frames[:1], teach_map, learned, LocalizeParams(mode="dense"), K_default)
        assert len(report.results) == 1


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
