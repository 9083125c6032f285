import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stereoloc import autodiff as ad
from stereoloc import estimator, features, synth, training
from stereoloc.autodiff import Tape
from stereoloc.errors import ConfigError
from stereoloc.geometry import PlanarPose
from stereoloc.training import (
    AdamState,
    LossConfig,
    TrainConfig,
    adam_step,
    split_dataset,
    total_loss,
    train,
)

from conftest import rel_err
from oracles import (
    adam_step_reference,
    apply,
    gt_outlier_gate_reference,
    keypoint_loss,
    planar_to_se3,
    pose_loss,
)


def tiny_dataset(scene, count=8, seed=11):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        synth.make_dataset(tmp, scene, count=count, seed=seed, size=(24, 32))
        samples, manifest = synth.load_dataset(tmp)
    return samples, synth.camera_from_dict(manifest["camera"])


@pytest.fixture(scope="module")
def small_data(scene):
    return tiny_dataset(scene)


class TestKeypointLoss:
    def test_zero_for_exact_transform(self):
        rng = np.random.default_rng(0)
        p_s = rng.normal(size=(6, 3))
        gt = PlanarPose(0.2, -0.1, 0.3)
        p_t = apply(planar_to_se3(gt), p_s)
        assert keypoint_loss(p_s, p_t, gt) == pytest.approx(0.0, abs=1e-18)

    def test_unit_x_offset_gives_unit_loss(self):
        rng = np.random.default_rng(1)
        p_s = rng.normal(size=(5, 3))
        gt = PlanarPose(0.0, 0.0, 0.0)
        p_t = p_s.copy()
        p_t[2, 0] += 1.0
        assert keypoint_loss(p_s, p_t, gt) == pytest.approx(1.0, abs=1e-12)

    def test_z_offsets_ignored(self):
        rng = np.random.default_rng(2)
        p_s = rng.normal(size=(5, 3))
        gt = PlanarPose(0.1, 0.2, -0.2)
        p_t = apply(planar_to_se3(gt), p_s)
        p_t[:, 2] += rng.normal(size=5) * 10
        assert keypoint_loss(p_s, p_t, gt) == pytest.approx(0.0, abs=1e-18)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-100, 100))
    def test_z_translation_invariance(self, dz):
        rng = np.random.default_rng(3)
        p_s = rng.normal(size=(4, 3))
        p_t = rng.normal(size=(4, 3))
        gt = PlanarPose(0.05, -0.02, 0.1)
        base = keypoint_loss(p_s, p_t, gt)
        shifted = p_t.copy()
        shifted[:, 2] += dz
        assert keypoint_loss(p_s, shifted, gt) == pytest.approx(base, abs=1e-9)


class TestPoseLoss:
    def test_identity_case(self):
        pp = PlanarPose(0.3, -0.4, 1.2)
        assert pose_loss(pp, pp, lam=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_translation(self):
        a = PlanarPose(1.0, 0.0, 0.0)
        b = PlanarPose(0.0, 0.0, 0.0)
        assert pose_loss(a, b, lam=1.0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_turn_rotation_term(self):
        a = PlanarPose(0.0, 0.0, math.pi / 2)
        b = PlanarPose(0.0, 0.0, 0.0)
        assert pose_loss(a, b, lam=1.0) == pytest.approx(4.0, abs=1e-12)

    def test_rotation_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ga, gb = rng.uniform(-math.pi, math.pi, 2)
            a = PlanarPose(0.0, 0.0, ga)
            b = PlanarPose(0.0, 0.0, gb)
            expected = 4.0 * (1.0 - math.cos(ga - gb))
            assert abs(pose_loss(a, b, 1.0) - expected) < 1e-12

    def test_rotation_term_depends_only_on_heading_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ga, gb, shift = rng.uniform(-2, 2, 3)
            base = pose_loss(PlanarPose(0, 0, ga), PlanarPose(0, 0, gb), 1.0)
            moved = pose_loss(
                PlanarPose(0, 0, ga + shift), PlanarPose(0, 0, gb + shift), 1.0
            )
            assert abs(base - moved) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = PlanarPose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
            b = PlanarPose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
            assert pose_loss(a, b, rng.uniform(0.1, 5.0)) >= 0.0

    def test_lambda_scales_rotation_term(self):
        a = PlanarPose(0.0, 0.0, 0.7)
        b = PlanarPose(0.0, 0.0, 0.0)
        assert pose_loss(a, b, 2.5) == pytest.approx(2.5 * pose_loss(a, b, 1.0), rel=1e-12)


class TestSampleLoss:
    def test_total_combines_components(self, small_data):
        """total = keypoint_weight * keypoint + pose: the pose part does not
        move with the weight, and the keypoint part, total - pose, scales
        with it."""
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=2))
        stats = {weight: total_loss(samples[:2], w, LossConfig(keypoint_weight=weight), K,
                                    dtype=np.float64)[2] for weight in (1.0, 2.5)}
        kept = 0
        for one, heavy in zip(stats[1.0], stats[2.5]):
            assert one.skipped == heavy.skipped
            if not one.skipped:
                kept += 1
                assert heavy.pose == one.pose
                assert heavy.total - heavy.pose == pytest.approx(
                    2.5 * (one.total - one.pose), rel=1e-12, abs=1e-12 * heavy.total)
        assert kept

    def test_tape_pose_component_matches_matrix_loss(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=3))
        lcfg = LossConfig()
        _, _, stats = total_loss(samples[:3], w, lcfg, K, compute_grads=False, dtype=np.float64)
        checked = 0
        for s, sample in zip(stats, samples[:3]):
            if s.skipped:
                continue
            checked += 1
            assert s.pose == pytest.approx(pose_loss(s.est, sample.gt, lcfg.lam), abs=1e-12)
        assert checked > 0

    def test_zero_keypoint_weight_leaves_pose_loss_alone(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=4))
        mean, _, stats = total_loss(samples[:2], w, LossConfig(keypoint_weight=0.0), K,
                                    compute_grads=False)
        kept = [s for s in stats if not s.skipped]
        assert mean == pytest.approx(np.mean([s.pose for s in kept]), rel=1e-12)

    def test_all_samples_gated_out_gives_nan_and_zero_grads(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=5))
        mean, grads, stats = total_loss(samples[:2], w, LossConfig(gate_threshold=1e-9), K)
        assert math.isnan(mean)
        assert all(s.skipped for s in stats)
        assert all(not g.any() for g in grads.values())

    def test_forward_only_runs_on_no_grad_tapes_with_the_same_values(
        self, small_data, monkeypatch
    ):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(window=8, seed=6))
        lcfg = LossConfig()
        with_grads = total_loss(samples, w, lcfg, K, dtype=np.float64)
        tapes = []
        tape_cls = training.Tape

        def recorded(grad=True, dtype=np.float64):
            tapes.append(tape_cls(grad, dtype))
            return tapes[-1]

        monkeypatch.setattr(training, "Tape", recorded)
        mean, grads, stats = total_loss(samples, w, lcfg, K, compute_grads=False,
                                        dtype=np.float64)
        assert grads is None
        # one no-grad tape of 8 samples; the gradient pass recorded 2 tapes of
        # 4, so the bitwise equality below holds across the two widths
        assert len(samples) == 8 and len(tapes) == 1 and not tapes[0].grad
        assert np.float64(mean).tobytes() == np.float64(with_grads[0]).tobytes()
        assert repr(stats) == repr(with_grads[2])  # repr: exact floats, NaN == NaN
        assert any(not s.skipped for s in stats)

    def test_forward_only_tapes_of_eight_give_each_sample_its_bits_alone(
        self, scene, monkeypatch
    ):
        """11 pairs, pair 5 with a NaN left pixel: the other 10 go on one
        no-grad tape of 8 and one of 2, and each sample's stats, and the mean
        over the kept ones, are the bits of that sample on a tape of its own."""
        samples, K = tiny_dataset(scene, count=11, seed=12)
        frame = samples[5].source
        left = frame.left.copy()
        left[3, 7] = np.nan
        samples[5] = dataclasses.replace(samples[5], source=dataclasses.replace(frame, left=left))
        w = features.init_weights(features.ExtractorConfig(window=8, seed=6))
        lcfg = LossConfig()
        singles = [total_loss([s], w, lcfg, K, compute_grads=False) for s in samples]
        tapes, widths = [], []
        tape_cls, batch_loss = training.Tape, training.batch_loss

        def recorded(grad=True, dtype=np.float64):
            tapes.append(tape_cls(grad, dtype))
            return tapes[-1]

        def counted(tape, params, cfg, batch, *args):
            widths.append((tape, len(batch)))
            return batch_loss(tape, params, cfg, batch, *args)

        monkeypatch.setattr(training, "Tape", recorded)
        monkeypatch.setattr(training, "batch_loss", counted)
        mean, grads, stats = total_loss(samples, w, lcfg, K, compute_grads=False)
        assert grads is None and not any(t.grad for t in tapes)
        assert widths == list(zip(tapes, [8, 2]))
        assert stats[5].skipped
        assert repr(stats) == repr([single[2][0] for single in singles])
        kept = [single[0] for single in singles if not single[2][0].skipped]
        assert len(kept) > 1
        assert np.float64(mean).tobytes() == np.float64(np.mean(kept)).tobytes()

    def test_target_pass_runs_no_keypoint_branch(self, small_data, monkeypatch):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=7))
        convs = []
        conv2d = ad.conv2d

        def counted(*args):
            convs.append(1)
            return conv2d(*args)

        monkeypatch.setattr(ad, "conv2d", counted)
        for count in (1, 4):
            convs.clear()
            total_loss(samples[:count], w, LossConfig(), K)
            # per batch: 10 for the sources' full forward, 7 for the targets'
            # descriptors and scores (3 encoder, bottleneck, 3 score decoder)
            assert len(convs) == 17, count

    def test_sample_makes_four_bilinear_samples(self, small_data, monkeypatch):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=7))
        calls = []
        bilinear_sample = ad.bilinear_sample

        def counted(m, pts):
            calls.append(m.value.shape[0])
            return bilinear_sample(m, pts)

        monkeypatch.setattr(ad, "bilinear_sample", counted)
        for count in (1, 4):
            calls.clear()
            total_loss(samples[:count], w, LossConfig(), K)
            # per batch, the source keypoints and the matched points each
            # sample a feature stack (descriptors plus score) once; each lift
            # samples the disparity maps and their invalid-pixel mask once
            assert calls == [10, 10, 2, 2], count

    def test_lift_records_three_nodes(self, small_data):
        # the disparity sample, its first channel (an int take, which drops
        # the channel axis) and the backprojection
        samples, K = small_data
        tape = Tape()
        coords = tape.param(np.array([[[3.2, 4.7], [10.0, 20.5]]]))
        before = len(tape)
        lifted, ok = training._lift(coords, samples[0].source.disparity[None], K)
        assert len(tape) - before == 3 and lifted.shape == (1, 2, 3)
        assert ok.shape == (1, 2) and ok.dtype == bool

    def test_batch_records_as_many_nodes_as_one_sample(self, small_data, monkeypatch):
        # gate, losses and alignment run over the batch at once, so the tape
        # does not grow with the samples it holds
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=3))
        nodes = []
        record = ad.Tape.record

        def counted(tape, value, parents, pullback):
            nodes.append(1)
            return record(tape, value, parents, pullback)

        monkeypatch.setattr(ad.Tape, "record", counted)
        counts = {}
        for count in (1, 4):
            nodes.clear()
            _, _, stats = total_loss(samples[:count], w, LossConfig(), K)
            assert not any(s.skipped for s in stats)
            counts[count] = len(nodes)
        assert counts[1] == counts[4] <= 120

    def test_batch_gives_the_mean_of_its_samples(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(window=8, seed=1))
        lcfg = LossConfig()
        mean, grads, stats = total_loss(samples[:4], w, lcfg, K, dtype=np.float64)
        singles = [total_loss([s], w, lcfg, K, dtype=np.float64) for s in samples[:4]]
        assert repr(stats) == repr([single[2][0] for single in singles])
        kept = [single for single in singles if not single[2][0].skipped]
        assert 1 < len(kept) < 4  # covers a skipped sample
        assert mean == np.mean([single[0] for single in kept])
        for name, g in grads.items():
            want = sum(single[1][name] for single in kept) / len(kept)
            assert rel_err(g, want) < 1e-10, name

    def test_validation_memory_does_not_grow_with_its_samples(self, small_data):
        import tracemalloc

        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(window=8, seed=2))
        peaks = {}
        for count in (8, 32):
            tracemalloc.start()
            try:
                total_loss((samples * 4)[:count], w, LossConfig(), K, compute_grads=False)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # at most NO_GRAD_TAPE_SAMPLES samples share a tape
        assert peaks[32] <= 1.25 * peaks[8]

    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=0.0)
        with pytest.raises(ValueError):
            LossConfig(keypoint_weight=-0.1)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)


class TestInvalidDisparity:
    """A non-finite disparity, or one at or below MIN_DISPARITY, lifts no
    keypoint: the keypoints whose bilinear footprint reads one are gated,
    and they add no loss and no gradient."""

    KEYPOINTS = 12  # one per 8x8 window of a 32x24 image

    @pytest.fixture(scope="class")
    def clean(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=1))
        loss, grads, stats = total_loss(samples[:4], w, LossConfig(), K)
        # sample 0 is the one kept: a patch on it moves the loss
        assert [s.skipped for s in stats] == [False, True, True, True]
        return w, loss, grads, stats

    # 1e-300 is positive but below geometry.MIN_DISPARITY
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-300])
    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("region", ["all", "left half"])
    @pytest.mark.parametrize("b", [0, 1])
    def test_patch_is_gated_and_gradients_stay_finite(
        self, small_data, clean, b, region, side, value
    ):
        samples, K = small_data
        w, loss0, grads0, stats0 = clean
        frame = getattr(samples[b], side)
        disparity = frame.disparity.copy()
        disparity[:, : None if region == "all" else 16] = value
        batch = list(samples[:4])
        batch[b] = dataclasses.replace(
            samples[b], **{side: dataclasses.replace(frame, disparity=disparity)})
        loss, grads, stats = total_loss(batch, w, LossConfig(), K)

        assert all(np.isfinite(g).all() for g in grads.values())
        assert repr(stats[:b] + stats[b + 1:]) == repr(stats0[:b] + stats0[b + 1:])
        # an unlifted keypoint sits at the camera origin, which can pass the
        # ground-truth gate: the lift's mask must gate it
        assert stats[b].n_gated >= stats0[b].n_gated
        if region == "all":
            assert stats[b].n_gated == self.KEYPOINTS and stats[b].skipped
        if stats0[b].skipped:
            assert loss == loss0
            assert all(np.array_equal(grads[k], grads0[k]) for k in grads)


    def test_no_tape_value_before_the_alignment_is_non_finite(
        self, small_data, clean, monkeypatch
    ):
        # an unlifted keypoint is a zero row at zero weight, not a NaN that
        # every later multiply would have to be kept from
        samples, K = small_data
        w, _, _, stats0 = clean
        batch = list(samples[:4])
        for b, side, value in ((0, "source", np.nan), (1, "target", np.inf)):
            frame = getattr(batch[b], side)
            disparity = frame.disparity.copy()
            disparity[:, :16] = value
            batch[b] = dataclasses.replace(
                batch[b], **{side: dataclasses.replace(frame, disparity=disparity)})
        finite, aligned_at = [], []
        record, rigid_align = ad.Tape.record, ad.rigid_align

        def checked_record(tape, value, parents, pullback):
            finite.append(bool(np.isfinite(value).all()))
            return record(tape, value, parents, pullback)

        def noted_align(*args):
            aligned_at.append(len(finite))
            return rigid_align(*args)

        monkeypatch.setattr(ad.Tape, "record", checked_record)
        monkeypatch.setattr(ad, "rigid_align", noted_align)
        _, grads, stats = total_loss(batch, w, LossConfig(), K)
        (at,) = aligned_at
        assert all(finite[:at])
        assert stats[0].n_gated > stats0[0].n_gated  # the patch lifted no keypoint
        assert all(np.isfinite(g).all() for g in grads.values())


class TestNonFinitePixels:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_a_pair_with_a_bad_pixel_is_skipped_off_the_tape(self, small_data, side, value):
        """[a, bad, c, d] trains as [a, c, d], bit for bit, and records the
        bad pair as skipped."""
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=1))
        frame = getattr(samples[1], side)
        left = frame.left.copy()
        left[4:8, 10:14] = value
        bad = dataclasses.replace(samples[1], **{side: dataclasses.replace(frame, left=left)})
        loss, grads, stats = total_loss([samples[0], bad, *samples[2:4]], w, LossConfig(), K)
        want_loss, want_grads, want_stats = total_loss(
            [samples[0], *samples[2:4]], w, LossConfig(), K)
        assert math.isfinite(loss) and np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert all(grads[k].tobytes() == want_grads[k].tobytes() for k in want_grads)
        assert repr(stats) == repr([want_stats[0], training.SampleStats(skipped=True),
                                    *want_stats[1:]])


class TestGroundTruthGate:
    def test_the_gate_is_the_reference_gate_on_a_float64_tape(self, small_data, monkeypatch):
        """The gate reads the keypoint residual on the tape. On a float64
        tape it keeps exactly the pairs the per-sample reference keeps from
        the lifted points, at thresholds on the reference's own planar
        errors and one step below them."""
        samples, K = small_data
        batch = samples[:4]
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=1))
        lifts, masks = [], []
        lift, gate = training._lift, estimator.gt_outlier_gate
        monkeypatch.setattr(training, "_lift", lambda *a: lifts.append(lift(*a)) or lifts[-1])
        monkeypatch.setattr(estimator, "gt_outlier_gate",
                            lambda *a: masks.append(gate(*a)) or masks[-1])

        def gated(threshold):
            lifts.clear()
            masks.clear()
            total_loss(batch, w, LossConfig(gate_threshold=threshold), K, compute_grads=False,
                       dtype=np.float64)
            (p_s, _), (p_t, _) = lifts
            return masks[0], p_s.value, p_t.value

        _, p_s, p_t = gated(0.5)
        errors = []
        for ps, pt, sample in zip(p_s, p_t, batch):
            T = planar_to_se3(sample.gt)
            errors.append(np.linalg.norm(apply(T, ps)[:, :2] - pt[:, :2], axis=1))
        errors = np.sort(np.concatenate(errors))
        picks = errors[np.linspace(0, len(errors) - 1, 6).astype(int)[1:-1]]
        for threshold in np.concatenate([picks, np.nextafter(picks, 0)]):
            keep, p_s, p_t = gated(float(threshold))
            want = np.stack([gt_outlier_gate_reference(ps, pt, sample.gt, threshold)
                             for ps, pt, sample in zip(p_s, p_t, batch)])
            assert want.any() and not want.all()
            assert keep.tobytes() == want.tobytes(), threshold


class TestTrainingDtype:
    """Training and validation record float32 tapes, and the gradient
    check float64 ones; the gradients come back in float64 either way."""

    @pytest.mark.parametrize("compute_grads", [True, False], ids=["train", "validate"])
    def test_total_loss_records_float32_up_to_the_alignment(
        self, small_data, monkeypatch, compute_grads
    ):
        samples, K = small_data
        weights = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        records = []
        aligned_at = []
        record, rigid_align = ad.Tape.record, ad.rigid_align

        def dtype_record(tape, value, parents, pullback):
            var = record(tape, value, parents, pullback)
            records.append((tape.grad, tape.dtype, var.value.dtype))
            return var

        def noted_align(*args):
            aligned_at.append(len(records))
            return rigid_align(*args)

        monkeypatch.setattr(ad.Tape, "record", dtype_record)
        monkeypatch.setattr(ad, "rigid_align", noted_align)
        loss, grads, _ = total_loss(samples[:2], weights, LossConfig(), K,
                                    compute_grads=compute_grads)
        assert math.isfinite(loss)
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert {r[:2] for r in records} == {(compute_grads, f32)}
        # the alignment, and what reads it, is float64
        (at,) = aligned_at
        assert {r[2] for r in records[:at]} == {f32}
        assert records[at][2] == f64
        if compute_grads:
            assert all(g.dtype == np.float64 for g in grads.values())

    def test_gradient_cross_check_records_float64(self, small_data, monkeypatch):
        from stereoloc import cli

        samples, K = small_data
        weights = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        dtypes = []
        tape_cls = training.Tape

        def recorded(grad=True, dtype=np.float64):
            dtypes.append((grad, np.dtype(dtype)))
            return tape_cls(grad, dtype)

        def one_evaluation(f, x):  # the finite differences' tape, without their cost
            f(x)
            return np.zeros_like(x)

        monkeypatch.setattr(training, "Tape", recorded)
        monkeypatch.setattr(ad, "finite_diff", one_evaluation)
        cli.gradient_cross_check(samples[:1], weights, LossConfig(), K)
        f64 = np.dtype(np.float64)
        assert dtypes == [(True, f64)] + [(False, f64)] * len(weights.tensors)  # one per tensor

    @pytest.mark.parametrize("seed", [1, 2])
    def test_float32_keeps_the_stats_and_bounds_the_deltas(self, small_data, seed):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(window=8, seed=seed))
        lcfg = LossConfig()
        loss64, grads64, stats64 = total_loss(samples, w, lcfg, K, dtype=np.float64)
        loss32, grads32, stats32 = total_loss(samples, w, lcfg, K)
        assert [(s.skipped, s.n_gated) for s in stats32] == [
            (s.skipped, s.n_gated) for s in stats64]
        assert any(not s.skipped for s in stats64)
        # A float32 rounding moves a value by at most eps/2 relative. A
        # batch's loss ends a chain of at most 134 recorded nodes (see
        # test_batch_records_as_many_nodes_as_one_sample), and its longest
        # reductions sum the 768 pixels of a 32x24 target, which a pairwise
        # or blocked sum rounds about log2(768) ~ 10 times. To first order,
        # with errors adding along the chain and no step amplifying them,
        # the loss is off by at most 134 * 10 * eps/2 ~ 8e-5 relative; the
        # backward pass walks the chain once more, so the gradient gets
        # twice that. Measured deltas read about 1e-5 and below.
        eps = float(np.finfo(np.float32).eps)
        loss_tol = 134 * 10 * eps / 2
        for a, b in zip(stats64, stats32):
            if not a.skipped:
                # total - pose is the keypoint part
                for part in (lambda s: s.total, lambda s: s.total - s.pose, lambda s: s.pose):
                    assert part(b) == pytest.approx(part(a), rel=loss_tol)
        assert loss32 == pytest.approx(loss64, rel=loss_tol)
        flat = [np.concatenate([g[k].ravel() for k in sorted(g)]) for g in (grads64, grads32)]
        assert rel_err(flat[1], flat[0]) < 2 * loss_tol


class TestAdam:
    def test_zero_gradient_leaves_params_advances_step(self):
        params = {"a": np.array([1.0, -2.0])}
        before = params["a"].tobytes()
        state = AdamState.for_params(params)
        adam_step(params, {"a": np.zeros(2)}, state, lr=0.1)
        assert params["a"].tobytes() == before
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (0.5, -3.0, 100.0):
            params = {"a": np.array([1.0])}
            state = AdamState.for_params(params)
            adam_step(params, {"a": np.array([g])}, state, lr=0.01)
            delta = params["a"][0] - 1.0
            assert delta == pytest.approx(-0.01 * np.sign(g), rel=1e-6)

    def test_zero_learning_rate_is_bitwise_noop(self):
        rng = np.random.default_rng(7)
        params = {"a": rng.normal(size=(3, 3))}
        before = params["a"].tobytes()
        state = AdamState.for_params(params)
        adam_step(params, {"a": rng.normal(size=(3, 3))}, state, lr=0.0)
        assert params["a"].tobytes() == before

    def test_converges_on_quadratic_and_matches_reference(self):
        # reference recurrence computed independently
        x = np.array([0.0])
        params = {"x": x}
        state = AdamState.for_params(params)
        m = v = 0.0
        xr = 0.0
        for t in range(1, 201):
            g = 2.0 * (params["x"][0] - 2.0)
            adam_step(params, {"x": np.array([g])}, state, lr=0.1)
            gr = 2.0 * (xr - 2.0)
            m = 0.9 * m + 0.1 * gr
            v = 0.999 * v + 0.001 * gr * gr
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            xr -= 0.1 * mh / (math.sqrt(vh) + 1e-8)
            assert params["x"][0] == pytest.approx(xr, abs=1e-12)
        assert abs(params["x"][0] - 2.0) < 0.05

    CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoint"

    def test_flat_moments_give_the_per_tensor_loop_bit_for_bit(self):
        weights, _ = features.load_checkpoint(self.CHECKPOINT)
        assert len(weights.tensors) == 20
        params = weights.copy().tensors
        ref = weights.copy().tensors
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        state = AdamState.for_params(params)
        rng = np.random.default_rng(36)
        for step in range(1, 51):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape)
                     for k, p in ref.items()}
            if step == 7:
                grads = {k: np.zeros_like(g) for k, g in grads.items()}
            lr = 0.0 if step == 13 else 2e-3
            adam_step(params, grads, state, lr)
            adam_step_reference(ref, grads, m, v, step, lr)
            assert state.step == step
            for k in ref:
                assert params[k].tobytes() == ref[k].tobytes(), (step, k)
            assert state.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
            assert state.v.tobytes() == np.concatenate([a.ravel() for a in v.values()]).tobytes()


class TestTrainLoop:
    def test_deterministic_curves(self, small_data):
        samples, K = small_data
        tr, va = split_dataset(samples, 0.25)

        def run():
            w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=6))
            tcfg = TrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=2,
                               early_stop_patience=5, seed=3)
            return train(tr, va, w, tcfg, LossConfig(), K).curves

        assert run() == run()

    def test_patience_with_frozen_weights_stops_on_schedule(self, small_data, monkeypatch):
        samples, K = small_data
        tr, va = split_dataset(samples, 0.25)
        monkeypatch.setattr(training, "adam_step", lambda p, g, s, lr: (p, s))
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=7))
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=50,
                           early_stop_patience=3, seed=0)
        result = train(tr, va, w, tcfg, LossConfig(), K)
        assert result.best_epoch == 0
        assert [c["epoch"] for c in result.curves] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "val_losses, best_epoch", [([math.nan, 2.0, 1.5, 1.0], 3), ([3.64, math.nan, math.nan], 0)]
    )
    def test_nan_validation_never_blocks_or_becomes_best(
        self, small_data, monkeypatch, tmp_path, val_losses, best_epoch
    ):
        samples, K = small_data
        tr, va = split_dataset(samples, 0.25)
        scripted = iter(val_losses)
        monkeypatch.setattr(training, "validate", lambda *args: (next(scripted), 0.5, 0))
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=9))
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=len(val_losses) - 1,
                           early_stop_patience=5, seed=0)
        result = train(tr, va, w, tcfg, LossConfig(), K, out_dir=tmp_path / "run")
        assert result.best_epoch == best_epoch
        initial = all(np.array_equal(result.weights.tensors[k], v) for k, v in w.tensors.items())
        assert initial == (best_epoch == 0)
        _, extra = features.load_checkpoint(tmp_path / "run" / "checkpoint")
        assert extra["best_epoch"] == best_epoch
        lines = (tmp_path / "run" / "loss_curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_pose_err"
        assert [line.split(",")[2] for line in lines[1:]] == [repr(v) for v in val_losses]

    def test_training_reduces_validation_pose_error(self, scene):
        samples, K = tiny_dataset(scene, count=40, seed=21)
        tr, va = split_dataset(samples, 0.2)
        w = features.init_weights(features.ExtractorConfig(channels=(8, 16, 32), window=8, seed=5))
        tcfg = TrainConfig(learning_rate=2e-3, batch_size=4, max_epochs=3,
                           early_stop_patience=3, seed=0)
        result = train(tr, va, w, tcfg, LossConfig(), K)
        assert result.curves[-1]["val_pose_err"] < result.curves[0]["val_pose_err"]

    def test_outputs_written(self, small_data, tmp_path):
        samples, K = small_data
        tr, va = split_dataset(samples, 0.25)
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=8))
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1,
                           early_stop_patience=2, seed=0)
        train(tr, va, w, tcfg, LossConfig(), K, out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "loss_curves.csv").is_file()
        loaded, extra = features.load_checkpoint(tmp_path / "run" / "checkpoint")
        assert loaded.config.channels == (2, 3, 4)
        assert extra["tau"] == LossConfig().tau
        header = (tmp_path / "run" / "loss_curves.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_pose_err"

    def test_empty_split_rejected(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        with pytest.raises(ConfigError):
            train([], samples, w, TrainConfig(), LossConfig(), K)
        with pytest.raises(ConfigError):
            split_dataset(samples, 1.5)
        with pytest.raises(ConfigError):
            split_dataset(samples[:1], 0.5)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(early_stop_patience=0)
