import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stereoloc import autodiff as ad
from stereoloc import features, synth, training
from stereoloc.autodiff import Tape
from stereoloc.errors import ConfigError
from stereoloc.geometry import PlanarPose, planar_to_se3
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
from oracles import apply, keypoint_loss, pose_loss


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
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=2))
        lcfg = LossConfig(keypoint_weight=2.5)
        mean, grads, stats = total_loss(samples[:2], w, lcfg, K)
        for s in stats:
            if not s.skipped:
                assert s.total == pytest.approx(2.5 * s.keypoint + s.pose, rel=1e-12)

    def test_tape_pose_component_matches_matrix_loss(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=3))
        lcfg = LossConfig()
        _, _, stats = total_loss(samples[:3], w, lcfg, K, compute_grads=False)
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
        with_grads = total_loss(samples, w, lcfg, K)
        tapes = []
        tape_cls = training.Tape

        def recorded(grad=True):
            tapes.append(tape_cls(grad))
            return tapes[-1]

        monkeypatch.setattr(training, "Tape", recorded)
        mean, grads, stats = total_loss(samples, w, lcfg, K, compute_grads=False)
        assert grads is None
        # one tape per batch of 4 samples
        assert len(samples) == 8 and len(tapes) == 2 and not any(t.grad for t in tapes)
        assert np.float64(mean).tobytes() == np.float64(with_grads[0]).tobytes()
        assert repr(stats) == repr(with_grads[2])  # repr: exact floats, NaN == NaN
        assert any(not s.skipped for s in stats)

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

    def test_lift_records_four_nodes(self, small_data):
        # the disparity sample, its first channel (a take and a reshape)
        # and the backprojection
        samples, K = small_data
        tape = Tape()
        coords = tape.param(np.array([[[3.2, 4.7], [10.0, 20.5]]]))
        before = len(tape)
        lifted = training._lift(coords, samples[0].source.disparity[None], K)
        assert len(tape) - before == 4 and lifted.shape == (1, 2, 3)

    def test_batch_gives_the_mean_of_its_samples(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(window=8, seed=1))
        lcfg = LossConfig()
        mean, grads, stats = total_loss(samples[:4], w, lcfg, K)
        singles = [total_loss([s], w, lcfg, K) for s in samples[:4]]
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
        for count in (4, 16):
            tracemalloc.start()
            try:
                total_loss((samples * 2)[:count], w, LossConfig(), K, compute_grads=False)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # at most TAPE_SAMPLES samples share a tape
        assert peaks[16] <= 1.25 * peaks[4]

    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=0.0)
        with pytest.raises(ValueError):
            LossConfig(keypoint_weight=-0.1)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)


class TestInvalidDisparity:
    """A non-finite, zero or negative disparity lifts no keypoint: the
    keypoints whose bilinear footprint reads one are gated, and they add no
    loss and no gradient."""

    KEYPOINTS = 12  # one per 8x8 window of a 32x24 image

    @pytest.fixture(scope="class")
    def clean(self, small_data):
        samples, K = small_data
        w = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8, seed=1))
        loss, grads, stats = total_loss(samples[:4], w, LossConfig(), K)
        # sample 0 is the one kept: a patch on it moves the loss
        assert [s.skipped for s in stats] == [False, True, True, True]
        return w, loss, grads, stats

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
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
        # a +inf disparity must not lift to the camera origin, which can pass the gate
        assert stats[b].n_gated >= stats0[b].n_gated
        if region == "all":
            assert stats[b].n_gated == self.KEYPOINTS and stats[b].skipped
        if stats0[b].skipped:
            assert loss == loss0
            assert all(np.array_equal(grads[k], grads0[k]) for k in grads)


class TestTrainingDtype:
    @pytest.mark.parametrize("compute_grads", [True, False], ids=["train", "validate"])
    def test_total_loss_tape_and_gradients_stay_float64(
        self, small_data, monkeypatch, compute_grads
    ):
        samples, K = small_data
        weights = features.init_weights(features.ExtractorConfig(channels=(2, 3, 4), window=8))
        dtypes = []
        record = ad.Tape.record

        def dtype_record(tape, value, parents, pullback):
            var = record(tape, value, parents, pullback)
            dtypes.append((tape.grad, tape.dtype, var.value.dtype))
            return var

        monkeypatch.setattr(ad.Tape, "record", dtype_record)
        loss, grads, _ = total_loss(samples[:2], weights, LossConfig(), K,
                                    compute_grads=compute_grads)
        assert math.isfinite(loss)
        f64 = np.dtype(np.float64)
        assert dtypes and set(dtypes) == {(compute_grads, f64, f64)}
        if compute_grads:
            assert all(g.dtype == np.float64 for g in grads.values())


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
        assert result.stopped_epoch == 3
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
