import numpy as np
import pytest

from stereoloc import autodiff as ad
from stereoloc.autodiff import Tape, backward, finite_diff
from stereoloc.errors import ShapeError
from stereoloc.features import (
    ExtractorConfig,
    ExtractorWeights,
    analytic_features,
    decode,
    detect_keypoints,
    encode,
    extract_keypoints,
    forward,
    init_weights,
    load_checkpoint,
    save_checkpoint,
    stack_parts,
)

from conftest import rel_err
from oracles import analytic_features_reference, feature_map, split_stack

TINY = ExtractorConfig(channels=(2, 3, 4), window=8, seed=1)


def run_forward(image, cfg=TINY, weights=None):
    """`forward` on a batch of images (B, H, W): its parts, the stack they
    join into, and its logits."""
    tape = Tape()
    parts, logits = forward(image, (weights or init_weights(cfg)).bind(tape), cfg, tape)
    return parts, stack_parts(parts), logits


class TestForward:
    def test_descriptor_dim_is_channel_sum(self):
        cfg = ExtractorConfig(channels=(8, 16, 32), window=16)
        img = np.random.default_rng(0).uniform(size=(1, 48, 64))
        _, stack, _ = run_forward(img, cfg, init_weights(cfg))
        assert stack.value.shape == (57, 1, 48, 64)

    def test_zero_weights_give_half_scores(self):
        cfg = TINY
        weights = ExtractorWeights(
            cfg, {k: np.zeros(s) for k, s in cfg.layer_shapes().items()}
        )
        img = np.random.default_rng(1).uniform(size=(1, 24, 32))
        _, stack, _ = run_forward(img, cfg, weights)
        assert np.array_equal(split_stack(stack)[1], np.full((24, 32), 0.5))

    def test_seeded_determinism_bitwise(self):
        img = np.random.default_rng(2).uniform(size=(1, 24, 32))
        _, a, a_logits = run_forward(img, TINY, init_weights(TINY))
        _, b, b_logits = run_forward(img, TINY, init_weights(TINY))
        assert a.value.tobytes() == b.value.tobytes()
        assert a_logits.value.tobytes() == b_logits.value.tobytes()

    def test_scores_strictly_inside_unit_interval(self):
        img = np.random.default_rng(3).uniform(size=(1, 24, 32))
        _, stack, _ = run_forward(img)
        s = split_stack(stack)[1]
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_indivisible_shape_rejected(self):
        img = np.zeros((1, 20, 32))  # 20 not divisible by 8
        with pytest.raises(ShapeError):
            run_forward(img)

    def test_weight_init_bounds(self):
        w = init_weights(ExtractorConfig(channels=(4, 8, 8), seed=7))
        for name, tensor in w.tensors.items():
            if name.endswith(".bias"):
                assert not tensor.any()
            else:
                bound = np.sqrt(1.0 / np.prod(tensor.shape[1:]))
                assert np.abs(tensor).max() <= bound

    def test_forward_gradients_match_finite_differences(self):
        img = np.random.default_rng(4).uniform(size=(1, 24, 32))
        up = {
            "ds": np.concatenate([
                np.random.default_rng(5).normal(size=(9, 1, 24, 32)),
                np.random.default_rng(6).normal(size=(1, 1, 24, 32)),
            ]),
            "k": np.random.default_rng(7).normal(size=(1, 24, 32)),
        }
        base = init_weights(TINY)
        names = sorted(base.tensors)

        def loss_from(weights, grad):
            tape = Tape(grad=grad)
            params = weights.bind(tape)
            parts, logits = forward(img, params, TINY, tape)
            total = ad.add(
                ad.sum_(ad.mul(stack_parts(parts), tape.constant(up["ds"]))),
                ad.sum_(ad.mul(logits, tape.constant(up["k"]))),
            )
            return total, tape, params

        total, tape, params = loss_from(base, True)
        grads = backward(tape, total)
        analytic = np.concatenate(
            [grads[params[n].index].ravel() for n in names]
        )

        sizes = [base.tensors[n].size for n in names]
        splits = np.cumsum(sizes)[:-1]

        def f(flat):
            tensors = {
                n: part.reshape(base.tensors[n].shape)
                for n, part in zip(names, np.split(flat, splits))
            }
            val, _, _ = loss_from(ExtractorWeights(TINY, tensors), False)
            return float(val.value)

        flat0 = np.concatenate([base.tensors[n].ravel() for n in names])
        numeric = finite_diff(f, flat0)
        assert rel_err(analytic, numeric) < 1e-4


class TestEncodeDecode:
    """`forward` is `encode`, whose parts are the pooled encoder maps and the
    score `decode` branch, plus the keypoint `decode` branch; `stack_parts`
    joins the parts into the stack. A no-grad tape gives the same values."""

    @pytest.mark.parametrize("hw", [(24, 32), (48, 64)])
    @pytest.mark.parametrize("cfg", [TINY, ExtractorConfig(seed=4)])
    def test_composition_is_bitwise_forward(self, hw, cfg):
        image = np.random.default_rng(hw[0]).uniform(0.0, 1.0, size=(1, *hw))
        weights = init_weights(cfg)
        ref_parts, ref_stack, ref_logits = run_forward(image, cfg, weights)
        for grad in (True, False):
            tape = Tape(grad=grad)
            params = weights.bind(tape)
            parts, bottleneck = encode(image, params, cfg, tape)
            *maps, scores = parts
            logits = decode(bottleneck, "kp", params, cfg)
            assert [m.value.shape for m in maps] == [
                (c, 1, hw[0] >> i, hw[1] >> i) for i, c in enumerate(cfg.channels, start=1)]
            again = decode(bottleneck, "score", params, cfg)
            assert scores.value.tobytes() == again.value.tobytes()
            stack = stack_parts(parts).value
            assert stack.tobytes() == ref_stack.value.tobytes()
            assert [p.value.tobytes() for p in ref_parts] == [p.value.tobytes() for p in parts]
            assert logits.value.tobytes() == ref_logits.value.tobytes()
            assert scores.value.shape == logits.value.shape == (1, 1, *hw)
            assert ref_logits.value.shape == (1, *hw)


    @pytest.mark.parametrize("grad", [True, False])
    def test_encode_parts_are_forwards(self, grad):
        """`encode`, which a training target runs, gives `forward`'s parts
        bit for bit, without the keypoint branch."""
        image = np.random.default_rng(7).uniform(0.0, 1.0, size=(1, 24, 32))
        weights = init_weights(TINY)
        ref_parts, ref_stack, _ = run_forward(image, TINY, weights)
        tape = Tape(grad=grad)
        parts, _ = encode(image, weights.bind(tape), TINY, tape)
        assert len(parts) == len(TINY.channels) + 1
        assert [p.value.tobytes() for p in parts] == [p.value.tobytes() for p in ref_parts]
        assert stack_parts(parts).value.tobytes() == ref_stack.value.tobytes()

    def test_the_analytic_stack_is_its_one_part(self):
        tape = Tape(grad=False)
        parts, _ = analytic_features(np.random.default_rng(8).uniform(size=(1, 24, 32)), tape)
        assert len(parts) == 1 and parts[0].value.shape == (10, 1, 24, 32)
        assert stack_parts(parts) is parts[0]

class TestBatch:
    """A batch (B, H, W) runs in one pass, each image through the arithmetic
    it gets alone: maps (D+1, B, H, W), logits (B, H, W) and keypoints
    (B, N, ...), bitwise the per-image ones."""

    @pytest.mark.parametrize("hw", [(24, 32), (48, 64)])
    @pytest.mark.parametrize("cfg", [TINY, ExtractorConfig(window=8, seed=4)])
    def test_batch_is_per_image(self, hw, cfg):
        images = np.random.default_rng(hw[1]).uniform(0.0, 1.0, size=(3, *hw))
        weights = init_weights(cfg)
        tape = Tape()
        params = weights.bind(tape)
        parts, logits = forward(images, params, cfg, tape)
        batch = stack_parts(parts)
        target = stack_parts(encode(images, params, cfg, tape)[0])
        kps = extract_keypoints(parts, logits, cfg.window)
        n = (hw[0] // cfg.window) * (hw[1] // cfg.window)
        assert batch.value.shape == (sum(cfg.channels) + 1, 3, *hw)
        assert kps.coords.value.shape == (3, n, 2) and kps.scores.value.shape == (3, n)
        for i in range(len(images)):
            # a batch of one
            alone_parts, alone, alone_logits = run_forward(images[i:i + 1], cfg, weights)
            alone_kps = extract_keypoints(alone_parts, alone_logits, cfg.window)
            assert batch.value[:, i].tobytes() == alone.value.tobytes()
            assert target.value[:, i].tobytes() == alone.value.tobytes()
            assert logits.value[i].tobytes() == alone_logits.value.tobytes()
            for got, want in ((kps.coords, alone_kps.coords),
                              (kps.descriptors, alone_kps.descriptors),
                              (kps.scores, alone_kps.scores)):
                assert got.value[i].tobytes() == want.value.tobytes()

    def test_image_rank_checked(self):
        with pytest.raises(ShapeError):
            run_forward(np.zeros((1, 2, 24, 32)))


class TestDetectKeypoints:
    def test_uniform_logits_give_window_centers(self):
        t = Tape()
        coords = detect_keypoints(t.constant(np.zeros((1, 32, 32))), 16).value[0]
        assert coords.shape == (4, 2)
        assert np.allclose(coords[0], [7.5, 7.5], atol=1e-12)
        expected = {(7.5, 7.5), (23.5, 7.5), (7.5, 23.5), (23.5, 23.5)}
        assert {tuple(c) for c in coords} == expected

    def test_saturated_logit_pins_keypoint(self):
        logits = np.zeros((1, 16, 16))
        logits[0, 4, 3] = 50.0  # (u=3, v=4)
        t = Tape()
        coords = detect_keypoints(t.constant(logits), 16).value[0]
        assert np.abs(coords[0] - [3.0, 4.0]).max() < 1e-3

    def test_window_16_on_64x48_gives_12_keypoints(self):
        t = Tape()
        logits = t.constant(np.random.default_rng(8).normal(size=(1, 48, 64)))
        coords = detect_keypoints(logits, 16).value
        assert coords.shape == (1, 12, 2)

    def test_keypoints_stay_inside_their_windows(self):
        rng = np.random.default_rng(9)
        t = Tape()
        coords = detect_keypoints(t.constant(rng.normal(size=(1, 24, 40)) * 5), 8).value
        ny, nx = 3, 5
        grid = coords.reshape(ny, nx, 2)
        for iy in range(ny):
            for ix in range(nx):
                u, v = grid[iy, ix]
                assert ix * 8 <= u <= ix * 8 + 7
                assert iy * 8 <= v <= iy * 8 + 7

    def test_translation_consistency(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(1, 24, 32)) * 3
        w = 8
        t = Tape()
        base = detect_keypoints(t.constant(logits), w).value.reshape(3, 4, 2)
        rolled = np.roll(logits, w, axis=2)
        shifted = detect_keypoints(Tape().constant(rolled), w).value.reshape(3, 4, 2)
        assert np.array_equal(shifted[:, 1:], base[:, :-1] + np.array([w, 0.0]))

    def test_window_must_divide_shape(self):
        with pytest.raises(ShapeError):
            detect_keypoints(Tape().constant(np.zeros((1, 24, 30))), 8)

    def test_keypoint_count_invariant(self):
        t = Tape()
        coords = detect_keypoints(t.constant(np.zeros((1, 40, 64))), 8).value
        assert coords.shape[1] == (40 // 8) * (64 // 8)

    def test_detection_is_differentiable(self):
        rng = np.random.default_rng(11)
        logits0 = rng.normal(size=(1, 16, 16))
        up = rng.normal(size=(1, 4, 2))

        def build(t, x):
            return ad.sum_(ad.mul(detect_keypoints(x, 8), t.constant(up)))

        t = Tape()
        x = t.param(logits0)
        grads = backward(t, build(t, x))
        analytic = grads[x.index]

        def f(v):
            t2 = Tape()
            x2 = t2.param(v)
            return float(build(t2, x2).value)

        numeric = finite_diff(f, logits0)
        assert rel_err(analytic, numeric) < 1e-6


class TestAnalyticFeatures:
    def test_deterministic(self, noon_frame):
        (a,), _ = analytic_features(noon_frame.left[None], Tape())
        (b,), _ = analytic_features(noon_frame.left[None], Tape())
        assert a.value.tobytes() == b.value.tobytes()

    def test_gain_bias_invariant_descriptors(self, noon_frame):
        base, _ = split_stack(analytic_features(noon_frame.left[None], Tape())[0][0])
        scaled, _ = split_stack(analytic_features(2.0 * noon_frame.left[None] + 5.0, Tape())[0][0])
        assert np.abs(base - scaled).max() < 1e-9

    def test_satisfies_feature_map_contract(self, noon_frame):
        (stack,), logits = analytic_features(noon_frame.left[None], Tape())
        desc, scores = split_stack(stack)
        d, h, w = desc.shape
        assert (h, w) == noon_frame.left.shape
        assert scores.shape == (h, w)
        assert logits.value.shape == (1, h, w)
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0
        assert np.isfinite(desc).all()


    @pytest.mark.parametrize("hw", [(48, 64), (24, 32), (1, 64), (48, 1), (1, 1), (2, 3)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_batch_is_the_single_image_arithmetic(self, hw):
        """Each image gets the stack and logits of the single-image
        reference: bitwise as a batch of one, and in a batch up to the sign
        of a NaN. The images: texture, a gain/bias change of it, a constant
        and a zero image (no variance), and NaN, +-inf and 1e30-scaled
        pixels."""
        rng = np.random.default_rng(hw[0] * 100 + hw[1])
        base = rng.uniform(size=hw)
        special = rng.uniform(size=hw)
        special.flat[rng.choice(special.size, size=min(3, special.size), replace=False)] = (
            [np.nan, np.inf, -np.inf][: min(3, special.size)])
        images = np.stack([base, 2.0 * base + 5.0, np.full(hw, 0.5), np.zeros(hw), special,
                           1e30 * rng.uniform(size=hw)])
        with np.errstate(all="ignore"):
            (batch,), batch_logits = analytic_features(images, Tape())
            for i, image in enumerate(images):
                want = analytic_features_reference(image)
                (alone,), alone_logits = analytic_features(images[i:i + 1], Tape())
                in_batch = (batch.value[:, i], batch_logits.value[i])
                for a, b, w in zip((alone, alone_logits), in_batch, want):
                    assert a.value.tobytes() == w.tobytes(), i
                    nan = np.isnan(w)
                    assert (np.isnan(b) == nan).all() and b[~nan].tobytes() == w[~nan].tobytes(), i


class TestSingleImageLayoutsRefused:
    """Images come in one layout, a batch: a single image's map, points or
    image is a ShapeError."""

    @pytest.mark.parametrize("call", [
        lambda t: ad.conv2d(t.constant(np.zeros((2, 8, 8))), t.constant(np.zeros((3, 2, 3, 3))),
                            t.constant(np.zeros(3))),
        lambda t: ad.bilinear_sample(t.constant(np.zeros((2, 8, 8))), t.constant(np.ones((3, 2)))),
        lambda t: ad.bilinear_sample(t.constant(np.zeros((2, 1, 8, 8))),
                                     t.constant(np.ones((3, 2)))),
        lambda t: forward(np.zeros((8, 8)), init_weights(TINY).bind(t), TINY, t),
        lambda t: analytic_features(np.zeros((8, 8)), t),
    ], ids=["conv2d_image", "bilinear_sample_map", "bilinear_sample_points", "forward_image",
            "analytic_features_image"])
    def test_is_a_shape_error(self, call):
        with pytest.raises(ShapeError):
            call(Tape())


class TestCheckpoint:
    def test_roundtrip_identity_after_first_quantization(self, tmp_path):
        weights = init_weights(ExtractorConfig(channels=(2, 3, 4), window=8, seed=3))
        save_checkpoint(tmp_path / "a", weights, extra={"tau": 50.0})
        loaded, extra = load_checkpoint(tmp_path / "a")
        assert extra == {"tau": 50.0}
        assert loaded.config == weights.config
        save_checkpoint(tmp_path / "b", loaded)
        for f in sorted((tmp_path / "a").glob("*.f32")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_loaded_weights_are_float32_quantized_originals(self, tmp_path):
        weights = init_weights(TINY)
        save_checkpoint(tmp_path / "ck", weights)
        loaded, _ = load_checkpoint(tmp_path / "ck")
        for name, tensor in weights.tensors.items():
            assert np.array_equal(loaded.tensors[name], tensor.astype(np.float32))

    def test_rejects_wrong_kind(self, tmp_path):
        from stereoloc import storage

        storage.write_manifest(tmp_path / "x", {"kind": "pairs"})
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "x")

    def test_rejects_shape_mismatch(self, tmp_path):
        weights = init_weights(TINY)
        save_checkpoint(tmp_path / "ck", weights)
        import json

        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["channels"] = [4, 5, 6]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ck")


    def test_rejects_non_finite_weights(self, tmp_path):
        save_checkpoint(tmp_path / "ck", init_weights(TINY))
        blob = tmp_path / "ck" / "enc1.weight.f32"
        values = np.fromfile(blob, dtype="<f4")
        values[4] = np.nan
        values.tofile(blob)
        with pytest.raises(ValueError, match=r"layer enc1\.weight has non-finite values"):
            load_checkpoint(tmp_path / "ck")

    def test_rejects_unknown_activation(self, tmp_path):
        import json

        save_checkpoint(tmp_path / "ck", init_weights(TINY))
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["activation"] == "tanh"
        manifest["activation"] = "relu"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="activation 'relu' is not 'tanh'"):
            load_checkpoint(tmp_path / "ck")


class TestExtractKeypoints:
    def test_sampled_fields_shapes(self, noon_frame):
        parts, logits = analytic_features(noon_frame.left[None], Tape())
        kps = extract_keypoints(parts, logits, 8)
        n = (48 // 8) * (64 // 8)
        d = parts[0].value.shape[0] - 1
        assert kps.coords.value.shape == (1, n, 2)
        assert kps.descriptors.value.shape == (1, n, d)
        assert kps.scores.value.shape == (1, n)

    @pytest.mark.parametrize("learned", [False, True], ids=["analytic", "learned"])
    def test_samples_the_stack_once(self, noon_frame, monkeypatch, learned):
        """The parts are joined into one stack, which is sampled once."""
        tape, image = Tape(), noon_frame.left[None]
        parts, logits = (forward(image, init_weights(TINY).bind(tape), TINY, tape) if learned
                         else analytic_features(image, tape))
        channels = sum(p.value.shape[0] for p in parts)
        calls = []
        bilinear_sample = ad.bilinear_sample

        def counted(m, pts):
            calls.append(m.value.shape)
            return bilinear_sample(m, pts)

        monkeypatch.setattr(ad, "bilinear_sample", counted)
        kps = extract_keypoints(parts, logits, 8)
        assert calls == [(channels, *image.shape)]
        assert kps.descriptors.value.shape[2] == channels - 1

    def test_descriptor_sampling_matches_map_at_integer_points(self):
        rng = np.random.default_rng(12)
        t = Tape()
        desc = rng.normal(size=(5, 16, 16))
        logits = np.zeros((16, 16))
        logits[4, 3] = 1000.0  # saturate onto integer pixel (3, 4)
        stack, logits = feature_map(t, desc, np.full((16, 16), 0.25), logits)
        kps = extract_keypoints([stack], logits, 16)
        assert np.allclose(kps.descriptors.value[0, 0], desc[:, 4, 3], atol=1e-9)
        assert np.allclose(kps.scores.value[0, 0], 0.25, atol=1e-12)
