import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stereoloc import autodiff as ad
from stereoloc import features
from stereoloc.autodiff import Tape, backward, finite_diff
from stereoloc.features import KeypointSet
from stereoloc.matching import match_all, match_weights, mutual_best_matches

from conftest import rel_err
from oracles import (
    feature_map,
    match_all_reference,
    match_attention,
    matchset_weights,
    soft_match,
    split_stack,
    zncc,
)


def random_stack(tape, rng, d=8, h=12, w=16, smooth=False):
    """The stack of a random feature map of a batch of one; its logits are
    drawn and dropped."""
    if smooth:
        coarse = rng.normal(size=(d, max(h // 4, 2), max(w // 4, 2)))
        desc = ad.upsample_bilinear(tape.constant(coarse), (h, w)).value
        desc = desc + 0.05 * rng.normal(size=desc.shape)
    else:
        desc = rng.normal(size=(d, h, w))
    scores = rng.uniform(0.1, 0.9, size=(h, w))
    logits = rng.normal(size=(h, w))
    return feature_map(tape, desc, scores, logits)[0]


def keypoints_from(tape, stack, rng, n=5):
    """n random keypoints on the stack's image, a batch of one."""
    _, _, h, w = stack.value.shape
    coords = np.stack(
        [rng.uniform(0.5, w - 1.5, n), rng.uniform(0.5, h - 1.5, n)], axis=1
    )
    cvar = tape.constant(coords[None])
    return KeypointSet(cvar, *features.sample_at(stack, cvar))


def zncc_matrix(A, B):
    """Pairwise ZNCC between rows of A and rows of B, through the production
    row normalization."""
    zn_a, _ = ad.znorm_rows(np.asarray(A, float))
    zn_b, _ = ad.znorm_rows(np.asarray(B, float))
    return zn_a @ zn_b.T


def production_zncc(a, b) -> float:
    return float(zncc_matrix(a[None], b[None])[0, 0])


class TestZncc:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = rng.normal(size=12)
            assert production_zncc(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation_is_minus_one(self):
        d = np.random.default_rng(1).normal(size=9)
        assert production_zncc(d, -d) == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 8, elements=st.floats(-10, 10)),
        arrays(np.float64, 8, elements=st.floats(-10, 10)),
        st.floats(0.1, 5.0),
        st.floats(-5.0, 5.0),
    )
    def test_affine_invariance(self, a, b, gain, bias):
        base = production_zncc(a, b)
        assert abs(production_zncc(a, gain * b + bias) - base) < 1e-12

    def test_zero_variance_convention(self):
        assert production_zncc(np.full(6, 3.0), np.arange(6.0)) == 0.0
        assert production_zncc(np.arange(6.0), np.zeros(6)) == 0.0

    def test_range_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = production_zncc(rng.normal(size=7), rng.normal(size=7))
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_needs_two_dims(self):
        # the scalar oracle's own input contract
        with pytest.raises(ValueError):
            zncc(np.array([1.0]), np.array([2.0]))


class TestSoftMatch:
    def test_identical_target_descriptors_give_centroid(self):
        rng = np.random.default_rng(3)
        t = Tape()
        h, w, d = 6, 9, 5
        one = rng.normal(size=d)
        desc = np.tile(one[:, None, None], (1, h, w))
        stack, _ = feature_map(t, desc, np.full((h, w), 0.5), np.zeros((h, w)))
        q, _, _ = soft_match(t.constant(rng.normal(size=d)), stack, tau=3.0)
        assert np.allclose(q.value, [(w - 1) / 2, (h - 1) / 2], atol=1e-9)

    def test_two_pixel_saturation(self):
        # target pixels hold d and -d: zncc (1, -1); tau 20 pins pixel 0
        rng = np.random.default_rng(4)
        d = rng.normal(size=6)
        t = Tape()
        desc = np.stack([d, -d], axis=1)[:, None, :]  # (6, 1, 2)
        stack, _ = feature_map(t, desc, np.full((1, 2), 0.5), np.zeros((1, 2)))
        q, _, _ = soft_match(t.constant(d.copy()), stack, tau=20.0)
        assert np.abs(q.value - [0.0, 0.0]).max() < 1e-8

    def test_matched_descriptor_and_score_are_sampled_at_match(self):
        rng = np.random.default_rng(5)
        t = Tape()
        stack = random_stack(t, rng, smooth=True)
        q, desc, score = soft_match(t.constant(rng.normal(size=8)), stack, tau=10.0)
        desc_map = t.constant(stack.value[:-1])
        ref = ad.bilinear_sample(desc_map, ad.reshape(q, (1, 1, 2))).value[0, 0]
        assert np.allclose(desc.value, ref, atol=1e-12)
        assert 0.0 < score.value < 1.0


class TestMatchAll:
    def test_cardinality_preserved(self):
        rng = np.random.default_rng(6)
        t = Tape()
        stack = random_stack(t, rng)
        kps = keypoints_from(t, stack, rng, n=7)
        points, weights = match_all(kps, [stack], tau=20.0)
        assert points.value.shape == (1, 7, 2)
        assert weights.value.shape == (1, 7)
        desc, scores = features.sample_at(stack, points)
        assert desc.value.shape == (1, 7, 8)
        assert scores.value.shape == (1, 7)

    def test_matches_naive_reference(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            t = Tape()
            stack = random_stack(t, rng, d=6, h=12, w=16)
            kps = keypoints_from(t, stack, rng, n=4)
            points, _ = match_all(kps, [stack], tau=15.0)
            ref = match_all_reference(
                kps.descriptors.value[0], split_stack(stack)[0], tau=15.0
            )
            assert np.abs(points.value[0] - ref).max() < 1e-10

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        t = Tape()
        stack = random_stack(t, rng)
        kps = keypoints_from(t, stack, rng, n=6)
        attn = match_attention(kps, stack, 25.0)
        assert np.abs(attn.value.sum(axis=-1) - 1.0).max() < 1e-9

    def test_matched_points_inside_image(self):
        rng = np.random.default_rng(8)
        t = Tape()
        stack = random_stack(t, rng, h=10, w=14)
        kps = keypoints_from(t, stack, rng, n=6)
        pts = match_all(kps, [stack], tau=5.0)[0].value[0]
        assert (pts[:, 0] >= 0).all() and (pts[:, 0] <= 13).all()
        assert (pts[:, 1] >= 0).all() and (pts[:, 1] <= 9).all()

    def test_high_temperature_approaches_argmax(self):
        rng = np.random.default_rng(9)
        instances = 0
        while instances < 5:
            t = Tape()
            stack = random_stack(t, rng, d=6, h=10, w=12)
            desc_flat = split_stack(stack)[0].reshape(6, -1).T
            # source descriptor taken from one integer pixel: zncc peak 1 there
            j = int(rng.integers(desc_flat.shape[0]))
            src = desc_flat[j]
            sim = zncc_matrix(src[None], desc_flat)[0]
            order = np.sort(sim)
            if order[-1] - order[-2] < 0.05:
                continue
            instances += 1
            kps = KeypointSet(
                t.constant(np.zeros((1, 1, 2))),
                t.constant(src[None, None].copy()),
                t.constant(np.array([[0.5]])),
            )
            points, _ = match_all(kps, [stack], tau=1e3)
            hard = np.array([j % 12, j // 12], dtype=float)
            assert np.abs(points.value[0, 0] - hard).max() < 1e-6

    def test_self_matching_recovers_keypoints(self):
        # keypoints detected from the map's own logits (sharp peaks) must
        # soft-match back to their own locations
        from stereoloc.features import extract_keypoints

        rng = np.random.default_rng(10)
        t = Tape()
        h, w = 24, 32
        desc = rng.normal(size=(8, h, w))
        logits = np.zeros((h, w))
        peaks = rng.integers(1, 7, size=(3, 4, 2))
        for iy in range(3):
            for ix in range(4):
                logits[iy * 8 + peaks[iy, ix, 1], ix * 8 + peaks[iy, ix, 0]] = 60.0
        stack, logits = feature_map(t, desc, np.full((h, w), 0.5), logits)
        kps = extract_keypoints([stack], logits, 8)
        points, _ = match_all(kps, [stack], tau=1e3)
        err = np.linalg.norm(points.value - kps.coords.value, axis=-1)
        assert err.max() < 0.5

    def test_self_matching_subpixel_keypoints_stay_local(self):
        # for smooth fields and sub-pixel keypoints the soft argmax is
        # grid-limited: it recovers the source to within about a pixel
        rng = np.random.default_rng(10)
        t = Tape()
        stack = random_stack(t, rng, d=8, h=24, w=32, smooth=True)
        kps = keypoints_from(t, stack, rng, n=10)
        points, _ = match_all(kps, [stack], tau=160.0)
        err = np.linalg.norm(points.value - kps.coords.value, axis=-1)
        assert err.mean() < 0.6
        assert err.max() < 1.0

    def test_no_grad_tape_gives_the_same_bits(self):
        rng = np.random.default_rng(14)
        desc = rng.normal(size=(8, 24, 32))
        scores = rng.uniform(0.1, 0.9, size=(24, 32))
        coords = np.stack([rng.uniform(0.5, 30.5, 9), rng.uniform(0.5, 22.5, 9)], axis=1)
        src = rng.normal(size=(9, 8))
        src_scores = rng.uniform(0.1, 0.9, size=9)
        outs = []
        for grad in (True, False):
            t = Tape(grad=grad)
            stack, _ = feature_map(t, desc, scores)
            kps = KeypointSet(t.constant(coords[None]), t.constant(src[None]),
                              t.constant(src_scores[None]))
            points, weights = match_all(kps, [stack], tau=400.0)
            target_desc, target_scores = features.sample_at(stack, points)
            outs.append([points.value, target_desc.value, target_scores.value, weights.value])
        for a, b in zip(*outs):
            assert a.tobytes() == b.tobytes()

    def test_batch_matches_each_set_into_its_own_map(self):
        rng = np.random.default_rng(15)
        b, n, d = 3, 9, 8
        desc = rng.normal(size=(b, d, 24, 32))
        scores = rng.uniform(0.1, 0.9, size=(b, 24, 32))
        coords = np.stack([rng.uniform(0.5, 30.5, (b, n)), rng.uniform(0.5, 22.5, (b, n))], axis=-1)
        src = rng.normal(size=(b, n, d))
        src_scores = rng.uniform(0.1, 0.9, size=(b, n))
        t = Tape(grad=False)
        stack = t.constant(np.concatenate([desc, scores[:, None]], axis=1).transpose(1, 0, 2, 3))
        kps = KeypointSet(t.constant(coords), t.constant(src), t.constant(src_scores))
        points, weights = match_all(kps, [stack], tau=400.0)
        assert points.value.shape == (b, n, 2) and weights.value.shape == (b, n)
        for i in range(b):
            stack_i, _ = feature_map(t, desc[i], scores[i])
            one = KeypointSet(t.constant(coords[i:i + 1]), t.constant(src[i:i + 1]),
                              t.constant(src_scores[i:i + 1]))
            p_i, w_i = match_all(one, [stack_i], tau=400.0)
            assert points.value[i].tobytes() == p_i.value.tobytes()
            assert weights.value[i].tobytes() == w_i.value.tobytes()

    def test_invalid_temperature(self):
        rng = np.random.default_rng(12)
        t = Tape()
        stack = random_stack(t, rng)
        kps = keypoints_from(t, stack, rng, n=2)
        with pytest.raises(ValueError):
            match_all(kps, [stack], tau=0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        d, h, w, n = 4, 6, 8, 2
        target0 = rng.normal(size=(d, h, w))
        src0 = rng.normal(size=(1, n, d))  # a batch of one
        up = rng.normal(size=(1, n, 2))

        def build(t, src_var, tgt_var):
            stack, _ = feature_map(t, tgt_var, np.full((h, w), 0.5), np.zeros((h, w)))
            kps = KeypointSet(
                t.constant(np.ones((1, n, 2))), src_var, t.constant(np.full((1, n), 0.5))
            )
            points, _ = match_all(kps, [stack], tau=8.0)
            return ad.sum_(ad.mul(points, t.constant(up)))

        t = Tape()
        src = t.param(src0)
        tgt = t.param(target0)
        grads = backward(t, build(t, src, tgt))

        def f_src(v):
            t2 = Tape()
            return float(build(t2, t2.param(v.reshape(1, n, d)), t2.constant(target0)).value)

        def f_tgt(v):
            t2 = Tape()
            return float(build(t2, t2.constant(src0), t2.param(v.reshape(d, h, w))).value)

        assert rel_err(grads[src.index], finite_diff(f_src, src0.ravel()).reshape(1, n, d)) < 1e-4
        assert rel_err(grads[tgt.index], finite_diff(f_tgt, target0.ravel()).reshape(d, h, w)) < 1e-4

    def test_throughput_budget(self):
        # 12 keypoints x 64x48 pixels x D=56 under 50 ms single-threaded
        rng = np.random.default_rng(14)
        t = Tape()
        stack = random_stack(t, rng, d=56, h=48, w=64)
        kps = keypoints_from(t, stack, rng, n=12)
        match_all(kps, [stack], tau=50.0)  # warm up
        start = time.perf_counter()
        match_all(kps, [stack], tau=50.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.050, f"match_all took {elapsed * 1e3:.1f} ms"


class TestMatchWeights:
    def test_perfect_match_full_scores_gives_one(self):
        rng = np.random.default_rng(15)
        t = Tape()
        d = rng.normal(size=(3, 8))
        w = match_weights(
            t.constant(d), t.constant(d.copy()),
            t.constant(np.ones(3)), t.constant(np.ones(3)),
        ).value
        assert np.abs(w - 1.0).max() < 1e-12

    def test_anti_correlated_gives_zero(self):
        rng = np.random.default_rng(16)
        t = Tape()
        d = rng.normal(size=(3, 8))
        w = match_weights(
            t.constant(d), t.constant(-d),
            t.constant(np.ones(3)), t.constant(np.ones(3)),
        ).value
        assert np.abs(w).max() < 1e-12

    def test_zero_score_gives_zero(self):
        rng = np.random.default_rng(17)
        t = Tape()
        d = rng.normal(size=(3, 8))
        w = match_weights(
            t.constant(d), t.constant(d.copy()),
            t.constant(np.zeros(3)), t.constant(np.ones(3)),
        ).value
        assert np.array_equal(w, np.zeros(3))

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(18)
        t = Tape()
        stack = random_stack(t, rng)
        kps = keypoints_from(t, stack, rng, n=6)
        _, weights = match_all(kps, [stack], tau=10.0)
        assert (weights.value >= 0).all() and (weights.value <= 1).all()
        again = matchset_weights(kps, stack, tau=10.0).value
        assert np.abs(again - weights.value).max() < 1e-12


class TestMutualBest:
    def test_identical_sets_match_identically(self):
        rng = np.random.default_rng(19)
        d = rng.normal(size=(6, 10))
        i, j, _ = mutual_best_matches(d, d.copy())
        assert list(zip(i, j)) == [(k, k) for k in range(6)]

    def test_pairs_are_mutual(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(8, 10))
        b = rng.normal(size=(9, 10))
        sim = zncc_matrix(a, b)
        ii, jj, corr = mutual_best_matches(a, b)
        for i, j, c in zip(ii, jj, corr):
            assert sim[i].argmax() == j
            assert sim[:, j].argmax() == i
            assert abs(c - zncc(a[i], b[j])) < 1e-12
