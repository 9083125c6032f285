import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stereoloc.errors import (
    DegenerateGeometry,
    InsufficientMatches,
    LocalizationFailure,
)
from stereoloc.estimator import (
    RansacParams,
    _minimal_set_poses,
    _minimal_sets,
    align_core,
    gt_outlier_gate,
    ransac_pose,
    rotation_from_covariance,
)
from stereoloc.geometry import PlanarPose, SE3Pose, rot_z, se3_to_planar

from oracles import (
    AlignmentProblem,
    alignment_cost,
    apply,
    gt_outlier_gate_reference,
    planar_to_se3,
    ransac_pose_reference,
    weighted_alignment,
)


def planar_instance(seed, n=5, noise=0.0):
    rng = np.random.default_rng(seed)
    ps = np.concatenate(
        [rng.uniform(-1, 1, (n, 2)), rng.uniform(-0.2, 0.2, (n, 1))], axis=1
    )
    pp = PlanarPose(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.4, 0.4))
    T = planar_to_se3(pp)
    pt = apply(T, ps)
    if noise:
        pt = pt + noise * rng.normal(size=pt.shape)
    w = rng.uniform(0.3, 1.0, size=n)
    return ps, pt, w, pp, T


class TestWeightedAlignment:
    def test_zero_residual_gives_identity(self):
        rng = np.random.default_rng(0)
        ps = rng.normal(size=(6, 3))
        pose = weighted_alignment(AlignmentProblem(ps, ps.copy(), np.ones(6)))
        assert np.abs(pose.C - np.eye(3)).max() < 1e-12
        assert np.abs(pose.r).max() < 1e-12

    def test_recovers_constructed_pose(self):
        rng = np.random.default_rng(1)
        ps = rng.normal(size=(5, 3))
        C = rot_z(math.pi / 2)
        r = np.array([1.0, 2.0, 0.0])
        pose = weighted_alignment(AlignmentProblem(ps, ps @ C.T + r, np.ones(5)))
        assert np.abs(pose.C - C).max() < 1e-9
        assert np.linalg.norm(pose.r - r) < 1e-9

    def test_noise_free_planar_recovery_batch(self):
        for seed in range(20):
            ps, pt, w, _, T = planar_instance(seed)
            pose = weighted_alignment(AlignmentProblem(ps, pt, w))
            assert np.linalg.norm(pose.C - T.C) < 1e-9
            assert np.linalg.norm(pose.r - T.r) < 1e-9

    def test_zero_weight_pair_is_bitwise_inert(self):
        ps, pt, w, _, _ = planar_instance(7)
        base = weighted_alignment(AlignmentProblem(ps, pt, w))
        ps2 = np.concatenate([ps, [[100.0, -50.0, 3.0]]])
        pt2 = np.concatenate([pt, [[-7.0, 8.0, 9.0]]])
        w2 = np.concatenate([w, [0.0]])
        poisoned = weighted_alignment(AlignmentProblem(ps2, pt2, w2))
        assert base.C.tobytes() == poisoned.C.tobytes()
        assert base.r.tobytes() == poisoned.r.tobytes()

    def test_weight_rescaling_invariance(self):
        ps, pt, w, _, _ = planar_instance(8, noise=0.01)
        a = weighted_alignment(AlignmentProblem(ps, pt, w))
        b = weighted_alignment(AlignmentProblem(ps, pt, 37.5 * w))
        assert np.abs(a.C - b.C).max() < 1e-12
        assert np.abs(a.r - b.r).max() < 1e-12

    def test_reflection_corrected_to_proper_rotation(self):
        rng = np.random.default_rng(9)
        ps = rng.normal(size=(6, 3))
        pt = ps * np.array([1.0, 1.0, -1.0])  # mirrored targets
        pose = weighted_alignment(AlignmentProblem(ps, pt, np.ones(6)))
        assert isinstance(pose, SE3Pose)  # constructor enforces det +1

    def test_collinear_points_rejected(self):
        line = np.outer(np.arange(5, dtype=float), [1.0, 2.0, 0.5])
        with pytest.raises(DegenerateGeometry):
            weighted_alignment(AlignmentProblem(line, line + 1.0, np.ones(5)))

    def test_problem_validation(self):
        good = np.random.default_rng(2).normal(size=(4, 3))
        with pytest.raises(ValueError):
            AlignmentProblem(good, good[:3], np.ones(4))
        with pytest.raises(ValueError):
            AlignmentProblem(good, good, np.zeros(4))
        with pytest.raises(ValueError):
            AlignmentProblem(good, good, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_local_optimality_smoke(self):
        ps, pt, w, _, _ = planar_instance(10, noise=0.02)
        pose = weighted_alignment(AlignmentProblem(ps, pt, w))
        best = alignment_cost(ps, pt, w, pose.C, pose.r)
        assert best <= alignment_cost(ps, pt, w, np.eye(3), np.zeros(3)) + 1e-15
        rng = np.random.default_rng(11)
        for _ in range(100):
            dg = rng.uniform(-0.2, 0.2)
            dr = rng.uniform(-0.2, 0.2, 3)
            cost = alignment_cost(ps, pt, w, pose.C @ rot_z(dg), pose.r + dr)
            assert best <= cost + 1e-15

    def test_matches_grid_search_oracle(self):
        # noise 5e-4: large enough to move the optimum off the true pose,
        # small enough that the unconstrained SE(3) optimum stays planar to
        # well under one grid cell
        spacing = 1e-3
        for seed in range(10):
            ps, pt, w, pp, _ = planar_instance(seed + 100, noise=5e-4)
            pose = weighted_alignment(AlignmentProblem(ps, pt, w))
            est = se3_to_planar(pose)
            grid = grid_search_planar(ps, pt, w, pp, half_range=0.02, spacing=spacing)
            assert abs(est.alpha - grid[0]) <= spacing + 1e-12
            assert abs(est.beta - grid[1]) <= spacing + 1e-12
            assert abs(est.gamma - grid[2]) <= spacing + 1e-12


def grid_search_planar(ps, pt, w, center: PlanarPose, half_range: float, spacing: float):
    """Exhaustive minimization of the alignment cost over planar poses on a
    regular grid; the quadratic structure in (alpha, beta) is evaluated in
    closed form per heading, so this stays honest but fast."""
    offsets = np.arange(-half_range, half_range + spacing / 2, spacing)
    alphas = center.alpha + offsets
    betas = center.beta + offsets
    gammas = center.gamma + offsets
    W = w.sum()
    best = (np.inf, None)
    for g in gammas:
        b = ps @ rot_z(g).T - pt  # residual before translation
        bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
        const = (w * (bx * bx + by * by + bz * bz)).sum()
        lin_x = (w * bx).sum()
        lin_y = (w * by).sum()
        cost = (
            const
            + 2.0 * np.add.outer(alphas * lin_x, betas * lin_y)
            + np.add.outer(alphas**2 * W, betas**2 * W)
        )
        k = np.unravel_index(np.argmin(cost), cost.shape)
        if cost[k] < best[0]:
            best = (cost[k], (alphas[k[0]], betas[k[1]], g))
    return best[1]


class TestRansac:
    @staticmethod
    def contaminated_instance(seed, n=30, outlier_fraction=0.3, offset=5.0):
        rng = np.random.default_rng(seed)
        ps = np.concatenate(
            [rng.uniform(-1, 1, (n, 2)), rng.uniform(-0.3, 0.3, (n, 1))], axis=1
        )
        pp = PlanarPose(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3))
        T = planar_to_se3(pp)
        pt = apply(T, ps)
        n_out = int(round(outlier_fraction * n))
        out_idx = rng.choice(n, size=n_out, replace=False)
        directions = rng.normal(size=(n_out, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        pt[out_idx] += offset * directions
        mask = np.ones(n, dtype=bool)
        mask[out_idx] = False
        return ps, pt, np.ones(n), T, mask

    def test_outlier_free_recovers_full_alignment(self):
        ps, pt, w, _, _ = planar_instance(20, noise=0.01)
        params = RansacParams(iterations=100, inlier_threshold=0.5, min_inliers=3, seed=0)
        pose, mask = ransac_pose(ps, pt, w, params)
        assert mask.all()
        ref = weighted_alignment(AlignmentProblem(ps, pt, w))
        assert np.abs(pose.C - ref.C).max() < 1e-15
        assert np.abs(pose.r - ref.r).max() < 1e-15

    def test_robust_to_thirty_percent_outliers(self):
        for seed in range(5):
            ps, pt, w, T, true_mask = self.contaminated_instance(seed)
            params = RansacParams(iterations=500, inlier_threshold=0.1, min_inliers=6, seed=seed)
            pose, mask = ransac_pose(ps, pt, w, params)
            assert np.array_equal(mask, true_mask)
            assert np.abs(pose.C - T.C).max() < 1e-6
            assert np.linalg.norm(pose.r - T.r) < 1e-6

    def test_two_matches_insufficient(self):
        with pytest.raises(InsufficientMatches):
            ransac_pose(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), RansacParams())

    def test_no_consensus_raises_localization_failure(self):
        rng = np.random.default_rng(33)
        ps = rng.uniform(-1, 1, (12, 3))
        pt = rng.uniform(50, 100, (12, 3))  # garbage correspondences
        with pytest.raises(LocalizationFailure):
            ransac_pose(ps, pt, np.ones(12), RansacParams(iterations=50, min_inliers=6))

    def test_seeded_determinism(self):
        ps, pt, w, _, _ = self.contaminated_instance(42)
        params = RansacParams(iterations=300, inlier_threshold=0.1, min_inliers=6, seed=5)
        a_pose, a_mask = ransac_pose(ps, pt, w, params)
        b_pose, b_mask = ransac_pose(ps, pt, w, params)
        assert np.array_equal(a_mask, b_mask)
        assert a_pose.C.tobytes() == b_pose.C.tobytes()
        assert a_pose.r.tobytes() == b_pose.r.tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RansacParams(iterations=0)
        with pytest.raises(ValueError):
            RansacParams(inlier_threshold=0.0)


def assert_matches_reference(p_s, p_t, w, params):
    """ransac_pose and the per-hypothesis loop agree bitwise: same mask,
    same C and r, or the same LocalizationFailure."""
    try:
        ref_pose, ref_mask = ransac_pose_reference(p_s, p_t, w, params)
    except LocalizationFailure:
        with pytest.raises(LocalizationFailure):
            ransac_pose(p_s, p_t, w, params)
        return
    pose, mask = ransac_pose(p_s, p_t, w, params)
    assert np.array_equal(mask, ref_mask)
    assert pose.C.tobytes() == ref_pose.C.tobytes()
    assert pose.r.tobytes() == ref_pose.r.tobytes()


class TestRansacMatchesReference:
    @pytest.mark.parametrize("noise", [0.0, 0.04])
    @pytest.mark.parametrize("iterations", [1, 50, 500])
    @pytest.mark.parametrize("seed", range(6))
    def test_contaminated_instances(self, seed, iterations, noise):
        # with noise near the threshold, hypotheses tie on count with
        # different masks, so the first-of-the-largest rule is exercised
        ps, pt, _, _, _ = TestRansac.contaminated_instance(seed, outlier_fraction=0.4)
        rng = np.random.default_rng(seed)
        pt = pt + noise * rng.normal(size=pt.shape)
        w = rng.uniform(0.2, 1.0, len(ps))
        params = RansacParams(iterations=iterations, inlier_threshold=0.1, min_inliers=6,
                              seed=seed)
        assert_matches_reference(ps, pt, w, params)

    @pytest.mark.parametrize("seed", range(3, 8))
    def test_degenerate_minimal_sets(self, seed):
        # 15 pairs on one line, away from the other points, consistent with
        # one another but not with the true pose: a hypothesis drawn only
        # from them is collinear and would outvote the 12 true inliers if it
        # were not discarded
        ps, pt, _, _, true_mask = TestRansac.contaminated_instance(
            seed, n=30, outlier_fraction=0.6)
        line = np.outer(np.arange(1.0, 16.0), [0.1, -0.05, 0.02]) + [2.0, -2.0, 0.5]
        ps = np.concatenate([ps, line])
        pt = np.concatenate([pt, line + 1.0])
        params = RansacParams(iterations=200, inlier_threshold=0.1, min_inliers=6, seed=seed)
        rng = np.random.default_rng(params.seed)
        degenerate = 0
        for _ in range(params.iterations):
            idx = rng.choice(len(ps), size=3, replace=False)
            try:
                align_core(ps[idx], pt[idx], np.ones(3))
            except DegenerateGeometry:
                degenerate += 1
        assert degenerate > 0
        w = np.ones(len(ps))
        assert_matches_reference(ps, pt, w, params)
        _, mask = ransac_pose(ps, pt, w, params)
        assert np.array_equal(mask, np.concatenate([true_mask, np.zeros(15, bool)]))

    def test_all_garbage_still_fails(self):
        rng = np.random.default_rng(33)
        ps = rng.uniform(-1, 1, (12, 3))
        pt = rng.uniform(50, 100, (12, 3))
        params = RansacParams(iterations=50, min_inliers=6)
        with pytest.raises(LocalizationFailure):
            ransac_pose_reference(ps, pt, np.ones(12), params)
        assert_matches_reference(ps, pt, np.ones(12), params)


class TestMinimalSetsMemo:
    @pytest.mark.parametrize(
        "seed, n, iterations", [(0, 3, 1), (0, 3, 50), (5, 4, 1), (9, 43, 200), (21, 100, 17)]
    )
    def test_read_only_and_equal_to_fresh_draws(self, seed, n, iterations):
        idx = _minimal_sets(seed, n, iterations)
        rng = np.random.default_rng(seed)
        fresh = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
        assert idx.shape == (iterations, 3)
        assert idx.dtype == fresh.dtype
        assert np.array_equal(idx, fresh)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 0
        assert _minimal_sets(seed, n, iterations) is idx

    def test_cold_and_warm_calls_match_reference(self):
        ps, pt, w, _, _ = TestRansac.contaminated_instance(9, outlier_fraction=0.4)
        params = RansacParams(iterations=200, inlier_threshold=0.1, min_inliers=6, seed=9)
        _minimal_sets.cache_clear()
        assert_matches_reference(ps, pt, w, params)
        assert_matches_reference(ps, pt, w, params)
        assert _minimal_sets.cache_info().hits == 1

    def test_different_seeds_give_different_sets(self):
        sets = {_minimal_sets(seed, 30, 20).tobytes() for seed in range(6)}
        assert len(sets) == 6

    def test_seed_must_be_an_integer(self):
        for bad in (None, 1.5, 2.0, "3"):
            with pytest.raises(TypeError):
                RansacParams(seed=bad)
        RansacParams(seed=np.int64(4))


class TestRansacNonFinite:
    def test_nan_rows_are_never_inliers(self):
        ps, pt, w, T, true_mask = TestRansac.contaminated_instance(4)
        ps[[1, 7]] = np.nan
        pt[[2, 9]] = np.inf
        pt[11, 0] = np.nan
        finite = np.isfinite(ps).all(axis=1) & np.isfinite(pt).all(axis=1)
        params = RansacParams(iterations=500, inlier_threshold=0.1, min_inliers=6, seed=4)
        pose, mask = ransac_pose(ps, pt, w, params)
        assert not mask[~finite].any()
        assert np.array_equal(mask, true_mask & finite)
        assert np.abs(pose.C - T.C).max() < 1e-6

    def test_all_nan_is_a_localization_failure(self):
        ps = np.full((10, 3), np.nan)
        with pytest.raises(LocalizationFailure):
            ransac_pose(ps, ps.copy(), np.ones(10), RansacParams(iterations=20))


TRIANGLE_KINDS = ("random", "rigid", "mirror", "near-collinear", "duplicated", "non-finite")


def _triangle_pair(kind: str, rng):
    """(3, 3) source and target minimal sets, one point per row, at a
    random scale and offset."""
    scale = 10.0 ** rng.uniform(-2, 2)
    A = rng.normal(size=(3, 3))
    if kind == "near-collinear":  # points within 10^k of a line
        A = rng.normal(size=(3, 1)) * rng.normal(size=3) + 10.0 ** rng.uniform(-17, -2) * A
    C, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    C *= np.sign(np.linalg.det(C))
    B = A @ C.T + 0.1 * rng.uniform() * rng.normal(size=(3, 3))
    if kind == "random":
        B = rng.normal(size=(3, 3))
    elif kind == "mirror":  # three points are planar: a mirror image is also a rotated copy
        B = B * [1.0, 1.0, -1.0]
    elif kind == "near-collinear" and rng.integers(2):  # only the source is thin
        B = rng.normal(size=(3, 3))
    elif kind == "duplicated":
        X = (A, B)[rng.integers(2)]
        X[rng.integers(3)] = X[rng.integers(3)]  # may pick the same row: not degenerate
    A = scale * A + 10.0 ** rng.uniform(-2, 3) * rng.normal(size=3)
    B = scale * B + 10.0 ** rng.uniform(-2, 3) * rng.normal(size=3)
    if kind == "non-finite":
        (A, B)[rng.integers(2)][rng.integers(3), rng.integers(3)] = rng.choice(
            [np.nan, np.inf, -np.inf])
    return A, B


class TestMinimalSetPoses:
    """Property: the closed-form hypotheses of ransac_pose agree with
    rotation_from_covariance on each set's equal-weight cross-covariance
    (the stacked SVD they replace): the same collinear flag, and on every
    other set a proper rotation within 1e-12, or 1e-14 s0 / s1 on a set
    whose spectrum ratio s0 / s1 exceeds 100 (both solutions are then only
    that accurate). A set with a non-finite point has a non-finite C, so
    ransac_pose never counts it."""

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(TRIANGLE_KINDS), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    def test_agrees_with_the_svd_solution(self, kinds, seed):
        rng = np.random.default_rng(seed)
        A, B = (np.stack(x) for x in zip(*(_triangle_pair(k, rng) for k in kinds)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            C, r, collinear = _minimal_set_poses(A, B)
        finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
        assert not np.isfinite(C[~finite]).all(axis=(1, 2)).any()
        A, B, C, r, collinear = A[finite], B[finite], C[finite], r[finite], collinear[finite]
        mu_s, mu_t = A.mean(axis=1), B.mean(axis=1)
        W = (B - mu_t[:, None]).transpose(0, 2, 1) @ (A - mu_s[:, None]) / 3.0
        C_ref, (_, s, _, _), collinear_ref = rotation_from_covariance(W)
        r_ref = mu_t - (C_ref @ mu_s[:, :, None])[:, :, 0]
        assert np.array_equal(collinear, collinear_ref)
        ok = ~collinear
        C, r, C_ref, r_ref, s = C[ok], r[ok], C_ref[ok], r_ref[ok], s[ok]
        assert np.isfinite(C).all() and np.isfinite(r).all()
        assert np.abs(np.linalg.det(C) - 1.0).max(initial=0.0) <= 1e-12
        assert np.abs(C @ C.transpose(0, 2, 1) - np.eye(3)).max(initial=0.0) <= 1e-12
        tol = 1e-14 * np.maximum(100.0, s[:, 0] / s[:, 1])
        assert (np.abs(C - C_ref).max(axis=(1, 2)) <= tol).all()
        extent = np.abs(A[ok]).max(axis=(1, 2)) + np.abs(B[ok]).max(axis=(1, 2))
        assert (np.abs(r - r_ref).max(axis=1) <= tol * extent).all()


def gate(ps, pt, pp: PlanarPose, threshold):
    """The gate on one (N, 3) sample's planar residuals under its pose."""
    return gt_outlier_gate(apply(planar_to_se3(pp), ps)[:, :2] - pt[:, :2], threshold)


class TestGroundTruthGate:
    def test_perfect_matches_survive(self):
        ps, pt, _, pp, _ = planar_instance(50)
        keep = gate(ps, pt, pp, threshold=0.1)
        assert keep.all()

    def test_planted_outlier_removed(self):
        ps, pt, _, pp, _ = planar_instance(51)
        pt = pt.copy()
        pt[2, :2] += 2 * 0.25  # double the threshold, in-plane
        keep = gate(ps, pt, pp, threshold=0.25)
        assert not keep[2]
        assert keep.sum() == len(keep) - 1

    def test_z_error_ignored(self):
        ps, pt, _, pp, _ = planar_instance(52)
        pt = pt.copy()
        pt[:, 2] += 10.0
        assert gate(ps, pt, pp, threshold=0.05).all()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    def test_monotone_in_threshold(self, t1, t2):
        lo, hi = sorted((t1, t2))
        ps, pt, _, pp, _ = planar_instance(53, noise=0.2)
        keep_lo = gate(ps, pt, pp, lo)
        keep_hi = gate(ps, pt, pp, hi)
        assert np.all(keep_hi | ~keep_lo)  # keep_lo subset of keep_hi

    def test_threshold_must_be_positive(self):
        ps, pt, _, pp, _ = planar_instance(54)
        with pytest.raises(ValueError):
            gate(ps, pt, pp, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_is_the_per_sample_gate_bitwise(self, seed):
        # float32 points as the training tapes hold them, some rows zero as
        # unlifted points are, and the (B, N, 2) residual in the form
        # training.batch_loss records it; each threshold sits at one of the
        # reference's planar errors or one step below it, so the masks agree
        # only where the errors agree in every bit
        rng = np.random.default_rng(seed)
        b, n = rng.integers(1, 6), rng.integers(1, 30)
        ps = rng.normal(scale=3.0, size=(b, n, 3)).astype(np.float32)
        ps[rng.random((b, n)) < 0.2] = 0.0
        poses = [PlanarPose(*rng.uniform(-1, 1, 2), rng.uniform(-np.pi, np.pi)) for _ in range(b)]
        T = [planar_to_se3(pp) for pp in poses]
        pt = np.stack([apply(t, p) for t, p in zip(T, ps)]) + rng.normal(scale=0.4, size=(b, n, 3))
        pt = pt.astype(np.float32)
        pt[rng.random((b, n)) < 0.2] = 0.0
        gt = np.array([[pp.alpha, pp.beta, pp.gamma] for pp in poses])
        C_gt = np.stack([rot_z(g) for g in gt[:, 2]])
        res = ps.astype(float) @ np.swapaxes(C_gt, 1, 2)[..., :2] + gt[:, None, :2] - pt[..., :2]
        err = np.linalg.norm(np.stack([apply(t, p)[:, :2] for t, p in zip(T, ps)])
                             - pt[..., :2], axis=-1)
        for threshold in np.concatenate([err.ravel(), np.nextafter(err.ravel(), 0)]):
            keep = gt_outlier_gate(res, threshold)
            want = np.stack([gt_outlier_gate_reference(p, q, pp, threshold)
                             for p, q, pp in zip(ps, pt, poses)])
            assert keep.shape == (b, n) and np.array_equal(keep, want)
