import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stereoloc.errors import InvalidDisparity
from stereoloc.geometry import (
    MIN_DISPARITY,
    CameraIntrinsics,
    PlanarPose,
    SE3Pose,
    backproject_points,
    planar_to_se3,
    rot_z,
    se3_to_planar,
    valid_disparity,
    wrap_angle,
)

from oracles import (
    DegenerateDepth,
    apply,
    backproject_jacobian,
    compose,
    inverse,
    matrix,
    project_points,
)

K_SIMPLE = CameraIntrinsics(fu=100.0, fv=100.0, cu=0.0, cv=0.0, b=0.1)


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def project(p, K):
    return tuple(project_points(np.array([p], dtype=float), K)[0])


def backproject(y, K):
    return backproject_points(np.array([y], dtype=float), K)[0]


class TestCameraModel:
    def test_project_on_axis(self):
        assert project((0.0, 0.0, 1.0), K_SIMPLE) == (0.0, 0.0, 10.0)

    def test_project_off_axis(self):
        assert project((0.5, 0.0, 1.0), K_SIMPLE) == (50.0, 0.0, 10.0)

    def test_project_rejects_nonpositive_depth(self):
        with pytest.raises(DegenerateDepth):
            project((0.0, 0.0, 0.0), K_SIMPLE)
        with pytest.raises(DegenerateDepth):
            project((1.0, 1.0, -2.0), K_SIMPLE)

    def test_backproject_inverts_example(self):
        p = backproject((0.0, 0.0, 10.0), K_SIMPLE)
        assert np.allclose(p, [0.0, 0.0, 1.0], atol=0)

    def test_backproject_rejects_tiny_disparity(self):
        with pytest.raises(InvalidDisparity):
            backproject((0.0, 0.0, 1e-9), K_SIMPLE)
        for d in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidDisparity):
                backproject((0.0, 0.0, d), K_SIMPLE)

    def test_valid_disparity_is_finite_and_above_the_floor(self):
        d = np.array([np.nan, np.inf, -np.inf, -1.0, 0.0, MIN_DISPARITY, 2e-6, 40.0])
        assert valid_disparity(d).tolist() == [False] * 6 + [True] * 2

    def test_roundtrip_1000_random_points(self):
        rng = np.random.default_rng(0)
        K = CameraIntrinsics(fu=210.0, fv=190.0, cu=31.5, cv=23.5, b=0.24)
        p = np.stack(
            [
                rng.uniform(-3, 3, 1000),
                rng.uniform(-2, 2, 1000),
                rng.uniform(0.5, 10.0, 1000),
            ],
            axis=1,
        )
        back = backproject_points(project_points(p, K), K)
        assert np.abs(back - p).max() < 1e-12

    def test_observation_roundtrip(self):
        rng = np.random.default_rng(1)
        K = CameraIntrinsics(fu=60.0, fv=60.0, cu=31.5, cv=23.5, b=0.3)
        obs = np.stack(
            [rng.uniform(0, 63, 500), rng.uniform(0, 47, 500), rng.uniform(1, 20, 500)],
            axis=1,
        )
        again = project_points(backproject_points(obs, K), K)
        assert np.abs(again - obs).max() < 1e-12

    def test_jacobian_matches_central_differences(self):
        K = CameraIntrinsics(fu=60.0, fv=55.0, cu=31.5, cv=23.5, b=0.3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = np.array(
                [rng.uniform(0, 63), rng.uniform(0, 47), rng.uniform(2.0, 15.0)]
            )
            J = backproject_jacobian(y, K)
            h = 1e-6
            for j in range(3):
                dy = np.zeros(3)
                dy[j] = h
                fd = (backproject(y + dy, K) - backproject(y - dy, K)) / (2 * h)
                denom = max(np.linalg.norm(J[:, j]), 1.0)
                assert np.linalg.norm(fd - J[:, j]) / denom < 1e-6

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fu=-1.0, fv=1.0, cu=0.0, cv=0.0, b=0.1)
        with pytest.raises(ValueError):
            CameraIntrinsics(fu=1.0, fv=1.0, cu=0.0, cv=0.0, b=0.0)


class TestPlanarPose:
    def test_identity_embedding(self):
        T = planar_to_se3(PlanarPose(0.0, 0.0, 0.0))
        assert np.allclose(T.C, np.eye(3), atol=0)
        assert np.allclose(T.r, 0.0, atol=0)

    def test_quarter_turn_embedding(self):
        T = planar_to_se3(PlanarPose(1.0, 2.0, math.pi / 2))
        assert np.allclose(T.C, rot_z(math.pi / 2), atol=1e-15)
        assert np.allclose(T.r, [1.0, 2.0, 0.0], atol=0)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pp = PlanarPose(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
            T = planar_to_se3(pp)
            I = compose(T, inverse(T))
            assert np.abs(I.C - np.eye(3)).max() < 1e-12
            assert np.abs(I.r).max() < 1e-12

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_embedding_satisfies_se3_invariants(self, a, b, g):
        T = planar_to_se3(PlanarPose(a, b, g))
        assert np.abs(T.C @ T.C.T - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(T.C) - 1.0) < 1e-9
        assert T.r[2] == 0.0
        assert np.allclose(T.C @ [0, 0, 1], [0, 0, 1], atol=0)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_gamma_normalized(self, g):
        pp = PlanarPose(0.0, 0.0, g)
        assert -math.pi < pp.gamma <= math.pi
        # same rotation as the unnormalized angle
        assert np.abs(rot_z(pp.gamma) - rot_z(g)).max() < 1e-9

    def test_planar_extraction_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pp = PlanarPose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
            back = se3_to_planar(planar_to_se3(pp))
            assert abs(back.alpha - pp.alpha) < 1e-12
            assert abs(back.beta - pp.beta) < 1e-12
            assert abs(wrap_angle(back.gamma - pp.gamma)) < 1e-12


class TestSE3Algebra:
    def test_apply_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(apply(SE3Pose(np.eye(3), np.zeros(3)), p), p)

    def test_compose_inverse_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = SE3Pose(random_rotation(rng), rng.normal(size=3))
            I = compose(T, inverse(T))
            assert np.abs(I.C - np.eye(3)).max() < 1e-12
            assert np.abs(I.r).max() < 1e-12

    def test_compose_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            Ts = [SE3Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
            left = compose(compose(Ts[0], Ts[1]), Ts[2])
            right = compose(Ts[0], compose(Ts[1], Ts[2]))
            assert np.abs(left.C - right.C).max() < 1e-10
            assert np.abs(left.r - right.r).max() < 1e-10

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(7)
        T = SE3Pose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        hom = np.concatenate([pts, np.ones((10, 1))], axis=1) @ matrix(T).T
        assert np.allclose(apply(T, pts), hom[:, :3], atol=1e-12)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            SE3Pose(np.eye(3) * 2.0, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            SE3Pose(reflection, np.zeros(3))
