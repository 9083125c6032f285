import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stereoloc import synth
from stereoloc.errors import InvalidViewpoint
from stereoloc.geometry import PlanarPose, wrap_angle
from stereoloc.synth import (
    CONDITIONS,
    DAY_SCHEDULE,
    PhotometricParams,
    Scene,
    cast_rays,
    generate_scene,
    load_dataset,
    load_sequence,
    make_dataset,
    offset_poses,
    path_poses,
    relative_planar,
    render_sequence,
    render_stereo,
    save_sequence,
    solve_source_pose,
    solve_target_pose,
    texture,
)

import oracles
from oracles import (
    block_match_everywhere,
    block_match_reference,
    project_points,
    render_one,
    zncc,
)


class TestScene:
    def test_same_seed_bitwise_identical(self):
        a = generate_scene(9)
        b = generate_scene(9)
        assert a.blocks.tobytes() == b.blocks.tobytes()

    def test_different_seeds_decorrelated_texture(self):
        xs, ys = np.meshgrid(np.linspace(-1, 1, 64), np.linspace(-1, 1, 64))
        a = texture(generate_scene(1), xs, ys).ravel()
        b = texture(generate_scene(2), xs, ys).ravel()
        assert abs(zncc(a, b)) < 0.5

    def test_texture_variance_floor_over_seeds(self):
        xs, ys = np.meshgrid(np.linspace(-1, 1, 48), np.linspace(-1, 1, 48))
        for seed in range(0, 101):
            t = texture(generate_scene(seed), xs, ys)
            assert t.var() > 0.005, f"seed {seed} texture too flat"

    def test_texture_range(self):
        xs, ys = np.meshgrid(np.linspace(-2, 2, 96), np.linspace(-2, 2, 96))
        t = texture(generate_scene(4), xs, ys)
        assert t.min() >= 0.02 and t.max() <= 0.98


class TestPoseHelpers:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 3),
        st.floats(-0.5, 0.5), st.floats(-0.2, 0.2), st.floats(-0.3, 0.3),
    )
    def test_solve_target_roundtrip(self, x, y, yaw, a, b, g):
        src = np.array([x, y, yaw])
        pp = PlanarPose(a, b, g)
        tgt = solve_target_pose(src, pp)
        back = relative_planar(src, tgt)
        assert abs(back.alpha - pp.alpha) < 1e-9
        assert abs(back.beta - pp.beta) < 1e-9
        assert abs(wrap_angle(back.gamma - pp.gamma)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 3),
        st.floats(-0.5, 0.5), st.floats(-0.2, 0.2), st.floats(-0.3, 0.3),
    )
    def test_solve_source_roundtrip(self, x, y, yaw, a, b, g):
        tgt = np.array([x, y, yaw])
        pp = PlanarPose(a, b, g)
        src = solve_source_pose(tgt, pp)
        back = relative_planar(src, tgt)
        assert abs(back.alpha - pp.alpha) < 1e-9
        assert abs(back.beta - pp.beta) < 1e-9
        assert abs(wrap_angle(back.gamma - pp.gamma)) < 1e-9

    def test_zero_offset_identity(self):
        src = np.array([0.3, -0.2, 1.1])
        pp = relative_planar(src, src)
        assert (pp.alpha, pp.beta, pp.gamma) == (0.0, 0.0, 0.0)


class TestRendering:
    def test_identical_arguments_render_bitwise_identically(self, scene, K_default):
        a = render_one(scene, (0.1, 0.0, 0.3), K_default, CONDITIONS["noon"], (48, 64), noise_seed=5)
        b = render_one(scene, (0.1, 0.0, 0.3), K_default, CONDITIONS["noon"], (48, 64), noise_seed=5)
        assert a.left.tobytes() == b.left.tobytes()
        assert a.right.tobytes() == b.right.tobytes()
        assert a.disparity.tobytes() == b.disparity.tobytes()

    def test_surface_point_reprojects_onto_its_pixel(self, scene, K_default):
        pose = (0.15, -0.05, 0.4)
        rng = np.random.default_rng(0)
        uv = np.stack([rng.uniform(0, 63, 40), rng.uniform(0, 47, 40)], axis=1)
        _, depth, hits = oracles.cast_rays(scene, pose, K_default, uv)
        x_c, y_c, z_c = synth._cam_axes(pose[2])
        R = np.stack([x_c, y_c, z_c])
        origin = np.array([pose[0], pose[1], synth.CAMERA_HEIGHT])
        for k in range(len(uv)):
            p_cam = R @ (hits[k] - origin)
            u_l, v_l, _ = project_points(p_cam[None], K_default)[0]
            assert abs(u_l - uv[k, 0]) < 0.5
            assert abs(v_l - uv[k, 1]) < 0.5

    def test_left_right_consistency_oracle(self, scene, K_default):
        pose = (0.1, 0.0, 0.2)
        frame = render_one(scene, pose, K_default, CONDITIONS["identity"], (48, 64))
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(60):
            u = float(rng.integers(5, 59))
            v = float(rng.integers(3, 45))
            li, ld, lhit = oracles.cast_rays(scene, pose, K_default, np.array([[u, v]]))
            d = K_default.fu * K_default.b / ld[0]
            ri, rd, rhit = oracles.cast_rays(
                scene, pose, K_default, np.array([[u - d, v]]), right=True
            )
            if np.linalg.norm(lhit - rhit) > 1e-9:
                continue  # occluded in the right view
            checked += 1
            assert abs(li[0] - ri[0]) < 1e-6
        assert checked > 30

    def test_gain_changes_images_not_disparity(self, scene, K_default):
        base = render_one(scene, (0.0, 0.0, 0.0), K_default,
                          PhotometricParams(gain=1.0), (48, 64), noise_seed=7)
        gained = render_one(scene, (0.0, 0.0, 0.0), K_default,
                            PhotometricParams(gain=2.0), (48, 64), noise_seed=7)
        assert not np.array_equal(base.left, gained.left)
        assert base.disparity.tobytes() == gained.disparity.tobytes()

    def test_geometry_identical_across_schedule(self, scene, K_default):
        disps = [
            render_one(scene, (0.2, 0.1, -0.3), K_default, CONDITIONS[c], (24, 32),
                       noise_seed=3).disparity.tobytes()
            for c in DAY_SCHEDULE
        ]
        assert len(set(disps)) == 1

    def test_camera_below_block_rejected(self, K_default):
        # a block taller than the camera's height
        scene = Scene(0, np.array([[-0.2, 0.2, -0.2, 0.2, synth.CAMERA_HEIGHT + 0.1, 1.0]]))
        with pytest.raises(InvalidViewpoint):
            render_one(scene, (0.0, 0.0, 0.0), K_default, size=(24, 32))

    def test_disparity_positive_and_plausible(self, noon_frame, K_default):
        d = noon_frame.disparity
        assert (d > 0).all()
        # ground plane disparity: fu * b / camera_height
        assert abs(d.min() - K_default.fu * K_default.b / 2.0) < 1e-9
        assert d.max() < K_default.fu * K_default.b / 1.0  # blocks below half height


YAWS = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
                 st.floats(-4.0, 4.0))


def _same_bits(*pairs) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in pairs)


class TestRendererMatchesOracle:
    """The one-cast renderer and the one-pass corner hash are the per-camera
    renderer and per-corner hash they replaced, bit for bit. With the yaws
    drawn here, an odd size puts a ray with a zero x or y direction
    component on the centre row or column, so the slab test divides by
    zero."""

    @settings(max_examples=120)
    @given(st.integers(0, 2**31 - 1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), YAWS,
           st.integers(1, 9), st.integers(1, 11), st.sampled_from(sorted(CONDITIONS)),
           st.integers(0, 1000))
    # the centre ray's direction is (-0.0, -0.0) before the +0.0 of the axis sum
    @example(3, -0.0, -0.0, -2.0, 3, 3, "identity", 0)
    # a subnormal direction component overflows the slab test's divide to inf
    @example(0, 0.0, -0.5, 1.1125369292536007e-308, 1, 2, "afternoon", 0)
    def test_frames_are_the_reference_frames(self, seed, x, y, yaw, h, w, cond, noise_seed):
        scene = generate_scene(seed)
        K = synth.default_intrinsics(w, h)
        pose = (x, y, yaw)
        frame = render_one(scene, pose, K, CONDITIONS[cond], (h, w), noise_seed)
        us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        uv = np.stack([us.ravel(), vs.ravel()], axis=1)
        left, right = (oracles.cast_rays(scene, pose, K, uv, right=side) for side in (False, True))
        rng = np.random.default_rng([noise_seed, 2])
        assert _same_bits(
            (frame.left, synth.apply_photometrics(left[0].reshape(h, w), CONDITIONS[cond], rng)),
            (frame.right, synth.apply_photometrics(right[0].reshape(h, w), CONDITIONS[cond], rng)),
            (frame.disparity, (K.fu * K.b / left[1]).reshape(h, w)),
        )
        assert _same_bits(*zip(cast_rays(scene, pose, K, uv), left[:2]))
        assert _same_bits(*zip(cast_rays(scene, pose, K, uv, right=True), right[:2]))

    @settings(max_examples=60)
    @given(st.integers(-2**31, 2**31 - 1),
           st.lists(st.tuples(st.floats(-1e15, 1e15), st.floats(-1e15, 1e15)),
                    min_size=1, max_size=40),
           st.integers(-2**40, 2**40))
    def test_texture_is_the_reference_texture(self, seed, points, lattice):
        """Negative and large lattice indices wrap around in uint64."""
        x, y = np.array(points).T
        scene = Scene(seed, np.zeros((0, 6)))  # a negative seed too
        for xs, ys in ((x, y), (x / 1e14, y / 1e14), (x / 1e14 + lattice, y / 1e14 - lattice)):
            assert texture(scene, xs, ys).tobytes() == oracles.texture(scene, xs, ys).tobytes()

    def test_texture_on_a_dense_patch_is_the_reference_texture(self):
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-50, 50, (2, 20000))
        for seed in (0, 3, 7):
            scene = generate_scene(seed)
            assert texture(scene, x, y).tobytes() == oracles.texture(scene, x, y).tobytes()


class TestMultiPoseCasts:
    """A pose stack renders, in passes of at most `RAY_BUDGET` rays, the
    frames its poses render one at a time, bit for bit; `make_dataset`
    writes the bytes of the per-frame loop it replaced."""

    SIZES = [(24, 32), (48, 64), (1, 64), (48, 1)]

    @staticmethod
    def per_pass(size) -> int:
        return max(1, synth.RAY_BUDGET // (2 * size[0] * size[1]))

    @pytest.mark.parametrize("stack", ["one", "one pass", "past a pass"])
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_a_stack_renders_the_per_pose_frames(self, size, stack):
        h, w = size
        n = {"one": 1, "one pass": self.per_pass(size),
             "past a pass": self.per_pass(size) + 1}[stack]
        rng = np.random.default_rng([h, w, n])
        # an odd axis puts rays with a zero direction component in the stack
        poses = np.column_stack([rng.uniform(-0.5, 0.5, n), rng.uniform(-0.35, 0.35, n),
                                 rng.choice([-2.0, -0.0, 0.3, math.pi], n)])
        conditions = [CONDITIONS[c] for c in rng.choice(sorted(CONDITIONS), n)]
        seeds = rng.integers(0, 2**31, n).tolist()
        scene = generate_scene(4)
        K = synth.default_intrinsics(w, h)
        frames = render_stereo(scene, poses, K, conditions, size, seeds)
        assert len(frames) == n
        for frame, pose, photo, seed in zip(frames, poses, conditions, seeds):
            ref = render_one(scene, pose, K, photo, size, seed)
            assert _same_bits((frame.left, ref.left), (frame.right, ref.right),
                              (frame.disparity, ref.disparity), (frame.pose, ref.pose))

    def test_a_stack_needs_a_condition_and_a_seed_per_pose(self, scene, K_default):
        poses = path_poses(3)
        with pytest.raises(ValueError, match="one condition and one noise seed per pose"):
            render_stereo(scene, poses, K_default, [CONDITIONS["noon"]] * 2, (48, 64), [1, 2, 3])

    @pytest.mark.parametrize("size", SIZES + [(96, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_no_pass_casts_more_rays_than_the_budget(self, monkeypatch, tmp_path, size):
        """Counted at `_nearest_hits`, every ray once; a frame larger than
        the budget is a pass of its own."""
        hits, passes = synth._nearest_hits, []

        def counted(scene, ox, oy, dx, dy):
            passes.append(math.prod(np.broadcast_shapes(np.shape(ox), np.shape(dx))))
            return hits(scene, ox, oy, dx, dy)

        monkeypatch.setattr(synth, "_nearest_hits", counted)
        h, w = size
        rays = 2 * h * w
        scene = generate_scene(4)
        K = synth.default_intrinsics(w, h)
        n = 2 * self.per_pass(size) + 1
        render_stereo(scene, path_poses(n), K, [CONDITIONS["noon"]] * n, size, list(range(n)))
        make_dataset(tmp_path / "ds", scene, count=n, seed=3, size=size)
        assert sum(passes) == 3 * n * rays
        assert max(passes) == max(rays, synth.RAY_BUDGET // rays * rays)
        assert all(p <= max(rays, synth.RAY_BUDGET) for p in passes)

    @pytest.mark.parametrize("size, count", [((24, 32), 5), ((48, 64), 3), ((1, 64), 30)],
                             ids=["24x32", "48x64", "1x64"])
    def test_make_dataset_is_the_per_frame_oracle(self, tmp_path, size, count):
        scene = generate_scene(4)
        made = make_dataset(tmp_path / "made", scene, count=count, seed=12, size=size)
        ref = oracles.make_dataset(tmp_path / "ref", scene, count=count, seed=12, size=size)
        assert sorted(p.name for p in made.iterdir()) == sorted(p.name for p in ref.iterdir())
        for f in ref.iterdir():
            assert (made / f.name).read_bytes() == f.read_bytes(), f.name


class TestOnePixelFrames:
    @pytest.mark.parametrize("size", [(1, 64), (48, 1), (1, 1)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_every_condition_renders_finite_frames(self, scene, condition, size):
        h, w = size
        K = synth.default_intrinsics(w, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            frame = render_one(scene, (0.1, 0.0, 0.2), K, CONDITIONS[condition], size)
        for img in (frame.left, frame.right, frame.disparity):
            assert img.shape == size and np.isfinite(img).all()


class TestBlockMatching:
    def test_identical_pair_gives_zero_disparity(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(32, 40))
        d, valid = block_match_everywhere(img, img.copy())
        assert valid.any()
        assert np.array_equal(d[valid], np.zeros(valid.sum()))

    def test_median_error_within_one_pixel_on_rendered_pair(self, scene, K_default):
        frame = render_one(scene, (0.1, 0.05, 0.1), K_default, CONDITIONS["identity"], (48, 64))
        est, valid = block_match_everywhere(frame.left, frame.right)
        err = np.abs(est[valid] - frame.disparity[valid])
        assert np.median(err) <= 1.0

    def test_textureless_region_invalid_not_zero(self):
        flat = np.full((24, 32), 0.5)
        rng = np.random.default_rng(3)
        flat[:, 20:] = rng.uniform(size=(24, 12))
        d, valid = block_match_everywhere(flat, flat.copy())
        assert not valid[8:16, 4:14].any()


def _textureless_pair():
    flat = np.full((24, 32), 0.5)
    flat[:, 20:] = np.random.default_rng(3).uniform(size=(24, 12))
    return flat, flat.copy()


def _identical_random_pair():
    img = np.random.default_rng(2).uniform(size=(32, 40))
    return img, img.copy()


class TestBlockMatchPointQuery:
    """The point-query matcher, asked at every pixel, is the dense SAD
    matcher it replaced, bit for bit; a bad or tiny frame is data."""

    @pytest.fixture(scope="class")
    def day_frames(self, scene, K_default):
        poses = path_poses(4)
        frames = []
        for i, cond in enumerate(DAY_SCHEDULE):
            frames += render_sequence(scene, poses, cond, K_default, (48, 64), seed=70 + i)
        return frames

    def assert_matches_reference(self, left, right):
        d_ref, valid_ref = block_match_reference(left, right)
        d, valid = block_match_everywhere(left, right)
        assert d.tobytes() == d_ref.tobytes()
        assert valid.tobytes() == valid_ref.tobytes()
        return valid_ref

    def test_bitwise_equal_to_dense_on_every_day_condition(self, day_frames):
        valid = [self.assert_matches_reference(f.left, f.right) for f in day_frames]
        assert sum(int(v.sum()) for v in valid) > 0.5 * sum(v.size for v in valid)

    def test_bitwise_equal_to_dense_on_float32_round_trips(self, day_frames):
        f32 = lambda a: np.asarray(a, dtype="<f4").astype(float)  # noqa: E731
        for f in day_frames[::4]:
            self.assert_matches_reference(f32(f.left), f32(f.right))

    @pytest.mark.parametrize("pair", [_identical_random_pair, _textureless_pair])
    def test_bitwise_equal_to_dense_on_synthetic_pairs(self, pair):
        self.assert_matches_reference(*pair())

    def test_a_query_reads_only_its_own_pixels(self, day_frames):
        f = day_frames[0]
        d_all, valid_all = block_match_everywhere(f.left, f.right)
        rng = np.random.default_rng(5)
        u, v = rng.integers(0, 64, size=48), rng.integers(0, 48, size=48)
        d, valid = synth.block_match_disparity(f.left, f.right, u, v)
        assert d.tobytes() == d_all[v, u].tobytes()
        assert valid.tobytes() == valid_all[v, u].tobytes()
        d, valid = synth.block_match_disparity(f.left, f.right, u[:0], v[:0])
        assert d.shape == valid.shape == (0,)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 40), (40, 3), (4, 4)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_image_smaller_than_the_window_is_all_invalid(self, shape):
        img = np.random.default_rng(6).uniform(size=shape)
        d, valid = block_match_everywhere(img, np.roll(img, 1, axis=1))
        assert d.shape == valid.shape == shape
        assert not valid.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_left_patch_invalidates_only_its_windows(self, noon_frame, bad):
        f = noon_frame
        d_clean, valid_clean = block_match_everywhere(f.left, f.right)
        left = f.left.copy()
        left[20:22, 30:33] = bad
        d, valid = block_match_everywhere(left, f.right)
        touched = np.zeros(left.shape, dtype=bool)
        touched[18:24, 28:35] = True  # windows (5x5) holding a bad pixel
        assert not valid[touched].any()
        assert d[~touched].tobytes() == d_clean[~touched].tobytes()
        assert valid[~touched].tobytes() == valid_clean[~touched].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_right_patch_never_wins(self, noon_frame, bad):
        f = noon_frame
        d_clean, valid_clean = block_match_everywhere(f.left, f.right)
        right = f.right.copy()
        right[20, 30] = bad
        d, valid = block_match_everywhere(f.left, right)
        vs, us = np.mgrid[0:48, 0:64]
        # pixel (v, u) can see the bad pixel through a candidate disparity
        # in 0..16 when its right windows span columns u-18 .. u+2
        reach = (np.abs(vs - 20) <= 2) & (us - 30 >= -2) & (us - 30 <= 18)
        assert d[~reach].tobytes() == d_clean[~reach].tobytes()
        assert valid[~reach].tobytes() == valid_clean[~reach].tobytes()
        chosen_sees_it = (np.abs(vs - 20) <= 2) & (np.abs(us - d - 30) <= 2)
        assert not (valid & chosen_sees_it).any()
        assert valid[reach].any()


class TestDatasets:
    def test_make_dataset_deterministic_bytes(self, scene, tmp_path):
        a = make_dataset(tmp_path / "a", scene, count=3, seed=5, size=(24, 32))
        b = make_dataset(tmp_path / "b", scene, count=3, seed=5, size=(24, 32))
        for f in sorted(a.glob("*")):
            assert f.read_bytes() == (b / f.name).read_bytes(), f.name

    def test_roundtrip_bitwise(self, scene, tmp_path):
        made = make_dataset(tmp_path / "ds", scene, count=2, seed=6, size=(24, 32))
        samples, manifest = load_dataset(made)
        assert len(samples) == 2
        # re-encoding what was loaded reproduces the stored bytes
        from stereoloc.synth import frame_blob

        for entry, sample in zip(manifest["samples"], samples):
            blob = np.concatenate([frame_blob(sample.source), frame_blob(sample.target)])
            assert blob.astype("<f4").tobytes() == (made / entry["file"]).read_bytes()

    def test_poses_respect_motion_bounds(self, scene, tmp_path):
        bounds = synth.MOTION_BOUNDS
        made = make_dataset(tmp_path / "ds", scene, count=20, seed=7, size=(24, 32))
        samples, manifest = load_dataset(made)
        assert manifest["motion_bounds"] == bounds
        for s in samples:
            assert abs(s.gt.alpha) <= bounds["alpha"]
            assert abs(s.gt.beta) <= bounds["beta"]
            assert abs(s.gt.gamma) <= bounds["gamma"]

    def test_relative_pose_consistent_with_world_poses(self, scene, tmp_path):
        made = make_dataset(tmp_path / "ds", scene, count=5, seed=8, size=(24, 32))
        samples, manifest = load_dataset(made)
        for s, entry in zip(samples, manifest["samples"]):
            back = relative_planar(entry["src_pose"], entry["tgt_pose"])
            assert abs(back.alpha - s.gt.alpha) < 1e-9
            assert abs(back.beta - s.gt.beta) < 1e-9
            assert abs(wrap_angle(back.gamma - s.gt.gamma)) < 1e-9

    def test_conditions_drawn_from_schedule(self, scene, tmp_path):
        made = make_dataset(tmp_path / "ds", scene, count=30, seed=9, size=(24, 32))
        _, manifest = load_dataset(made)
        for e in manifest["samples"]:
            assert e["src_condition"] in DAY_SCHEDULE
            assert e["tgt_condition"] in DAY_SCHEDULE

    def test_count_validation(self, scene, tmp_path):
        with pytest.raises(ValueError):
            make_dataset(tmp_path / "x", scene, count=0, seed=1)

class TestSequenceCasts:
    """render_sequence casts a pose sequence once per scene and photographs
    it under each condition; every frame is render_stereo's, bit for bit."""

    size = (12, 16)

    @pytest.fixture
    def casts(self, monkeypatch):
        """The poses of every cast render_sequence makes, in order: each
        pose of a stack counts as one cast."""
        cast, seen = synth._cast, []

        def counted(scene, poses, K, size):
            seen.extend(np.array(poses, float))
            return cast(scene, poses, K, size)

        monkeypatch.setattr(synth, "_cast", counted)
        return seen

    def assert_per_frame(self, frames, scene, poses, condition, K, size, seed):
        assert len(frames) == len(poses)
        for i, (frame, pose) in enumerate(zip(frames, poses)):
            ref = render_one(scene, pose, K, CONDITIONS[condition], size, seed * 100003 + i)
            assert _same_bits((frame.left, ref.left), (frame.right, ref.right),
                              (frame.disparity, ref.disparity), (frame.pose, ref.pose))

    def test_day_schedule_is_render_stereo_per_frame(self, casts):
        scene = generate_scene(5)
        K = synth.default_intrinsics(64, 48)
        poses = offset_poses(path_poses(3), seed=2)[0]
        day = [render_sequence(scene, poses, cond, K, (48, 64), seed=40 + i)
               for i, cond in enumerate(DAY_SCHEDULE)]
        assert len(casts) == 3  # one per pose, for the whole day
        for i, (cond, frames) in enumerate(zip(DAY_SCHEDULE, day)):
            self.assert_per_frame(frames, scene, poses, cond, K, (48, 64), 40 + i)

    def test_same_key_only_photographs(self, casts):
        scene = generate_scene(5)
        K = synth.default_intrinsics(16, 12)
        poses = path_poses(3)
        render_sequence(scene, poses, "noon", K, self.size, seed=1)
        # an equal copy, as a list, is the same key; seed and condition are not in it
        frames = render_sequence(scene, poses.tolist(), "dusk", K, list(self.size), seed=2)
        assert len(casts) == 3
        self.assert_per_frame(frames, scene, poses, "dusk", K, self.size, 2)

    @pytest.mark.parametrize("change", ["pose value", "mutated in place", "K", "size", "scene"])
    def test_a_changed_key_casts_again(self, casts, change):
        scene = generate_scene(5)
        K = synth.default_intrinsics(16, 12)
        poses = path_poses(3)
        size = self.size
        render_sequence(scene, poses, "noon", K, size, seed=1)
        if change == "pose value":
            poses = poses.copy()
            poses[1, 2] += 1e-3
        elif change == "mutated in place":
            poses[1, 0] = np.nextafter(poses[1, 0], 1.0)
        elif change == "K":
            K = synth.default_intrinsics(16, 13)
        elif change == "size":
            size = (12, 15)
        else:
            scene = generate_scene(5)
        frames = render_sequence(scene, poses, "noon", K, size, seed=1)
        assert len(casts) == 6
        self.assert_per_frame(frames, scene, poses, "noon", K, size, 1)

    def test_frames_share_no_memory(self):
        scene = generate_scene(5)
        K = synth.default_intrinsics(16, 12)
        poses = path_poses(2)
        first = render_sequence(scene, poses, "identity", K, self.size, seed=1)
        second = render_sequence(scene, poses, "identity", K, self.size, seed=1)
        slot = [a for cast in scene._casts[1] for a in (*cast[0], cast[1])]
        arrays = [a for f in first + second for a in (f.left, f.right, f.disparity, f.pose)]
        assert not any(np.shares_memory(a, b) for a in arrays for b in slot + [poses])
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_mutating_a_frame_leaves_later_renders_unchanged(self):
        scene = generate_scene(5)
        K = synth.default_intrinsics(16, 12)
        poses = path_poses(2)
        before = render_sequence(scene, poses, "noon", K, self.size, seed=1)
        for frame in before:
            for a in (frame.left, frame.right, frame.disparity, frame.pose):
                a[...] = np.nan
        after = render_sequence(scene, poses, "noon", K, self.size, seed=1)
        self.assert_per_frame(after, scene, poses, "noon", K, self.size, 1)


class TestSequences:
    def test_sequence_roundtrip(self, scene, K_default, tmp_path):
        poses = path_poses(4)
        frames = render_sequence(scene, poses, "noon", K_default, (48, 64), seed=1)
        save_sequence(tmp_path / "seq", frames, K_default, "noon", seed=1)
        loaded, manifest = load_sequence(tmp_path / "seq")
        assert len(loaded) == 4
        assert manifest["condition"] == "noon"
        for orig, back in zip(frames, loaded):
            assert np.array_equal(back.left, orig.left.astype(np.float32))
            assert np.allclose(back.pose, orig.pose, atol=0)

    def test_offset_poses_within_bounds(self):
        poses = path_poses(10)
        live, offs = offset_poses(poses, seed=3)
        alpha, beta, gamma = synth.OFFSET_BOUNDS
        assert live.shape == poses.shape
        for pose, off, vert in zip(live, offs, poses):
            assert abs(off.alpha) <= alpha
            assert abs(off.beta) <= beta
            assert abs(off.gamma) <= gamma
            back = relative_planar(pose, vert)
            assert abs(back.alpha - off.alpha) < 1e-9
            assert abs(back.beta - off.beta) < 1e-9

    def test_named_conditions_match_documented_settings(self):
        assert CONDITIONS["night"].gain == 0.15
        assert CONDITIONS["night"].sigma == 0.05
        assert CONDITIONS["night"].vignette == 0.6
        assert CONDITIONS["noon"].gain == 1.0
        assert CONDITIONS["noon"].sigma == 0.01
        assert len(DAY_SCHEDULE) == 8

    def test_photometric_validation(self):
        with pytest.raises(ValueError):
            PhotometricParams(gain=0.0)
        with pytest.raises(ValueError):
            PhotometricParams(sigma=-0.1)
