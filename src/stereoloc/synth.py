"""Synthetic stereo scenes, sequences, and datasets with exact ground truth.

The world is a textured ground plane (procedural value noise, evaluable at
any real coordinate) with a few raised blocks. A nadir stereo camera with
planar pose (x, y, yaw) ray-casts both views, which yields per-pixel true
disparity for free. Relative motions are exactly planar, so every sample's
ground-truth pose is representable as (alpha, beta, gamma) in the camera
frame. Photometric conditions (gain, bias, gamma, vignette, noise) are
applied after geometry, emulating a day's lighting sweep. A render is a
cast (the clean intensities of both cameras and the disparity) and then a
photograph; a stack of poses is cast in passes of up to `RAY_BUDGET` rays,
several poses per pass, and every frame is bit for bit the one its pose
renders alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import storage
from .errors import InvalidViewpoint
from .geometry import CameraIntrinsics, PlanarPose, wrap_angle

# ---------------------------------------------------------------------------
# photometric conditions


@dataclass(frozen=True)
class PhotometricParams:
    gain: float = 1.0
    bias: float = 0.0
    gamma: float = 1.0
    vignette: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.gain <= 0 or self.gamma <= 0 or self.sigma < 0:
            raise ValueError("need gain > 0, gamma > 0, sigma >= 0")


# Named conditions emulating an hourly lighting sweep, mildest to harshest.
CONDITIONS: dict[str, PhotometricParams] = {
    "identity": PhotometricParams(),
    "dawn": PhotometricParams(gain=0.4, bias=0.02, gamma=1.1, vignette=0.4, sigma=0.03),
    "morning": PhotometricParams(gain=0.8, bias=0.02, gamma=1.05, vignette=0.15, sigma=0.015),
    "noon": PhotometricParams(gain=1.0, bias=0.0, gamma=1.0, vignette=0.0, sigma=0.01),
    "afternoon": PhotometricParams(gain=0.9, bias=0.01, gamma=0.95, vignette=0.1, sigma=0.012),
    "dusk": PhotometricParams(gain=0.5, bias=0.03, gamma=0.9, vignette=0.3, sigma=0.025),
    "evening": PhotometricParams(gain=0.25, bias=0.01, gamma=1.0, vignette=0.5, sigma=0.04),
    "night": PhotometricParams(gain=0.15, bias=0.0, gamma=1.0, vignette=0.6, sigma=0.05),
    "midnight": PhotometricParams(gain=0.12, bias=0.0, gamma=1.0, vignette=0.65, sigma=0.055),
}

# The 8-condition day sweep (excludes the diagnostic "identity" entry).
DAY_SCHEDULE = (
    "dawn", "morning", "noon", "afternoon", "dusk", "evening", "night", "midnight",
)


# ---------------------------------------------------------------------------
# scene


# The rig flies at CAMERA_HEIGHT above the ground plane, whose albedo is
# value noise of TEXTURE_OCTAVES octaves, the first at TEXTURE_FREQ.
CAMERA_HEIGHT = 2.0
TEXTURE_OCTAVES, TEXTURE_FREQ, TEXTURE_CONTRAST = 4, 3.0, 1.6


@dataclass(frozen=True)
class Scene:
    seed: int
    blocks: np.ndarray  # (k, 6): x0, x1, y0, y1, height, albedo
    # render_sequence's slot: the key and casts of the last sequence it rendered
    _casts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)


def generate_scene(seed: int) -> Scene:
    """Five blocks, centered within +-0.8 in x and +-0.7 * 0.8 in y, with
    sides in [0.15, 0.45] and heights in [0.1, 0.4], below the camera."""
    rng = np.random.default_rng([int(seed), 1])
    blocks = []
    for _ in range(5):
        cx = rng.uniform(-0.8, 0.8)
        cy = rng.uniform(-0.7 * 0.8, 0.7 * 0.8)
        sx = rng.uniform(0.15, 0.45)
        sy = rng.uniform(0.15, 0.45)
        h = rng.uniform(0.1, 0.4)
        albedo = rng.uniform(0.6, 1.3)
        blocks.append([cx - sx / 2, cx + sx / 2, cy - sy / 2, cy + sy / 2, h, albedo])
    return Scene(int(seed), np.array(blocks))


_HASH_X = np.uint64(0x9E3779B97F4A7C15)
_HASH_Y = np.uint64(0xBF58476D1CE4E5B9)
_HASH_MIX = np.uint64(0xD6E8FEB86659FD93)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _value_noise(fx: np.ndarray, fy: np.ndarray, salt: int) -> np.ndarray:
    """Value noise at lattice coordinates (fx, fy), in units of 2**-53.

    The corners (ix + i, iy + j) of each lattice cell hash to integers in
    [0, 2**53) in one (2, 2, ...) uint64 pass; each axis takes one multiply,
    since (ix + 1) * M is ix * M + M modulo 2**64. Perlin's quintic fade
    blends them.
    """
    ix = np.floor(fx).astype(np.int64)
    iy = np.floor(fy).astype(np.int64)
    tx = _smoothstep(fx - ix)
    ty = _smoothstep(fy - iy)
    hx = ix.astype(np.uint64) * _HASH_X
    hy = iy.astype(np.uint64) * _HASH_Y
    h = np.stack([hy, hy + _HASH_Y])[:, None] ^ np.stack([hx, hx + _HASH_X])
    h ^= np.uint64((int(salt) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(31)
    h *= _HASH_MIX
    h ^= h >> np.uint64(32)
    h >>= np.uint64(11)
    rows = h[:, 0] * (1 - tx) + h[:, 1] * tx
    return rows[0] * (1 - ty) + rows[1] * ty


def texture(scene: Scene, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Procedural albedo in (0, 1), defined on the whole plane."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(x)
    amp_sum = 0.0
    for o in range(TEXTURE_OCTAVES):
        freq = TEXTURE_FREQ * (2.0**o)
        amp = 0.5**o
        noise = _value_noise(x * freq, y * freq, scene.seed * 1000003 + o * 7919)
        # 2**-53 and amp are powers of two: scaling after the blend rounds
        # exactly as scaling each corner value before it
        total += noise * (amp * 2.0**-53)
        amp_sum += amp
    norm = total / amp_sum
    return np.clip(0.5 + TEXTURE_CONTRAST * (norm - 0.5), 0.02, 0.98)


# ---------------------------------------------------------------------------
# camera motion helpers (nadir rig, planar world poses (x, y, yaw))


def _cam_axes(yaw: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, s = math.cos(yaw), math.sin(yaw)
    return (
        np.array([c, s, 0.0]),
        np.array([s, -c, 0.0]),
        np.array([0.0, 0.0, -1.0]),
    )


def relative_planar(source_pose, target_pose) -> PlanarPose:
    """Camera-frame relative pose mapping source-frame points into the
    target frame, for two planar world poses (x, y, yaw)."""
    sx, sy, syaw = source_pose
    tx, ty, tyaw = target_pose
    dx, dy = sx - tx, sy - ty
    c, s = math.cos(tyaw), math.sin(tyaw)
    return PlanarPose(c * dx + s * dy, s * dx - c * dy, wrap_angle(tyaw - syaw))


def solve_target_pose(source_pose, pp: PlanarPose) -> np.ndarray:
    """World pose of the target camera given the source pose and the desired
    camera-frame relative pose."""
    sx, sy, syaw = source_pose
    tyaw = wrap_angle(syaw + pp.gamma)
    x_c, y_c, _ = _cam_axes(tyaw)
    shift = pp.alpha * x_c + pp.beta * y_c
    return np.array([sx - shift[0], sy - shift[1], tyaw])


def solve_source_pose(target_pose, pp: PlanarPose) -> np.ndarray:
    """World pose of the source camera given the target pose and the desired
    camera-frame relative pose."""
    tx, ty, tyaw = target_pose
    x_c, y_c, _ = _cam_axes(tyaw)
    shift = pp.alpha * x_c + pp.beta * y_c
    return np.array([tx + shift[0], ty + shift[1], wrap_angle(tyaw - pp.gamma)])


def default_intrinsics(width: int, height: int) -> CameraIntrinsics:
    f = 0.9375 * width
    return CameraIntrinsics(fu=f, fv=f, cu=(width - 1) / 2, cv=(height - 1) / 2, b=0.3)


# ---------------------------------------------------------------------------
# rendering


@dataclass
class StereoFrame:
    """Rectified pair plus ground-truth disparity and (optional) world pose."""

    left: np.ndarray
    right: np.ndarray
    disparity: np.ndarray | None = None
    pose: np.ndarray | None = None  # world (x, y, yaw)


def _nearest_hits(scene: Scene, ox, oy, dx, dy) -> tuple[np.ndarray, np.ndarray]:
    """Depth and albedo of the nearest surface along downward rays from
    (ox, oy, CAMERA_HEIGHT) with direction (dx, dy, -1): the ground plane
    z = 0, or a block top found by the slab test."""
    t_best = np.full(np.broadcast_shapes(np.shape(ox), np.shape(dx)), CAMERA_HEIGHT)
    albedo = np.ones_like(t_best)
    with np.errstate(divide="ignore", invalid="ignore"):
        for x0, x1, y0, y1, bh, alb in scene.blocks:
            tx1 = (x0 - ox) / dx
            tx2 = (x1 - ox) / dx
            ty1 = (y0 - oy) / dy
            ty2 = (y1 - oy) / dy
            # the top plane is at CAMERA_HEIGHT - bh > 0, and a t_near past the
            # ground fails t_near < t_best
            t_near = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
            t_near = np.maximum(t_near, CAMERA_HEIGHT - bh)
            t_far = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
            hit = (t_near <= t_far) & (t_near < t_best)
            np.copyto(t_best, t_near, where=hit)
            np.copyto(albedo, alb, where=hit)
    return t_best, albedo


def cast_rays(
    scene: Scene,
    pose,
    K: CameraIntrinsics,
    uv: np.ndarray,
    right: bool | np.ndarray = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersect pixel rays with the scene.

    Returns (intensity, depth). `uv` is (..., 2) sub-pixel image
    coordinates; depth is camera-frame z. The right camera sits one baseline
    along the camera x-axis. `pose` is one world pose (x, y, yaw) or a
    (..., 3) stack of them; its leading axes, like `right`, broadcast
    against uv's, so one call casts the rays of both cameras of several
    poses. Each ray's arithmetic is the same whatever it is cast with.
    """
    pose = np.asarray(pose, dtype=float)
    x, y, yaw = pose[..., 0], pose[..., 1], pose[..., 2]
    if scene.blocks.size and CAMERA_HEIGHT <= scene.blocks[:, 4].max():
        raise InvalidViewpoint("camera at or below the tallest block")
    # x_c = (c, s, 0), y_c = (s, -c, 0), with math's cos and sin per pose
    c = np.reshape([math.cos(t) for t in yaw.flat], yaw.shape)
    s = np.reshape([math.sin(t) for t in yaw.flat], yaw.shape)
    uv = np.asarray(uv, dtype=float)
    du = (uv[..., 0] - K.cu) / K.fu
    dv = (uv[..., 1] - K.cv) / K.fv
    # direction du x_c + dv y_c + z_c; adding 0.0 makes a zero component
    # +0.0, as the sum over the three axes does
    dx = du * c + dv * s + 0.0
    dy = du * s + dv * -c + 0.0
    ox = np.where(right, x + K.b * c, x)
    oy = np.where(right, y + K.b * s, y)
    t_best, albedo = _nearest_hits(scene, ox, oy, dx, dy)
    return texture(scene, ox + t_best * dx, oy + t_best * dy) * albedo, t_best


def apply_photometrics(
    img: np.ndarray, photo: PhotometricParams, rng: np.random.Generator
) -> np.ndarray:
    """Sensor model applied after geometry to an (..., H, W) stack of
    images: response curve, gain, vignette, bias, then additive noise, one
    standard-normal draw of the stack's shape."""
    h, w = img.shape[-2:]
    out = np.clip(img, 0.0, None)
    np.power(out, photo.gamma, out=out)
    if photo.vignette > 0.0:
        # normalized coordinates in [-1, 1]; a 1-px axis sits at 0
        vu = (np.arange(w) - (w - 1) / 2) / ((w - 1) / 2 or 1.0)
        vv = (np.arange(h) - (h - 1) / 2) / ((h - 1) / 2 or 1.0)
        rho2 = (vu[None, :] ** 2 + vv[:, None] ** 2) / 2.0
        out *= 1.0 - photo.vignette * rho2
    out *= photo.gain
    out += photo.bias
    if photo.sigma > 0.0:
        noise = rng.standard_normal(img.shape)
        noise *= photo.sigma
        out += noise
    return out


# A cast pass holds at most this many rays, those of one 64x48 frame's two
# cameras, and one pose at least.
RAY_BUDGET = 2 * 64 * 48


def _cast(scene: Scene, poses: np.ndarray, K: CameraIntrinsics, size: tuple[int, int]):
    """A (P, 3) pose stack's casts, one (intensities, disparity) tuple per
    pose: the clean (2, H, W) intensities of the left and right cameras
    and the (H, W) true disparity, everything of a frame but its
    photometrics. Poses are cast in passes of at most RAY_BUDGET rays."""
    h, w = size
    us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    uv = np.stack([us, vs], axis=-1)
    sides = np.array([False, True])[:, None, None]  # left, then right
    step = max(1, RAY_BUDGET // (2 * h * w))
    casts = []
    for i in range(0, len(poses), step):
        # (p, 1, 1, 1, 3) poses against (2, H, W) rays: (p, 2, H, W) casts
        intensity, depth = cast_rays(scene, poses[i : i + step, None, None, None], K, uv,
                                     right=sides)
        casts += zip(intensity, K.fu * K.b / depth[:, 0])
    return casts


def _photograph(cast, pose, photo: PhotometricParams, noise_seed: int) -> StereoFrame:
    """A frame from a cast, under `photo`, noise seeded by `noise_seed`. The
    frame shares no memory with the cast or the pose."""
    intensity, disparity = cast
    rng = np.random.default_rng([int(noise_seed), 2])
    left, right = apply_photometrics(intensity, photo, rng)
    return StereoFrame(left, right, disparity.copy(), np.array(pose, float))


def render_stereo(
    scene: Scene,
    pose,
    K: CameraIntrinsics,
    photo: PhotometricParams | list[PhotometricParams] = CONDITIONS["identity"],
    size: tuple[int, int] = (48, 64),
    noise_seed: int | list[int] = 0,
) -> StereoFrame | list[StereoFrame]:
    """Render a rectified pair with per-pixel true disparity.

    Photometrics never touch geometry: the disparity map is identical across
    conditions. Noise is seeded, so identical arguments render identical
    frames. A (P, 3) pose stack, with P conditions in `photo` and P seeds in
    `noise_seed`, renders the list of P frames that rendering each pose
    alone gives, bit for bit, casting the poses in passes (`_cast`).
    """
    poses = np.asarray(pose, dtype=float)
    if poses.ndim == 1:
        return _photograph(_cast(scene, poses[None], K, size)[0], poses, photo, noise_seed)
    if not len(poses) == len(photo) == len(noise_seed):
        raise ValueError("need one condition and one noise seed per pose")
    return [_photograph(cast, p, ph, seed)
            for cast, p, ph, seed in zip(_cast(scene, poses, K, size), poses, photo, noise_seed)]


# ---------------------------------------------------------------------------
# block-matching fallback for disparity


def block_match_disparity(
    left: np.ndarray,
    right: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    window: int = 5,
    max_disparity: int = 16,
    variance_floor: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Integer-disparity SAD block matching on a rectified pair, evaluated
    only at the integer pixels (u[i], v[i]), which must lie in the image.

    Returns (disparity, valid) per pixel. A pixel is invalid where its window
    leaves the image or holds a non-finite value, or where the window's
    texture variance is below the floor. A candidate disparity whose right
    window leaves the image or holds a non-finite value never wins; ties go
    to the smallest disparity.
    """
    k, dmax = window, max_disparity
    half = k // 2

    def padded(img):  # a NaN border: off-image reads like a bad pixel
        h, w = np.shape(img)
        out = np.full((h + 2 * half, w + 2 * half + dmax), np.nan)
        out[half : half + h, half + dmax : half + dmax + w] = img
        return out

    u = np.asarray(u, dtype=int)
    v = np.asarray(v, dtype=int)
    patch = sliding_window_view(padded(left), (k, k))[v, u + dmax]  # (N, k, k)
    band = sliding_window_view(padded(right), (k, k + dmax))[v, u]  # (N, k, k + D)
    # candidate j holds the right window shifted by disparity D - j
    candidates = sliding_window_view(band, dmax + 1, axis=2)  # (N, k, k, D + 1)
    with np.errstate(invalid="ignore"):  # inf - inf is a bad window
        cost = np.abs(candidates - patch[..., None]).sum(axis=(1, 2))[:, ::-1]
        mu = patch.sum(axis=(1, 2)) / (k * k)
        var = (patch * patch).sum(axis=(1, 2)) / (k * k) - mu * mu
    cost[np.isnan(cost)] = np.inf
    disparity = np.argmin(cost, axis=1)
    valid = np.isfinite(cost[np.arange(len(disparity)), disparity]) & (var > variance_floor)
    return disparity.astype(float), valid


# ---------------------------------------------------------------------------
# paths and sequences


# Bounds of the uniform draws, as (alpha, beta, gamma) in the camera frame:
# a training pair's relative motion (written to its manifest), and a live
# pose's offset from its vertex.
MOTION_BOUNDS = {"alpha": 0.5, "beta": 0.2, "gamma": math.radians(10.0)}
OFFSET_BOUNDS = (0.05, 0.05, math.radians(2.0))
# Training sources are placed uniformly within +-these in world x and y.
SOURCE_EXTENT = (0.5, 0.35)


def path_poses(n: int) -> np.ndarray:
    """A gentle deterministic S-curve across the scene: (n, 3) world poses,
    x across +-0.55 and y swaying within +-0.125."""
    t = np.linspace(-1.0, 1.0, n)
    x = 0.55 * t
    y = 0.125 * np.sin(1.5 * np.pi * t)
    yaw = 0.25 * np.sin(2.0 * t)
    return np.stack([x, y, yaw], axis=1)


def offset_poses(poses: np.ndarray, seed: int) -> tuple[np.ndarray, list[PlanarPose]]:
    """Perturb a taught path the way a tracking robot would: each live pose
    sits at a small camera-frame offset, within OFFSET_BOUNDS, from its
    vertex."""
    rng = np.random.default_rng([int(seed), 3])
    offs = [PlanarPose(*(rng.uniform(-b, b) for b in OFFSET_BOUNDS)) for _ in poses]
    return np.stack([solve_source_pose(p, pp) for p, pp in zip(poses, offs)]), offs


def render_sequence(
    scene: Scene,
    poses: np.ndarray,
    condition: str,
    K: CameraIntrinsics,
    size: tuple[int, int],
    seed: int,
) -> list[StereoFrame]:
    """Frame i is render_stereo(..., noise_seed=seed * 100003 + i).

    The scene keeps the casts of the last sequence rendered on it, keyed by
    the poses' float64 bytes and shape, K and size, so the same path under
    another condition or seed is only photographed again. One `_cast` call
    fills the slot, in passes of `RAY_BUDGET` rays. The casts hold 3 (H, W)
    float64 planes per pose and die with the scene.
    """
    photo = CONDITIONS[condition]
    poses = np.asarray(poses, dtype=float)
    key = (poses.shape, poses.tobytes(), np.array(astuple(K), float).tobytes(), tuple(size))
    if scene._casts is None or scene._casts[0] != key:
        object.__setattr__(scene, "_casts", (key, _cast(scene, poses, K, size)))
    casts = scene._casts[1]
    return [_photograph(cast, pose, photo, seed * 100003 + i)
            for i, (cast, pose) in enumerate(zip(casts, poses))]


# ---------------------------------------------------------------------------
# dataset and sequence persistence


@dataclass
class Sample:
    source: StereoFrame
    target: StereoFrame
    gt: PlanarPose


def frame_blob(frame: StereoFrame) -> np.ndarray:
    """A frame as stored: the (3, H, W) stack of left, right and disparity."""
    return np.stack([frame.left, frame.right, frame.disparity])


# A camera is stored as `dataclasses.asdict(K)`, each value in a physical
# range: focal lengths and principal point in pixels, baseline in metres.
_SCALE, _OFFSET = storage.within(1e-3, 1e6), storage.within(-1e6, 1e6)
CAMERA_SCHEMA = {"fu": _SCALE, "fv": _SCALE, "cu": _OFFSET, "cv": _OFFSET, "b": _SCALE}


def camera_from_dict(d: dict) -> CameraIntrinsics:
    return CameraIntrinsics(d["fu"], d["fv"], d["cu"], d["cv"], d["b"])


def make_dataset(
    out_dir: str | Path,
    scene: Scene,
    count: int,
    seed: int,
    size: tuple[int, int] = (48, 64),
) -> Path:
    """Write `count` training pairs: random source placements within
    SOURCE_EXTENT, relative motions within MOTION_BOUNDS, and source and
    target conditions drawn from DAY_SCHEDULE.

    Every pose and condition is drawn first; the pairs are then rendered in
    blocks of one cast pass (one pair at least), one `render_stereo` call
    per block. Pose j of the 2 * count (pair i's source is 2i, its target
    2i + 1) takes noise seed `seed * 1000003 + j`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out_dir = Path(out_dir)
    h, w = size
    K = default_intrinsics(w, h)
    rng = np.random.default_rng([int(seed), 4])
    poses, conditions, samples = [], [], []
    for i in range(count):
        src_pose = np.array([*(rng.uniform(-e, e) for e in SOURCE_EXTENT),
                             rng.uniform(-math.pi, math.pi)])
        pp = PlanarPose(*(rng.uniform(-b, b) for b in MOTION_BOUNDS.values()))
        tgt_pose = solve_target_pose(src_pose, pp)
        src_cond, tgt_cond = (DAY_SCHEDULE[int(rng.integers(len(DAY_SCHEDULE)))]
                              for _ in range(2))
        poses += [src_pose, tgt_pose]
        conditions += [CONDITIONS[src_cond], CONDITIONS[tgt_cond]]
        samples.append({
            "file": f"sample_{i:05d}.f32",
            "pose": [pp.alpha, pp.beta, pp.gamma],
            "src_pose": src_pose.tolist(),
            "tgt_pose": tgt_pose.tolist(),
            "src_condition": src_cond,
            "tgt_condition": tgt_cond,
        })
    block = 2 * max(1, RAY_BUDGET // (4 * h * w))  # poses
    for j in range(0, 2 * count, block):
        stop = min(j + block, 2 * count)
        frames = render_stereo(scene, np.stack(poses[j:stop]), K, conditions[j:stop], size,
                               [seed * 1000003 + k for k in range(j, stop)])
        for sample, src, tgt in zip(samples[j // 2 :], frames[::2], frames[1::2]):
            storage.write_blob(out_dir / sample["file"],
                               np.stack([frame_blob(src), frame_blob(tgt)]))
    storage.write_manifest(out_dir, {
        "kind": "pairs",
        "seed": int(seed),
        "scene_seed": scene.seed,
        "image_size": [h, w],
        "camera": asdict(K),
        "motion_bounds": MOTION_BOUNDS,
        "schedule": list(DAY_SCHEDULE),
        "samples": samples,
    })
    return out_dir


POSE_SCHEMA = [storage.finite, 3]
PAIRS_SCHEMA = {
    "kind": "pairs", "seed": storage.count, "scene_seed": storage.count,
    "image_size": [storage.size, 2], "camera": CAMERA_SCHEMA,
    "motion_bounds": dict.fromkeys(MOTION_BOUNDS, storage.finite),
    "schedule": [storage.text],
    "samples": [{"file": storage.file_name, "pose": POSE_SCHEMA, "src_pose": POSE_SCHEMA,
                 "tgt_pose": POSE_SCHEMA, "src_condition": storage.text,
                 "tgt_condition": storage.text}],
}


def load_dataset(directory: str | Path) -> tuple[list[Sample], dict]:
    directory = Path(directory)
    manifest = storage.read_manifest(directory, PAIRS_SCHEMA)
    h, w = manifest["image_size"]
    samples = []
    for entry in manifest["samples"]:
        src, tgt = storage.read_blob(directory / entry["file"], (2, 3, h, w))
        samples.append(Sample(StereoFrame(*src, np.asarray(entry["src_pose"], float)),
                              StereoFrame(*tgt, np.asarray(entry["tgt_pose"], float)),
                              PlanarPose(*entry["pose"])))
    return samples, manifest


def save_sequence(
    out_dir: str | Path, frames: list[StereoFrame], K: CameraIntrinsics,
    condition: str, seed: int, extra: dict | None = None,
) -> Path:
    if not frames:
        raise ValueError("no frames to save")
    out_dir = Path(out_dir)
    entries = []
    for i, frame in enumerate(frames):
        fname = f"frame_{i:05d}.f32"
        storage.write_blob(out_dir / fname, frame_blob(frame))
        entries.append({"file": fname, "pose": frame.pose.tolist()})
    h, w = frames[0].left.shape
    manifest = {
        "kind": "sequence",
        "condition": condition,
        "seed": int(seed),
        "image_size": [h, w],
        "camera": asdict(K),
        "frames": entries,
    }
    if extra:
        manifest["extra"] = extra
    storage.write_manifest(out_dir, manifest)
    return out_dir


SEQUENCE_SCHEMA = {
    "kind": "sequence", "condition": storage.text, "seed": storage.count,
    "image_size": [storage.size, 2], "camera": CAMERA_SCHEMA,
    "frames": [{"file": storage.file_name, "pose": POSE_SCHEMA}],
    # a repeat sequence's; the CLI's run record reads `teach_condition`
    "extra?": {"repeat_of": storage.text, "teach_condition": storage.text},
}


def load_sequence(directory: str | Path) -> tuple[list[StereoFrame], dict]:
    directory = Path(directory)
    manifest = storage.read_manifest(directory, SEQUENCE_SCHEMA)
    h, w = manifest["image_size"]
    frames = []
    for entry in manifest["frames"]:
        blob = storage.read_blob(directory / entry["file"], (3, h, w))
        frames.append(StereoFrame(*blob, np.asarray(entry["pose"], float)))
    return frames, manifest
