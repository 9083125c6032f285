"""Desk-scale teach-and-repeat evaluation.

Teaching runs the extractor over a driven sequence and stores one map
vertex per frame: keypoints, descriptors, scores, 3D lifts, the frame
itself, and the parts of its dense feature stack, taken from the same
extractor pass. Repeating localizes each live frame against its
nearest-by-ground-truth vertex, with the standard failure rule: a frame
fails when RANSAC errors out or the inlier count drops below the threshold
(default 20). The extractor and matching take batches: teach runs
batches of TEACH_BATCH frames, which bounds peak memory, and localize each
frame as a batch of one. Localization keeps no state: dense mode
rebuilds the vertex's feature stack from its stored parts on every call
(no extractor pass) and frees it on return, so memory does not grow with
the vertices a run visits.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import estimator, features, matching, storage, synth
from .autodiff import Tape, Var
from .errors import (
    ConfigError,
    DegenerateGeometry,
    ImageSizeError,
    InsufficientMatches,
    LocalizationFailure,
    OutOfBounds,
    TeachFailure,
)
from .geometry import (
    CameraIntrinsics,
    PlanarPose,
    SE3Pose,
    backproject_points,
    se3_to_planar,
    valid_disparity,
    wrap_angle,
)
from .synth import StereoFrame


@dataclass
class LearnedExtractor:
    weights: features.ExtractorWeights

    @property
    def window(self) -> int:
        return self.weights.config.window

    @functools.cached_property
    def ident(self) -> str:
        """A digest of the weights as float32, shared with its checkpoint."""
        digest = hashlib.sha256()
        for name, tensor in sorted(self.weights.tensors.items()):
            digest.update(f"{name}{tensor.shape}".encode())
            digest.update(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
        return f"learned-{digest.hexdigest()[:12]}"

    def features_on(self, tape: Tape, images: np.ndarray) -> tuple[list[Var], Var]:
        params = self.weights.bind(tape)
        return features.forward(images, params, self.weights.config, tape)


@dataclass
class AnalyticExtractor:
    window: int = 8

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def ident(self) -> str:
        return "analytic"

    def features_on(self, tape: Tape, images: np.ndarray) -> tuple[list[Var], Var]:
        return features.analytic_features(images, tape)


@dataclass
class MapVertex:
    frame_id: int
    world_pose: np.ndarray  # taught (x, y, yaw)
    coords: np.ndarray  # (N, 2)
    descriptors: np.ndarray  # (N, D)
    scores: np.ndarray  # (N,)
    points3d: np.ndarray  # (N, 3) camera-frame lifts
    frame: StereoFrame
    parts: list[np.ndarray]  # (C_i, h_i, w_i) parts of the dense stack, features.stack_parts


@dataclass
class TeachMap:
    vertices: list[MapVertex]
    K: CameraIntrinsics
    extractor_ident: str


# The no-grad tapes of teach and localize (extractor passes and soft
# matching) compute in float32; the lifts, RANSAC and the pose promote to
# float64. Training has its own, `training.TRAINING_DTYPE`.
INFERENCE_DTYPE = np.float32

# Inference wants a much sharper softmax than training: the training
# temperature keeps gradients alive across the whole image, while
# localization only cares about the peak.
DEFAULT_LOCALIZE_TAU = 400.0

MODES = ("dense", "sparse")  # soft matching into the vertex's stack, or mutual-best
DISPARITY_SOURCES = ("gt", "block")  # the frame's ground truth, or block matching


@dataclass(frozen=True)
class LocalizeParams:
    ransac: estimator.RansacParams = estimator.RansacParams()
    tau: float = DEFAULT_LOCALIZE_TAU
    mode: str = "dense"  # one of MODES
    failure_inliers: int = 20
    disparity: str = "gt"  # one of DISPARITY_SOURCES

    def __post_init__(self):
        for name, allowed in (("mode", MODES), ("disparity", DISPARITY_SOURCES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, not {getattr(self, name)!r}")
        if not 0 < self.tau < math.inf:  # NaN fails too
            raise ValueError("tau must be positive and finite")
        if self.failure_inliers < 0:
            raise ValueError("failure_inliers must be >= 0")


# The one reason localize records for each failure it catches.
FAILURE_REASONS = {
    InsufficientMatches: "insufficient_matches",
    LocalizationFailure: "ransac_consensus",
    DegenerateGeometry: "degenerate",
    OutOfBounds: "non_finite",  # non-finite pixels push keypoints off the image
}


@dataclass
class LocalizationResult:
    pose: SE3Pose | None
    inliers: int
    # None on success, else a FAILURE_REASONS value or "below_inlier_threshold"
    reason: str | None

    @property
    def failure(self) -> bool:
        return self.reason is not None

    @property
    def planar(self) -> PlanarPose | None:
        return None if self.pose is None else se3_to_planar(self.pose)


@dataclass
class RunReport:
    results: list[LocalizationResult]
    gt_offsets: list[PlanarPose]
    mean_inliers: float
    failure_count: int
    failure_fraction: float
    pose_rmse: float  # planar translation RMSE over non-failed frames
    heading_rmse: float


def _lift(
    frame: StereoFrame, source: str, pts: np.ndarray, K: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Lift (N, 2) (u, v) points at the nearest pixel, clamped into the
    image, through the frame's disparity from `source`: the ground truth
    ("gt") or block matching at those pixels ("block"). Returns the mask of
    points with a valid disparity (block matching found one and
    `geometry.valid_disparity` holds), and their 3D points."""
    h, w = frame.left.shape
    nearest = np.rint(pts).astype(int)
    u = np.clip(nearest[:, 0], 0, w - 1)
    v = np.clip(nearest[:, 1], 0, h - 1)
    if source == "gt":
        d, valid = frame.disparity[v, u], True
    else:
        d, valid = synth.block_match_disparity(frame.left, frame.right, u, v)
    ok = valid & valid_disparity(d)
    return ok, backproject_points(np.concatenate([pts[ok], d[ok, None]], axis=1), K)


def _keypoints_numpy(
    extractor, frames: list[StereoFrame], disparity_source: str, K: CameraIntrinsics
) -> list[tuple]:
    """Per frame of a batch of same-size frames, its keypoints with a valid
    disparity as plain arrays (coordinates, descriptors, scores, 3D lifts)
    and the parts of its dense stack, each its row of one extractor pass. A
    size the extractor cannot take (a 1-px axis, say) has no keypoints:
    InsufficientMatches."""
    tape = Tape(grad=False, dtype=INFERENCE_DTYPE)
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # bad pixels fail as data
            parts, logits = extractor.features_on(tape, np.stack([f.left for f in frames]))
        kps = features.extract_keypoints(parts, logits, extractor.window)
    except ImageSizeError as e:
        raise InsufficientMatches(f"no keypoints: {e}") from e
    out = []
    for j, frame in enumerate(frames):
        coords, desc, scores = (v.value[j] for v in (kps.coords, kps.descriptors, kps.scores))
        ok, p3d = _lift(frame, disparity_source, coords, K)
        out.append((coords[ok], desc[ok], scores[ok], p3d, [p.value[:, j] for p in parts]))
    return out


# Teach extracts its frames in batches of this many. A batch's im2col columns
# and stack are live at once: on the 64x48 repeat-day benchmark, 3 raised peak
# RSS by 3% over 2 and 10 by 21%, and neither taught faster.
TEACH_BATCH = 2


def teach(
    frames: list[StereoFrame],
    extractor,
    K: CameraIntrinsics,
    disparity_source: str = "gt",
) -> TeachMap:
    """Build one map vertex per taught frame, extracting batches of up to
    TEACH_BATCH consecutive frames of one size. The first failing frame in
    sequence order is a TeachFailure that names it: no keypoints, another
    size than frame 0's, or valid lifted points `estimator.align_core` would
    refuse to align with themselves (fewer than 3, duplicated or collinear)."""
    if disparity_source not in DISPARITY_SOURCES:
        raise ValueError(f"disparity must be one of {DISPARITY_SOURCES}, not {disparity_source!r}")
    if not frames:
        raise TeachFailure("empty teach sequence")
    h, w = frames[0].left.shape
    vertices = []
    while len(vertices) < len(frames):
        start = len(vertices)
        batch = list(itertools.takewhile(lambda f: f.left.shape == frames[start].left.shape,
                                         frames[start:start + TEACH_BATCH]))
        try:
            lifted = _keypoints_numpy(extractor, batch, disparity_source, K)
        except (OutOfBounds, InsufficientMatches):  # extract again one frame at a time
            lifted = [None] * len(batch)
        for i, (frame, arrays) in enumerate(zip(batch, lifted), start):
            try:
                coords, desc, scores, p3d, parts = arrays or _keypoints_numpy(
                    extractor, [frame], disparity_source, K)[0]
            except (OutOfBounds, InsufficientMatches) as e:  # non-finite pixels, or a bad size
                raise TeachFailure(f"frame {i}: {e}") from e
            if frame.left.shape != (h, w):
                fh, fw = frame.left.shape
                raise TeachFailure(f"frame {i}: {fw}x{fh} pixels, but frame 0 has {w}x{h}")
            try:  # no pose can be found against a vertex the alignment refuses
                estimator.check_alignable(p3d)
            except DegenerateGeometry as e:
                raise TeachFailure(f"frame {i}: {len(p3d)} lifted points: {e}") from e
            vertices.append(MapVertex(i, np.asarray(frame.pose, float), coords, desc, scores,
                                      p3d, frame, parts))
    return TeachMap(vertices, K, extractor.ident)


def localize(
    frame: StereoFrame,
    vertex: MapVertex,
    extractor,
    params: LocalizeParams,
    K: CameraIntrinsics,
) -> LocalizationResult:
    """Estimate the live frame's pose relative to one map vertex.

    Dense mode soft-matches live keypoints into the vertex's dense feature
    map; sparse mode uses mutual-best ZNCC between the two keypoint sets.
    Estimation failures, and live keypoints that leave the image (as NaN
    pixels make them), surface as the failure flag and its reason, not
    exceptions.
    """
    inliers = 0
    pose = None
    reason = None
    try:
        # the live frame's dense parts die here
        coords, desc, scores, p_live, _ = _keypoints_numpy(
            extractor, [frame], params.disparity, K)[0]
        if len(coords) < 3:
            raise InsufficientMatches(f"only {len(coords)} usable live keypoints")
        if params.mode == "dense":
            p_s, p_t, w = _dense_pairs(vertex, coords, desc, scores, p_live, params, K)
        else:
            p_s, p_t, w = _sparse_pairs(vertex, desc, scores, p_live)
        pose, mask = estimator.ransac_pose(p_s, p_t, w, params.ransac)
        inliers = int(mask.sum())
        if inliers < params.failure_inliers:
            reason = "below_inlier_threshold"
    except tuple(FAILURE_REASONS) as e:
        reason = FAILURE_REASONS[type(e)]

    return LocalizationResult(pose, inliers, reason)


def _dense_pairs(vertex, coords, desc, scores, p_live, params, K):
    """Live keypoints soft-matched into the vertex's dense stack, which
    matching rebuilds from its stored parts on the matching tape and frees
    with it, then lifted through the vertex's disparity. Both run as a batch
    of one."""
    tape = Tape(grad=False, dtype=INFERENCE_DTYPE)
    parts = [tape.constant(p[:, None]) for p in vertex.parts]
    kps = features.KeypointSet(*(tape.constant(v[None]) for v in (coords, desc, scores)))
    points, w = matching.match_all(kps, parts, tau=params.tau)
    ok, p_t = _lift(vertex.frame, params.disparity, points.value[0], K)
    if int(ok.sum()) < 3:
        raise InsufficientMatches("too few matches with valid disparity")
    return p_live[ok], p_t, w.value[0][ok]


def _sparse_pairs(vertex, desc, scores, p_live):
    """Mutual-best ZNCC pairs against the vertex's sparse keypoints."""
    ai, bj, corr = matching.mutual_best_matches(desc, vertex.descriptors)
    if len(ai) < 3:
        raise InsufficientMatches(f"only {len(ai)} mutual matches")
    w = 0.5 * (corr + 1.0) * scores[ai] * vertex.scores[bj]
    return p_live[ai], vertex.points3d[bj], w


def nearest_vertex(teach_map: TeachMap, world_pose) -> MapVertex:
    """Association by ground-truth path position (stand-in for VO priors)."""
    poses = np.stack([v.world_pose[:2] for v in teach_map.vertices])
    i = int(np.argmin(((poses - np.asarray(world_pose)[:2]) ** 2).sum(axis=1)))
    return teach_map.vertices[i]


def repeat(
    frames: list[StereoFrame],
    teach_map: TeachMap,
    extractor,
    params: LocalizeParams,
    K: CameraIntrinsics,
) -> RunReport:
    """Localize every live frame against its nearest vertex and aggregate."""
    if not frames:
        raise ValueError("empty repeat sequence")
    if teach_map.extractor_ident != extractor.ident:
        raise ConfigError(
            f"map was taught by extractor {teach_map.extractor_ident}; repeat cannot "
            f"match its stored features with extractor {extractor.ident}"
        )
    h, w = teach_map.vertices[0].frame.left.shape
    for frame in frames:
        if frame.left.shape != (h, w):
            fh, fw = frame.left.shape
            raise ConfigError(f"map was taught on {w}x{h} frames; repeat cannot localize "
                              f"{fw}x{fh} frames against it")
    results = []
    offsets = []
    for frame in frames:
        vertex = nearest_vertex(teach_map, frame.pose)
        offsets.append(synth.relative_planar(frame.pose, vertex.world_pose))
        results.append(localize(frame, vertex, extractor, params, K))

    failures = [r for r in results if r.failure]
    ok_pairs = [
        (r.planar, gt) for r, gt in zip(results, offsets) if not r.failure
    ]
    if ok_pairs:
        trans_sq = [
            (p.alpha - gt.alpha) ** 2 + (p.beta - gt.beta) ** 2 for p, gt in ok_pairs
        ]
        head_sq = [wrap_angle(p.gamma - gt.gamma) ** 2 for p, gt in ok_pairs]
        pose_rmse = math.sqrt(float(np.mean(trans_sq)))
        heading_rmse = math.sqrt(float(np.mean(head_sq)))
    else:
        pose_rmse = math.nan
        heading_rmse = math.nan
    return RunReport(
        results=results,
        gt_offsets=offsets,
        mean_inliers=float(np.mean([r.inliers for r in results])),
        failure_count=len(failures),
        failure_fraction=len(failures) / len(results),
        pose_rmse=pose_rmse,
        heading_rmse=heading_rmse,
    )


# ---------------------------------------------------------------------------
# reporting

RUN_CSV_FIELDS = ["frame", "inliers", "failure", "pose_error", "heading_error"]


def write_run_csv(report: RunReport, path: str | Path) -> None:
    """Per-frame rows; aggregates in RunReport are all recomputable from
    these columns."""
    rows = []
    for i, (r, gt) in enumerate(zip(report.results, report.gt_offsets)):
        if r.failure:  # a success always has a pose
            pose_err = math.nan
            head_err = math.nan
        else:
            p = r.planar
            pose_err = math.hypot(p.alpha - gt.alpha, p.beta - gt.beta)
            head_err = abs(wrap_angle(p.gamma - gt.gamma))
        rows.append([i, r.inliers, int(r.failure), repr(pose_err), repr(head_err)])
    storage.write_csv(path, RUN_CSV_FIELDS, rows)


def write_condition_matrix(cells: dict[tuple[str, str], float], path: str | Path) -> None:
    """The condition matrix of mean inliers by (teach, repeat) condition
    pair: teach conditions as rows, repeat conditions as columns, each
    sorted, cells as `repr`, and `nan` for a pair with no run."""
    if not cells:
        raise ValueError("no runs to report")
    teach_conds, repeat_conds = (sorted(set(labels)) for labels in zip(*cells))
    storage.write_csv(path, ["teach\\repeat"] + repeat_conds, [
        [tc] + [repr(cells.get((tc, rc), math.nan)) for rc in repeat_conds] for tc in teach_conds])


# ---------------------------------------------------------------------------
# map persistence


def save_map(directory: str | Path, teach_map: TeachMap) -> None:
    """One blob per vertex: its frame planes, its sparse features (coords,
    descriptors, scores, points3d), then the parts of its dense stack. The
    manifest lists the part shapes once."""
    directory = Path(directory)
    entries = []
    for v in teach_map.vertices:
        file = f"vertex_{v.frame_id:05d}.f32"
        arrays = (synth.frame_blob(v.frame), v.coords, v.descriptors, v.scores, v.points3d,
                  *v.parts)
        storage.write_blob(directory / file,
                           np.concatenate([a.ravel() for a in arrays], dtype="<f4"))
        n, dd = v.descriptors.shape
        entries.append({"id": v.frame_id, "world_pose": v.world_pose.tolist(), "file": file,
                        "n": n, "d": dd})
    first = teach_map.vertices[0]
    storage.write_manifest(directory, {
        "kind": "map",
        "extractor": teach_map.extractor_ident,
        "image_size": list(first.frame.left.shape),
        "camera": asdict(teach_map.K),
        "part_shapes": [list(p.shape) for p in first.parts],
        "vertices": entries,
    })


# load_map also checks the part shapes against the image grid.
MAP_SCHEMA = {
    "kind": "map", "extractor": storage.text, "image_size": [storage.size, 2],
    "camera": synth.CAMERA_SCHEMA, "part_shapes": [[storage.size, 3]],
    "vertices": [{"id": storage.count, "world_pose": synth.POSE_SCHEMA,
                  "file": storage.file_name, "n": storage.count, "d": storage.count}],
}


def load_map(directory: str | Path) -> TeachMap:
    """The map save_map wrote. Each vertex's blob is read as one float32
    array, and every array of the vertex is a view into it, frames
    included, except the 3D points, which promote to float64."""
    directory = Path(directory)
    manifest = storage.read_manifest(directory, MAP_SCHEMA)
    (h, w), shapes = manifest["image_size"], manifest["part_shapes"]
    # a part is the image's grid divided by one integer factor on both axes;
    # the last, which stack_parts resizes the others to, by 1
    if shapes[-1][1:] != [h, w] or not all(
            h % s[1] == w % s[2] == 0 and h // s[1] == w // s[2] for s in shapes):
        raise ValueError(f"{directory / storage.MANIFEST_NAME}: part_shapes {shapes!r} are not "
                         f"[C, h, w] grids of {h}x{w}, the last at full size")
    vertices = []
    for e in manifest["vertices"]:
        n = e["n"]
        layout = [(3, h, w), (n, 2), (n, e["d"]), (n,), (n, 3), *shapes]
        sizes = [math.prod(s) for s in layout]
        blob = storage.read_blob(directory / e["file"], (sum(sizes),), INFERENCE_DTYPE)
        planes, coords, desc, scores, p3d, *parts = (
            a.reshape(s) for a, s in zip(np.split(blob, np.cumsum(sizes)[:-1]), layout))
        world_pose = np.asarray(e["world_pose"], float)
        vertices.append(MapVertex(e["id"], world_pose, coords, desc, scores, p3d.astype(float),
                                  StereoFrame(*planes, world_pose), parts))
    return TeachMap(vertices, synth.camera_from_dict(manifest["camera"]), manifest["extractor"])
