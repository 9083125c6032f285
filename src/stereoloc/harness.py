"""Desk-scale teach-and-repeat evaluation.

Teaching runs the extractor over a driven sequence and stores one map
vertex per frame (keypoints, descriptors, scores, 3D lifts, and the frame
itself so dense maps can be rebuilt). Repeating localizes each live frame
against its nearest-by-ground-truth vertex, with the standard failure
rule: a frame fails when RANSAC errors out or the inlier count drops below
the threshold (default 20). Localization keeps no state: dense mode
recomputes the vertex's feature stack from its frame on every call and
frees it on return, so memory does not grow with the vertices a run visits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimator, features, matching, storage, synth
from .autodiff import Tape
from .errors import (
    ConfigError,
    DegenerateGeometry,
    InsufficientMatches,
    LocalizationFailure,
    OutOfBounds,
    StereolocError,
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

    def features_on(self, tape: Tape, image: np.ndarray) -> features.DenseFeatureMap:
        params = self.weights.bind(tape)
        return features.forward(image, params, self.weights.config, tape)

    def target_on(self, tape: Tape, image: np.ndarray) -> features.DenseFeatureMap:
        params = self.weights.bind(tape)
        return features.forward_target(image, params, self.weights.config, tape)


@dataclass
class AnalyticExtractor:
    window: int = 8

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @property
    def ident(self) -> str:
        return "analytic"

    def features_on(self, tape: Tape, image: np.ndarray) -> features.DenseFeatureMap:
        return features.analytic_features(image, tape)

    target_on = features_on


@dataclass
class MapVertex:
    frame_id: int
    world_pose: np.ndarray  # taught (x, y, yaw)
    coords: np.ndarray  # (N, 2)
    descriptors: np.ndarray  # (N, D)
    scores: np.ndarray  # (N,)
    points3d: np.ndarray  # (N, 3) camera-frame lifts
    frame: StereoFrame


@dataclass
class TeachMap:
    vertices: list[MapVertex]
    K: CameraIntrinsics
    extractor_ident: str


# The no-grad tapes of teach and localize (extractor passes and soft
# matching) compute in float32; the lifts, RANSAC and the pose promote to
# float64. Training, validation and gradient checks stay float64.
INFERENCE_DTYPE = np.float32

# Inference wants a much sharper softmax than training: the training
# temperature keeps gradients alive across the whole image, while
# localization only cares about the peak.
DEFAULT_LOCALIZE_TAU = 400.0


@dataclass(frozen=True)
class LocalizeParams:
    ransac: estimator.RansacParams = estimator.RansacParams()
    tau: float = DEFAULT_LOCALIZE_TAU
    mode: str = "dense"  # or "sparse"
    failure_inliers: int = 20
    disparity: str = "gt"  # or "block"


@dataclass
class LocalizationResult:
    pose: SE3Pose | None
    planar: PlanarPose | None
    inliers: int
    failure: bool
    timing: float


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
        if frame.disparity is None:
            raise StereolocError("frame carries no ground-truth disparity")
        d, valid = frame.disparity[v, u], True
    elif source == "block":
        d, valid = synth.block_match_disparity(frame.left, frame.right, u, v)
    else:
        raise ValueError(f"unknown disparity source {source!r}")
    ok = valid & valid_disparity(d)
    return ok, backproject_points(np.concatenate([pts[ok], d[ok, None]], axis=1), K)


def _keypoints_numpy(
    extractor, frame: StereoFrame, disparity_source: str, K: CameraIntrinsics
):
    """Keypoints with a valid disparity as plain arrays: coordinates,
    descriptors, scores and 3D lifts."""
    tape = Tape(grad=False, dtype=INFERENCE_DTYPE)
    kps = features.extract_keypoints(extractor.features_on(tape, frame.left), extractor.window)
    coords, desc, scores = kps.coords.value, kps.descriptors.value, kps.scores.value
    ok, p3d = _lift(frame, disparity_source, coords, K)
    return coords[ok], desc[ok], scores[ok], p3d


def teach(
    frames: list[StereoFrame],
    extractor,
    K: CameraIntrinsics,
    disparity_source: str = "gt",
) -> TeachMap:
    """Build one map vertex per taught frame."""
    if not frames:
        raise TeachFailure("empty teach sequence")
    vertices = []
    for i, frame in enumerate(frames):
        try:
            coords, desc, scores, p3d = _keypoints_numpy(extractor, frame, disparity_source, K)
        except OutOfBounds as e:  # non-finite pixels push keypoints off the image
            raise TeachFailure(f"frame {i}: {e}") from e
        if len(coords) < 3:
            raise TeachFailure(f"frame {i}: only {len(coords)} usable keypoints")
        vertices.append(
            MapVertex(i, np.asarray(frame.pose, float), coords, desc, scores, p3d, frame)
        )
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
    pixels make them), surface as the failure flag, not exceptions.
    """
    start = time.perf_counter()
    inliers = 0
    pose = None
    try:
        coords, desc, scores, p_live = _keypoints_numpy(extractor, frame, params.disparity, K)
        if len(coords) < 3:
            raise InsufficientMatches(f"only {len(coords)} usable live keypoints")
        if params.mode == "dense":
            p_s, p_t, w = _dense_pairs(
                vertex, extractor, coords, desc, scores, p_live, params, K
            )
        elif params.mode == "sparse":
            p_s, p_t, w = _sparse_pairs(vertex, desc, scores, p_live)
        else:
            raise ValueError(f"unknown mode {params.mode!r}")
        se3, mask = estimator.ransac_pose(p_s, p_t, w, params.ransac)
        inliers = int(mask.sum())
        pose = se3
    except (InsufficientMatches, LocalizationFailure, DegenerateGeometry, OutOfBounds):
        pose = None

    failure = pose is None or inliers < params.failure_inliers
    return LocalizationResult(
        pose=pose,
        planar=se3_to_planar(pose) if pose is not None else None,
        inliers=inliers,
        failure=failure,
        timing=time.perf_counter() - start,
    )


def _dense_pairs(vertex, extractor, coords, desc, scores, p_live, params, K):
    """Live keypoints soft-matched into the vertex's dense map, which is
    computed here on the matching tape and freed with it, then lifted
    through the vertex's disparity."""
    tape = Tape(grad=False, dtype=INFERENCE_DTYPE)
    fmap = extractor.target_on(tape, vertex.frame.left)
    kps = features.KeypointSet(
        tape.constant(coords), tape.constant(desc), tape.constant(scores)
    )
    points, w = matching.match_all(kps, fmap, tau=params.tau)
    ok, p_t = _lift(vertex.frame, params.disparity, points.value, K)
    if int(ok.sum()) < 3:
        raise InsufficientMatches("too few matches with valid disparity")
    return p_live[ok], p_t, w.value[ok]


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
    if params.mode == "sparse" and teach_map.extractor_ident != extractor.ident:
        raise ConfigError(
            f"map was taught by extractor {teach_map.extractor_ident}; sparse repeat "
            f"cannot match its stored descriptors with extractor {extractor.ident}"
        )
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
        if r.failure or r.planar is None:
            pose_err = math.nan
            head_err = math.nan
        else:
            pose_err = math.hypot(r.planar.alpha - gt.alpha, r.planar.beta - gt.beta)
            head_err = abs(wrap_angle(r.planar.gamma - gt.gamma))
        rows.append([i, r.inliers, int(r.failure), repr(pose_err), repr(head_err)])
    storage.write_csv(path, RUN_CSV_FIELDS, rows)


@dataclass
class RunRecord:
    name: str
    teach_condition: str
    repeat_condition: str
    report: RunReport


def emit_report(records: list[RunRecord], out_dir: str | Path) -> list[Path]:
    """Write one per-run CSV per record plus a square condition matrix
    (teach conditions as rows, repeat conditions as columns, mean inliers
    as entries)."""
    if not records:
        raise ValueError("no runs to report")
    out_dir = Path(out_dir)
    written = []
    for rec in records:
        path = out_dir / f"run_{rec.name}.csv"
        write_run_csv(rec.report, path)
        written.append(path)

    teach_conds = sorted({r.teach_condition for r in records})
    repeat_conds = sorted({r.repeat_condition for r in records})
    by_pair = {
        (r.teach_condition, r.repeat_condition): r.report.mean_inliers
        for r in records
    }
    matrix_path = out_dir / "condition_matrix.csv"
    storage.write_csv(matrix_path, ["teach\\repeat"] + repeat_conds, [
        [tc] + [repr(by_pair.get((tc, rc), math.nan)) for rc in repeat_conds]
        for tc in teach_conds
    ])
    written.append(matrix_path)
    return written


# ---------------------------------------------------------------------------
# map persistence


def save_map(directory: str | Path, teach_map: TeachMap) -> None:
    directory = Path(directory)
    entries = []
    for v in teach_map.vertices:
        frame_file = f"vertex_{v.frame_id:05d}_frame.f32"
        feats_file = f"vertex_{v.frame_id:05d}_feats.f32"
        storage.write_blob(directory / frame_file, synth.frame_blob(v.frame))
        feats = np.concatenate(
            [v.coords.ravel(), v.descriptors.ravel(), v.scores.ravel(), v.points3d.ravel()]
        )
        storage.write_blob(directory / feats_file, feats)
        n, dd = v.descriptors.shape
        entries.append({
            "id": v.frame_id,
            "world_pose": v.world_pose.tolist(),
            "frame_file": frame_file,
            "feats_file": feats_file,
            "n": n,
            "d": dd,
        })
    h, w = teach_map.vertices[0].frame.left.shape
    storage.write_manifest(directory, {
        "kind": "map",
        "extractor": teach_map.extractor_ident,
        "image_size": [h, w],
        "camera": synth.camera_dict(teach_map.K),
        "vertices": entries,
    })


def load_map(directory: str | Path) -> TeachMap:
    directory = Path(directory)
    manifest = storage.read_manifest(directory, "map")
    h, w = manifest["image_size"]
    K = synth.camera_from_dict(manifest["camera"])
    vertices = []
    for e in manifest["vertices"]:
        blob = storage.read_blob(directory / e["frame_file"], (3, h, w))
        frame = StereoFrame(*blob, np.asarray(e["world_pose"], float))
        n, dd = e["n"], e["d"]
        # in the dtype teach made them in; the 3D points promote below
        shape = (n * (2 + dd + 1 + 3),)
        feats = storage.read_blob(directory / e["feats_file"], shape, INFERENCE_DTYPE)
        coords, desc, scores, p3d = np.split(feats, np.cumsum([2 * n, n * dd, n]))
        vertices.append(
            MapVertex(e["id"], np.asarray(e["world_pose"], float), coords.reshape(n, 2),
                      desc.reshape(n, dd), scores, p3d.reshape(n, 3).astype(float), frame)
        )
    return TeachMap(vertices, K, manifest["extractor"])
