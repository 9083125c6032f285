"""Per-pixel descriptors, scores, and windowed-softmax keypoints.

The learnable extractor is a small encoder-decoder: stride-2 encoder blocks
whose feature maps, resized back to input resolution, form the dense
descriptors; after the bottleneck two mirrored decoder branches produce
keypoint logits and (through a sigmoid) scores. Descriptors and score are
joined into one feature stack per image, so every point set is sampled
once. The learned extractor also runs over a batch of images (B, H, W) in
one pass, the batch as the second axis of every map: (D+1, B, H, W). An
analytic, non-learned extractor with the same output contract supports
pipeline runs without training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import storage
from .autodiff import Tape, Var
from .errors import ShapeError

@dataclass(frozen=True)
class ExtractorConfig:
    """Desk-scale architecture knobs. Descriptor dimension is the sum of
    encoder channels."""

    channels: tuple[int, ...] = (8, 16, 32)
    window: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not self.channels or min(self.channels) < 1:
            raise ValueError("channels must be a nonempty list of positive counts")

    @property
    def descriptor_dim(self) -> int:
        return sum(self.channels)

    def layer_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        c_prev = 1
        for i, c in enumerate(self.channels, start=1):
            shapes[f"enc{i}.weight"] = (c, c_prev, 3, 3)
            shapes[f"enc{i}.bias"] = (c,)
            c_prev = c
        shapes["bottleneck.weight"] = (c_prev, c_prev, 3, 3)
        shapes["bottleneck.bias"] = (c_prev,)
        for branch in ("kp", "score"):
            cin = c_prev
            outs = list(reversed(self.channels[:-1])) + [1]
            for i, cout in enumerate(outs, start=1):
                shapes[f"{branch}{i}.weight"] = (cout, cin, 3, 3)
                shapes[f"{branch}{i}.bias"] = (cout,)
                cin = cout
        return shapes


@dataclass
class ExtractorWeights:
    """Named weight tensors plus the configuration they belong to."""

    config: ExtractorConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ExtractorWeights":
        return ExtractorWeights(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def bind(self, tape: Tape) -> dict[str, Var]:
        """Every tensor as a parameter of the tape (a constant on a no-grad
        tape)."""
        return {k: tape.param(v) for k, v in self.tensors.items()}


def init_weights(cfg: ExtractorConfig, seed: int | None = None) -> ExtractorWeights:
    """Uniform init in +-sqrt(1/fan_in), seeded."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    tensors = {}
    for name, shape in cfg.layer_shapes().items():
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(1.0 / fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ExtractorWeights(cfg, tensors)


@dataclass
class DenseFeatureMap:
    """Per-pixel features as one (D+1, H, W) stack, descriptors in rows
    0..D-1 and the score in (0, 1) in row D, plus raw keypoint logits
    (H, W), all tape variables; (D+1, B, H, W) and (B, H, W) for a batch.
    A map that is only matched into (a map vertex, a training target)
    carries no logits."""

    stack: Var
    keypoint_logits: Var | None


@dataclass
class KeypointSet:
    """Sub-pixel keypoints with sampled descriptors and scores."""

    coords: Var  # (N, 2) as (u, v); (B, N, 2) for a batch
    descriptors: Var  # (N, D); (B, N, D)
    scores: Var  # (N,); (B, N)


def encode(
    image: np.ndarray | Var,
    params: dict[str, Var],
    cfg: ExtractorConfig,
    tape: Tape,
) -> tuple[list[Var], Var]:
    """Run the encoder on one intensity image (H, W), or a batch (B, H, W);
    returns the encoder maps resized to (C_i, H, W) or (C_i, B, H, W), whose
    rows are the descriptors, and the bottleneck the decoder branches start
    from."""
    x = image if isinstance(image, Var) else tape.constant(image)
    if x.value.ndim not in (2, 3):
        raise ShapeError(f"expected an (H, W) image or a (B, H, W) batch, got {x.value.shape}")
    h, w = x.value.shape[-2:]
    depth = len(cfg.channels)
    if h % (1 << depth) or w % (1 << depth):
        raise ShapeError(f"image {h}x{w} not divisible by 2^{depth}")

    feat = ad.reshape(x, (1,) + x.value.shape)
    enc_maps = []
    for i in range(1, depth + 1):
        feat = ad.tanh(ad.conv2d(feat, params[f"enc{i}.weight"], params[f"enc{i}.bias"]))
        feat = ad.avgpool2(feat)
        enc_maps.append(feat)

    upsampled = [ad.upsample_bilinear(m, (h, w)) for m in enc_maps]
    bottleneck = ad.tanh(
        ad.conv2d(feat, params["bottleneck.weight"], params["bottleneck.bias"])
    )
    return upsampled, bottleneck


def decode(
    bottleneck: Var, branch: str, params: dict[str, Var], cfg: ExtractorConfig
) -> Var:
    """One decoder branch at input resolution (1, H, W), or (1, B, H, W):
    raw keypoint logits for "kp", scores in (0, 1) for "score"."""
    depth = len(cfg.channels)
    d = bottleneck
    for i in range(1, depth + 1):
        d = ad.upsample_nearest(d)
        d = ad.conv2d(d, params[f"{branch}{i}.weight"], params[f"{branch}{i}.bias"])
        if i < depth:
            d = ad.tanh(d)
    return ad.sigmoid(d) if branch == "score" else d


def forward(
    image: np.ndarray | Var,
    params: dict[str, Var],
    cfg: ExtractorConfig,
    tape: Tape,
) -> DenseFeatureMap:
    """Run the encoder-decoder on one intensity image (H, W), or on a batch
    (B, H, W) in one pass."""
    maps, bottleneck = encode(image, params, cfg, tape)
    logits = decode(bottleneck, "kp", params, cfg)
    stack = ad.concat(maps + [decode(bottleneck, "score", params, cfg)], axis=0)
    return DenseFeatureMap(stack, ad.reshape(logits, logits.value.shape[1:]))


def forward_target(
    image: np.ndarray | Var,
    params: dict[str, Var],
    cfg: ExtractorConfig,
    tape: Tape,
) -> DenseFeatureMap:
    """The feature stack only, no keypoint logits: what matching into the
    image reads."""
    maps, bottleneck = encode(image, params, cfg, tape)
    stack = ad.concat(maps + [decode(bottleneck, "score", params, cfg)], axis=0)
    return DenseFeatureMap(stack, None)


def detect_keypoints(logits: Var, window: int) -> Var:
    """One sub-pixel keypoint per window: the softmax-weighted average of
    pixel coordinates inside that window. Returns (N, 2) as (u, v) for
    (H, W) logits, (B, N, 2) for a batch (B, H, W)."""
    *lead, h, w = logits.value.shape
    if h % window or w % window:
        raise ShapeError(f"window {window} does not divide {h}x{w}")
    ny, nx = h // window, w // window
    n = ny * nx

    k = len(lead)
    blocks = ad.reshape(logits, (*lead, ny, window, nx, window))
    blocks = ad.transpose(blocks, (*range(k), k, k + 2, k + 1, k + 3))
    flat = ad.reshape(blocks, (*lead, n, window * window))
    weights = ad.softmax(flat, axis=-1)

    ij = np.arange(window)
    in_window = np.stack(
        [np.tile(ij, window), np.repeat(ij, window)], axis=1
    )  # (w*w, 2) as (u, v) offsets within the window
    origins = np.stack(
        [
            np.tile(np.arange(nx) * window, ny),
            np.repeat(np.arange(ny) * window, nx),
        ],
        axis=1,
    ).astype(float)

    rel = ad.matmul(weights, logits.tape.constant(in_window.astype(float)))
    return ad.add(rel, logits.tape.constant(origins))


def sample_at(fmap: DenseFeatureMap, coords: Var) -> tuple[Var, Var]:
    """Bilinearly sample descriptors (N, D) and scores (N,) at points, in
    one pass over the feature stack; (B, N, D) and (B, N) for a batch."""
    sampled = ad.bilinear_sample(fmap.stack, coords)
    d = sampled.value.shape[-1] - 1
    desc = ad.take(sampled, slice(0, d), axis=-1)
    scores = ad.take(sampled, slice(d, None), axis=-1)
    return desc, ad.reshape(scores, sampled.value.shape[:-1])


def extract_keypoints(fmap: DenseFeatureMap, window: int) -> KeypointSet:
    coords = detect_keypoints(fmap.keypoint_logits, window)
    desc, scores = sample_at(fmap, coords)
    return KeypointSet(coords, desc, scores)


# ---------------------------------------------------------------------------
# analytic (non-learned) features

ANALYTIC_SCALES = (1, 2, 4)


def _box_mean(img: np.ndarray, radius: int) -> np.ndarray:
    """Box filter with edge replication, via padded cumulative sums."""
    k = 2 * radius + 1
    padded = np.pad(img, radius, mode="edge")
    c = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    h, w = img.shape
    total = c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]
    return total[:h, :w] / (k * k)


def analytic_features(image: np.ndarray, tape: Tape) -> DenseFeatureMap:
    """Hand-built fallback: zero-normalized multi-scale patch statistics as
    descriptors, gradient magnitude as scores, a corner response as logits.

    Every channel is pre-smoothed so descriptors vary on at least the
    smallest patch scale (sub-pixel sampling stays meaningful). Descriptors
    are invariant to global gain/bias changes of the image; recorded on the
    tape as constants (nothing to train).
    """
    img = np.asarray(image, dtype=float)
    channels = []
    for s in ANALYTIC_SCALES:
        mu = _box_mean(img, s)
        wide = _box_mean(img, 2 * s + 1)
        var = np.maximum(_box_mean(img * img, 2 * s + 1) - wide * wide, 0.0)
        sigma = np.sqrt(var)
        # the stabilizer scales with the image so descriptors stay exactly
        # gain/bias invariant
        denom = sigma + (1e-9 * float(sigma.max()) or 1.0)
        bandpass = (mu - wide) / denom
        gx = (np.roll(mu, -1, axis=1) - np.roll(mu, 1, axis=1)) / denom
        gy = (np.roll(mu, -1, axis=0) - np.roll(mu, 1, axis=0)) / denom
        gx[:, 0] = gx[:, 1]
        gx[:, -1] = gx[:, -2]
        gy[0] = gy[1]
        gy[-1] = gy[-2]
        channels.extend([bandpass, gx, gy])
    gx = channels[1]
    gy = channels[2]
    grad_mag = np.sqrt(gx * gx + gy * gy)
    scores = grad_mag / max(float(grad_mag.max()), 1e-12)

    # Harris-style response on the normalized mid-scale gradients
    gx2 = _box_mean(channels[4] * channels[4], 2)
    gy2 = _box_mean(channels[5] * channels[5], 2)
    gxy = _box_mean(channels[4] * channels[5], 2)
    response = gx2 * gy2 - gxy * gxy - 0.05 * (gx2 + gy2) ** 2
    logits = 4.0 * response / max(float(np.abs(response).max()), 1e-12)

    return DenseFeatureMap(
        tape.constant(np.stack(channels + [scores], axis=0)), tape.constant(logits)
    )


# ---------------------------------------------------------------------------
# checkpoint persistence

CHECKPOINT_FORMAT = 1
# The extractor's one activation; the manifest records it so a checkpoint
# names what it was trained with.
ACTIVATION = "tanh"


def save_checkpoint(
    directory: str | Path, weights: ExtractorWeights, extra: dict | None = None
) -> None:
    """Write manifest (shapes, window, activation, seed) plus one raw
    float32 blob per layer."""
    directory = Path(directory)
    cfg = weights.config
    layers = {}
    for name, tensor in sorted(weights.tensors.items()):
        fname = name.replace("/", "_") + ".f32"
        storage.write_blob(directory / fname, tensor)
        layers[name] = {"shape": list(tensor.shape), "file": fname}
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "kind": "checkpoint",
        "channels": list(cfg.channels),
        "window": cfg.window,
        "activation": ACTIVATION,
        "seed": cfg.seed,
        "layers": layers,
    }
    if extra:
        manifest["extra"] = extra
    storage.write_manifest(directory, manifest)


def load_checkpoint(directory: str | Path) -> tuple[ExtractorWeights, dict]:
    directory = Path(directory)
    manifest = storage.read_manifest(directory, "checkpoint")
    if manifest["activation"] != ACTIVATION:
        raise ValueError(f"unsupported activation {manifest['activation']!r}")
    cfg = ExtractorConfig(
        channels=tuple(manifest["channels"]),
        window=int(manifest["window"]),
        seed=int(manifest["seed"]),
    )
    expected = cfg.layer_shapes()
    tensors = {}
    for name, entry in manifest["layers"].items():
        shape = tuple(entry["shape"])
        if name not in expected or expected[name] != shape:
            raise ValueError(f"layer {name} with shape {shape} does not fit config")
        tensors[name] = storage.read_blob(directory / entry["file"], shape)
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"layer {name} has non-finite values")
    missing = set(expected) - set(tensors)
    if missing:
        raise ValueError(f"checkpoint missing layers: {sorted(missing)}")
    return ExtractorWeights(cfg, tensors), manifest.get("extra", {})
