"""Per-pixel descriptors, scores, and windowed-softmax keypoints.

The learnable extractor is a small encoder-decoder: stride-2 encoder blocks
whose feature maps, resized back to input resolution, form the dense
descriptors; after the bottleneck two mirrored decoder branches produce
keypoint logits and (through a sigmoid) scores. An extractor returns the
parts of its feature stack and the logits; where a point set is sampled,
the parts are joined into one stack of descriptors and score. Both
extractors take a batch of images (B, H, W) and run it in one pass, the
batch as the second axis of every map, (D+1, B, H, W), and the first of
every point set, (B, N, ...); one image is a batch of one. The analytic,
non-learned extractor has the learned one's output contract and supports
pipeline runs without training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import storage
from .autodiff import Tape, Var
from .errors import ImageSizeError, ShapeError

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


def init_weights(cfg: ExtractorConfig) -> ExtractorWeights:
    """Uniform init in +-sqrt(1/fan_in), seeded by the config."""
    rng = np.random.default_rng(cfg.seed)
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
class KeypointSet:
    """Sub-pixel keypoints with sampled descriptors and scores."""

    coords: Var  # (B, N, 2) as (u, v)
    descriptors: Var  # (B, N, D)
    scores: Var  # (B, N)


def encode(
    images: np.ndarray,
    params: dict[str, Var],
    cfg: ExtractorConfig,
    tape: Tape,
) -> tuple[list[Var], Var]:
    """Run the encoder and the score branch on a batch of images (B, H, W):
    the stack's parts, the pooled encoder maps (C_i, B, H/2^i, W/2^i) then
    the (1, B, H, W) score map, and the bottleneck for the keypoint branch."""
    feat = tape.constant(np.expand_dims(images, 0))  # one input channel, no gradient
    if feat.value.ndim != 4:
        raise ShapeError(f"expected a (B, H, W) batch of images, got {feat.value.shape[1:]}")
    h, w = feat.value.shape[-2:]
    depth = len(cfg.channels)
    if h % (1 << depth) or w % (1 << depth):
        raise ImageSizeError(f"image {h}x{w} not divisible by 2^{depth}")

    parts = []
    for i in range(1, depth + 1):
        feat = ad.tanh(ad.conv2d(feat, params[f"enc{i}.weight"], params[f"enc{i}.bias"]))
        feat = ad.avgpool2(feat)
        parts.append(feat)

    bottleneck = ad.tanh(
        ad.conv2d(feat, params["bottleneck.weight"], params["bottleneck.bias"])
    )
    return parts + [decode(bottleneck, "score", params, cfg)], bottleneck


def decode(
    bottleneck: Var, branch: str, params: dict[str, Var], cfg: ExtractorConfig
) -> Var:
    """One decoder branch at input resolution (1, B, H, W): raw keypoint
    logits for "kp", scores in (0, 1) for "score"."""
    depth = len(cfg.channels)
    d = bottleneck
    for i in range(1, depth + 1):
        d = ad.upsample_nearest(d)
        d = ad.conv2d(d, params[f"{branch}{i}.weight"], params[f"{branch}{i}.bias"])
        if i < depth:
            d = ad.tanh(d)
    return ad.sigmoid(d) if branch == "score" else d


def forward(
    images: np.ndarray,
    params: dict[str, Var],
    cfg: ExtractorConfig,
    tape: Tape,
) -> tuple[list[Var], Var]:
    """`encode`'s parts and the raw keypoint logits (B, H, W) of a batch of
    intensity images (B, H, W), in one pass."""
    parts, bottleneck = encode(images, params, cfg, tape)
    logits = decode(bottleneck, "kp", params, cfg)
    return parts, ad.reshape(logits, logits.value.shape[1:])


def stack_parts(parts: list[Var]) -> Var:
    """The (D+1, B, H, W) stack, descriptors then score, joined from its
    parts: each part not at the last part's full (H, W) is resized to it by
    bilinear upsampling, then all are concatenated. One part is the stack."""
    if len(parts) == 1:
        return parts[0]
    size = parts[-1].value.shape[-2:]
    return ad.concat(
        [p if p.value.shape[-2:] == size else ad.upsample_bilinear(p, size) for p in parts],
        axis=0,
    )


def detect_keypoints(logits: Var, window: int) -> Var:
    """One sub-pixel keypoint per window: the softmax-weighted average of
    pixel coordinates inside that window. Returns (B, N, 2) as (u, v) for
    (B, H, W) logits."""
    b, h, w = logits.value.shape
    if h % window or w % window:
        raise ImageSizeError(f"window {window} does not divide {h}x{w}")
    ny, nx = h // window, w // window

    blocks = ad.reshape(logits, (b, ny, window, nx, window))
    blocks = ad.transpose(blocks, (0, 1, 3, 2, 4))
    flat = ad.reshape(blocks, (b, ny * nx, window * window))
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


def sample_at(stack: Var, coords: Var) -> tuple[Var, Var]:
    """Bilinearly sample descriptors (B, N, D) and scores (B, N) at (B, N,
    2) points, in one pass over a (D+1, B, H, W) feature stack."""
    sampled = ad.bilinear_sample(stack, coords)
    d = sampled.value.shape[-1] - 1
    return ad.take(sampled, slice(0, d), axis=-1), ad.take(sampled, d, axis=-1)


def extract_keypoints(parts: list[Var], logits: Var, window: int) -> KeypointSet:
    """Keypoints of the logits, sampled from the stack the parts join into."""
    stack = stack_parts(parts)
    coords = detect_keypoints(logits, window)
    desc, scores = sample_at(stack, coords)
    return KeypointSet(coords, desc, scores)


# ---------------------------------------------------------------------------
# analytic (non-learned) features

ANALYTIC_SCALES = (1, 2, 4)


def _box_mean(img: np.ndarray, radius: int) -> np.ndarray:
    """Box filter over each image of a (B, H, W) batch with edge
    replication, via padded cumulative sums."""
    k = 2 * radius + 1
    padded = np.pad(img, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    c = np.cumsum(np.cumsum(padded, axis=1), axis=2)
    c = np.pad(c, ((0, 0), (1, 0), (1, 0)))
    return (c[:, k:, k:] - c[:, :-k, k:] - c[:, k:, :-k] + c[:, :-k, :-k]) / (k * k)


def analytic_features(images: np.ndarray, tape: Tape) -> tuple[list[Var], Var]:
    """Hand-built fallback on a batch of images (B, H, W): zero-normalized
    multi-scale patch statistics as descriptors, gradient magnitude as
    scores, a corner response as logits, each image on its own. The stack
    is its one part.

    Every channel is pre-smoothed so descriptors vary on at least the
    smallest patch scale (sub-pixel sampling stays meaningful). Descriptors
    are invariant to global gain/bias changes of the image; recorded on the
    tape as constants (nothing to train).
    """
    img = np.asarray(images, dtype=float)
    if img.ndim != 3:
        raise ShapeError(f"expected a (B, H, W) batch of images, got {img.shape}")
    _, h, w = img.shape
    channels = []
    for s in ANALYTIC_SCALES:
        mu = _box_mean(img, s)
        wide = _box_mean(img, 2 * s + 1)
        var = np.maximum(_box_mean(img * img, 2 * s + 1) - wide * wide, 0.0)
        sigma = np.sqrt(var)
        # the stabilizer scales with the image so descriptors stay exactly
        # gain/bias invariant; 1 where it is 0
        eps = 1e-9 * sigma.max(axis=(1, 2), keepdims=True)
        denom = sigma + np.where(eps == 0, 1.0, eps)
        bandpass = (mu - wide) / denom
        gx = (np.roll(mu, -1, axis=2) - np.roll(mu, 1, axis=2)) / denom
        gy = (np.roll(mu, -1, axis=1) - np.roll(mu, 1, axis=1)) / denom
        # each edge copies its neighbour; a 1-px axis copies onto itself
        gx[:, :, 0] = gx[:, :, 1 % w]
        gx[:, :, -1] = gx[:, :, -2 % w]
        gy[:, 0] = gy[:, 1 % h]
        gy[:, -1] = gy[:, -2 % h]
        channels.extend([bandpass, gx, gy])
    gx = channels[1]
    gy = channels[2]
    grad_mag = np.sqrt(gx * gx + gy * gy)
    scores = grad_mag / np.maximum(grad_mag.max(axis=(1, 2), keepdims=True), 1e-12)

    # Harris-style response on the normalized mid-scale gradients
    gx2 = _box_mean(channels[4] * channels[4], 2)
    gy2 = _box_mean(channels[5] * channels[5], 2)
    gxy = _box_mean(channels[4] * channels[5], 2)
    response = gx2 * gy2 - gxy * gxy - 0.05 * (gx2 + gy2) ** 2
    top = np.abs(response).max(axis=(1, 2), keepdims=True)
    logits = 4.0 * response / np.maximum(top, 1e-12)

    return [tape.constant(np.stack(channels + [scores], axis=0))], tape.constant(logits)


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


# The layers rule is built from the channels, in load_checkpoint.
CHECKPOINT_SCHEMA = {
    "kind": "checkpoint", "format": CHECKPOINT_FORMAT, "channels": [storage.size],
    "window": storage.size, "activation": ACTIVATION, "seed": storage.count, "layers": {},
    "extra?": {},  # free-form metadata
}


def load_checkpoint(directory: str | Path) -> tuple[ExtractorWeights, dict]:
    directory = Path(directory)
    manifest = storage.read_manifest(directory, CHECKPOINT_SCHEMA)
    cfg = ExtractorConfig(tuple(manifest["channels"]), manifest["window"], manifest["seed"])
    shapes = cfg.layer_shapes()
    storage.check(manifest["layers"], {name: {"shape": shape, "file": storage.file_name}
                                       for name, shape in shapes.items()},
                  directory / storage.MANIFEST_NAME, "layers")
    tensors = {}
    for name, shape in sorted(shapes.items()):
        tensors[name] = storage.read_blob(directory / manifest["layers"][name]["file"], shape)
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"layer {name} has non-finite values")
    return ExtractorWeights(cfg, tensors), manifest.get("extra", {})
