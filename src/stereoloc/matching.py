"""Dense, differentiable descriptor matching.

Each source keypoint is matched to a softmax-weighted sum of all target
pixel coordinates, where the weights come from a temperature-scaled ZNCC
between the source descriptor and every target pixel descriptor. Matched
descriptors and scores are then bilinearly sampled at the matched point,
and per-match weights combine descriptor agreement with the learned
scores. Matching takes batches: source keypoint sets (B, N, ...) match
into the target stack (D+1, B, H, W), each set into its own image.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import features
from .autodiff import Var
from .features import KeypointSet

DEFAULT_TEMPERATURE = 50.0


def _flatten_target(stack: Var) -> tuple[Var, np.ndarray]:
    """The stack's descriptor rows as (B, H*W, D), and each pixel's (u, v)."""
    c, b, h, w = stack.value.shape
    desc = ad.take(stack, slice(0, c - 1), axis=0)
    flat = ad.reshape(ad.transpose(desc, (1, 2, 3, 0)), (b, h * w, c - 1))
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    return flat, np.stack([us.ravel(), vs.ravel()], axis=1).astype(float)


def match_weights(
    source_descriptors: Var, target_descriptors: Var,
    source_scores: Var, target_scores: Var,
) -> Var:
    """Per-match weight: 0.5 * (zncc + 1) * s_source * s_target."""
    zn_a = ad.row_znorm(source_descriptors)
    zn_b = ad.row_znorm(target_descriptors)
    corr = ad.sum_(ad.mul(zn_a, zn_b), axis=-1)
    half = ad.mul(ad.add(corr, 1.0), 0.5)
    return ad.mul(ad.mul(half, source_scores), target_scores)


def match_all(
    source: KeypointSet,
    target_parts: list[Var],
    tau: float = DEFAULT_TEMPERATURE,
) -> tuple[Var, Var]:
    """Soft-match every source keypoint against the stack the target's parts
    join into. Returns the matched target points (B, N, 2) and the combined
    match weights (B, N), in source keypoint order."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    stack = features.stack_parts(target_parts)
    flat, coords = _flatten_target(stack)
    # the softmax of the (B, N, M) ZNCC values; unnamed, the (B, M, D)
    # normalized rows and the similarity die as soon as they are read
    attn = ad.softmax(ad.mul(ad.matmul(ad.row_znorm(source.descriptors),
                                       ad.transpose(ad.row_znorm(flat), (0, 2, 1))),
                             float(tau)), axis=-1)
    points = ad.matmul(attn, source.descriptors.tape.constant(coords))
    del flat, coords, attn  # nothing (B, N, M) is held while the weights run
    desc, scores = features.sample_at(stack, points)
    return points, match_weights(source.descriptors, desc, source.scores, scores)


def mutual_best_matches(
    desc_a: np.ndarray, desc_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse matching: index arrays (i, j) of the rows of desc_a and desc_b
    that are each other's best ZNCC match, in increasing i, and the ZNCC of
    each pair."""
    zn_a, _ = ad.znorm_rows(np.asarray(desc_a, float))
    zn_b, _ = ad.znorm_rows(np.asarray(desc_b, float))
    sim = zn_a @ zn_b.T
    best_b = sim.argmax(axis=1)
    best_a = sim.argmax(axis=0)
    i = np.flatnonzero(best_a[best_b] == np.arange(len(best_b)))
    j = best_b[i]
    return i, j, sim[i, j]
