"""Reverse-mode automatic differentiation over a per-batch tape.

The tape records coarse array-level primitives (whole softmax, whole ZNCC
normalization, whole SVD alignment) rather than scalar operations; each
primitive carries a hand-derived pullback. Images come in one layout, a
batch: the image primitives take it as the second axis, (C, B, H, W), and
sampling a leading one, (B, N, 2); inference runs one frame as a batch of
one. `backward` walks the record once in reverse index order, which makes
gradient accumulation deterministic.
Pullbacks close over the shapes they need, not over their inputs, unless
the gradient reads an input's values. Every `Var` owns its value, and the
tape holds only each node's parent indices and pullback, so a value dies
with its last `Var`. Inference runs the same primitives on a no-grad tape
(`Tape(grad=False)`), which records nothing: its `Var`s carry no index.
A tape has one dtype, float64 unless given: its constants and parameters
are cast to it, the primitives keep it (but `rigid_align`, which computes
in float64), and `backward` holds every adjoint in it. Training records on
float32 tapes; the gradient checks record on float64 ones.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import estimator as _estimator
from . import geometry as _geometry
from .errors import OutOfBounds, ShapeError

Array = np.ndarray


class Var:
    """A value plus its node index on a tape (`None` for a constant or on a
    no-grad tape); every operation on it is a module-level function."""

    __slots__ = ("tape", "index", "value")

    def __init__(self, tape: "Tape", index: int | None, value: Array):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.shape})"


class Tape:
    """Ordered record of `(parent indices, pullback)` per node, appended in
    execution order, so the record is topologically sorted by construction.
    `params` holds each parameter's `(index, value)`; the tape holds no `Var`.
    A no-grad tape (`grad=False`) records nothing."""

    def __init__(self, grad: bool = True, dtype=np.float64):
        self.grad = grad
        self.dtype = np.dtype(dtype)
        self._nodes: list[tuple[tuple[int | None, ...], Callable | None]] = []
        self.params: list[tuple[int, Array]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _push(self, value: Array, parents: tuple, pullback) -> Var:
        self._nodes.append((parents, pullback))
        return Var(self, len(self._nodes) - 1, value)

    def constant(self, value) -> Var:
        return Var(self, None, np.asarray(value, dtype=self.dtype))

    def param(self, value) -> Var:
        """A leaf `backward` differentiates for; a constant on a no-grad tape."""
        if not self.grad:
            return self.constant(value)
        v = self._push(np.asarray(value, dtype=self.dtype), (), None)
        self.params.append((v.index, v.value))
        return v

    def record(self, value: Array, parents: Sequence[Var], pullback) -> Var:
        if not self.grad:
            return Var(self, None, np.asarray(value))
        return self._push(np.asarray(value), tuple(p.index for p in parents), pullback)


def _as_var(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands live on different tapes")
        return x
    return tape.constant(x)


def _pair(a, b) -> tuple[Tape, Var, Var]:
    tape = a.tape if isinstance(a, Var) else b.tape
    return tape, _as_var(tape, a), _as_var(tape, b)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcasted gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g).reshape(shape)


def backward(tape: Tape, output: Var) -> dict[int, Array]:
    """Reverse accumulation from a scalar output to every parameter; returns
    the gradients keyed by parameter index."""
    if output.tape is not tape:
        raise ValueError("output does not belong to this tape")
    if not tape.grad:
        raise ValueError("backward on a no-grad tape")
    if output.value.shape != ():
        raise ShapeError(f"backward needs a scalar output, got shape {output.value.shape}")

    # every adjoint in the tape's dtype, so a pullback that promotes
    # (`rigid_align`'s) promotes no pullback upstream of it
    adjoints: dict[int | None, Array] = {output.index: np.ones((), tape.dtype)}
    for i in range(len(tape) - 1, -1, -1):
        parents, pullback = tape._nodes[i]
        if pullback is None or i not in adjoints:
            continue  # a parameter keeps its adjoint
        for p, g in zip(parents, pullback(adjoints.pop(i))):
            if g is None or p is None:
                continue
            if p in adjoints:
                g = adjoints[p] + g
            adjoints[p] = np.asarray(g, dtype=tape.dtype)

    return {i: adjoints.get(i, np.zeros_like(value)) for i, value in tape.params}


def finite_diff(f: Callable[[Array], float], x: Array, h: float | None = None) -> Array:
    """Central-difference gradient estimate of a scalar function.

    With h omitted, uses the per-coordinate step 1e-6 * max(1, |x_i|).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        step = h if h is not None else 1e-6 * max(1.0, abs(flat[i]))
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return grad.reshape(x.shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting supported)


def add(a, b) -> Var:
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value

    def pull(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return tape.record(av + bv, (a, b), pull)


def sub(a, b) -> Var:
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value

    def pull(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return tape.record(av - bv, (a, b), pull)


def mul(a, b) -> Var:
    """Elementwise product; builds no gradient for a tape constant."""
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value
    a_grad, b_grad = a.index is not None, b.index is not None

    def pull(g):
        return (_unbroadcast(g * bv, av.shape) if a_grad else None,
                _unbroadcast(g * av, bv.shape) if b_grad else None)

    return tape.record(av * bv, (a, b), pull)


def cos(a: Var) -> Var:
    av = a.value
    return a.tape.record(np.cos(av), (a,), lambda g: (-g * np.sin(av),))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape.record(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Var) -> Var:
    av = a.value
    e = np.exp(-np.abs(av))
    out = np.where(av >= 0, 1.0, e) / (1.0 + e)
    return a.tape.record(out, (a,), lambda g: (g * out * (1.0 - out),))


def atan2(y, x) -> Var:
    tape, y, x = _pair(y, x)
    yv, xv = y.value, x.value
    denom = xv * xv + yv * yv

    def pull(g):
        return (
            _unbroadcast(g * xv / denom, yv.shape),
            _unbroadcast(-g * yv / denom, xv.shape),
        )

    return tape.record(np.arctan2(yv, xv), (y, x), pull)


# ---------------------------------------------------------------------------
# reductions and structure


def sum_(a: Var, axis=None) -> Var:
    out = a.value.sum(axis=axis)
    shape = a.value.shape

    def pull(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return a.tape.record(out, (a,), pull)


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return a.tape.record(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Var, axes) -> Var:
    inv = np.argsort(axes)
    return a.tape.record(np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, inv),))


def concat(parts: Sequence[Var], axis: int = 0) -> Var:
    tape = parts[0].tape
    vals = [p.value for p in parts]
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def pull(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape.record(np.concatenate(vals, axis=axis), tuple(parts), pull)


def take(a: Var, indices, axis: int = 0) -> Var:
    """Gather along an axis by an index array or a slice. The adjoint
    scatter-adds back; a slice gathers each element at most once, so its
    adjoint is a plain store."""
    av = a.value
    shape, dtype = av.shape, av.dtype
    sliced = isinstance(indices, slice)
    idx = indices if sliced else np.asarray(indices)
    sl: list = [slice(None)] * av.ndim
    sl[axis] = idx
    sl = tuple(sl)

    def pull(g):
        out = np.zeros(shape, dtype)
        if sliced:
            out[sl] = g
        else:
            np.add.at(out, sl, g)
        return (out,)

    # np.take, not fancy indexing: its C-ordered result keeps the sums
    # downstream adding in the same order
    return a.tape.record(av[sl] if sliced else np.take(av, idx, axis=axis), (a,), pull)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product of matrices; `a` may carry a leading batch axis, and
    `b` with it or without (one matrix for every batch entry). Builds no
    gradient for a tape constant."""
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value
    a_grad, b_grad = a.index is not None, b.index is not None

    def pull(g):
        ga = g @ np.swapaxes(bv, -1, -2) if a_grad else None
        if not b_grad:
            return ga, None
        if av.ndim > bv.ndim:  # one `b` for the batch: summed in one product
            return ga, av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, np.swapaxes(av, -1, -2) @ g

    return tape.record(av @ bv, (a, b), pull)


def softmax(a: Var, axis: int = -1) -> Var:
    """Softmax along `axis`. A weight that could come out subnormal is
    exactly +0.0: the row sum of n entries is at most n, so every shifted
    entry below log(n * tiny) is left out. numpy's exp leaves its SIMD path
    on such entries, and a subnormal weight slows every product that reads
    it."""
    av = a.value
    out = av - av.max(axis=axis, keepdims=True)
    floor = math.log(float(np.finfo(out.dtype).tiny) * av.shape[axis])
    # an entry left out moves to about -max (or stays -inf), whose exp is
    # +0.0; every other entry loses exactly 0, and NaN fails the test and
    # stays NaN, so one unmasked exp stays on the SIMD path
    out -= (out < floor) * np.finfo(out.dtype).max
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def pull(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return a.tape.record(out, (a,), pull)


# ---------------------------------------------------------------------------
# image-shaped primitives


def _sum2x2(x: Array) -> Array:
    """Sum each 2x2 block of the last two axes, pairwise:
    (x00 + x01) + (x10 + x11)."""
    return (x[..., 0::2, 0::2] + x[..., 0::2, 1::2]) + (x[..., 1::2, 0::2] + x[..., 1::2, 1::2])


def _repeat2x2(x: Array) -> Array:
    """Repeat each pixel of the last two axes twice along both."""
    out = np.empty(x.shape[:-2] + (2 * x.shape[-2], 2 * x.shape[-1]), dtype=x.dtype)
    for dy in (0, 1):
        for dx in (0, 1):
            out[..., dy::2, dx::2] = x
    return out


def _im2col(x: Array, kh: int, kw: int) -> Array:
    """(C, B, H, W) zero-padded 'same' -> (C*kh*kw, B*H*W), each image
    padded on its own."""
    h, w = x.shape[-2:]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros(x.shape[:-2] + (h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[..., ph:ph + h, pw:pw + w] = x
    cols = np.empty((x.shape[0], kh, kw) + x.shape[1:], dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = xp[..., dy:dy + h, dx:dx + w]
    return cols.reshape(x.shape[0] * kh * kw, -1)


def conv2d(x: Var, weight: Var, bias: Var) -> Var:
    """'Same' 2D convolution (zero padding, stride 1, odd kernel sizes).

    x: (C_in, B, H, W); weight: (C_out, C_in, kh, kw); bias: (C_out,).
    """
    xv, wv, bv = x.value, weight.value, bias.value
    c_out, c_in, kh, kw = wv.shape
    if xv.ndim != 4 or xv.shape[0] != c_in:
        raise ShapeError(f"conv2d input {xv.shape} incompatible with kernel {wv.shape}")
    cols = _im2col(xv, kh, kw)
    # One product per image, in one matmul call and without copies: the
    # BLAS rounds an output column by its place in the product's column
    # blocks, so a single product over the batch would round an image
    # differently from the same image alone.
    b = xv.shape[1]
    out = np.empty((c_out,) + xv.shape[1:], dtype=np.result_type(wv, xv))
    np.matmul(wv.reshape(c_out, -1), cols.reshape(len(cols), b, -1).transpose(1, 0, 2),
              out=out.reshape(c_out, b, -1).transpose(1, 0, 2))
    out += bv.reshape(c_out, 1, 1, 1)

    def pull(g):
        # the input gradient is the 'same' convolution of g with the
        # spatially flipped kernel, input and output channels swapped; the
        # weight gradient correlates the input with the same columns of g,
        # which gives it flipped, input and output channels swapped
        gcols = _im2col(g, kh, kw)
        flipped = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
        gx = (flipped @ gcols).reshape(xv.shape)
        gw = (xv.reshape(c_in, -1) @ gcols.T).reshape(c_in, c_out, kh, kw)
        gb = g.reshape(c_out, -1).sum(axis=1)
        return gx, gw[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), gb

    return x.tape.record(out, (x, weight, bias), pull)


def avgpool2(x: Var) -> Var:
    """2x2 average pooling, stride 2, over the last two axes of (C, B, H,
    W). H and W must be even."""
    xv = x.value
    h, w = xv.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avgpool2 needs even spatial dims, got {xv.shape}")
    # The pairwise order numpy's mean uses on inputs at least 4 px wide, so
    # the bits match it there; 2-px-wide inputs may differ in the last bit.
    return x.tape.record(_sum2x2(xv) / 4, (x,), lambda g: (_repeat2x2(g * 0.25),))


def upsample_nearest(x: Var) -> Var:
    """Repeat each pixel of the last two axes twice along both."""
    return x.tape.record(_repeat2x2(x.value), (x,), lambda g: (_sum2x2(g),))


@functools.lru_cache(maxsize=64)
def _resample_matrix(n_out: int, n_in: int, dtype=np.float64) -> Array:
    """(n_out, n_in) align-corners linear interpolation along one axis, built
    in float64 and cast to `dtype`; memoized, so the returned array is
    read-only."""
    if n_out == 1 or n_in == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    i0 = np.clip(np.floor(pos).astype(int), 0, max(n_in - 2, 0))
    frac = pos - i0
    rows = np.arange(n_out)
    R = np.zeros((n_out, n_in))
    R[rows, i0] = 1.0 - frac
    R[rows, np.minimum(i0 + 1, n_in - 1)] += frac
    R = R.astype(dtype, copy=False)
    R.flags.writeable = False
    return R


def upsample_bilinear(x: Var, out_hw: tuple[int, int]) -> Var:
    """Resize (C, B, h, w) -> (C, B, H, W) with align-corners bilinear
    interpolation, as the separable product Ry @ X @ Rx^T per channel and
    image."""
    xv = x.value
    h, w = xv.shape[-2:]
    H, W = out_hw
    Ry = _resample_matrix(H, h, xv.dtype)
    Rx = _resample_matrix(W, w, xv.dtype)

    def pull(g):
        return (Ry.T @ g @ Rx,)

    return x.tape.record(Ry @ xv @ Rx.T, (x,), pull)


BOUNDS_SLACK = 1e-6  # px; convex combinations can overshoot by rounding


def bilinear_sample(m: Var, pts: Var) -> Var:
    """Sample a batch of maps (C, B, H, W), each at its own (B, N, 2)
    sub-pixel (u, v) points, -> (B, N, C).

    Differentiable in both the map and the points, but builds no map
    gradient for a tape constant; raises OutOfBounds for points outside
    [0, W-1] x [0, H-1] (beyond rounding slack) and for non-finite points.
    """
    mv, pv = m.value, pts.value
    shape, pshape, dtype = mv.shape, pv.shape, mv.dtype  # the pullback keeps no map
    map_grad = m.index is not None
    if mv.ndim != 4 or shape[1:2] != pshape[:-2]:
        raise ShapeError(f"cannot sample a {shape} map at {pshape} points")
    c, _, h, w = shape
    flat = pv.reshape(-1, 2)
    u, v = flat[:, 0], flat[:, 1]
    # float32 rounding overshoots by a few units in the last place of the extent
    slack = max(BOUNDS_SLACK, 16 * float(np.finfo(pv.dtype).eps) * max(h, w))
    inside = (
        (u >= -slack)
        & (u <= w - 1 + slack)
        & (v >= -slack)
        & (v <= h - 1 + slack)
    )  # False for NaN
    if not inside.all():
        raise OutOfBounds("sample point outside image bounds or not finite")
    u = np.clip(u, 0.0, float(w - 1))
    v = np.clip(v, 0.0, float(h - 1))
    x0 = np.clip(np.floor(u).astype(int), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(v).astype(int), 0, max(h - 2, 0))
    # on a width- or height-1 map the far corner clamps onto the near one;
    # its weight fx or fy is exactly 0 there
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    # in the map's dtype: a float32 point minus an int64 index is float64
    fx = (u - x0).astype(dtype, copy=False)[:, None]
    fy = (v - y0).astype(dtype, copy=False)[:, None]
    image = np.arange(len(u)) // pshape[-2]  # each point reads its own image
    m00 = mv[:, image, y0, x0].T
    m01 = mv[:, image, y0, x1].T
    m10 = mv[:, image, y1, x0].T
    m11 = mv[:, image, y1, x1].T
    out = (
        m00 * (1 - fx) * (1 - fy)
        + m01 * fx * (1 - fy)
        + m10 * (1 - fx) * fy
        + m11 * fx * fy
    )

    def pull(g):
        g = g.reshape(-1, c)
        du = (m01 - m00) * (1 - fy) + (m11 - m10) * fy
        dv = (m10 - m00) * (1 - fx) + (m11 - m01) * fx
        gp = np.stack([(g * du).sum(axis=1), (g * dv).sum(axis=1)], axis=1).reshape(pshape)
        if not map_grad:
            return None, gp
        # one bincount over flat (c, image, y, x) indices, corners in the
        # order 00, 01, 10, 11: each cell sums its terms in that fixed order
        cells = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
        cells += image * (h * w)
        size = math.prod(shape)
        idx = np.arange(c)[None, :, None] * (size // c) + cells[:, None, :]
        terms = np.stack([
            g * (1 - fx) * (1 - fy), g * fx * (1 - fy), g * (1 - fx) * fy, g * fx * fy
        ]).transpose(0, 2, 1)
        gm = np.bincount(idx.ravel(), terms.ravel(), minlength=size)  # always float64
        return gm.astype(dtype, copy=False).reshape(shape), gp

    return m.tape.record(out.reshape(pshape[:-1] + (c,)), (m, pts), pull)


# ---------------------------------------------------------------------------
# matching and alignment primitives

ZNCC_VARIANCE_FLOOR = 1e-12


def znorm_rows(x: Array) -> tuple[Array, Array]:
    """Zero-normalize each row (the last axis) of a plain array so that dot
    products of rows are ZNCC values.

    Rows with (near-)zero variance map to zero, making constant descriptors
    unmatchable rather than undefined. Also returns each row's centred norm
    with the last axis kept (an (N, 1) column for (N, D) rows), infinite for
    the rows mapped to zero.
    """
    out = x - x.mean(axis=-1, keepdims=True)
    norm = np.sqrt((out * out).sum(axis=-1, keepdims=True))
    ok = norm > ZNCC_VARIANCE_FLOOR
    out /= np.where(ok, norm, 1.0)
    out[~ok[..., 0]] = 0.0
    return out, np.where(ok, norm, np.inf)


def row_znorm(x: Var) -> Var:
    """Tape form of `znorm_rows`; rows mapped to zero get zero gradient."""
    out, norm = znorm_rows(x.value)

    def pull(g):
        h = (g - out * (g * out).sum(axis=-1, keepdims=True)) / norm
        return (h - h.mean(axis=-1, keepdims=True),)

    return x.tape.record(out, (x,), pull)


def backproject(uv: Var, d: Var, K: _geometry.CameraIntrinsics, valid: Array) -> Var:
    """Stereo lift of (..., 2) points (u, v) at (...) disparities -> (...,
    3) camera-frame points, by `geometry.backproject_points`, on the rows
    the boolean mask `valid` marks; the rest are zero with zero gradient."""
    uvv, dv = uv.value, d.value
    u, v, dd = uvv[valid, 0], uvv[valid, 1], dv[valid]
    out = np.zeros(valid.shape + (3,), dtype=np.result_type(uvv, dv))
    out[valid] = _geometry.backproject_points(np.stack([u, v, dd], axis=1), K)

    def pull(g):
        gx, gy, gz = g[valid].T
        s = K.b / dd
        gs = (gz * K.fu + (gy * (v - K.cv)) * (K.fu / K.fv)) + gx * (u - K.cu)
        guv, gd = np.zeros_like(uvv), np.zeros_like(dv)
        guv[valid] = np.stack([gx * s, gy * (s * (K.fu / K.fv))], axis=1)
        gd[valid] = -gs * K.b / (dd * dd)
        return guv, gd

    return uv.tape.record(out, (uv, d), pull)


def rigid_align(p_s: Var, p_t: Var, w: Var) -> Var:
    """Weighted rigid alignment of a batch of (B, N, 3) point sets under (B,
    N) weights -> (B, 12) rows [C.ravel(), r] with C @ p_s + r ~ p_t, by
    `estimator`'s closed form; pairs of zero weight take no part.

    Differentiates the SVD solution with the batched adjoint of Ionescu et
    al. (ICCV 2015). A set with fewer than 3 positively weighted pairs, a
    non-finite weighted pair, nearly collinear points or a near-tied
    spectrum (where the adjoint would blow up) gives a NaN row with zero
    gradient.

    Computes in float64 on any tape, and its rows and input gradients are
    float64: near a tied spectrum the adjoint's 1 / (s_j^2 - s_i^2) would
    amplify a float32 SVD's rounding into the gradient.
    """
    ps, pt, wv = (np.asarray(x.value, dtype=np.float64) for x in (p_s, p_t, w))
    active = wv > 0
    finite = np.isfinite(ps).all(axis=-1) & np.isfinite(pt).all(axis=-1) & np.isfinite(wv)
    ok = (active.sum(axis=1) >= 3) & (finite | ~active).all(axis=1)
    use = active & ok[:, None]
    wz = np.where(use, wv, 0.0)
    wsum = np.where(ok, wz.sum(axis=1), 1.0)[:, None]  # a set left out weighs 0
    wn = wz / wsum
    ps0 = np.where(use[..., None], ps, 0.0)
    pt0 = np.where(use[..., None], pt, 0.0)
    mu_s = (wn[:, None] @ ps0)[:, 0]
    mu_t = (wn[:, None] @ pt0)[:, 0]
    a = ps0 - mu_s[:, None]
    b = pt0 - mu_t[:, None]
    W = np.swapaxes(b * wn[..., None], 1, 2) @ a
    ok &= np.isfinite(W).all(axis=(1, 2))
    W[~ok] = np.eye(3)  # a stand-in the SVD accepts; its row is NaN
    C, (U, s, Vt, D), collinear = _estimator.rotation_from_covariance(W)
    gap = -np.diff(s, axis=1).max(axis=1)
    ok &= ~collinear & (gap >= 1e-8 * np.maximum(1.0, s[:, 0]))
    r = mu_t - (C @ mu_s[..., None])[..., 0]
    out = np.concatenate([C.reshape(-1, 9), r], axis=1)
    out[~ok] = np.nan

    # F[b, i, j] = 1 / (s_j^2 - s_i^2) off the diagonal
    s2 = s * s
    denom = s2[:, None, :] - s2[:, :, None]
    F = np.divide(1.0, denom, out=np.zeros_like(denom),
                  where=~np.eye(3, dtype=bool) & ok[:, None, None])
    Ct, V, Ut = np.swapaxes(C, 1, 2), np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)

    def pull(g):
        g = np.where(ok[:, None], g, 0.0)
        gr = g[:, 9:]
        # r = mu_t - C @ mu_s
        gC = g[:, :9].reshape(-1, 3, 3) - gr[:, :, None] * mu_s[:, None, :]
        gmu_s = -(Ct @ gr[..., None])[..., 0]
        # C = U @ D @ Vt: adjoints of the SVD factors
        A = Ut @ (gC @ V @ D)
        B = Vt @ (np.swapaxes(gC, 1, 2) @ U @ D)
        P = F * ((A - np.swapaxes(A, 1, 2)) * s[:, None, :]
                 + s[:, :, None] * (B - np.swapaxes(B, 1, 2)))
        gW = U @ P @ Vt
        # W = sum_i wn_i * outer(b_i, a_i)
        bgW = b @ gW
        gb = wn[..., None] * (a @ np.swapaxes(gW, 1, 2))
        ga = wn[..., None] * bgW
        gwn = (bgW * a).sum(axis=-1)
        # centering, then the weighted centroids
        gmu_t = gr - gb.sum(axis=1)
        gmu_s = gmu_s - ga.sum(axis=1)
        gp_s = ga + wn[..., None] * gmu_s[:, None]
        gp_t = gb + wn[..., None] * gmu_t[:, None]
        gwn += (ps0 @ gmu_s[..., None])[..., 0] + (pt0 @ gmu_t[..., None])[..., 0]
        # weight normalization
        gw = (gwn - (gwn * wn).sum(axis=1, keepdims=True)) / wsum
        return gp_s, gp_t, np.where(use & ok[:, None], gw, 0.0)

    return p_s.tape.record(out, (p_s, p_t, w), pull)
