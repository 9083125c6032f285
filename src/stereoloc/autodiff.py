"""Reverse-mode automatic differentiation over a per-batch tape.

The tape records coarse array-level primitives (whole softmax, whole ZNCC
normalization, whole SVD alignment) rather than scalar operations; each
primitive carries a hand-derived pullback. One tape per training batch: the
image primitives take a batch as a second axis, (C, B, H, W), and the
matching primitives a leading one. `backward` walks the record once in
reverse index order, which makes gradient accumulation deterministic.
Pullbacks close over the shapes they need, not over their inputs, unless
the gradient reads an input's values. Every `Var` owns its value, and the
tape holds only each node's parent indices and pullback, so a value dies
with its last `Var`. Inference runs the same primitives on a no-grad tape
(`Tape(grad=False)`), which records nothing: its `Var`s carry no index.
A tape has one dtype, float64 unless given: its constants and parameters
are cast to it, and the primitives keep it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import estimator as _estimator
from .errors import DegenerateGradient, OutOfBounds, ShapeError

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

    adjoints: dict[int | None, Array] = {output.index: np.ones(())}
    for i in range(len(tape) - 1, -1, -1):
        parents, pullback = tape._nodes[i]
        if pullback is None or i not in adjoints:
            continue  # a parameter keeps its adjoint
        for p, g in zip(parents, pullback(adjoints.pop(i))):
            if g is None or p is None:
                continue
            if p in adjoints:
                adjoints[p] = adjoints[p] + g
            else:
                adjoints[p] = np.asarray(g, dtype=float)

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
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value

    def pull(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return tape.record(av * bv, (a, b), pull)


def div(a, b) -> Var:
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value

    def pull(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return tape.record(av / bv, (a, b), pull)


def cos(a: Var) -> Var:
    av = a.value
    return a.tape.record(np.cos(av), (a,), lambda g: (-g * np.sin(av),))


def tanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return a.tape.record(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Var) -> Var:
    av = a.value
    out = np.where(av >= 0, 1.0 / (1.0 + np.exp(-np.abs(av))),
                   np.exp(-np.abs(av)) / (1.0 + np.exp(-np.abs(av))))
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


def sum_(a: Var, axis=None, keepdims: bool = False) -> Var:
    out = a.value.sum(axis=axis, keepdims=keepdims)
    shape = a.value.shape

    def pull(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).copy(),)

    return a.tape.record(out, (a,), pull)


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return a.tape.record(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Var, axes=None) -> Var:
    av = a.value
    if axes is None:
        axes = tuple(reversed(range(av.ndim)))
    inv = np.argsort(axes)
    return a.tape.record(
        np.transpose(av, axes), (a,), lambda g: (np.transpose(g, inv),)
    )


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
    """Matrix product; `a` may carry a leading batch axis, and `b` with it
    or without (one matrix for every batch entry)."""
    tape, a, b = _pair(a, b)
    av, bv = a.value, b.value

    def pull(g):
        if bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        ga = g @ np.swapaxes(bv, -1, -2)
        if av.ndim > bv.ndim:  # one `b` for the batch: summed in one product
            return ga, av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, np.swapaxes(av, -1, -2) @ g

    return tape.record(av @ bv, (a, b), pull)


def softmax(a: Var, axis: int = -1) -> Var:
    av = a.value
    out = av - av.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def pull(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return a.tape.record(out, (a,), pull)


# ---------------------------------------------------------------------------
# image-shaped primitives


def _im2col(x: Array, kh: int, kw: int) -> Array:
    """(C, H, W) zero-padded 'same' -> (C*kh*kw, H*W); a batch (C, B, H, W)
    gives (C*kh*kw, B*H*W), each image padded on its own."""
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

    x: (C_in, H, W), or a batch (C_in, B, H, W); weight: (C_out, C_in, kh,
    kw); bias: (C_out,).
    """
    xv, wv, bv = x.value, weight.value, bias.value
    c_out, c_in, kh, kw = wv.shape
    if xv.ndim not in (3, 4) or xv.shape[0] != c_in:
        raise ShapeError(f"conv2d input {xv.shape} incompatible with kernel {wv.shape}")
    cols = _im2col(xv, kh, kw)
    if xv.ndim == 3:
        out = (wv.reshape(c_out, -1) @ cols).reshape(c_out, *xv.shape[1:])
    else:
        # One product per image, in one matmul call and without copies: the
        # BLAS rounds an output column by its place in the product's column
        # blocks, so a single product over the batch would round an image
        # differently from the same image alone.
        b = xv.shape[1]
        out = np.empty((c_out,) + xv.shape[1:], dtype=np.result_type(wv, xv))
        np.matmul(wv.reshape(c_out, -1), cols.reshape(len(cols), b, -1).transpose(1, 0, 2),
                  out=out.reshape(c_out, b, -1).transpose(1, 0, 2))
    out += bv.reshape((c_out,) + (1,) * (xv.ndim - 1))

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
    """2x2 average pooling, stride 2, over the last two axes of (C, H, W) or
    (C, B, H, W). H and W must be even."""
    xv = x.value
    h, w = xv.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avgpool2 needs even spatial dims, got {xv.shape}")
    # The pairwise order numpy's mean uses on inputs at least 4 px wide, so
    # the bits match it there; 2-px-wide inputs may differ in the last bit.
    out = ((xv[..., 0::2, 0::2] + xv[..., 0::2, 1::2])
           + (xv[..., 1::2, 0::2] + xv[..., 1::2, 1::2])) / 4

    def pull(g):
        return (np.repeat(np.repeat(g * 0.25, 2, axis=-2), 2, axis=-1),)

    return x.tape.record(out, (x,), pull)


def upsample_nearest(x: Var, factor: int = 2) -> Var:
    """Repeat each pixel of the last two axes `factor` times along both."""
    xv = x.value
    shape = xv.shape

    def pull(g):
        *lead, h, w = shape
        return (g.reshape(*lead, h, factor, w, factor).sum(axis=(-3, -1)),)

    return x.tape.record(
        np.repeat(np.repeat(xv, factor, axis=-2), factor, axis=-1), (x,), pull
    )


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
    """Resize (C, h, w) -> (C, H, W), or (C, B, h, w) -> (C, B, H, W), with
    align-corners bilinear interpolation, as the separable product
    Ry @ X @ Rx^T per channel and image."""
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
    """Sample a (C, H, W) map at (N, 2) sub-pixel (u, v) points -> (N, C),
    or a batch of maps (C, B, H, W), each at its own points (B, N, 2), ->
    (B, N, C).

    Differentiable in both the map and the points; raises OutOfBounds for
    points outside [0, W-1] x [0, H-1] (beyond rounding slack) and for
    non-finite points.
    """
    mv, pv = m.value, pts.value
    shape, pshape = mv.shape, pv.shape  # the pullback keeps no map
    c, h, w = shape[0], shape[-2], shape[-1]
    if shape[1:-2] != pshape[:-2]:
        raise ShapeError(f"cannot sample a {shape} map at {pshape} points")
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
    fx = (u - x0).astype(mv.dtype, copy=False)[:, None]
    fy = (v - y0).astype(mv.dtype, copy=False)[:, None]
    # in a batch, each point reads its own image
    at = (slice(None),) if pv.ndim == 2 else (slice(None), np.arange(len(u)) // pshape[-2])
    m00 = mv[at + (y0, x0)].T
    m01 = mv[at + (y0, x1)].T
    m10 = mv[at + (y1, x0)].T
    m11 = mv[at + (y1, x1)].T
    out = (
        m00 * (1 - fx) * (1 - fy)
        + m01 * fx * (1 - fy)
        + m10 * (1 - fx) * fy
        + m11 * fx * fy
    )

    def pull(g):
        g = g.reshape(-1, c)
        # one bincount over flat (c, image, y, x) indices, corners in the
        # order 00, 01, 10, 11: each cell sums its terms in that fixed order
        cells = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
        if len(at) > 1:
            cells += at[1] * (h * w)
        size = math.prod(shape)
        idx = np.arange(c)[None, :, None] * (size // c) + cells[:, None, :]
        terms = np.stack([
            g * (1 - fx) * (1 - fy), g * fx * (1 - fy), g * (1 - fx) * fy, g * fx * fy
        ]).transpose(0, 2, 1)
        gm = np.bincount(idx.ravel(), terms.ravel(), minlength=size)
        du = (m01 - m00) * (1 - fy) + (m11 - m10) * fy
        dv = (m10 - m00) * (1 - fx) + (m11 - m01) * fx
        gp = np.stack([(g * du).sum(axis=1), (g * dv).sum(axis=1)], axis=1)
        return gm.reshape(shape), gp.reshape(pshape)

    if pv.ndim > 2:
        out = out.reshape(pshape[:-1] + (c,))
    return m.tape.record(out, (m, pts), pull)


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


def rigid_align(p_s: Var, p_t: Var, w: Var) -> Var:
    """Weighted rigid alignment of (N, 3) point sets; returns a flat
    12-vector [C.ravel(), r] with C @ p_s + r ~ p_t.

    Differentiates the closed-form SVD solution; raises DegenerateGradient
    when singular values tie within tolerance (the adjoint would blow up).
    """
    ps, pt, wv = p_s.value, p_t.value, w.value
    C, r, aux = _estimator.align_core(ps, pt, wv)
    U, s, Vt, D = aux
    gaps = np.array([s[0] - s[1], s[1] - s[2], s[0] - s[2]])
    if gaps.min() < 1e-8 * max(1.0, s[0]):
        raise DegenerateGradient(f"near-tied singular spectrum {s}")

    wsum = wv.sum()
    wn = wv / wsum
    mu_s = wn @ ps
    mu_t = wn @ pt
    a = ps - mu_s
    b = pt - mu_t

    # F[i, j] = 1 / (s_j^2 - s_i^2) off the diagonal
    s2 = s * s
    denom = s2[None, :] - s2[:, None]
    F = np.zeros((3, 3))
    off = ~np.eye(3, dtype=bool)
    F[off] = 1.0 / denom[off]

    def pull(g):
        gC = g[:9].reshape(3, 3)
        gr = g[9:]
        # r = mu_t - C @ mu_s
        gC = gC - np.outer(gr, mu_s)
        gmu_t = gr.copy()
        gmu_s = -C.T @ gr
        # C = U @ D @ Vt: adjoints of the SVD factors
        gU = gC @ Vt.T @ D
        gV = gC.T @ U @ D
        A = U.T @ gU
        B = Vt @ gV
        P = F * ((A - A.T) * s[None, :] + s[:, None] * (B - B.T))
        gW = U @ P @ Vt
        # W = sum_i wn_i * outer(b_i, a_i)
        gb = wn[:, None] * (a @ gW.T)
        ga = wn[:, None] * (b @ gW)
        gwn = np.einsum("ij,ni,nj->n", gW, b, a)
        # centering
        gp_t = gb.copy()
        gmu_t = gmu_t - gb.sum(axis=0)
        gp_s = ga.copy()
        gmu_s = gmu_s - ga.sum(axis=0)
        # weighted centroids
        gp_s += np.outer(wn, gmu_s)
        gp_t += np.outer(wn, gmu_t)
        gwn += ps @ gmu_s + pt @ gmu_t
        # weight normalization
        gw = (gwn - gwn @ wn) / wsum
        return gp_s, gp_t, gw

    return p_s.tape.record(np.concatenate([C.ravel(), r]), (p_s, p_t, w), pull)
