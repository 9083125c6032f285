"""Every tape primitive is checked against central finite differences, plus
the structural contracts of backward()."""

import contextlib
import gc
import math
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stereoloc import autodiff as ad
from stereoloc.autodiff import Tape, backward, finite_diff
from stereoloc.errors import OutOfBounds, ShapeError
from stereoloc.estimator import align_core
from stereoloc.geometry import CameraIntrinsics, backproject_points, rot_z, valid_disparity

from conftest import rel_err
from oracles import (
    avgpool2_pullback_reference,
    backproject_jacobian,
    avgpool2_reference,
    bilinear_sample_reference,
    conv2d_reference,
    conv2d_weight_grad_reference,
    im2col_reference,
    sigmoid_reference,
    softmax_masked_exp,
    softmax_reference,
    svd_alignment_gradient,
    upsample_nearest_pullback_reference,
    upsample_nearest_reference,
    znorm_rows_reference,
)


def check_gradient(build, x0: np.ndarray, tol: float = 1e-5, h=None) -> None:
    """`build(tape, var) -> scalar Var`; compares backward vs finite_diff."""
    tape = Tape()
    x = tape.param(x0)
    out = build(tape, x)
    grads = backward(tape, out)
    analytic = grads[x.index]

    def f(v):
        t = Tape()
        xv = t.param(v)
        return float(build(t, xv).value)

    numeric = finite_diff(f, x0, h=h)
    assert rel_err(analytic, numeric) < tol


def scalarize(out, weights):
    return ad.sum_(ad.mul(out, out.tape.constant(weights)))


class TestFiniteDiff:
    def test_square_at_three(self):
        g = finite_diff(lambda x: float(x**2), np.array(3.0), h=1e-5)
        assert abs(g - 6.0) < 1e-6

    def test_linear_exact_for_any_step(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=5)
        x = rng.normal(size=5)
        for h in (1e-8, 1e-4, 1e-1):
            g = finite_diff(lambda v: float(a @ v), x, h=h)
            assert np.abs(g - a).max() < 1e-7


class TestBackwardContracts:
    def test_square_gradient(self):
        t = Tape()
        x = t.param(np.array(3.0))
        y = ad.mul(x, x)
        assert backward(t, y)[x.index] == pytest.approx(6.0)

    def test_product_gradients(self):
        t = Tape()
        x = t.param(np.array(2.0))
        y = t.param(np.array(5.0))
        g = backward(t, ad.mul(x, y))
        assert g[x.index] == pytest.approx(5.0)
        assert g[y.index] == pytest.approx(2.0)

    def test_nonscalar_output_rejected(self):
        t = Tape()
        x = t.param(np.ones(3))
        with pytest.raises(ShapeError):
            backward(t, ad.mul(x, 2.0))

    def test_unreached_parameter_gets_zeros(self):
        t = Tape()
        x = t.param(np.ones(3))
        unused = t.param(np.ones((2, 2)))
        g = backward(t, ad.sum_(x))
        assert np.array_equal(g[unused.index], np.zeros((2, 2)))

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            t = Tape()
            x = t.param(rng.normal(size=(4, 5)))
            y = ad.softmax(ad.tanh(ad.mul(x, 1.7)), axis=1)
            out = ad.sum_(ad.mul(y, t.constant(rng.normal(size=(4, 5)))))
            return backward(t, out)[x.index]

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_gradient_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x0 = rng.normal(size=6)
            wa = rng.normal(size=6)
            wb = rng.normal(size=6)

            def grad_of(weights_list):
                t = Tape()
                x = t.param(x0)
                total = None
                for wgt in weights_list:
                    term = ad.sum_(ad.mul(ad.tanh(x), t.constant(wgt)))
                    total = term if total is None else ad.add(total, term)
                return backward(t, total)[x.index]

            lhs = grad_of([wa, wb])
            rhs = grad_of([wa]) + grad_of([wb])
            assert np.abs(lhs - rhs).max() < 1e-12


def _rand(rng, *shape):
    return rng.normal(size=shape)


K_BP = CameraIntrinsics(fu=3.0, fv=2.0, cu=0.4, cv=-0.3, b=0.7)


def _backproject_rows(x):
    """Lift (..., >=3) rows (u, v, c, ...) at disparity c^2 + 0.5, every row
    valid, so the gradient reaches the points and the disparities."""
    c = ad.take(x, slice(2, 3), axis=-1)
    d = ad.reshape(ad.add(ad.mul(c, c), 0.5), x.shape[:-1])
    return ad.backproject(ad.take(x, slice(0, 2), axis=-1), d, K_BP, np.ones(x.shape[:-1], bool))


PRIMITIVE_CASES = {
    "add": lambda t, x, rng: scalarize(ad.add(x, t.constant(_rand(rng, *x.shape))), _rand(rng, *x.shape)),
    "add_broadcast": lambda t, x, rng: scalarize(ad.add(x, t.constant(_rand(rng, x.shape[-1]))), _rand(rng, *x.shape)),
    "sub": lambda t, x, rng: scalarize(ad.sub(t.constant(_rand(rng, *x.shape)), x), _rand(rng, *x.shape)),
    "mul": lambda t, x, rng: scalarize(ad.mul(x, t.constant(_rand(rng, *x.shape))), _rand(rng, *x.shape)),
    "cos": lambda t, x, rng: scalarize(ad.cos(x), _rand(rng, *x.shape)),
    "tanh": lambda t, x, rng: scalarize(ad.tanh(x), _rand(rng, *x.shape)),
    "sigmoid": lambda t, x, rng: scalarize(ad.sigmoid(x), _rand(rng, *x.shape)),
    "atan2": lambda t, x, rng: scalarize(ad.atan2(x, t.constant(_rand(rng, *x.shape) + 3.0)), _rand(rng, *x.shape)),
    "sum_all": lambda t, x, rng: ad.mul(ad.sum_(x), 1.3),
    "sum_axis": lambda t, x, rng: scalarize(ad.sum_(x, axis=0), _rand(rng, x.shape[1])),
    "softmax": lambda t, x, rng: scalarize(ad.softmax(x, axis=1), _rand(rng, *x.shape)),
    "matmul": lambda t, x, rng: scalarize(ad.matmul(x, t.constant(_rand(rng, x.shape[1], 3))), _rand(rng, x.shape[0], 3)),
    "reshape": lambda t, x, rng: scalarize(ad.reshape(x, (x.value.size,)), _rand(rng, x.value.size)),
    "transpose": lambda t, x, rng: scalarize(ad.transpose(x, (1, 0)), _rand(rng, x.shape[1], x.shape[0])),
    "concat": lambda t, x, rng: scalarize(ad.concat([x, t.constant(_rand(rng, *x.shape))], axis=0), _rand(rng, 2 * x.shape[0], x.shape[1])),
    "take": lambda t, x, rng: scalarize(ad.take(x, [0, 2, 2], axis=0), _rand(rng, 3, x.shape[1])),
    "take_slice": lambda t, x, rng: scalarize(ad.take(x, slice(1, 4), axis=1), _rand(rng, x.shape[0], 3)),
    "row_znorm": lambda t, x, rng: scalarize(ad.row_znorm(x), _rand(rng, *x.shape)),
    "backproject": lambda t, x, rng: scalarize(_backproject_rows(x), _rand(rng, x.shape[0], 3)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    # seeded by the case's name, so adding or removing a case leaves the
    # inputs of every other case unchanged
    build = PRIMITIVE_CASES[name]
    key = zlib.crc32(name.encode())
    for seed in range(100):
        x0 = np.random.default_rng((key, seed)).normal(size=(4, 5))
        check_gradient(
            lambda t, x: build(t, x, np.random.default_rng((key, seed, 1))), x0
        )


def _off_grid(rng, shape, hi):
    """Sample points strictly inside [0, hi] and at least 0.1 from an integer,
    where bilinear interpolation is smooth."""
    x = rng.uniform(0.2, hi - 0.2, shape)
    return np.where(np.abs(x - np.round(x)) < 0.1, x + 0.15, x)


# Inputs with a batch axis: the image primitives take (C, B, H, W), sampling
# takes (B, N, 2) points, and matmul and row_znorm a leading batch axis.
# name -> (x0 of seed rng, build(tape, x, rng) -> scalar)
BATCHED_CASES = {
    "conv2d_x": (lambda r: r.normal(size=(2, 3, 4, 6)), lambda t, x, r: scalarize(ad.conv2d(
        x, t.constant(_rand(r, 3, 2, 3, 3)), t.constant(_rand(r, 3))), _rand(r, 3, 3, 4, 6))),
    "conv2d_w": (lambda r: r.normal(size=(3, 2, 3, 3)), lambda t, w, r: scalarize(ad.conv2d(
        t.constant(_rand(r, 2, 3, 4, 6)), w, t.constant(_rand(r, 3))), _rand(r, 3, 3, 4, 6))),
    "conv2d_b": (lambda r: r.normal(size=3), lambda t, b, r: scalarize(ad.conv2d(
        t.constant(_rand(r, 2, 3, 4, 6)), t.constant(_rand(r, 3, 2, 3, 3)), b), _rand(r, 3, 3, 4, 6))),
    "avgpool2": (lambda r: r.normal(size=(2, 3, 4, 6)),
                 lambda t, x, r: scalarize(ad.avgpool2(x), _rand(r, 2, 3, 2, 3))),
    "upsample_nearest": (lambda r: r.normal(size=(2, 3, 2, 3)),
                         lambda t, x, r: scalarize(ad.upsample_nearest(x), _rand(r, 2, 3, 4, 6))),
    "upsample_bilinear": (lambda r: r.normal(size=(2, 3, 2, 3)), lambda t, x, r: scalarize(
        ad.upsample_bilinear(x, (5, 7)), _rand(r, 2, 3, 5, 7))),
    "bilinear_sample_map": (lambda r: r.normal(size=(2, 3, 5, 6)), lambda t, m, r: scalarize(
        ad.bilinear_sample(m, t.constant(np.stack([_off_grid(r, (3, 4), 5), _off_grid(r, (3, 4), 4)],
                                                  axis=-1))), _rand(r, 3, 4, 2))),
    "bilinear_sample_points": (
        lambda r: np.stack([_off_grid(r, (3, 4), 5), _off_grid(r, (3, 4), 4)], axis=-1),
        lambda t, p, r: scalarize(ad.bilinear_sample(t.constant(_rand(r, 2, 3, 5, 6)), p),
                                  _rand(r, 3, 4, 2))),
    "matmul_batch_lhs": (lambda r: r.normal(size=(3, 4, 5)), lambda t, x, r: scalarize(
        ad.matmul(x, t.constant(_rand(r, 5, 2))), _rand(r, 3, 4, 2))),
    "matmul_shared_rhs": (lambda r: r.normal(size=(5, 2)), lambda t, x, r: scalarize(
        ad.matmul(t.constant(_rand(r, 3, 4, 5)), x), _rand(r, 3, 4, 2))),
    "matmul_batched_lhs": (lambda r: r.normal(size=(3, 4, 5)), lambda t, x, r: scalarize(
        ad.matmul(x, t.constant(_rand(r, 3, 5, 2))), _rand(r, 3, 4, 2))),
    "matmul_batched_rhs": (lambda r: r.normal(size=(3, 5, 2)), lambda t, x, r: scalarize(
        ad.matmul(t.constant(_rand(r, 3, 4, 5)), x), _rand(r, 3, 4, 2))),
    "row_znorm": (lambda r: r.normal(size=(3, 4, 5)),
                  lambda t, x, r: scalarize(ad.row_znorm(x), _rand(r, 3, 4, 5))),
    "backproject": (lambda r: r.normal(size=(3, 4, 3)),
                    lambda t, x, r: scalarize(_backproject_rows(x), _rand(r, 3, 4, 3))),
}


@pytest.mark.parametrize("name", sorted(BATCHED_CASES))
def test_batched_primitive_gradients(name):
    make_x0, build = BATCHED_CASES[name]
    key = zlib.crc32(name.encode())
    for seed in range(10):
        x0 = make_x0(np.random.default_rng((key, seed)))
        check_gradient(
            lambda t, x: build(t, x, np.random.default_rng((key, seed, 1))), x0, tol=1e-6
        )


class TestBatchAxis:
    """A batch runs each image through the same arithmetic as the image
    alone, so its forward values are bitwise the per-image ones."""

    @pytest.mark.parametrize("c_in, c_out, hw", [(1, 8, (24, 32)), (32, 32, (3, 4)),
                                                 (16, 1, (6, 8)), (3, 4, (5, 7))])
    def test_conv2d_batch_is_per_image(self, c_in, c_out, hw):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(c_in, 4, *hw))
        w, b = rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
        t = Tape(grad=False)
        batch = ad.conv2d(t.constant(x), t.constant(w), t.constant(b)).value
        for i in range(4):  # each image as a batch of one
            alone = ad.conv2d(t.constant(x[:, i:i + 1]), t.constant(w), t.constant(b)).value
            assert batch[:, i:i + 1].tobytes() == alone.tobytes()

    def test_image_primitives_batch_is_per_image(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(5, 3, 6, 8))
        t = Tape(grad=False)
        for op in (ad.avgpool2, ad.upsample_nearest,
                   lambda v: ad.upsample_bilinear(v, (11, 13))):
            batch = op(t.constant(x)).value
            for i in range(3):
                assert batch[:, i].tobytes() == op(t.constant(x[:, i])).value.tobytes()

    def test_bilinear_sample_reads_each_points_own_image(self):
        rng = np.random.default_rng(72)
        m = rng.normal(size=(4, 3, 5, 6))
        pts = np.stack([rng.uniform(0, 5, (3, 7)), rng.uniform(0, 4, (3, 7))], axis=-1)
        t = Tape(grad=False)
        batch = ad.bilinear_sample(t.constant(m), t.constant(pts)).value
        assert batch.shape == (3, 7, 4)
        for i in range(3):  # each image as a batch of one
            alone = ad.bilinear_sample(t.constant(m[:, i:i + 1]), t.constant(pts[i:i + 1])).value
            assert batch[i:i + 1].tobytes() == alone.tobytes()
        with pytest.raises(ShapeError):
            ad.bilinear_sample(t.constant(m), t.constant(pts[:2]))

    @pytest.mark.parametrize("x_shape, k", [((2, 1, 6, 8), 3), ((8, 1, 3, 4), 3),
                                            ((3, 4, 5, 7), 3), ((1, 4, 24, 32), 3),
                                            ((4, 2, 6, 8), 5), ((2, 1, 5, 7), 1)])
    def test_conv2d_weight_gradient_matches_the_column_formula(self, x_shape, k):
        rng = np.random.default_rng(73)
        c_out = 6
        x0 = rng.normal(size=x_shape)
        w0 = rng.normal(size=(c_out, x_shape[0], k, k))
        up = rng.normal(size=(c_out, *x_shape[1:]))
        t = Tape()
        w = t.param(w0)
        out = ad.conv2d(t.constant(x0), w, t.constant(np.zeros(c_out)))
        gw = backward(t, ad.sum_(ad.mul(out, t.constant(up))))[w.index]
        assert rel_err(gw, conv2d_weight_grad_reference(x0, up, k, k)) < 1e-12


class TestConstantOperands:
    """mul and matmul build no gradient for an operand that is a tape
    constant; the other operand's gradient is bitwise the one taken with
    both operands as parameters."""

    @pytest.mark.parametrize("op, shapes", [
        (ad.mul, ((4, 3, 5), ())),  # a temperature times similarities
        (ad.mul, ((3, 5), (3, 1))),
        (ad.matmul, ((2, 4, 6), (6, 2))),  # attention times pixel coordinates
        (ad.matmul, ((2, 4, 6), (2, 6, 3))),
        (ad.matmul, ((4, 6), (6, 3))),
    ], ids=["mul_scalar", "mul_broadcast", "matmul_shared", "matmul_batch", "matmul"])
    @pytest.mark.parametrize("constant", [0, 1], ids=["constant_a", "constant_b"])
    def test_constant_operand_gets_no_gradient(self, op, shapes, constant, monkeypatch):
        rng = np.random.default_rng(31)
        values = [rng.normal(size=shape) for shape in shapes]
        pullbacks = []
        record = Tape.record

        def kept(tape, value, parents, pullback):
            pullbacks.append(pullback)
            return record(tape, value, parents, pullback)

        monkeypatch.setattr(Tape, "record", kept)
        grads = []
        for as_param in (True, False):
            t = Tape()
            operands = [t.param(v) if as_param or k != constant else t.constant(v)
                        for k, v in enumerate(values)]
            pullbacks.clear()
            out = op(*operands)
            if as_param:  # the first pass draws the upstream both passes use
                up = rng.normal(size=out.shape)
            pulled = pullbacks[0](up)
            assert (pulled[constant] is None) == (not as_param)
            assert pulled[1 - constant] is not None
            grads.append(backward(t, scalarize(out, up))[operands[1 - constant].index])
        assert _same_bits(*grads)


class TestPullbacksKeepShapes:
    """A pullback that needs only its input's shape does not keep the input
    alive: with the input and output `Var`s dropped, only the tape is left,
    and the input array is freed."""

    @pytest.mark.parametrize("op", [
        lambda x: ad.take(x, slice(1, 3), axis=1),
        lambda x: ad.take(x, [0, 2, 2], axis=0),
        lambda x: ad.reshape(x, (-1,)),
        lambda x: ad.bilinear_sample(
            x, x.tape.constant(np.tile([[0.5, 1.5], [2.0, 0.25]], (4, 1, 1)))),
        ad.upsample_nearest,
        lambda x: ad.sum_(x, axis=0),
    ], ids=["take_slice", "take_indices", "reshape", "bilinear_sample",
            "upsample_nearest", "sum_"])
    def test_input_freed_once_its_vars_are_dropped(self, op):
        with _gc_disabled():
            t = Tape()
            # a computed input: a parameter's value is held by the tape
            x = ad.add(t.param(np.zeros((3, 4, 4, 5))), t.constant(np.ones((3, 4, 4, 5))))
            y = op(x)
            value = weakref.ref(x.value)
            del x, y
            assert len(t) == 3 and value() is None

    def test_conv2d_pullback_keeps_its_input_not_its_columns(self):
        import tracemalloc

        rng = np.random.default_rng(74)
        x0 = rng.normal(size=(8, 1, 48, 64))
        t = Tape()
        x = t.param(x0)  # the tape holds the input either way
        w, b = t.param(rng.normal(size=(8, 8, 3, 3))), t.param(np.zeros(8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d(x, w, b)
            del out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < x0.nbytes  # the columns are 9 times the input


class TestTake:
    def test_slice_pullback_stores_without_add_at(self, monkeypatch):
        scattered = []

        class Add:
            def at(self, *args):
                scattered.append(1)
                np.add.at(*args)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(ad, "np", Numpy())
        up = np.arange(6.0).reshape(3, 2)
        for indices, adds in ((slice(1, 3), 0), ([1, 2], 1)):
            t = Tape()
            x = t.param(np.ones((3, 4)))
            out = ad.sum_(ad.mul(ad.take(x, indices, axis=1), t.constant(up)))
            grad = backward(t, out)[x.index]
            assert len(scattered) == adds
            assert np.array_equal(grad[:, 1:3], up) and not grad[:, [0, 3]].any()


class TestImagePrimitives:
    def test_conv2d_gradients_all_inputs(self):
        rng = np.random.default_rng(20)
        x0 = rng.normal(size=(2, 1, 6, 8))
        w0 = rng.normal(size=(3, 2, 3, 3))
        b0 = rng.normal(size=3)
        up = rng.normal(size=(3, 1, 6, 8))

        def make(which):
            def f(v):
                t = Tape()
                xs = {"x": x0, "w": w0, "b": b0}
                xs[which] = v
                out = ad.conv2d(t.constant(xs["x"]) if which != "x" else t.param(xs["x"]),
                                t.param(xs["w"]) if which == "w" else t.constant(xs["w"]),
                                t.param(xs["b"]) if which == "b" else t.constant(xs["b"]))
                return float(ad.sum_(ad.mul(out, t.constant(up))).value)

            return f

        for which, v0 in (("x", x0), ("w", w0), ("b", b0)):
            t = Tape()
            x = t.param(x0) if which == "x" else t.constant(x0)
            w = t.param(w0) if which == "w" else t.constant(w0)
            b = t.param(b0) if which == "b" else t.constant(b0)
            out = ad.sum_(ad.mul(ad.conv2d(x, w, b), t.constant(up)))
            var = {"x": x, "w": w, "b": b}[which]
            analytic = backward(t, out)[var.index]
            numeric = finite_diff(make(which), v0)
            assert rel_err(analytic, numeric) < 1e-6, which

    def test_conv2d_shape_check(self):
        t = Tape()
        with pytest.raises(ShapeError):
            ad.conv2d(t.constant(np.zeros((2, 1, 4, 4))),
                      t.constant(np.zeros((3, 1, 3, 3))), t.constant(np.zeros(3)))

    def test_avgpool_gradient_and_shape(self):
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=(3, 6, 4))
        up = rng.normal(size=(3, 3, 2))
        check_gradient(lambda t, x: scalarize(ad.avgpool2(x), up), x0, tol=1e-7)
        with pytest.raises(ShapeError):
            ad.avgpool2(Tape().constant(np.zeros((1, 5, 4))))

    def test_upsample_nearest_gradient(self):
        rng = np.random.default_rng(22)
        x0 = rng.normal(size=(2, 3, 4))
        up = rng.normal(size=(2, 6, 8))
        check_gradient(lambda t, x: scalarize(ad.upsample_nearest(x), up), x0, tol=1e-7)

    def test_upsample_bilinear_gradient(self):
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(2, 3, 4))
        up = rng.normal(size=(2, 7, 9))
        check_gradient(
            lambda t, x: scalarize(ad.upsample_bilinear(x, (7, 9)), up), x0, tol=1e-6
        )

    def test_upsample_bilinear_corners_exact(self):
        rng = np.random.default_rng(24)
        x0 = rng.normal(size=(1, 3, 5))
        t = Tape()
        out = ad.upsample_bilinear(t.constant(x0), (9, 13)).value
        assert out[0, 0, 0] == x0[0, 0, 0]
        assert out[0, -1, -1] == x0[0, -1, -1]

    def test_bilinear_sample_values_and_bounds(self):
        rng = np.random.default_rng(25)
        m = rng.normal(size=(3, 5, 7))
        t = Tape()
        mv = t.constant(m[:, None])  # a batch of one
        # integer points return exact pixel values
        pts = t.constant(np.array([[[2.0, 3.0], [6.0, 4.0]]]))
        out = ad.bilinear_sample(mv, pts).value[0]
        assert np.array_equal(out[0], m[:, 3, 2])
        assert np.array_equal(out[1], m[:, 4, 6])
        # midway between horizontal neighbours is their average
        mid = ad.bilinear_sample(mv, t.constant(np.array([[[2.5, 3.0]]]))).value[0]
        assert np.allclose(mid[0], 0.5 * (m[:, 3, 2] + m[:, 3, 3]), atol=1e-15)
        with pytest.raises(OutOfBounds):
            ad.bilinear_sample(mv, t.constant(np.array([[[7.0, 0.0]]])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_bilinear_sample_rejects_non_finite_points(self, bad, axis):
        t = Tape()
        mv = t.constant(np.random.default_rng(27).normal(size=(2, 1, 5, 7)))
        pts = np.array([[[2.0, 3.0], [1.5, 2.5]]])
        pts[0, 1, axis] = bad
        with pytest.raises(OutOfBounds):
            ad.bilinear_sample(mv, t.constant(pts))

    def test_bilinear_sample_matches_bruteforce(self):
        rng = np.random.default_rng(26)
        m = rng.normal(size=(4, 6, 9))
        pts = np.stack(
            [rng.uniform(0, 8, 50), rng.uniform(0, 5, 50)], axis=1
        )
        t = Tape()
        out = ad.bilinear_sample(t.constant(m[:, None]), t.constant(pts[None])).value[0]
        for k, (u, v) in enumerate(pts):
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            x0, y0 = min(x0, 7), min(y0, 4)
            fx, fy = u - x0, v - y0
            ref = (
                m[:, y0, x0] * (1 - fx) * (1 - fy)
                + m[:, y0, x0 + 1] * fx * (1 - fy)
                + m[:, y0 + 1, x0] * (1 - fx) * fy
                + m[:, y0 + 1, x0 + 1] * fx * fy
            )
            assert np.abs(out[k] - ref).max() < 1e-12

    def test_bilinear_sample_gradients(self):
        rng = np.random.default_rng(27)
        m0 = rng.normal(size=(2, 1, 5, 6))  # a batch of one
        pts0 = np.stack(
            [rng.uniform(0.2, 4.8, (1, 7)), rng.uniform(0.2, 3.8, (1, 7))], axis=-1
        )
        pts0 = np.where(np.abs(pts0 - np.round(pts0)) < 0.1, pts0 + 0.15, pts0)
        up = rng.normal(size=(1, 7, 2))
        check_gradient(
            lambda t, x: scalarize(ad.bilinear_sample(x, t.constant(pts0)), up),
            m0, tol=1e-6,
        )
        check_gradient(
            lambda t, x: scalarize(ad.bilinear_sample(t.constant(m0), x), up),
            pts0, tol=1e-6,
        )

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_bilinear_sample_on_a_constant_map_builds_no_map_gradient(
        self, batched, monkeypatch
    ):
        # the point gradient is bitwise the one taken with the map as a
        # parameter, and the map's (which backward would drop) is never built
        rng = np.random.default_rng(29)
        m0 = rng.normal(size=(2, 3, 5, 6) if batched else (2, 1, 5, 6))  # or a batch of one
        pts0 = np.stack([rng.uniform(0, 5, 7), rng.uniform(0, 4, 7)], axis=1)
        pts0 = np.stack([pts0, pts0[::-1], 0.5 * pts0]) if batched else pts0[None]
        up = rng.normal(size=pts0.shape[:-1] + (2,))
        pullbacks = []
        record = Tape.record

        def kept(tape, value, parents, pullback):
            pullbacks.append(pullback)
            return record(tape, value, parents, pullback)

        monkeypatch.setattr(Tape, "record", kept)
        point_grads = []
        for as_param in (True, False):
            t = Tape()
            m = t.param(m0) if as_param else t.constant(m0)
            x = t.param(pts0)
            pullbacks.clear()
            out = ad.bilinear_sample(m, x)
            gm, gp = pullbacks[0](up)
            assert (gm is None) == (not as_param)
            point_grads.append(backward(t, scalarize(out, up))[x.index])
        assert _same_bits(*point_grads)

    @pytest.mark.parametrize("shape", [(2, 1, 5), (2, 5, 1), (2, 1, 1)])
    def test_bilinear_sample_gradients_on_degenerate_maps(self, shape):
        c, h, w = shape
        rng = np.random.default_rng(28)
        m0 = rng.normal(size=(c, 1, h, w))  # a batch of one
        n = 6

        def coord(size):
            if size == 1:
                return np.zeros(n)
            x = rng.uniform(0.2, size - 1.2, n)
            return np.where(np.abs(x - np.round(x)) < 0.1, x + 0.15, x)

        pts0 = np.stack([coord(w), coord(h)], axis=1)[None]
        up = rng.normal(size=(1, n, c))
        check_gradient(
            lambda t, x: scalarize(ad.bilinear_sample(x, t.constant(pts0)), up),
            m0, tol=1e-7,
        )
        # a step along a length-1 axis must stay inside the rounding slack
        check_gradient(
            lambda t, x: scalarize(ad.bilinear_sample(t.constant(m0), x), up),
            pts0, tol=1e-6, h=1e-7,
        )


class TestImageKernelsMatchOracles:
    """The production image kernels give bitwise the results of the
    reference implementations in tests/oracles.py."""

    @pytest.mark.parametrize("c", [1, 3, 32])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (5, 7), (24, 32)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_im2col_matches_reference(self, c, hw, k):
        x = np.random.default_rng(40).normal(size=(c, *hw))
        cols = ad._im2col(x[:, None], k, k)  # a batch of one
        ref = im2col_reference(x, k, k)
        assert cols.shape == ref.shape
        assert cols.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "c_in, c_out, hw, k",
        [(1, 4, (5, 7), 1), (3, 8, (24, 32), 3), (8, 2, (6, 8), 5), (32, 16, (12, 16), 3)],
    )
    def test_conv2d_matches_conv_on_reference_im2col(self, monkeypatch, c_in, c_out, hw, k):
        rng = np.random.default_rng(41)
        x0 = rng.normal(size=(c_in, 1, *hw))  # a batch of one
        w0 = rng.normal(size=(c_out, c_in, k, k))
        b0 = rng.normal(size=c_out)
        up = rng.normal(size=(c_out, 1, *hw))

        def run():
            t = Tape()
            x, w, b = t.param(x0), t.param(w0), t.param(b0)
            out = ad.conv2d(x, w, b)
            grads = backward(t, ad.sum_(ad.mul(out, t.constant(up))))
            return [out.value] + [grads[v.index] for v in (x, w, b)]

        got = run()
        monkeypatch.setattr(ad, "_im2col", lambda x, kh, kw: im2col_reference(x[:, 0], kh, kw))
        want = run()
        for name, a, b in zip(("out", "gx", "gw", "gb"), got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_resample_matrices_are_read_only_and_fresh(self):
        R = ad._resample_matrix(7, 3)
        assert ad._resample_matrix(7, 3) is R
        with pytest.raises(ValueError):
            R[0, 0] = 2.0
        for n_out, n_in in ((7, 3), (1, 4), (5, 1), (48, 6)):
            cached = ad._resample_matrix(n_out, n_in)
            fresh = ad._resample_matrix.__wrapped__(n_out, n_in)
            assert not cached.flags.writeable
            assert cached.tobytes() == fresh.tobytes()

    @staticmethod
    def _pool_input(seed, c, h, w):
        """Values spanning 1e-8 to 1e8 with NaN and +-inf sprinkled in."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, h, w)) * 10.0 ** rng.uniform(-8, 8, size=(c, h, w))
        flat = x.reshape(-1)
        special = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
        flat[special] = [np.nan, np.inf, -np.inf, np.nan, np.inf, -np.inf][: len(special)]
        return x

    # The six pooling shapes of the benchmark's forwards (32x24 training and
    # 64x48 repeat frames), then other widths of at least 4 px.
    @pytest.mark.parametrize("c", [1, 8, 32])
    @pytest.mark.parametrize(
        "hw", [(24, 32), (12, 16), (6, 8), (48, 64), (2, 4), (4, 6), (10, 12), (6, 20)]
    )
    def test_avgpool2_matches_reference(self, c, hw):
        with np.errstate(invalid="ignore"):
            for seed in range(3):
                x0 = self._pool_input(seed, c, *hw)
                out = ad.avgpool2(Tape().constant(x0)).value
                ref = avgpool2_reference(x0)
                assert out.shape == ref.shape
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("c, h", [(1, 2), (8, 6), (32, 24)])
    def test_avgpool2_two_px_wide_sums_pairwise(self, c, h):
        x0 = self._pool_input(60 + c, c, h, 2)
        with np.errstate(invalid="ignore"):
            out = ad.avgpool2(Tape().constant(x0)).value
            a, b = x0[:, 0::2, 0:1], x0[:, 0::2, 1:2]
            d, e = x0[:, 1::2, 0:1], x0[:, 1::2, 1:2]
            assert out.tobytes() == (((a + b) + (d + e)) / 4).tobytes()

    @pytest.mark.parametrize("chw", [(1, 24, 32), (8, 12, 16), (32, 6, 8), (3, 2, 2)])
    def test_avgpool2_pullback_is_scaled_repeat(self, chw):
        rng = np.random.default_rng(61)
        c, h, w = chw
        up = rng.normal(size=(c, h // 2, w // 2)) * 10.0 ** rng.uniform(-8, 8, (c, h // 2, w // 2))
        t = Tape()
        x = t.param(rng.normal(size=chw))
        g = backward(t, ad.sum_(ad.mul(ad.avgpool2(x), t.constant(up))))[x.index]
        assert g.tobytes() == avgpool2_pullback_reference(up).tobytes()

    @staticmethod
    def _block_input(rng, shape):
        """Values spanning 1e-8 to 1e8 whose 2x2 blocks hold NaN, +inf, -inf
        and an (inf, -inf) pair, each in a block of its own: where an input
        NaN meets inf - inf in one block, the sign of the NaN their sum gives
        depends on the order of the adds."""
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        hb, wb = shape[-2] // 2, shape[-1] // 2
        blocks = x.reshape(-1, hb, 2, wb, 2)  # a view
        picks = rng.choice(len(blocks) * hb * wb, size=4, replace=False)
        for pick, vals in zip(picks, ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf])):
            i, rest = divmod(int(pick), hb * wb)
            by, bx = divmod(rest, wb)
            for (dy, dx), v in zip(((0, 1), (1, 0)), vals):
                blocks[i, by, dy, bx, dx] = v
        return x

    # the decoder's upsampled shapes for a 32x24 image, alone and in a
    # batch of 4, the first one for a 64x48 image, then small ones; the
    # coarse map is at least 2 px wide
    @pytest.mark.parametrize("shape", [(32, 6, 8), (16, 12, 16), (8, 24, 32), (32, 12, 16),
                                       (32, 4, 6, 8), (8, 4, 24, 32), (3, 2, 4), (3, 4, 6, 4)])
    def test_2x2_kernels_match_references(self, shape):
        """`upsample_nearest`'s forward and pullback and `avgpool2`'s
        pullback, on the shared 2x2 helpers, against the bodies they
        replaced."""
        rng = np.random.default_rng(68)
        coarse_shape = shape[:-2] + (shape[-2] // 2, shape[-1] // 2)
        with np.errstate(invalid="ignore", over="ignore"):
            for dtype in (np.float64, np.float32):
                coarse = _with_specials(rng.normal(size=coarse_shape), rng).astype(dtype)
                out = ad.upsample_nearest(Tape(dtype=dtype).constant(coarse)).value
                assert _same_bits(out, upsample_nearest_reference(coarse)), dtype
            fine = self._block_input(rng, shape)
            up = _with_specials(rng.normal(size=coarse_shape), rng)
            t = Tape()
            x = t.param(rng.normal(size=coarse_shape))
            g = backward(t, ad.sum_(ad.mul(ad.upsample_nearest(x), t.constant(fine))))[x.index]
            assert _same_bits(g, upsample_nearest_pullback_reference(fine))
            x = t.param(rng.normal(size=shape))
            g = backward(t, ad.sum_(ad.mul(ad.avgpool2(x), t.constant(up))))[x.index]
            assert _same_bits(g, avgpool2_pullback_reference(up))

    @pytest.mark.parametrize("seed", range(8))
    def test_bilinear_sample_matches_reference(self, seed):
        rng = np.random.default_rng(50 + seed)
        c, h, w = rng.integers(1, 5), rng.integers(2, 7), rng.integers(2, 9)
        m0 = rng.normal(size=(c, h, w)) * 10.0 ** rng.uniform(-8, 8)
        n = 40
        pts = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], axis=1)
        # repeated corners: duplicate points, integer points, the far edges
        pts[:8] = pts[8:16]
        pts[16:20] = np.round(pts[16:20])
        pts[20:24] = [w - 1, h - 1]
        pts[24:26, 0] = w - 1
        pts[26:28, 1] = h - 1
        up = rng.normal(size=(n, c)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))

        def run(sample, m0, pts, up):
            t = Tape()
            m, p = t.param(m0), t.param(pts)
            out = sample(m, p)
            grads = backward(t, ad.sum_(ad.mul(out, t.constant(up))))
            return out.value, grads[m.index], grads[p.index]

        # the reference samples one map, production a batch of one
        for name, a, b in zip(("out", "gm", "gp"),
                              run(ad.bilinear_sample, m0[:, None], pts[None], up[None]),
                              run(bilinear_sample_reference, m0, pts, up)):
            assert a.tobytes() == b.tobytes(), name


class TestBackproject:
    """The tape's stereo lift is `geometry.backproject_points` forward and
    its closed-form Jacobian backward; rows the mask leaves out are zero and
    get exactly zero gradient."""

    @staticmethod
    def _inputs(shape, seed):
        rng = np.random.default_rng(seed)
        uv = np.stack([rng.uniform(0, 63, shape), rng.uniform(0, 47, shape)], axis=-1)
        d = rng.uniform(2.0, 15.0, shape)
        return uv, d

    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    def test_forward_is_backproject_points_bitwise(self, shape):
        uv, d = self._inputs(shape, 0)
        d.flat[[0, 2, 3, 5]] = [np.nan, np.inf, 0.0, -1.0]
        valid = valid_disparity(d)
        valid.flat[-1] = False  # a valid disparity the caller rules out
        t = Tape()
        out = ad.backproject(t.constant(uv), t.constant(d), K_BP, valid).value
        assert out.shape == shape + (3,)
        want = backproject_points(np.concatenate([uv[valid], d[valid, None]], axis=1), K_BP)
        assert out[valid].tobytes() == want.tobytes()
        assert (out[~valid] == 0).all()

    @pytest.mark.parametrize("shape", [(7,), (3, 5)])
    def test_pullback_is_the_oracle_jacobian(self, shape):
        uv, d = self._inputs(shape, 1)
        g = np.random.default_rng(2).normal(size=shape + (3,))
        t = Tape()
        uv_v, d_v = t.param(uv), t.param(d)
        out = ad.backproject(uv_v, d_v, K_BP, np.ones(shape, bool))
        grads = backward(t, ad.sum_(ad.mul(out, t.constant(g))))
        J = np.stack([backproject_jacobian(y, K_BP) for y in
                      np.concatenate([uv, d[..., None]], axis=-1).reshape(-1, 3)])
        want = np.einsum("ni,nij->nj", g.reshape(-1, 3), J)
        assert rel_err(grads[uv_v.index].reshape(-1, 2), want[:, :2]) < 1e-12
        assert rel_err(grads[d_v.index].ravel(), want[:, 2]) < 1e-12

    def test_invalid_rows_get_exactly_zero_gradient(self):
        uv, d = self._inputs((3, 4), 3)
        d[0, :] = [np.nan, np.inf, 0.0, -1.0]
        valid = valid_disparity(d)
        valid[1, 2] = False
        t = Tape()
        uv_v, d_v = t.param(uv), t.param(d)
        out = ad.reshape(ad.backproject(uv_v, d_v, K_BP, valid), (12, 3))
        kept = ad.take(out, np.flatnonzero(valid), axis=0)
        grads = backward(t, ad.sum_(ad.mul(kept, kept)))
        g_uv, g_d = grads[uv_v.index], grads[d_v.index]
        assert np.isfinite(g_uv).all() and np.isfinite(g_d).all()
        assert (g_uv[~valid] == 0).all() and (g_d[~valid] == 0).all()
        assert (g_d[valid] != 0).all()


class TestRowZnorm:
    def test_rows_become_unit_zncc_vectors(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(5, 8))
        out = ad.row_znorm(Tape().constant(x)).value
        assert np.abs(out.sum(axis=1)).max() < 1e-12
        assert np.abs((out * out).sum(axis=1) - 1.0).max() < 1e-12

    def test_zero_variance_rows_map_to_zero(self):
        x = np.ones((2, 6))
        x[1] = np.arange(6)
        out = ad.row_znorm(Tape().constant(x)).value
        assert np.array_equal(out[0], np.zeros(6))
        assert np.abs((out[1] ** 2).sum() - 1.0) < 1e-12


class TestMatchSubgraph:
    def test_zncc_softmax_match_gradient(self):
        # the composed matching subgraph (row ZNCC normalization, similarity
        # matmul, temperature softmax, coordinate expectation) agrees with
        # finite differences to 1e-5
        rng = np.random.default_rng(30)
        n, m, d = 3, 20, 6
        tgt = rng.normal(size=(m, d))
        coords = rng.uniform(0, 10, size=(m, 2))
        up = rng.normal(size=(n, 2))

        def build(t, src):
            sim = ad.matmul(ad.row_znorm(src), ad.transpose(ad.row_znorm(t.constant(tgt)), (1, 0)))
            attn = ad.softmax(ad.mul(sim, 12.0), axis=1)
            q = ad.matmul(attn, t.constant(coords))
            return ad.sum_(ad.mul(q, t.constant(up)))

        for seed in range(20):
            src0 = np.random.default_rng((30, seed)).normal(size=(n, d))
            check_gradient(build, src0, tol=1e-5)


class TestRigidAlignGradient:
    @staticmethod
    def instance(seed, n=6, noise=0.05):
        rng = np.random.default_rng(seed)
        ps = rng.normal(size=(n, 3))
        C = rot_z(rng.uniform(-1, 1))
        pt = ps @ C.T + rng.normal(size=3) + noise * rng.normal(size=(n, 3))
        w = rng.uniform(0.2, 1.0, size=n)
        return ps, pt, w

    @classmethod
    def batch(cls, seeds, n=6):
        """(B, N, 3) source and target points and (B, N) weights."""
        return tuple(np.stack(x) for x in zip(*(cls.instance(s, n) for s in seeds)))

    def test_matches_finite_differences(self):
        inputs = self.batch(range(10))
        up = np.random.default_rng(9).normal(size=(10, 12))
        grads = svd_alignment_gradient(*inputs, up)

        def f_of(which):
            def f(v):
                t = Tape()
                args = [t.constant(x) for x in inputs]
                args[which] = t.constant(v)
                return float(ad.sum_(ad.mul(ad.rigid_align(*args), t.constant(up))).value)

            return f

        for which, (analytic, x0) in enumerate(zip(grads, inputs)):
            numeric = finite_diff(f_of(which), x0)
            assert rel_err(analytic, numeric) < 1e-4, which

    def test_zero_upstream_gives_zero_gradients(self):
        grads = svd_alignment_gradient(*self.batch([3, 4]), np.zeros((2, 12)))
        assert not any(g.any() for g in grads)

    def test_zero_weight_pair_has_zero_gradient(self):
        ps, pt, w = self.batch([4, 5])
        w[1, 2] = 0.0
        up = np.random.default_rng(40).normal(size=(2, 12))
        gps, gpt, gw = svd_alignment_gradient(ps, pt, w, up)
        assert not gps[1, 2].any() and not gpt[1, 2].any() and gw[1, 2] == 0.0
        assert gps[0].all() and gpt[0].all() and gw[0].all()

    def test_tied_spectrum_gives_a_nan_row_and_zero_gradient(self):
        # a symmetric cube of points aligned with itself has an isotropic
        # cross-covariance: all singular values tie, so the adjoint would
        # blow up
        ps, pt, w = self.batch([6, 6], n=8)
        ps[1] = pt[1] = CUBE
        w[1] = 1.0
        t = Tape()
        out = ad.rigid_align(t.constant(ps), t.constant(pt), t.constant(w)).value
        assert np.isnan(out[1]).all() and np.isfinite(out[0]).all()
        up = np.random.default_rng(41).normal(size=(2, 12))
        grads = svd_alignment_gradient(ps, pt, w, up)
        alone = svd_alignment_gradient(ps[:1], pt[:1], w[:1], up[:1])
        for g, g_alone in zip(grads, alone):
            assert not g[1].any()
            assert _same_bits(g[:1], g_alone)


CUBE = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
SET_KINDS = ("good", "duplicated", "collinear", "few weighted", "tied spectrum", "non-finite")


def _alignment_set(kind: str, rng, n: int = 8):
    """(N, 3) source and target points and (N,) weights of one kind; every
    kind but "good" is degenerate. A good set's zero-weight pairs may hold
    non-finite points: they take no part."""
    C, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    C *= np.sign(np.linalg.det(C))
    r = rng.uniform(-5, 5, size=3)
    w = rng.uniform(0.1, 1.0, size=n)
    if kind == "duplicated":  # one or two distinct points, repeated
        distinct = rng.normal(size=(rng.integers(1, 3), 3))
        ps = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "collinear":
        ps = rng.normal(size=3) + rng.normal(size=(n, 1)) * rng.normal(size=3)
    elif kind == "tied spectrum":
        ps, w = CUBE * rng.uniform(0.5, 2.0), np.full(n, rng.uniform(0.1, 1.0))
    else:
        ps = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0)
    pt = ps @ C.T + r + rng.uniform(0, 0.05) * rng.normal(size=(n, 3)) * (kind == "good")
    if kind == "few weighted":
        w[rng.permutation(n)[rng.integers(0, 3):]] = 0.0
    elif kind == "non-finite":  # at a weighted pair
        (ps, pt)[rng.integers(2)][rng.integers(n), rng.integers(3)] = rng.choice(
            [np.nan, np.inf, -np.inf])
    elif kind == "good":
        dropped = rng.permutation(n)[: rng.integers(0, 4)]
        w[dropped] = 0.0
        ps[dropped[:1]] = rng.choice([np.nan, np.inf, -np.inf, 1e300])
        pt[dropped[1:2]] = rng.choice([np.nan, np.inf, -np.inf, 1e300])
    return ps, pt, w


class TestRigidAlignBatch:
    """Property: in a batch mixing good and degenerate sets, a degenerate
    set's row is NaN with zero gradient to all three inputs, and a good
    set's row is bitwise the same aligned alone and agrees with
    `align_core`."""

    @settings(max_examples=150)
    @given(st.lists(st.sampled_from(SET_KINDS), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_degenerate_rows_are_nan_and_the_rest_stand_alone(self, kinds, seed):
        rng = np.random.default_rng(seed)
        ps, pt, w = (np.stack(x) for x in zip(*(_alignment_set(k, rng) for k in kinds)))
        up = rng.normal(size=(len(kinds), 12))
        t = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.rigid_align(t.constant(ps), t.constant(pt), t.constant(w)).value
            grads = svd_alignment_gradient(ps, pt, w, up)
        for i, kind in enumerate(kinds):
            if kind != "good":
                assert np.isnan(out[i]).all(), kind
                assert not any(g[i].any() for g in grads), kind
                continue
            alone = ad.rigid_align(*(t.constant(x[i:i + 1]) for x in (ps, pt, w))).value
            assert _same_bits(out[i:i + 1], alone)
            C, r, _ = align_core(ps[i], pt[i], w[i])
            assert np.abs(out[i] - np.concatenate([C.ravel(), r])).max() <= 1e-12
            assert all(np.isfinite(g[i]).all() for g in grads)


def _with_specials(x: np.ndarray, rng) -> np.ndarray:
    """x with values spanning 1e-8 to 1e8 and a sprinkle of NaN, +-inf."""
    x = x * 10.0 ** rng.integers(-8, 9, size=x.shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
    flat[picks] = [np.nan, np.inf, -np.inf, np.nan, np.inf, -np.inf][: len(picks)]
    return x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInPlaceKernelsMatchOracles:
    """softmax, znorm_rows and conv2d's bias add work in place, and sigmoid
    computes its exp once; the values are bitwise those of the bodies in
    tests/oracles.py."""

    def _rows(self, rng, n, d):
        x = rng.normal(size=(n, d))
        x[0] = 3.25  # zero variance
        x[1] = 0.0
        x[2, 0] = np.nan
        x[3, 1] = np.inf
        x[4, :2] = (np.inf, -np.inf)
        x[5] = -np.inf
        x[6] = rng.normal(size=d) * 1e-14  # below the variance floor
        x[7] = rng.normal(size=d) * 1e8
        return x

    @pytest.mark.parametrize("n, d", [(8, 2), (12, 56), (48, 3072)])
    def test_softmax(self, n, d):
        x = self._rows(np.random.default_rng(60), n, d)
        for axis in (1, 0, -1):
            t = Tape()
            with np.errstate(invalid="ignore"):
                out = ad.softmax(t.constant(x), axis=axis).value
                ref = softmax_reference(x, axis=axis)
            assert _same_bits(out, ref), axis
        # float32 rows whose shifted values span [-120, 0], across the floor
        # below which a weight could come out subnormal
        rng = np.random.default_rng(65)
        y = rng.uniform(-120.0, 0.0, size=(n, d)).astype(np.float32)
        y[:, 0] = 0.0
        y[2, 1] = np.nan
        tiny = np.finfo(np.float32).tiny
        flushed = 0
        for axis in (1, 0, -1):
            t = Tape(dtype=np.float32)
            with np.errstate(invalid="ignore"):
                out = ad.softmax(t.constant(y), axis=axis).value
                ref = softmax_reference(y, axis=axis)
            assert _same_bits(out, ref), axis
            nan_line = out[:, 1] if axis == 0 else out[2]
            assert np.isnan(nan_line).all() and np.isnan(out).sum() == nan_line.size
            rest = out[~np.isnan(out)]
            assert not ((rest > 0) & (rest < tiny)).any()
            assert not np.signbit(rest).any()  # no -0.0
            flushed += int((rest == 0).sum())
        assert flushed

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n, d", [(8, 2), (12, 56), (48, 3072), (4, 768)])
    def test_softmax_without_underflow_is_exp_over_sum(self, dtype, n, d):
        x = (np.random.default_rng(66).normal(size=(n, d)) * 5.0).astype(dtype)
        for axis in (1, 0):
            out = ad.softmax(Tape(dtype=dtype).constant(x), axis=axis).value
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            assert _same_bits(out, e / e.sum(axis=axis, keepdims=True)), axis

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n, d", [(8, 2), (12, 56), (48, 3072), (8, 768)])
    def test_softmax_is_the_masked_exp_softmax(self, dtype, n, d):
        """The unmasked exp of entries shifted to about -max is the masked
        exp, bit for bit, in every row class around the floor. A NaN stays
        NaN, but float32's SIMD exp returns the positive quiet NaN for any
        NaN, where the masked exp kept inf - inf's negative one."""
        rng = np.random.default_rng(68)
        floor = np.asarray(math.log(float(np.finfo(dtype).tiny) * d), dtype)
        x = rng.uniform(-5.0, 5.0, size=(n, d)).astype(dtype)  # nothing below the floor
        x[:7, 0] = 0.0  # the row maximum of the special rows
        x[0, -1] = np.nan
        x[1, -1] = np.inf
        x[2, 1:] = -np.inf
        x[3, 1:] = floor  # exactly at the floor
        x[3, 1::2] = np.nextafter(floor, dtype(-np.inf))  # just below it
        x[4, 1:] = rng.uniform(3.0, 9.0, d - 1).astype(dtype) * floor  # all but one below
        x[5, 1:] = np.linspace(2.0 * floor, 0.0, d - 1).astype(dtype)  # across it
        x[6, 1:] = -np.finfo(dtype).max
        for axis, y in ((1, x), (-1, x), (0, x.T.copy())):
            with np.errstate(invalid="ignore", over="ignore"):
                out = ad.softmax(Tape(dtype=dtype).constant(y), axis=axis).value
                ref = softmax_masked_exp(y, axis=axis)
            nan = np.isnan(ref)
            assert _same_bits(np.isnan(out), nan), axis
            assert _same_bits(out[~nan], ref[~nan]), axis
            if dtype == np.float64:
                assert _same_bits(out, ref), axis
        finite = out[~np.isnan(out)]
        assert (finite == 0.0).any() and not np.signbit(finite).any() and finite.size < out.size

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid(self, dtype):
        rng = np.random.default_rng(67)
        x = _with_specials(rng.normal(size=(6, 40)), rng).astype(dtype)
        x[0, :4] = (0.0, -0.0, 800.0, -800.0)
        with np.errstate(over="ignore"):
            out = ad.sigmoid(Tape(dtype=dtype).constant(x)).value
            ref = sigmoid_reference(x)
        assert _same_bits(out, ref)

    @pytest.mark.parametrize("n, d", [(8, 2), (12, 56), (3072, 56)])
    def test_znorm_rows(self, n, d):
        x = self._rows(np.random.default_rng(61), n, d)
        with np.errstate(invalid="ignore"):
            out, norm = ad.znorm_rows(x)
            ref_out, ref_norm = znorm_rows_reference(x)
        assert _same_bits(out, ref_out)
        assert _same_bits(norm, ref_norm)
        assert not out[[0, 1, 2, 3, 4, 5, 6]].any()  # constant and non-finite rows

    def test_znorm_rows_leaves_its_input_alone(self):
        x = np.random.default_rng(62).normal(size=(5, 7))
        before = x.copy()
        ad.znorm_rows(x)
        ad.znorm_rows(x.T[:, :5])  # a non-contiguous view
        assert _same_bits(x, before)

    @pytest.mark.parametrize(
        "c_in, c_out, hw, k",
        [(1, 8, (48, 64), 3), (8, 16, (24, 32), 3), (32, 1, (48, 64), 3), (3, 4, (5, 7), 1)],
    )
    def test_conv2d_forward(self, c_in, c_out, hw, k):
        rng = np.random.default_rng(63)
        x = _with_specials(rng.normal(size=(c_in, *hw)), rng)
        w = rng.normal(size=(c_out, c_in, k, k))
        b = _with_specials(rng.normal(size=c_out), rng) if c_out > 6 else rng.normal(size=c_out)
        t = Tape(grad=False)
        with np.errstate(invalid="ignore", over="ignore"):
            # the reference convolves one image, production a batch of one
            out = ad.conv2d(t.constant(x[:, None]), t.constant(w), t.constant(b)).value
            ref = conv2d_reference(x, w, b)
        assert _same_bits(out[:, 0], ref)


class TestNoGradTape:
    def test_records_values_without_parents_or_pullbacks(self):
        rng = np.random.default_rng(64)
        x0 = rng.normal(size=(4, 5))
        grad_tape, plain = Tape(), Tape(grad=False)
        outs = []
        for t in (grad_tape, plain):
            x = t.constant(x0)
            outs.append(ad.softmax(ad.mul(ad.tanh(x), 3.0), axis=1).value)
        assert _same_bits(outs[0], outs[1])
        # the values live in the Vars: the no-grad tape records no node
        assert len(plain) == 0 and len(grad_tape) == 3

    def test_param_is_a_constant(self):
        t = Tape(grad=False)
        x = t.param(np.ones(3))
        y = ad.tanh(x)
        assert x.index is None and y.index is None
        assert t.params == [] and len(t) == 0

    def test_value_dies_with_its_var(self):
        t = Tape(grad=False)
        with _gc_disabled():
            y = ad.tanh(ad.mul(t.constant(np.ones((4, 5))), 2.0))
            value = weakref.ref(y.value)
            del y
            assert value() is None

    def test_backward_raises(self):
        t = Tape(grad=False)
        x = t.param(np.ones(3))
        out = ad.sum_(ad.mul(x, x))
        with pytest.raises(ValueError, match="no-grad"):
            backward(t, out)


class TestFloat32Tape:
    def test_constants_params_and_primitives_keep_the_tape_dtype(self):
        rng = np.random.default_rng(66)
        x0 = rng.normal(size=(2, 1, 6, 8))
        w0 = rng.normal(size=(3, 2, 3, 3))
        pts0 = np.array([[[0.25, 0.5], [6.75, 4.5], [7.0, 5.0]]])
        outs = {}
        for dtype in (np.float64, np.float32):
            t = Tape(grad=False, dtype=dtype)
            x = t.constant(x0)
            y = ad.tanh(ad.conv2d(x, t.param(w0), t.param(np.zeros(3))))
            y = ad.upsample_bilinear(ad.avgpool2(y), (6, 8))
            s = ad.bilinear_sample(y, t.constant(pts0))
            z = ad.softmax(ad.mul(ad.row_znorm(s), 4.0), axis=-1)
            outs[dtype] = [v.value for v in (x, y, s, z)]
        assert all(v.dtype == np.float32 for v in outs[np.float32])
        assert all(v.dtype == np.float64 for v in outs[np.float64])
        tol = 100 * np.finfo(np.float32).eps
        for a, b in zip(outs[np.float32], outs[np.float64]):
            assert np.allclose(a, b, rtol=tol, atol=tol)

    @pytest.mark.parametrize("cases, name", [("plain", n) for n in sorted(PRIMITIVE_CASES)]
                             + [("batched", n) for n in sorted(BATCHED_CASES)])
    def test_pullbacks_keep_float32(self, cases, name, monkeypatch):
        # every gradient case, each node's pullback called on a float32
        # adjoint; rigid_align is not among them, as it computes in float64
        # by design
        nodes = []
        record = ad.Tape.record

        def kept(tape, value, parents, pullback):
            var = record(tape, value, parents, pullback)
            nodes.append((var.value, pullback))
            return var

        monkeypatch.setattr(ad.Tape, "record", kept)
        if cases == "batched":
            make_x0, build = BATCHED_CASES[name]
        else:
            make_x0, build = (lambda r: r.normal(size=(4, 5))), PRIMITIVE_CASES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        t = Tape(dtype=np.float32)
        build(t, t.param(make_x0(rng)), rng)
        assert nodes
        for value, pullback in nodes:
            assert value.dtype == np.float32
            grads = [g for g in pullback(np.ones_like(value)) if g is not None]
            assert grads and all(g.dtype == np.float32 for g in grads)

    def test_backward_holds_adjoints_in_the_tape_dtype(self):
        # rigid_align's float64 rows and pullback reach no other pullback
        # in float64: backward casts each adjoint to the tape's dtype
        rng = np.random.default_rng(67)
        t = Tape(dtype=np.float32)
        pts = t.param(rng.normal(size=(1, 5, 3)))
        moved = ad.add(pts, t.constant([0.5, -0.25, 1.0]))
        aligned = ad.rigid_align(pts, moved, t.constant(np.ones((1, 5))))
        # `pts` gets a float32 adjoint first, then adds rigid_align's float64 one
        out = ad.add(ad.sum_(ad.mul(aligned, aligned)), ad.sum_(ad.mul(pts, pts)))
        assert aligned.value.dtype == out.value.dtype == np.float64
        seen = {}

        def watched(var):
            parents, pullback = t._nodes[var.index]

            def pull(g):
                seen[var.index] = g.dtype
                return pullback(g)

            t._nodes[var.index] = (parents, pull)

        watched(out)  # the seed
        watched(moved)
        grads = backward(t, out)
        assert seen == {out.index: np.float32, moved.index: np.float32}
        assert grads[pts.index].dtype == np.float32

    @pytest.mark.parametrize("k", [23, 20, 16])
    def test_rigid_align_gradient_near_a_tie_matches_float64(self, k):
        # a planar square whose two in-plane singular values differ by about
        # 2^-k relative, every input exact in float32; a float32 SVD's
        # rounding, amplified by the adjoint's 1 / (s_j^2 - s_i^2), put the
        # gradient 50% (k = 23) to 0.2% (k = 16) off
        ps = np.array([[1, 1, 0.0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 0.5]])
        ps[:, 0] *= 1 + 2.0 ** -k
        pt = (ps @ rot_z(0.25).T + [0.25, -0.125, 0.0625]).astype(np.float32)
        grads = {}
        for dtype in (np.float64, np.float32):
            t = Tape(dtype=dtype)
            a, b = t.param(ps[None]), t.param(pt[None])
            row = ad.rigid_align(a, b, t.constant(np.ones((1, 5))))
            assert row.value.dtype == np.float64 and np.isfinite(row.value).all()
            g = backward(t, ad.sum_(ad.mul(row, row)))
            grads[dtype] = np.concatenate([g[a.index].ravel(), g[b.index].ravel()])
        assert grads[np.float32].dtype == np.float32
        assert rel_err(grads[np.float32], grads[np.float64]) < 4 * np.finfo(np.float32).eps

    def test_resample_matrix_per_dtype(self):
        R32 = ad._resample_matrix(7, 3, np.float32)
        assert R32.dtype == np.float32 and not R32.flags.writeable
        assert ad._resample_matrix(7, 3, np.float32) is R32
        assert np.array_equal(R32, ad._resample_matrix(7, 3).astype(np.float32))

    def test_sample_admits_float32_rounding_at_the_edge(self):
        t = Tape(grad=False, dtype=np.float32)
        m = t.constant(np.arange(48.0).reshape(1, 1, 6, 8))
        edge = np.float32(7.0)
        over = np.nextafter(np.nextafter(edge, np.float32(8)), np.float32(8))
        out = ad.bilinear_sample(m, t.constant([[[over, 5.0]]])).value
        assert out.dtype == np.float32 and out[0, 0, 0] == 47.0
        with pytest.raises(OutOfBounds):
            ad.bilinear_sample(m, t.constant([[[7.01, 5.0]]]))


class TestTapeOwnership:
    """A grad tape keeps parent indices, pullbacks and parameter values,
    never a `Var`, so dropping a tape's names frees it without the cycle
    collector."""

    def test_grad_tape_freed_without_gc(self):
        with _gc_disabled():
            t = Tape()
            x = t.param(np.ones(3))
            loss = ad.sum_(ad.mul(ad.tanh(x), t.constant(np.arange(3.0))))
            grads = backward(t, loss)
            tape, value = weakref.ref(t), weakref.ref(loss.value)
            del t, x, loss
            assert tape() is None and value() is None
        assert grads[0].shape == (3,)

    def test_constants_take_no_node(self):
        t = Tape()
        c = t.constant(np.ones(3))
        x = t.param(np.ones(3))
        y = ad.mul(x, c)
        assert c.index is None and (x.index, y.index) == (0, 1)
        assert [i for i, _ in t.params] == [0]
        assert np.array_equal(backward(t, ad.sum_(y))[x.index], np.ones(3))


@contextlib.contextmanager
def _gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
