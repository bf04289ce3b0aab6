"""Forward-path checks of the tensor ops against independent references."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ctdenoise import tensor
from ctdenoise.ctsim import DoseConfig, make_dataset
from ctdenoise.model import ConvAct, ModelConfig, build_model
from ctdenoise.training import TrainConfig, mse_loss, train
from ctdenoise.tensor import (
    ShapeError,
    Tensor,
    add,
    attention,
    concat,
    conv2d,
    leaky_relu,
    linear,
    matmul,
    mul,
    no_grad,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    sub,
    tmean,
    transpose,
    tsum,
)

from conftest import gradcheck, rel_err


def conv2d_reference(x, w, b, stride):
    """Direct six-loop cross-correlation with zero same-padding."""
    B, C, H, W = x.shape
    Co, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = -(-H // stride)
    Wo = -(-W // stride)
    out = np.zeros((B, Co, Ho, Wo), dtype=np.float64)
    for n in range(B):
        for co in range(Co):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for ci in range(C):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + b[co]
    return out


def conv2d_im2col_reference(x, w, b, stride, g):
    """conv2d as an im2col over a sliding-window view of the NCHW input:
    forward output and (gx, gw, gb) for upstream g. conv2d's channels-last
    gather must agree with it bit for bit."""
    B, C, H, W = x.shape
    Cout, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Hp, Wp = xp.shape[2], xp.shape[3]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    Ho, Wo = windows.shape[2], windows.shape[3]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B, Ho * Wo, C * k * k
    )
    wmat = w.reshape(Cout, C * k * k)
    out = cols @ wmat.T + b
    out = np.ascontiguousarray(out.reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2))
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B, Ho * Wo, Cout)
    gw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(w.shape)
    gb = g.sum(axis=(0, 2, 3))
    gcols = (gmat @ wmat).reshape(B, Ho, Wo, C, k, k)
    gxp = np.zeros((B, C, Hp, Wp), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += (
                gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    gx = np.ascontiguousarray(gxp[:, :, pad : pad + H, pad : pad + W])
    return out, gx, gw, gb


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def shuffle_reference(x, r):
    """Depth-to-space by explicit indexing: input channel c feeds output
    channel c // r^2 at sub-pixel offset ((c % r^2) // r, c % r)."""
    B, C, H, W = x.shape
    out = np.zeros((B, C // (r * r), H * r, W * r), dtype=x.dtype)
    for c in range(C):
        co = c // (r * r)
        di, dj = (c % (r * r)) // r, c % r
        out[:, co, di::r, dj::r] = x[:, c]
    return out


class TestElementwise:
    def test_add_sub_mul_values(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        assert np.allclose(add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(sub(Tensor(a), Tensor(b)).data, a - b)
        assert np.allclose(mul(Tensor(a), Tensor(b)).data, a * b)

    def test_broadcasting(self):
        a = np.ones((2, 3, 4))
        b = np.arange(4.0)
        out = add(Tensor(a), Tensor(b))
        assert out.shape == (2, 3, 4)
        assert np.allclose(out.data, a + b)

    def test_incompatible_broadcast_raises(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    @pytest.mark.parametrize("op", [sub, mul], ids=["sub", "mul"])
    def test_incompatible_broadcast_names_op_and_shapes(self, op):
        with pytest.raises(ShapeError,
                           match=rf"{op.__name__}: cannot broadcast \(2, 3\) with \(2, 4\)"):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_dtype_float32_default_and_float64_preserved(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        a32 = Tensor(np.ones((2, 2), dtype=np.float32))
        assert mul(a32, a32).dtype == np.float32


class TestMatmulLinear:
    def test_matmul_2d_against_loops(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        assert rel_err(matmul(Tensor(a), Tensor(b)).data, ref) < 1e-12

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = matmul(Tensor(a), Tensor(b)).data
        for n in range(2):
            for h in range(3):
                assert np.allclose(out[n, h], a[n, h] @ b[n, h])

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_linear_against_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 7, 5))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=4)
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, x @ w + b)

    def test_linear_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.ones((2, 5))), Tensor(np.ones((4, 3))), Tensor(np.ones(3)))


class TestShaping:
    def test_reshape_transpose_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        assert np.allclose(reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
        assert np.allclose(transpose(Tensor(x), (2, 0, 1)).data, x.transpose(2, 0, 1))
        with pytest.raises(ShapeError):
            reshape(Tensor(x), (5, 5))

    def test_concat(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 2))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 5)
        with pytest.raises(ShapeError):
            concat([Tensor(a), Tensor(np.ones(3))], axis=0)

    def test_sum_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 5))
        assert np.isclose(tsum(Tensor(x)).item(), x.sum())
        assert np.allclose(tmean(Tensor(x), axis=1).data, x.mean(axis=1))
        assert np.allclose(tsum(Tensor(x), axis=2, keepdims=True).data, x.sum(axis=2, keepdims=True))


class TestNonlinearities:
    def test_leaky_relu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = leaky_relu(Tensor(x), slope=0.2).data
        assert np.allclose(out, [-0.4, -0.1, 0.0, 0.5, 2.0])

    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_leaky_relu_bitwise_equals_where_form(self, dtype, bits):
        fi = np.finfo(dtype)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, fi.max, -fi.max,
                    fi.smallest_normal, -fi.smallest_normal,
                    fi.smallest_subnormal, -fi.smallest_subnormal,
                    3 * fi.smallest_subnormal, -3 * fi.smallest_subnormal]
        x = np.concatenate([np.array(specials, dtype=dtype),
                            np.random.default_rng(4).normal(size=200).astype(dtype)])
        for slope in (0.2, 0.01, 0.5, 0.99):
            ref = np.where(x > 0, x, x * dtype(slope))
            out = leaky_relu(Tensor(x), slope=slope).data
            assert out.dtype == dtype
            assert np.array_equal(out.view(bits), ref.view(bits)), slope

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_leaky_relu_gradient_bitwise_equals_where_form(self, dtype, bits):
        fi = np.finfo(dtype)
        specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, fi.max, -fi.max,
                             fi.smallest_normal, -fi.smallest_normal,
                             fi.smallest_subnormal, -fi.smallest_subnormal], dtype=dtype)
        rng = np.random.default_rng(8)
        # every pairing of input and upstream gradient, then random values
        x = np.concatenate([np.repeat(specials, specials.size),
                            rng.normal(size=1000).astype(dtype)])
        g = np.concatenate([np.tile(specials, specials.size),
                            rng.normal(size=1000).astype(dtype)])
        slopes = (0.01, 0.2, 1 / 3, np.nextafter(0.5, 1), np.nextafter(0.5, 0), 0.999999, 1e-30)
        for slope in slopes:
            factor = np.where(x > 0, dtype(1), dtype(slope))
            backward = leaky_relu(Tensor(x, requires_grad=True), slope)._backward
            upstream = g.copy()
            (grad,) = backward(upstream)
            assert grad.dtype == dtype
            assert np.array_equal(grad.view(bits), (g * factor).view(bits)), slope
            # the upstream gradient may be another parent's too: left as it was
            assert np.array_equal(upstream.view(bits), g.view(bits)), slope
            # a wider upstream gradient keeps its dtype, as g * where(...) does
            wide = g.astype(np.float64)
            (grad,) = backward(wide)
            assert np.array_equal(grad.view(np.uint64), (wide * factor).view(np.uint64)), slope

    def test_training_bitwise_equals_where_form(self, tmp_path, monkeypatch):
        # a tiny run at two batches per epoch writes the same checkpoint
        # bytes whether the model's leaky ReLUs (inside conv2d and linear)
        # and their gradients are built by arithmetic (the library's) or by
        # masked selects (this reference)
        calls = {"forward": 0, "grad": 0}

        def where_form(a, s):
            calls["forward"] += 1
            a[...] = np.where(a > 0, a, a * s)

        def where_grad(g, v, s):
            calls["grad"] += 1
            return g * np.where(v > 0, v.dtype.type(1), s)

        pairs = make_dataset(4, 32, DoseConfig(i0=5e4, dose_fraction=0.25), seed=5)
        cfg = TrainConfig(epochs=3, batch_size=2, lr_schedule=((0, 1e-3),), seed=2)
        config = ModelConfig(width=0.0625, n_heads=2, ffn_mult=2, seed=3)
        train(build_model(config), pairs, [], cfg, tmp_path / "library")
        monkeypatch.setattr(tensor, "_leaky_relu_", where_form)
        monkeypatch.setattr(tensor, "_leaky_relu_grad", where_grad)
        train(build_model(config), pairs, [], cfg, tmp_path / "where")
        assert calls["forward"] and calls["grad"]
        assert ((tmp_path / "library" / "checkpoint.tck").read_bytes()
                == (tmp_path / "where" / "checkpoint.tck").read_bytes())

    def test_leaky_relu_slope_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                leaky_relu(Tensor(np.ones(2)), slope=bad)

    def test_softmax_against_dense_formula(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 5, 7)) * 3
        out = softmax(Tensor(x), axis=-1).data
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert rel_err(out, e / e.sum(axis=-1, keepdims=True)) < 1e-12
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_shift_invariance_and_stability(self):
        x = np.array([[1000.0, 1001.0, 999.0]])
        out = softmax(Tensor(x)).data
        ref = softmax(Tensor(x - 1000.0)).data
        assert np.allclose(out, ref)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shift", [0.0, 1000.0, -1000.0])
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax_bitwise_formula_and_input_untouched(self, dtype, shift, axis):
        rng = np.random.default_rng(8)
        x = (rng.normal(size=(2, 6, 9)) * 4 + shift).astype(dtype)
        before = x.copy()
        out = softmax(Tensor(x), axis=axis).data
        assert np.array_equal(x, before)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        ref = e / e.sum(axis=axis, keepdims=True)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)


class TestAttention:
    # one (1, 4, 1024, 1024) float32 score tensor
    SCORE_BYTES = 4 * 1024 * 1024 * 4

    @staticmethod
    def _tokens():
        rng = np.random.default_rng(12)
        return [Tensor(rng.normal(size=(1, 1024, 64)).astype(np.float32), requires_grad=True)
                for _ in range(3)]

    def test_shape_validation(self):
        x = Tensor(np.zeros((1, 4, 6)))
        with pytest.raises(ShapeError, match="heads"):
            attention(x, x, x, 4)
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.zeros((1, 4, 8))), Tensor(np.zeros((1, 4, 8))), 2)
        with pytest.raises(ShapeError):
            attention(x, x, Tensor(np.zeros((1, 5, 6))), 2)

    @pytest.mark.parametrize("N", [281, 576])
    def test_graph_free_blocks_match_recording(self, N):
        # without a graph the query rows run in blocks of 93, 94 and 94,
        # and of 115 x 4 and 116
        rng = np.random.default_rng(13)
        arrays = [rng.normal(size=(2, N, 16)).astype(np.float32) for _ in range(3)]
        recorded = attention(*(Tensor(a, requires_grad=True) for a in arrays), 4)
        with no_grad():
            free = attention(*(Tensor(a, requires_grad=True) for a in arrays), 4)
        assert recorded.requires_grad and not free.requires_grad
        np.testing.assert_allclose(free.data, recorded.data, rtol=1e-5, atol=1e-6)

    def test_graph_free_peak_below_one_score_tensor(self):
        q, k, v = self._tokens()
        tracemalloc.start()
        try:
            with no_grad():
                out = attention(q, k, v, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 1024, 64) and not out.requires_grad
        assert peak < self.SCORE_BYTES, peak

    def test_recording_keeps_the_probabilities(self):
        q, k, v = self._tokens()
        tracemalloc.start()
        try:
            out = attention(q, k, v, 4)
            held = tracemalloc.get_traced_memory()[0]
            del out
            released = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held >= self.SCORE_BYTES, held
        assert held - released >= self.SCORE_BYTES


class TestConv2d:
    @pytest.mark.parametrize("stride,H,W", [(1, 6, 6), (2, 6, 6), (2, 7, 5), (1, 5, 7)])
    def test_against_loop_reference(self, stride, H, W):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, H, W))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        ref = conv2d_reference(x, w, b, stride)
        assert out.shape == ref.shape
        assert rel_err(out, ref) < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bitwise_equal_to_im2col_formula(self, k, stride, dtype):
        rng = np.random.default_rng(11)
        for B in (1, 3):
            for C in (1, 5):
                x = rng.normal(size=(B, C, 7, 5)).astype(dtype)
                w = rng.normal(size=(4, C, k, k)).astype(dtype)
                b = rng.normal(size=4).astype(dtype)
                g = rng.normal(size=(B, 4, -(-7 // stride), -(-5 // stride))).astype(dtype)
                ref = conv2d_im2col_reference(x, w, b, stride, g)
                tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
                out = conv2d(tx, tw, tb, stride=stride)
                # the upstream gradient reaching conv2d is exactly g
                tsum(mul(out, Tensor(g))).backward()
                for got, want in zip((out.data, tx.grad, tw.grad, tb.grad), ref):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want), (B, C)

    def test_kernel_sizes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 8, 8))
        for k in (1, 5):
            w = rng.normal(size=(3, 2, k, k))
            b = np.zeros(3)
            out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
            assert rel_err(out, conv2d_reference(x, w, b, 1)) < 1e-10

    def test_output_extent_is_ceil(self):
        x = Tensor(np.zeros((1, 1, 7, 9)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        assert conv2d(x, w, b, stride=2).shape == (1, 1, 4, 5)

    def test_validation_errors(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros(3))
        with pytest.raises(ShapeError):  # channel mismatch names both shapes
            conv2d(x, Tensor(np.zeros((3, 5, 3, 3))), b)
        with pytest.raises(ValueError):  # even kernel
            conv2d(x, Tensor(np.zeros((3, 2, 4, 4))), b)
        with pytest.raises(ShapeError):  # non-square kernel
            conv2d(x, Tensor(np.zeros((3, 2, 3, 5))), b)
        with pytest.raises(ShapeError):  # 3-d input
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))), b)

    def test_bias_shape_and_stride_errors(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match=r"bias must have shape \(3,\), got \(4,\)"):
            conv2d(x, w, Tensor(np.zeros(4)))
        for stride in (0, 1.0):
            with pytest.raises(ValueError, match="stride must be a positive int"):
                conv2d(x, w, Tensor(np.zeros(3)), stride=stride)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_graph_free_bands_match_recording(self, monkeypatch, k, stride):
        # at most 3 output rows per band: the 13 rows of stride 1 run in
        # bands of 2, 3, 2, 3 and 3, the 7 rows of stride 2 in 2, 2 and 3
        rng = np.random.default_rng(17)
        B, C, H, W = 2, 3, 13, 6
        x = rng.normal(size=(B, C, H, W)).astype(np.float32)
        w = rng.normal(size=(4, C, k, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        Wo = -(-W // stride)
        monkeypatch.setattr(tensor, "_CONV_COLS", 3 * B * Wo * C * k * k)
        recorded = conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)), stride=stride)
        with no_grad():
            free = conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)), stride=stride)
        assert recorded.requires_grad and not free.requires_grad
        assert free.shape == recorded.shape == (B, 4, -(-H // stride), Wo)
        np.testing.assert_allclose(free.data, recorded.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(free.data, conv2d_reference(x, w, b, stride),
                                   rtol=1e-4, atol=1e-5)

    def test_graph_free_peak_below_one_column_buffer(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(1, 16, 128, 128)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, np.float32), requires_grad=True)
        cols_bytes = 128 * 128 * 16 * 9 * 4  # 9 MiB of im2col for the whole image
        tracemalloc.start()
        try:
            with no_grad():
                out = conv2d(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 8, 128, 128) and not out.requires_grad
        assert peak < cols_bytes / 2, peak

    def test_channel_mismatch_message_names_shapes(self):
        with pytest.raises(ShapeError, match=r"(1, 2, 4, 4).*(3, 5, 3, 3)"):
            conv2d(
                Tensor(np.zeros((1, 2, 4, 4))),
                Tensor(np.zeros((3, 5, 3, 3))),
                Tensor(np.zeros(3)),
            )


class TestConv2dLeakyRelu:
    """``conv2d(..., slope=s)`` against ``leaky_relu(conv2d(...), s)``."""

    SLOPE = 0.2

    @staticmethod
    def _operands(dtype, k):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 13, 6)).astype(dtype)
        w = rng.normal(size=(6, 3, k, k)).astype(dtype)
        b = rng.normal(size=6).astype(dtype)
        # zero weights leave the biases as the pre-activations of the first
        # five channels: +0 twice (a zero sum plus a bias of +0 or -0), NaN,
        # +inf and -inf; signed zeros meet the activation in the chunk test
        w[:5] = 0
        b[:5] = [0.0, -0.0, np.nan, np.inf, -np.inf]
        return x, w, b

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("bands", ["one", "several"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_bitwise_equals_separate_ops(self, monkeypatch, k, stride, dtype, bands):
        x, w, b = self._operands(dtype, k)
        B, C, H, W = x.shape
        Ho, Wo = -(-H // stride), -(-W // stride)
        if bands == "several":
            # graph-free bands of at most 3 output rows, activated 5 elements
            # at a time; a recorded graph still makes one band
            monkeypatch.setattr(tensor, "_CONV_COLS", 3 * B * Wo * C * k * k)
            monkeypatch.setattr(tensor, "_ACT_CHUNK", 5)
        g = np.random.default_rng(22).normal(size=(B, 6, Ho, Wo)).astype(dtype)

        def run(fused):
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))

            def layer():
                if fused:
                    return conv2d(tx, tw, tb, stride=stride, slope=self.SLOPE)
                return leaky_relu(conv2d(tx, tw, tb, stride=stride), self.SLOPE)

            with no_grad():
                free = layer()
            out = layer()
            # the upstream gradient reaching the activation is exactly g
            tsum(mul(out, Tensor(g))).backward()
            return free.data, out.data, tx.grad, tw.grad, tb.grad

        fused, separate = run(True), run(False)
        out = fused[1]
        assert np.isnan(out[:, 2]).all() and np.isposinf(out[:, 3]).all()
        assert np.isneginf(out[:, 4]).all() and (out[:, :2] == 0).all()
        for got, want in zip(fused, separate):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))

    def test_gradcheck_float64(self):
        rng = np.random.default_rng(23)
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=2, slope=self.SLOPE),
            [rng.normal(size=(2, 2, 6, 5)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)],
            1e-4,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_in_place_chunks_equal_where_form(self, dtype, size):
        assert tensor._ACT_CHUNK == 2**16
        fi = np.finfo(dtype)
        specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, fi.max, -fi.max,
                    fi.smallest_subnormal, -fi.smallest_subnormal]
        pattern = np.concatenate([np.array(specials, dtype=dtype),
                                  np.random.default_rng(24).normal(size=97).astype(dtype)])
        a = np.resize(pattern, size)
        s = dtype(self.SLOPE)
        want = np.where(a > 0, a, a * s)
        tensor._leaky_relu_(a, s)
        assert np.array_equal(_bits(a), _bits(want))

    def test_slope_outside_unit_interval_refused(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w, b = Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(3))
        for bad in (0.0, 1.0, -0.1, 2.0, float("nan")):
            with pytest.raises(ValueError) as fused:
                conv2d(x, w, b, slope=bad)
            with pytest.raises(ValueError) as alone:
                leaky_relu(x, slope=bad)
            assert str(fused.value) == str(alone.value)

    # trunk1 of a 512x512 denoise: a (1, 16, 256, 256) float32 map is 4 MiB
    MAP_BYTES = 16 * 256 * 256 * 4

    @staticmethod
    def _trunk1():
        layer = ConvAct(1, 16, np.random.default_rng(25), stride=2)
        x = Tensor(np.random.default_rng(26).normal(size=(1, 1, 512, 512)).astype(np.float32))
        return layer, x

    def test_graph_free_layer_makes_one_map(self):
        # the activation allocates no second map: besides the output there
        # are one band's im2col columns (0.76 MiB) and product (1.34 MiB);
        # a separate leaky_relu would peak at two maps
        layer, x = self._trunk1()
        tracemalloc.start()
        try:
            with no_grad():
                out = layer(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 16, 256, 256) and not out.requires_grad
        assert peak < 1.75 * self.MAP_BYTES, peak

    def test_recorded_layer_holds_one_map(self):
        # one graph node, the conv's, holding its output and its columns
        layer, x = self._trunk1()
        cols_bytes = 256 * 256 * 9 * 4
        tracemalloc.start()
        try:
            out = layer(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < self.MAP_BYTES + cols_bytes + 2**20, held
        assert out._parents == (x, layer.conv.weight, layer.conv.bias)

    def test_recorded_backward_frees_columns_before_their_gradient(self):
        # a 3x3 conv at stride 1 on (2, 16, 32, 32): its columns are nine
        # times its input; backward's other arrays (the gradient, its
        # channels-last copy, the padded input gradient) are about one
        # input each
        rng = np.random.default_rng(27)
        x = Tensor(rng.normal(size=(2, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, np.float32), requires_grad=True)
        cols_bytes = 2 * 32 * 32 * 16 * 9 * 4
        tracemalloc.start()
        try:
            loss = tsum(conv2d(x, w, b, slope=self.SLOPE))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < cols_bytes, (peak - start, cols_bytes)


class TestFusedLinear:
    """``linear(..., slope=s)`` against ``leaky_relu(add(matmul(...)), s)``."""

    SLOPE = 0.2

    @staticmethod
    def _operands():
        rng = np.random.default_rng(31)
        x = rng.normal(size=(8, 16, 64)).astype(np.float32)
        w = (rng.normal(size=(64, 512)) / 8).astype(np.float32)
        b = rng.normal(size=512).astype(np.float32)
        # zero weight columns leave the biases as the pre-activations of the
        # first five output channels: +0 twice (a zero sum plus a bias of +0
        # or -0), NaN, +inf and -inf
        w[:, :5] = 0
        b[:5] = [0.0, -0.0, np.nan, np.inf, -np.inf]
        return x, w, b

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("slope", [None, SLOPE])
    def test_bitwise_equals_separate_ops(self, slope):
        x, w, b = self._operands()
        g = np.random.default_rng(32).normal(size=(8, 16, 512)).astype(np.float32)

        def run(fused):
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
            if fused:
                out = linear(tx, tw, tb, slope)
            else:
                out = add(matmul(tx, tw), tb)
                if slope is not None:
                    out = leaky_relu(out, slope)
            # the upstream gradient reaching the last op is exactly g
            tsum(mul(out, Tensor(g))).backward()
            return out.data, tx.grad, tw.grad, tb.grad

        fused, separate = run(True), run(False)
        assert np.isnan(fused[0][..., 2]).all() and np.isposinf(fused[0][..., 3]).all()
        for got, want in zip(fused, separate):
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_graph_free_equals_recorded(self):
        x, w, b = (Tensor(a, requires_grad=True) for a in self._operands())
        with no_grad():
            free = linear(x, w, b, self.SLOPE)
        recorded = linear(x, w, b, self.SLOPE)
        assert not free.requires_grad and free._parents == ()
        assert recorded._parents == (x, w, b)
        assert np.array_equal(_bits(free.data), _bits(recorded.data))

    def test_shape_errors_name_the_shapes(self):
        x, w = Tensor(np.ones((2, 5))), Tensor(np.ones((4, 3)))
        with pytest.raises(ShapeError, match=re.escape("(2, 5) @ (4, 3)")):
            linear(x, w, Tensor(np.ones(3)))
        for xs, ws in (((4,), (4, 3)), ((2, 4), (4,)), ((2, 4), (1, 4, 3))):
            message = f"rank >= 2 and a 2-d weight, got {xs} @ {ws}"
            with pytest.raises(ShapeError, match=re.escape(message)):
                linear(Tensor(np.ones(xs)), Tensor(np.ones(ws)), Tensor(np.ones(3)))
        x = Tensor(np.ones((2, 4)))
        for bad in ((4,), (1, 3)):
            with pytest.raises(ShapeError, match=re.escape(f"(3,), got {bad}")):
                linear(x, w, Tensor(np.ones(bad)))

    def test_slope_outside_unit_interval_refused(self):
        x, w, b = Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3))), Tensor(np.ones(3))
        for bad in (0.0, 1.0, -0.1, 2.0, float("nan")):
            with pytest.raises(ValueError) as fused:
                linear(x, w, b, bad)
            with pytest.raises(ValueError) as alone:
                leaky_relu(x, slope=bad)
            assert str(fused.value) == str(alone.value)

    def test_training_forward_holds_one_node_per_linear(self):
        # 3 encoders of 4 attention and 2 feed-forward maps, and 3 decoders
        # of 8 and 2: 48 linear nodes, and no matmul or leaky_relu node
        model = build_model(ModelConfig(width=0.25, seed=0))
        rng = np.random.default_rng(33)
        low, high, target = (Tensor(rng.normal(size=(8, 1, 64, 64)).astype(np.float32))
                             for _ in range(3))
        loss = mse_loss(model(low, high), target)
        ops, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            ops.append(node._backward.__qualname__.split(".")[0])
            stack.extend(node._parents)
        assert ops.count("linear") == 48
        assert "matmul" not in ops and "leaky_relu" not in ops


class TestPixelShuffle:
    def test_documented_2x2_layout(self):
        # channels [a,b,c,d] at one pixel become the 2x2 block [[a,b],[c,d]]
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = pixel_shuffle(Tensor(x), 2).data
        assert np.array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_against_index_reference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 18, 3, 4)).astype(np.float32)
        out = pixel_shuffle(Tensor(x), 3).data
        assert np.array_equal(out, shuffle_reference(x, 3))

    def test_inverse_pair(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 8, 4, 6)).astype(np.float32)
        assert np.array_equal(pixel_unshuffle(pixel_shuffle(Tensor(x), 2), 2).data, x)
        y = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        assert np.array_equal(pixel_shuffle(pixel_unshuffle(Tensor(y), 4), 4).data, y)

    def test_divisibility_errors(self):
        with pytest.raises(ShapeError, match="7"):
            pixel_shuffle(Tensor(np.zeros((1, 7, 2, 2))), 2)
        with pytest.raises(ShapeError, match="5"):
            pixel_unshuffle(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_rank_errors(self):
        with pytest.raises(ShapeError, match=r"pixel_shuffle needs a 4-d tensor, got \(4, 2, 2\)"):
            pixel_shuffle(Tensor(np.zeros((4, 2, 2))), 2)
        with pytest.raises(ShapeError, match=r"pixel_unshuffle needs a 4-d tensor, got \(1, 4, 4\)"):
            pixel_unshuffle(Tensor(np.zeros((1, 4, 4))), 2)


class TestTensorBasics:
    def test_repr_names_shape_dtype_and_grad(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), dtype=float64)"
        assert (repr(Tensor(np.zeros(4, np.float32), requires_grad=True))
                == "Tensor(shape=(4,), dtype=float32, requires_grad=True)")

    def test_item(self):
        t = Tensor(np.array(3.5))
        assert t.item() == 3.5
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()

    def test_readme_names_every_tensor_method(self):
        # the README's sentence "A `Tensor`'s own names are ..." lists the
        # public names; the only methods beyond them are __init__ and __repr__,
        # so there are no operators and no second way to call an op
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"A `Tensor`'s own names are (.*?)\.\s", readme, flags=re.S)
        documented = set(re.findall(r"`(\w+)(?:\(\))?`", sentence.group(1)))
        assert documented == {name for name in vars(Tensor) if not name.startswith("_")}
        dunders = {name for name, value in vars(Tensor).items()
                   if name.startswith("__") and callable(value)}
        assert dunders == {"__init__", "__repr__"}
