"""Forward-path checks of the tensor ops against independent references."""

import tracemalloc

import numpy as np
import pytest

from ctdenoise import tensor
from ctdenoise.tensor import (
    NonFiniteError,
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

from conftest import rel_err


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

    def test_scalar_sugar(self):
        t = Tensor(np.array([1.0, -2.0]))
        assert np.allclose((2.0 * t + 1.0).data, [3.0, -3.0])
        with pytest.raises(TypeError):
            t / t

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

    def test_softmax_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.array([1.0, np.nan])))
        with pytest.raises(ValueError):
            softmax(Tensor(np.array([1.0, np.inf])))

    def test_softmax_non_finite_error_is_typed(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError, match="^softmax: input contains NaN or infinite values$"):
                softmax(Tensor(np.array([1.0, bad])))

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

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("recording", [True, False], ids=["graph", "no_grad"])
    def test_overflowing_scores_raise_softmax_error(self, recording):
        # 1e20 * 1e20 is past the float32 maximum, so the scores hold inf
        q = Tensor(np.full((1, 3, 4), 1e20, dtype=np.float32), requires_grad=True)
        k = Tensor(np.full((1, 5, 4), 1e20, dtype=np.float32), requires_grad=True)
        v = Tensor(np.ones((1, 5, 4), dtype=np.float32), requires_grad=True)
        with pytest.raises(NonFiniteError, match="^softmax: input contains NaN or infinite values$"):
            if recording:
                attention(q, k, v, 2)
            else:
                with no_grad():
                    attention(q, k, v, 2)

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

    def test_item_and_detach(self):
        t = Tensor(np.array(3.5))
        assert t.item() == 3.5
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()
        x = Tensor(np.ones(2), requires_grad=True)
        assert not x.detach().requires_grad
