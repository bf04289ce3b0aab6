"""Reverse-mode gradients audited against central finite differences.

Every differentiable op gets a float64 check at rel. error < 1e-4; leaky
ReLU inputs are sampled away from the kink so the subgradient choice at 0
cannot contaminate the comparison.
"""

import tracemalloc

import numpy as np
import pytest

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
    neg,
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

from ctdenoise.model import ModelConfig, build_model
from ctdenoise.training import mse_loss

from conftest import gradcheck, rel_err

TOL = 1e-4


def _away_from_zero(rng, shape, margin=0.25):
    x = rng.uniform(margin, 1.5, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def _attention_chain(q, k, v, n_heads):
    """Multi-head attention as a chain of the elementary ops."""
    B, N, C = q.shape
    M = k.shape[1]
    h, d = n_heads, C // n_heads
    qh = transpose(reshape(q, (B, N, h, d)), (0, 2, 1, 3))
    kh = transpose(reshape(k, (B, M, h, d)), (0, 2, 3, 1))
    vh = transpose(reshape(v, (B, M, h, d)), (0, 2, 1, 3))
    scale = Tensor(np.array(1.0 / np.sqrt(d), dtype=q.dtype))
    p = softmax(mul(matmul(qh, kh), scale), axis=-1)
    return reshape(transpose(matmul(p, vh), (0, 2, 1, 3)), (B, N, C))


class TestElementwiseGrads:
    def test_add(self):
        rng = np.random.default_rng(0)
        gradcheck(add, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))], TOL)

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        gradcheck(add, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))], TOL)

    def test_sub_neg(self):
        rng = np.random.default_rng(2)
        gradcheck(sub, [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))], TOL)
        gradcheck(neg, [rng.normal(size=(5,)) + 2.0], TOL)

    def test_mul_broadcast(self):
        rng = np.random.default_rng(3)
        gradcheck(mul, [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))], TOL)


class TestLinearAlgebraGrads:
    def test_matmul_2d(self):
        rng = np.random.default_rng(4)
        gradcheck(matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], TOL)

    def test_matmul_batched(self):
        rng = np.random.default_rng(5)
        gradcheck(matmul, [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 2, 4, 3))], TOL)

    def test_matmul_broadcast_kv(self):
        rng = np.random.default_rng(6)
        gradcheck(matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))], TOL)

    def test_linear(self):
        rng = np.random.default_rng(7)
        gradcheck(
            linear,
            [rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))],
            TOL,
        )

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 5, 3)])
    def test_linear_with_slope(self, x_shape):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=x_shape), rng.normal(size=(3, 4)), rng.normal(size=(4,))
        gradcheck(lambda x, w, b: linear(x, w, b, 0.2), [x, w, b], TOL)

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    def test_linear_with_slope_and_a_frozen_operand(self, frozen):
        # the operand at ``frozen`` does not require grad; the other two are checked
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))]
        const = Tensor(arrays.pop(frozen))

        def op(*tensors):
            operands = list(tensors)
            operands.insert(frozen, const)
            return linear(*operands, slope=0.2)

        gradcheck(op, arrays, TOL)


class TestShapingGrads:
    def test_reshape(self):
        rng = np.random.default_rng(8)
        gradcheck(lambda x: reshape(x, (6, 2)), [rng.normal(size=(3, 4))], TOL)

    def test_transpose(self):
        rng = np.random.default_rng(9)
        gradcheck(lambda x: transpose(x, (2, 0, 1)), [rng.normal(size=(2, 3, 4))], TOL)

    def test_concat(self):
        rng = np.random.default_rng(10)
        gradcheck(
            lambda a, b: concat([a, b], axis=1),
            [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))],
            TOL,
        )

    def test_sum_all_axes(self):
        rng = np.random.default_rng(11)
        gradcheck(tsum, [rng.normal(size=(3, 4))], TOL)
        gradcheck(lambda x: tsum(x, axis=1), [rng.normal(size=(3, 4))], TOL)
        gradcheck(lambda x: tsum(x, axis=0, keepdims=True), [rng.normal(size=(3, 4))], TOL)

    def test_mean(self):
        rng = np.random.default_rng(12)
        gradcheck(tmean, [rng.normal(size=(3, 4))], TOL)
        gradcheck(lambda x: tmean(x, axis=2), [rng.normal(size=(2, 3, 4))], TOL)


class TestNonlinearityGrads:
    def test_leaky_relu(self):
        rng = np.random.default_rng(13)
        gradcheck(lambda x: leaky_relu(x, 0.2), [_away_from_zero(rng, (4, 5))], TOL)

    def test_leaky_relu_subgradient_at_zero(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        tsum(leaky_relu(x, 0.2)).backward()
        assert np.allclose(x.grad, 0.2)

    def test_softmax(self):
        rng = np.random.default_rng(14)
        gradcheck(lambda x: softmax(x, axis=-1), [rng.normal(size=(3, 5))], TOL)

    def test_softmax_inner_axis(self):
        rng = np.random.default_rng(15)
        gradcheck(lambda x: softmax(x, axis=1), [rng.normal(size=(2, 4, 3))], TOL)


class TestStructuredGrads:
    def test_conv2d_stride1(self):
        rng = np.random.default_rng(16)
        gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=1),
            [rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(3,))],
            TOL,
        )

    def test_conv2d_stride2_even_and_odd(self):
        rng = np.random.default_rng(17)
        for H, W in ((6, 6), (5, 7)):
            gradcheck(
                lambda x, w, b: conv2d(x, w, b, stride=2),
                [rng.normal(size=(1, 2, H, W)), rng.normal(size=(2, 2, 3, 3)), rng.normal(size=(2,))],
                TOL,
            )

    def test_conv2d_1x1(self):
        rng = np.random.default_rng(18)
        gradcheck(
            lambda x, w, b: conv2d(x, w, b),
            [rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 1, 1)), rng.normal(size=(2,))],
            TOL,
        )

    def test_pixel_shuffle(self):
        rng = np.random.default_rng(19)
        gradcheck(lambda x: pixel_shuffle(x, 2), [rng.normal(size=(1, 8, 3, 3))], TOL)

    def test_pixel_unshuffle(self):
        rng = np.random.default_rng(20)
        gradcheck(lambda x: pixel_unshuffle(x, 2), [rng.normal(size=(1, 2, 6, 4))], TOL)


class TestAttentionGrads:
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("N,M", [(5, 5), (4, 7)], ids=["self", "cross"])
    def test_attention(self, n_heads, N, M):
        rng = np.random.default_rng(21 + n_heads + M)
        gradcheck(
            lambda q, k, v: attention(q, k, v, n_heads),
            [rng.normal(size=(2, N, 8)), rng.normal(size=(2, M, 8)), rng.normal(size=(2, M, 8))],
            TOL,
        )

    def test_attention_one_tensor_in_all_three_roles(self):
        rng = np.random.default_rng(22)
        gradcheck(lambda x: attention(x, x, x, 2), [rng.normal(size=(1, 6, 4))], TOL)

    @pytest.mark.parametrize("M", [281, 40], ids=["self", "cross"])
    def test_attention_blocks_match_op_chain(self, M):
        # without a graph 281 query rows run in blocks of 93, 94 and 94 rows
        rng = np.random.default_rng(23)
        arrays = [rng.normal(size=(2, 281, 8)), rng.normal(size=(2, M, 8)), rng.normal(size=(2, M, 8))]
        probe = rng.normal(size=(2, 281, 8))
        results = []
        for op in (attention, _attention_chain):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out = op(q, k, v, 2)
            tsum(mul(out, Tensor(probe))).backward()
            results.append([out.data, q.grad, k.grad, v.grad])
        with no_grad():
            results[0].append(attention(*(Tensor(a) for a in arrays), 2).data)
        results[1].append(results[1][0])
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestGraphSemantics:
    def test_diamond_reuse(self):
        # f(x) = sum((x + x) * x); df/dx = 4x — the node x appears three times
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = mul(add(x, x), x)
        tsum(y).backward()
        assert np.allclose(x.grad, 4.0 * x.data)

    def test_repeated_backward_accumulates(self):
        # a graph is single-use; gradients accumulate across fresh graphs
        x = Tensor(np.ones(3), requires_grad=True)
        loss = tsum(mul(x, x))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        tsum(mul(x, x)).backward()
        assert np.array_equal(x.grad, 2.0 * first)
        x.zero_grad()
        assert x.grad is None

    def test_only_leaves_keep_gradients(self):
        model = build_model(ModelConfig(width=0.25, seed=4))
        rng = np.random.default_rng(23)
        x_low, x_high, target = (
            Tensor(rng.normal(size=(2, 1, 64, 64)).astype(np.float32)) for _ in range(3)
        )
        loss = mse_loss(model(x_low, x_high), target)
        params = model.parameters()
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        inner = [n for n in nodes if n._backward is not None]
        assert len(inner) > 100
        loss.backward()
        assert all(n.grad is None and n._parents == () for n in inner)
        assert all(p.grad is not None for p in params)
        first = [p.grad.copy() for p in params]
        mse_loss(model(x_low, x_high), target).backward()
        for p, f in zip(params, first):
            assert np.array_equal(p.grad, 2 * f)

    def test_freed_intermediate_is_not_a_leaf(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = mul(x, x)
        tsum(h).backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="freed"):
            tsum(mul(h, Tensor(np.full(3, 2.0)))).backward()
        assert h.grad is None
        assert np.array_equal(x.grad, first)

    def test_backward_frees_the_graph_as_it_walks(self):
        # the peak above the forward's graph is a few live gradients, not
        # leaf gradients stacked on the whole graph
        model = build_model(ModelConfig(width=0.25, seed=4))
        rng = np.random.default_rng(24)
        x_low, x_high, target = (
            Tensor(rng.normal(size=(8, 1, 64, 64)).astype(np.float32)) for _ in range(3)
        )
        tracemalloc.start()
        try:
            loss = mse_loss(model(x_low, x_high), target)
            graph = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            above = tracemalloc.get_traced_memory()[1] - graph
        finally:
            tracemalloc.stop()
        assert above <= 2 * 2**20, above

    def test_grad_stops_at_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, Tensor(np.full(3, 2.0)))
        z = mul(Tensor(y.data), x)  # a leaf on y's data: the graph is cut there
        tsum(z).backward()
        assert np.allclose(x.grad, 2.0)  # only the direct path contributes

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            mul(x, x).backward()

    def test_backward_requires_grad(self):
        with pytest.raises(ValueError):
            Tensor(np.array(1.0)).backward()

    def test_no_graph_when_untracked(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        out = add(a, b)
        assert not out.requires_grad and out._parents == ()

    def test_chained_ops_end_to_end(self):
        # small composite: softmax(leaky(xW + b)) reduced by mean
        rng = np.random.default_rng(21)

        def net(x, w, b):
            h = leaky_relu(linear(x, w, b), 0.2)
            return tmean(softmax(h, axis=-1))

        gradcheck(
            net,
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))],
            TOL,
        )

    def test_float32_graph_keeps_dtype_but_grads_flow(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        loss = tmean(mul(x, x))
        assert loss.dtype == np.float32
        loss.backward()
        assert x.grad.dtype == np.float32
        assert np.allclose(x.grad, 0.5)


class TestNoGrad:
    def _op(self, x):
        return tsum(mul(conv2d(x, Tensor(np.ones((2, 1, 3, 3)), requires_grad=True),
                               Tensor(np.zeros(2))), Tensor(np.array(2.0))))

    def test_records_nothing(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        with no_grad():
            outs = [self._op(x), softmax(x, axis=-1), matmul(x, x), add(x, Tensor(np.ones(1)))]
        for out in outs:
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()
        assert x.requires_grad

    def test_restored_after_nesting(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not self._op(x).requires_grad
            # leaving the inner block must not re-enable recording
            assert not self._op(x).requires_grad
        assert self._op(x).requires_grad

    def test_restored_after_exception(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("raised inside no_grad")
        out = self._op(x)
        assert out.requires_grad and out._backward is not None

    def test_backward_works_after_the_block(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            tsum(mul(x, x))
        loss = tsum(mul(x, x))
        loss.backward()
        assert np.array_equal(x.grad, 2.0 * x.data)
