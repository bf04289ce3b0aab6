"""Adam, gradient clipping and Xavier init against independent references."""

import math
import warnings

import numpy as np
import pytest

from ctdenoise.optim import AdamState, adam_step, clip_grad_norm, xavier_init
from ctdenoise.tensor import ShapeError, Tensor

from conftest import rel_err


def adam_reference(p0, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Moment form with explicit bias-corrected m_hat / v_hat, float64."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_per_step, start=1):
        g = g.astype(np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdamStep:
    def test_matches_reference_over_trajectory(self):
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=(4, 3)).astype(np.float64)
        grads = [rng.normal(size=(4, 3)) for _ in range(50)]
        param = Tensor(p0.copy(), requires_grad=True)
        state = AdamState.for_params([param])
        for g in grads:
            adam_step([param], [g], state, lr=1e-2)
        ref = adam_reference(p0, grads, lr=1e-2)
        assert rel_err(param.data, ref) < 1e-12

    def test_first_step_magnitude(self):
        # With zero moments, step one moves each weight by ~lr * sign(g).
        p = Tensor(np.zeros(5), requires_grad=True)
        g = np.array([1.0, -2.0, 0.5, -0.1, 3.0])
        state = AdamState.for_params([p])
        adam_step([p], [g], state, lr=1e-3)
        assert np.allclose(p.data, -1e-3 * np.sign(g), rtol=1e-5)

    def test_minimizes_least_squares(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(20, 3))
        b = rng.normal(size=20)
        w = Tensor(np.zeros(3), requires_grad=True)
        state = AdamState.for_params([w])
        for _ in range(800):
            grad = 2 * A.T @ (A @ w.data - b) / len(b)
            adam_step([w], [grad], state, lr=5e-2)
        w_star = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(w.data, w_star, atol=1e-3)

    def test_updates_in_place_and_keeps_dtype(self):
        p = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        buf = p.data
        state = AdamState.for_params([p])
        adam_step([p], [np.ones((2, 2), dtype=np.float32)], state, lr=1e-2)
        assert p.data is buf
        assert p.data.dtype == np.float32
        assert state.t == 1

    def test_shape_and_count_validation(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.ones(4)], state, lr=1e-3)
        with pytest.raises(ShapeError):
            adam_step([p], [], state, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step([p], [None], state, lr=1e-3)


class TestClipGradNorm:
    @staticmethod
    def ordered_float32_norm(grads):
        return math.sqrt(sum(float(np.sum(g * g)) for g in grads))

    def test_scales_to_the_cap_with_the_ordered_float32_sum(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=s).astype(np.float32) for s in ((4, 3), (5,), (2, 2, 3))]
        gnorm = self.ordered_float32_norm(grads)
        want = [g * (0.5 / gnorm) for g in grads]
        bufs = list(grads)
        assert clip_grad_norm(grads, 0.5) == gnorm
        for got, ref, buf in zip(grads, want, bufs):
            assert got is buf  # in place
            assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_leaves_a_small_norm_alone(self):
        grads = [np.array([0.3, -0.4], dtype=np.float32)]
        before = grads[0].copy()
        assert clip_grad_norm(grads, 1.0) == pytest.approx(0.5)
        assert np.array_equal(grads[0], before)

    def test_finite_gradient_whose_square_overflows(self):
        # (2e19)^2 overflows float32; the update is clipped, not zeroed
        grads = [np.array([2e19, 1.0], dtype=np.float32), np.array([0.5], dtype=np.float32)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gnorm = clip_grad_norm(grads, 1.0)
        assert gnorm == pytest.approx(2e19, rel=1e-6)
        assert grads[0][0] == pytest.approx(1.0, rel=1e-6)
        assert grads[0][1] == pytest.approx(5e-20, rel=1e-6)
        assert grads[1][0] == pytest.approx(2.5e-20, rel=1e-6)

    def test_float32_sum_that_overflows(self):
        # each square is finite, their float32 sum is not
        grads = [np.full(4, 1.5e19, dtype=np.float32)]
        assert clip_grad_norm(grads, 2.0) == pytest.approx(3e19, rel=1e-6)
        assert np.allclose(grads[0], 1.0, rtol=1e-6)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_gradient_keeps_its_norm(self):
        nan = [np.array([np.nan, 1.0], dtype=np.float32)]
        assert math.isnan(clip_grad_norm(nan, 1.0))
        inf = [np.array([np.inf, 1.0], dtype=np.float32)]
        assert clip_grad_norm(inf, 1.0) == math.inf


class TestXavierInit:
    def test_linear_bound(self):
        w = xavier_init((30, 50), np.random.default_rng(0)).data
        bound = np.sqrt(6.0 / 80.0)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    def test_conv_bound_includes_receptive_field(self):
        w = xavier_init((8, 4, 3, 3), np.random.default_rng(1)).data
        bound = np.sqrt(6.0 / ((8 + 4) * 9))
        assert np.abs(w).max() <= bound
        # variance of U(-b, b) is b^2/3
        assert np.isclose(w.var(), bound**2 / 3.0, rtol=0.15)

    def test_deterministic_per_seed(self):
        a = xavier_init((5, 5), np.random.default_rng(7)).data
        b = xavier_init((5, 5), np.random.default_rng(7)).data
        c = xavier_init((5, 5), np.random.default_rng(8)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_generator_and_advances_it(self):
        rng = np.random.default_rng(0)
        a = xavier_init((4, 4), rng).data
        b = xavier_init((4, 4), rng).data
        assert not np.array_equal(a, b)

    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            xavier_init((5,), np.random.default_rng(0))

    def test_no_generator_draws_nothing(self, monkeypatch):
        # for a loader that overwrites every parameter: no generator is made
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        w = xavier_init((3, 5), None)
        assert w.shape == (3, 5) and w.dtype == np.float32
        assert w.requires_grad and w.grad is None and w._backward is None
        with pytest.raises(ShapeError):
            xavier_init((5,), None)
