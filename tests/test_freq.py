"""Band splitting: analytic kernel, reflect-boundary oracle, exactness."""

import math

import numpy as np
import pytest

from ctdenoise.freq import (
    DEFAULT_SIGMA,
    decompose,
    gaussian_blur,
    gaussian_kernel,
)
from ctdenoise.tensor import NonFiniteError, ShapeError

from conftest import rel_err


def blur_reference(img, sigma):
    """Direct 2-d windowed sum with reflect boundary — no separability."""
    k1 = gaussian_kernel(sigma)
    radius = len(k1) // 2
    k2 = np.outer(k1, k1)
    padded = np.pad(img.astype(np.float64), radius, mode="reflect")
    H, W = img.shape
    out = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            out[i, j] = np.sum(padded[i : i + 2 * radius + 1, j : j + 2 * radius + 1] * k2)
    return out


class TestKernel:
    def test_radius_and_normalization(self):
        for sigma in (0.8, 1.5, 2.3):
            k = gaussian_kernel(sigma)
            assert len(k) == 2 * math.ceil(4 * sigma) + 1
            assert np.isclose(k.sum(), 1.0, atol=1e-12)
            assert np.array_equal(k, k[::-1])

    def test_taps_match_analytic_gaussian(self):
        sigma = 1.5
        k = gaussian_kernel(sigma)
        radius = len(k) // 2
        n = np.arange(-radius, radius + 1)
        raw = np.exp(-0.5 * (n / sigma) ** 2)
        assert rel_err(k, raw / raw.sum()) < 1e-12

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)
        with pytest.raises(ValueError):
            gaussian_kernel(-1.0)


class TestBlur:
    def test_matches_direct_2d_reference(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(20, 17))
        out = gaussian_blur(img, 1.5)
        assert rel_err(out, blur_reference(img, 1.5)) < 1e-12

    def test_constant_image_unchanged(self):
        img = np.full((16, 16), 7.25)
        assert np.allclose(gaussian_blur(img, DEFAULT_SIGMA), 7.25, atol=1e-6)

    def test_impulse_response_is_separable_kernel(self):
        img = np.zeros((31, 31))
        img[15, 15] = 1.0
        k = gaussian_kernel(1.5)
        r = len(k) // 2
        expect = np.outer(k, k)
        got = gaussian_blur(img, 1.5)[15 - r : 15 + r + 1, 15 - r : 15 + r + 1]
        assert rel_err(got, expect) < 1e-12

    def test_sinusoid_gain_matches_transfer_function(self):
        # well inside the image, a horizontal cosine is scaled by the
        # kernel's discrete-frequency response
        f = 0.15
        k = gaussian_kernel(1.5)
        r = len(k) // 2
        gain = float(np.sum(k * np.cos(2 * np.pi * f * np.arange(-r, r + 1))))
        x = np.cos(2 * np.pi * f * np.arange(64))
        img = np.tile(x, (64, 1))
        out = gaussian_blur(img, 1.5)
        interior = (slice(r, -r), slice(r, -r))
        assert rel_err(out[interior], gain * img[interior]) < 1e-9

    def test_batched_last_two_axes(self):
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(3, 1, 18, 18))
        out = gaussian_blur(stack, 1.5)
        assert out.shape == stack.shape
        for i in range(3):
            assert np.allclose(out[i, 0], gaussian_blur(stack[i, 0], 1.5))

    def test_image_smaller_than_kernel_raises(self):
        with pytest.raises(ShapeError, match="13-tap"):
            gaussian_blur(np.ones((8, 8)), 1.5)  # kernel is 13 taps

    @pytest.mark.parametrize("sigma", [1e12, 1e308])
    def test_huge_sigma_refused_before_the_kernel_is_made(self, sigma):
        # 1e12 would be 8e12 taps (58 TiB), 1e308 overflows an integer tap count
        with pytest.raises(ShapeError, match="image extent 64 along axis 1 is smaller than"):
            decompose(np.zeros((64, 64), np.float32), sigma)


class TestDecompose:
    def test_exact_recomposition_float32(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            img = rng.normal(size=(32, 32)).astype(np.float32)
            low, high = decompose(img)
            err = np.abs(low + high - img).max()
            assert err <= 1e-6

    def test_mean_preserved_and_noise_lands_in_high_band(self):
        rng = np.random.default_rng(3)
        smooth = np.outer(np.linspace(0, 1, 48), np.linspace(1, 2, 48))
        noise = 0.1 * rng.normal(size=(48, 48))
        low, high = decompose(smooth + noise)
        # the smooth ramp survives in the low band; most noise power does not
        assert np.var(high) > 0.4 * np.var(noise)
        assert abs(low.mean() - (smooth + noise).mean()) < 1e-2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_returns_low_and_high_arrays(self, dtype):
        img = np.random.default_rng(4).normal(size=(16, 16)).astype(dtype)
        low, high = decompose(img)
        for band in (low, high):
            assert isinstance(band, np.ndarray)
            assert band.shape == img.shape and band.dtype == dtype
        assert np.array_equal(low, gaussian_blur(img, DEFAULT_SIGMA))
        assert np.array_equal(high, img - low)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.bool_])
    def test_non_floating_image_split_in_float64(self, dtype):
        img = np.zeros((32, 32), dtype)
        img[8:24, 8:24] = 1
        low, high = decompose(img)
        assert low.dtype == high.dtype == np.float64
        assert np.array_equal(low, gaussian_blur(img.astype(np.float64), DEFAULT_SIGMA))
        assert np.allclose(low + high, img, atol=1e-12)

    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            decompose(np.ones(16))
        with pytest.raises(ShapeError):
            decompose(np.ones((2, 16, 16)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, dtype, bad):
        img = np.zeros((32, 32), dtype=dtype)
        img[5, 7] = bad
        with pytest.raises(NonFiniteError, match="^decompose: image contains NaN or infinite"):
            decompose(img)

