"""Additive low/high frequency split of an image via Gaussian blurring.

The low band is a separable Gaussian blur (kernel radius ceil(4*sigma),
weights normalized to sum 1, reflect boundary); the high band is the
residual, so low + high reconstructs the input exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

DEFAULT_SIGMA = 1.5


def gaussian_window(n, sd):
    """``n`` normalized 1-d Gaussian taps of standard deviation ``sd``,
    centred on the middle tap."""
    x = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    k = np.exp(-0.5 * (x / sd) ** 2)
    return k / k.sum()


def gaussian_kernel(sigma):
    """Normalized 1-d Gaussian taps with radius ceil(4*sigma)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return gaussian_window(2 * int(np.ceil(4.0 * sigma)) + 1, sigma)


def _correlate_along(arr, kernel, axis):
    radius = len(kernel) // 2
    if arr.shape[axis] < len(kernel):
        raise ShapeError(
            f"image extent {arr.shape[axis]} along axis {axis} is smaller than "
            f"the {len(kernel)}-tap blur kernel"
        )
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad, mode="reflect")
    out = np.zeros_like(arr, dtype=arr.dtype)
    view = np.moveaxis(padded, axis, -1)
    dest = np.moveaxis(out, axis, -1)
    n = arr.shape[axis]
    for i, w in enumerate(kernel):
        dest += arr.dtype.type(w) * view[..., i : i + n]
    return out


def gaussian_blur(arr, sigma=DEFAULT_SIGMA):
    """Separable Gaussian blur over the last two axes of a numpy array."""
    kernel = gaussian_kernel(sigma)
    out = _correlate_along(arr, kernel, arr.ndim - 1)
    return _correlate_along(out, kernel, arr.ndim - 2)


@dataclass
class FreqPair:
    """Low/high band split such that low + high == original."""

    low: Tensor
    high: Tensor


def decompose(image, sigma=DEFAULT_SIGMA):
    """Split a 2-d image tensor into Gaussian low band plus residual."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    if data.ndim != 2:
        raise ShapeError(f"decompose expects a 2-d image, got shape {data.shape}")
    low = gaussian_blur(data, sigma)
    high = data - low
    return FreqPair(low=Tensor(low), high=Tensor(high))


def recompose(pair):
    if pair.low.shape != pair.high.shape:
        raise ShapeError(
            f"recompose: band shapes disagree, {pair.low.shape} vs {pair.high.shape}"
        )
    return Tensor(pair.low.data + pair.high.data)
