"""Additive low/high frequency split of an image via Gaussian blurring.

The low band is a separable Gaussian blur (kernel radius ceil(4*sigma),
weights normalized to sum 1, reflect boundary); the high band is the
residual, so low + high reconstructs the input exactly by construction.
"""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, ShapeError

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
    taps = 2.0 * np.ceil(4.0 * sigma) + 1.0  # a float: no sigma overflows it
    for axis in (arr.ndim - 1, arr.ndim - 2):
        if arr.shape[axis] < taps:
            raise ShapeError(f"image extent {arr.shape[axis]} along axis {axis} is smaller "
                             f"than the {taps:.0f}-tap blur kernel")
    kernel = gaussian_kernel(sigma)
    out = _correlate_along(arr, kernel, arr.ndim - 1)
    return _correlate_along(out, kernel, arr.ndim - 2)


def decompose(image, sigma=DEFAULT_SIGMA):
    """Split a 2-d image array into ``(low, high)`` arrays, the Gaussian
    low band and the residual, so that low + high == image; a non-floating
    image is split in float64. NaN or inf raises NonFiniteError."""
    data = np.asarray(image)
    data = data if np.issubdtype(data.dtype, np.inexact) else data.astype(np.float64)
    if data.ndim != 2:
        raise ShapeError(f"decompose expects a 2-d image, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise NonFiniteError("decompose: image contains NaN or infinite values")
    low = gaussian_blur(data, sigma)
    return low, data - low
