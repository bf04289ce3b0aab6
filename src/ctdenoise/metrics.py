"""Image-quality metrics for denoising evaluation.

All three metrics operate on 2-d float arrays. SSIM uses the standard
11x11 Gaussian window (sigma 1.5) in valid mode; VIF is the pixel-domain
multi-scale variant with four scales and an assumed noise variance of 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .freq import gaussian_window
from .tensor import NonFiniteError, ShapeError


def _check_pair(a, b, name):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"{name} expects 2-d images, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"{name} shapes disagree: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError(f"{name}: input contains non-finite values")
    return a, b


def rmse(pred, ref):
    """Root mean squared error in the images' native units."""
    pred, ref = _check_pair(pred, ref, "rmse")
    return float(np.sqrt(np.mean((pred - ref) ** 2)))


# valid output rows per band of the SSIM and VIF moments: at 512 columns,
# 64 rows of a float64 map are 0.25 MiB, against 2 MiB for the whole map
_METRIC_ROWS = 64


def _filter_valid(img, kernel, step=1):
    """Separable valid-mode correlation with a 1-d kernel along both axes,
    keeping every ``step``-th output row and column."""
    n = len(kernel)
    rows = sliding_window_view(img, n, axis=1)[:, ::step] @ kernel
    return sliding_window_view(rows, n, axis=0)[::step] @ kernel


def _banded_moments(a, b, win):
    """Local means, variances and covariance of ``a`` and ``b`` under the
    window ``win``, (mu_a, mu_b, var_a, var_b, cov), for one band of at most
    ``_METRIC_ROWS`` valid output rows at a time. A band reads its own
    input rows and the ``len(win) - 1`` after them."""
    n = len(win)
    if a.shape[0] < n or a.shape[1] < n:
        raise ShapeError(
            f"image {a.shape} is smaller than the {n}x{n} filter window"
        )
    valid = a.shape[0] - n + 1
    for r0 in range(0, valid, _METRIC_ROWS):
        r1 = min(r0 + _METRIC_ROWS, valid) + n - 1
        a_band, b_band = a[r0:r1], b[r0:r1]
        mu_a = _filter_valid(a_band, win)
        mu_b = _filter_valid(b_band, win)
        var_a = _filter_valid(a_band * a_band, win) - mu_a * mu_a
        var_b = _filter_valid(b_band * b_band, win) - mu_b * mu_b
        cov = _filter_valid(a_band * b_band, win) - mu_a * mu_b
        yield mu_a, mu_b, var_a, var_b, cov


def ssim(pred, ref, data_range=None):
    """Mean structural similarity (k1 = 0.01, k2 = 0.03) over the valid interior.

    ``data_range`` defaults to the reference image's max minus min.
    """
    pred, ref = _check_pair(pred, ref, "ssim")
    if data_range is None:
        data_range = float(ref.max() - ref.min())
    if data_range <= 0:
        raise ValueError(f"data_range must be positive, got {data_range}")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    total, count = 0.0, 0
    for mu1, mu2, s11, s22, s12 in _banded_moments(pred, ref, gaussian_window(11, 1.5)):
        num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
        den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
        total += float(np.sum(num / den))
        count += num.size
    return total / count


# the smallest side whose fourth VIF scale still holds its 3x3 window: each
# scale > 1 first filters with its own window and keeps every second pixel
_VIF_MIN_SIDE = 41


def vif(pred, ref):
    """Pixel-domain visual information fidelity over four dyadic scales.

    ``ref`` is the uncorrupted reference, ``pred`` the image under test.
    Identical inputs score ~1; scores above 1 mean the test image carries
    more apparent information than the reference.
    """
    dist, ref = _check_pair(pred, ref, "vif")
    if min(ref.shape) < _VIF_MIN_SIDE:
        raise ShapeError(f"vif needs images of at least {_VIF_MIN_SIDE}x{_VIF_MIN_SIDE} "
                         f"pixels for its four scales, got {ref.shape}")
    eps, sigma_noise_sq = 1e-10, 2.0
    num = 0.0
    den = 0.0
    for scale in range(1, 5):
        n = 2 ** (4 - scale + 1) + 1
        win = gaussian_window(n, n / 5.0)
        if scale > 1:
            ref = _filter_valid(ref, win, step=2)
            dist = _filter_valid(dist, win, step=2)
        for _, _, s11, s22, s12 in _banded_moments(ref, dist, win):
            np.maximum(s11, 0.0, out=s11)
            np.maximum(s22, 0.0, out=s22)

            g = s12 / (s11 + eps)
            sv = s22 - g * s12

            tiny1 = s11 < eps
            g[tiny1] = 0.0
            sv[tiny1] = s22[tiny1]
            s11 = np.where(tiny1, 0.0, s11)

            tiny2 = s22 < eps
            g[tiny2] = 0.0
            sv[tiny2] = 0.0

            neg = g < 0
            sv[neg] = s22[neg]
            g[neg] = 0.0
            sv = np.maximum(sv, eps)

            num += float(np.sum(np.log10(1.0 + g * g * s11 / (sv + sigma_noise_sq))))
            den += float(np.sum(np.log10(1.0 + s11 / sigma_noise_sq)))
    if den == 0.0:
        raise ValueError("vif reference image carries no measurable information")
    return float(num / den)


@dataclass(frozen=True)
class MetricReport:
    """Per-dataset mean and population standard deviation of each metric."""

    n: int
    rmse_mean: float
    rmse_sd: float
    ssim_mean: float
    ssim_sd: float
    vif_mean: float
    vif_sd: float

    def row(self, label):
        return (
            f"{label:<12} rmse {self.rmse_mean:8.3f} ± {self.rmse_sd:6.3f}  "
            f"ssim {self.ssim_mean:6.4f} ± {self.ssim_sd:6.4f}  "
            f"vif {self.vif_mean:6.4f} ± {self.vif_sd:6.4f}"
        )


def evaluate_pairs(preds, refs, data_range=None):
    """Score aligned (prediction, reference) image lists; SDs are
    population (divide by n), matching how small test sets are reported."""
    if len(preds) != len(refs):
        raise ShapeError(f"got {len(preds)} predictions for {len(refs)} references")
    if not preds:
        raise ValueError("evaluate_pairs needs at least one image pair")
    r, s, v = [], [], []
    for p, q in zip(preds, refs):
        r.append(rmse(p, q))
        s.append(ssim(p, q, data_range))
        v.append(vif(p, q))
    return MetricReport(
        n=len(preds),
        rmse_mean=float(np.mean(r)),
        rmse_sd=float(np.std(r)),
        ssim_mean=float(np.mean(s)),
        ssim_sd=float(np.std(s)),
        vif_mean=float(np.mean(v)),
        vif_sd=float(np.std(v)),
    )
