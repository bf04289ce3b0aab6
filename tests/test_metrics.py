"""Fidelity metrics, each checked against a direct sliding-window
reimplementation so the separable filtering inside the package is never
trusted to verify itself."""

import re
import tracemalloc

import numpy as np
import pytest

from ctdenoise import metrics
from ctdenoise.metrics import MetricReport, evaluate_pairs, rmse, ssim, vif
from ctdenoise.tensor import NonFiniteError, ShapeError


def gaussian_window_2d(n, sd):
    x = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    k = np.exp(-0.5 * (x / sd) ** 2)
    k /= k.sum()
    return np.outer(k, k)


def correlate_valid(img, win):
    n = win.shape[0]
    H, W = img.shape
    out = np.empty((H - n + 1, W - n + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = (img[i : i + n, j : j + n] * win).sum()
    return out


def ssim_reference(a, b, data_range):
    """Windowed SSIM via explicit patch loops."""
    win = gaussian_window_2d(11, 1.5)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu1 = correlate_valid(a, win)
    mu2 = correlate_valid(b, win)
    s11 = correlate_valid(a * a, win) - mu1**2
    s22 = correlate_valid(b * b, win) - mu2**2
    s12 = correlate_valid(a * b, win) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1**2 + mu2**2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def vif_reference(pred, ref, sigma_sq=2.0):
    """Four-scale pixel-domain VIF via explicit patch loops."""
    eps = 1e-10
    num = den = 0.0
    dist = pred.astype(np.float64)
    ref = ref.astype(np.float64)
    for scale in range(1, 5):
        n = 2 ** (4 - scale + 1) + 1
        win = gaussian_window_2d(n, n / 5.0)
        if scale > 1:
            ref = correlate_valid(ref, win)[::2, ::2]
            dist = correlate_valid(dist, win)[::2, ::2]
        mu1 = correlate_valid(ref, win)
        mu2 = correlate_valid(dist, win)
        s11 = np.maximum(correlate_valid(ref * ref, win) - mu1**2, 0.0)
        s22 = np.maximum(correlate_valid(dist * dist, win) - mu2**2, 0.0)
        s12 = correlate_valid(ref * dist, win) - mu1 * mu2
        g = s12 / (s11 + eps)
        sv = s22 - g * s12
        g[s11 < eps] = 0.0
        sv[s11 < eps] = s22[s11 < eps]
        s11 = np.where(s11 < eps, 0.0, s11)
        sv[s22 < eps] = 0.0
        g[s22 < eps] = 0.0
        sv[g < 0] = s22[g < 0]
        g[g < 0] = 0.0
        sv = np.maximum(sv, eps)
        num += np.log10(1.0 + g * g * s11 / (sv + sigma_sq)).sum()
        den += np.log10(1.0 + s11 / sigma_sq).sum()
    return float(num / den)


def textured(seed, size=64, scale=50.0):
    """Smooth random field with structure at several frequencies."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(size, size))
    smooth = np.cumsum(np.cumsum(base, axis=0), axis=1)
    smooth -= smooth.mean()
    return scale * smooth / np.abs(smooth).max()


class TestRmse:
    def test_matches_formula(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=(9, 9))
        assert rmse(a, b) == pytest.approx(np.sqrt(((a - b) ** 2).mean()), rel=1e-12)

    def test_identity(self):
        x = textured(1, 16)
        assert rmse(x, x) == 0.0

    def test_hand_case(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        b = np.zeros((2, 2))
        assert rmse(a, b) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ShapeError, match="2-d"):
            rmse(np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeError, match="disagree"):
            rmse(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            rmse(np.full((2, 2), np.nan), np.zeros((2, 2)))


@pytest.mark.parametrize("metric", [rmse, ssim, vif])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_typed(metric, bad):
    # training turns a NonFiniteError from validation into a divergence
    img = textured(4, 32)
    noisy = img.copy()
    noisy[3, 5] = bad
    with pytest.raises(NonFiniteError, match=metric.__name__):
        metric(noisy, img)
    with pytest.raises(NonFiniteError, match=metric.__name__):
        metric(img, noisy)


class TestSsim:
    def test_identity(self):
        x = textured(2, 32)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            ref = textured(10 + trial, 24)
            noisy = ref + rng.normal(0, 5.0, size=ref.shape)
            dr = float(ref.max() - ref.min())
            assert ssim(noisy, ref, dr) == pytest.approx(
                ssim_reference(noisy, ref, dr), abs=1e-10
            )

    def test_monotone_under_noise(self):
        rng = np.random.default_rng(4)
        ref = textured(5, 32)
        mild = ref + rng.normal(0, 2.0, size=ref.shape)
        harsh = ref + rng.normal(0, 20.0, size=ref.shape)
        dr = float(ref.max() - ref.min())
        assert ssim(harsh, ref, dr) < ssim(mild, ref, dr) < 1.0

    def test_symmetric_with_fixed_range(self):
        rng = np.random.default_rng(6)
        a = textured(7, 16)
        b = a + rng.normal(0, 3.0, size=a.shape)
        assert ssim(a, b, 100.0) == pytest.approx(ssim(b, a, 100.0), rel=1e-12)

    def test_derived_range_matches_explicit(self):
        ref = textured(8, 24)
        noisy = ref + 1.0
        dr = float(ref.max() - ref.min())
        assert ssim(noisy, ref) == pytest.approx(ssim(noisy, ref, dr), rel=1e-12)

    def test_range_validation(self):
        x = textured(9, 16)
        with pytest.raises(ValueError, match="data_range"):
            ssim(x, x, data_range=-1.0)
        flat = np.zeros((16, 16))
        with pytest.raises(ValueError, match="data_range"):
            ssim(flat, flat)

    def test_window_needs_room(self):
        small = np.zeros((8, 8))
        with pytest.raises(ShapeError, match="smaller than"):
            ssim(small, small, data_range=1.0)


class TestVif:
    def test_identity(self):
        x = textured(11, 64)
        assert vif(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        ref = textured(13, 64)
        noisy = ref + rng.normal(0, 4.0, size=ref.shape)
        assert vif(noisy, ref) == pytest.approx(vif_reference(noisy, ref), abs=1e-10)

    def test_monotone_under_noise(self):
        rng = np.random.default_rng(14)
        ref = textured(15, 64)
        mild = ref + rng.normal(0, 2.0, size=ref.shape)
        harsh = ref + rng.normal(0, 15.0, size=ref.shape)
        assert vif(harsh, ref) < vif(mild, ref) < 1.0

    def test_gain_can_exceed_one(self):
        ref = textured(16, 64)
        assert vif(2.0 * ref, ref) > 1.0

    def test_blur_loses_information(self):
        ref = textured(17, 64)
        blurred = (ref[:-1, :] + ref[1:, :]) / 2.0
        blurred = np.vstack([blurred, ref[-1:]])
        assert vif(blurred, ref) < 1.0

    def test_flat_reference_rejected(self):
        flat = np.zeros((64, 64))
        with pytest.raises(ValueError, match="information"):
            vif(flat, flat)

    @pytest.mark.parametrize("shape", [(40, 40), (41, 40), (40, 64)])
    def test_too_small_named(self, shape):
        # the fourth scale's 3x3 window needs 41 pixels a side at the first
        x = textured(18, 64)[:shape[0], :shape[1]]
        with pytest.raises(ShapeError, match=re.escape(
                f"vif needs images of at least 41x41 pixels for its four scales, got {shape}")):
            vif(x, x)

    def test_smallest_size_scores(self):
        x = textured(19, 41)
        assert vif(x, x) == pytest.approx(1.0, abs=1e-6)


class TestBands:
    """SSIM and VIF filter bands of at most ``_METRIC_ROWS`` valid rows."""

    # at 64x64 the valid rows per VIF scale are 48, 20, 8 and 3, and SSIM's
    # are 54: bands of 7 leave an uneven last band at the first three VIF
    # scales and for SSIM, bands of 2 at the fourth
    @pytest.mark.parametrize("rows", [2, 7])
    def test_small_bands_match_loop_references(self, monkeypatch, rows):
        monkeypatch.setattr(metrics, "_METRIC_ROWS", rows)
        rng = np.random.default_rng(21)
        ref = textured(22, 64)
        noisy = ref + rng.normal(0, 4.0, size=ref.shape)
        dr = float(ref.max() - ref.min())
        assert ssim(noisy, ref, dr) == pytest.approx(ssim_reference(noisy, ref, dr), abs=1e-10)
        assert vif(noisy, ref) == pytest.approx(vif_reference(noisy, ref), abs=1e-10)

    @pytest.mark.parametrize("metric", [ssim, vif])
    def test_512_peak(self, metric):
        # float32 images, as denoise_image returns them; the two float64
        # copies the metric scores are 4 MiB of the peak. Whole-image
        # moments peaked near 19.4 (SSIM) and 19.9 MiB (VIF); bands peak
        # near 7.5 MiB
        rng = np.random.default_rng(19)
        ref = textured(20, 512).astype(np.float32)
        noisy = (ref + rng.normal(0, 4.0, size=ref.shape)).astype(np.float32)
        tracemalloc.start()
        try:
            score = metric(noisy, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(score)
        assert peak < 9 * 2**20, peak


class TestEvaluatePairs:
    def test_population_statistics(self):
        rng = np.random.default_rng(18)
        refs = [textured(20 + i, 64) for i in range(3)]
        preds = [r + rng.normal(0, 3.0, size=r.shape) for r in refs]
        report = evaluate_pairs(preds, refs, data_range=100.0)
        r = [rmse(p, q) for p, q in zip(preds, refs)]
        assert report.n == 3
        assert report.rmse_mean == pytest.approx(np.mean(r))
        assert report.rmse_sd == pytest.approx(np.std(r))  # ddof=0

    def test_row_formatting(self):
        report = MetricReport(2, 10.5, 1.25, 0.9876, 0.001, 0.8, 0.02)
        row = report.row("denoised")
        assert row.startswith("denoised")
        assert "10.500" in row and "0.9876" in row

    def test_count_mismatch(self):
        imgs = [textured(30, 64)]
        with pytest.raises(ShapeError, match="predictions"):
            evaluate_pairs(imgs, imgs * 2)
        with pytest.raises(ValueError, match="at least one"):
            evaluate_pairs([], [])
