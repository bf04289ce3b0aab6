"""CT simulation chain: phantoms, projection, dose noise, and FBP.

The projector and reconstructor are checked against closed-form Radon
transforms (Gaussian blob, uniform disk) rather than against themselves,
so a consistent-but-wrong scaling cannot pass.
"""

import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, replace

from ctdenoise import ctsim, tctio
from ctdenoise.ctsim import (
    AIR_HU,
    HU,
    MU_PER_MM,
    MU_WATER_60KEV,
    CtImage,
    DoseConfig,
    ScanGeometry,
    Sinogram,
    TrainingPair,
    UnitError,
    default_geometry,
    fbp,
    forward_project,
    hu_to_mu,
    insert_poisson_noise,
    load_dataset,
    make_dataset,
    make_phantom,
    mu_to_hu,
    save_dataset,
    simulate_pair,
)


def gaussian_blob(size, amplitude, width):
    """Attenuation image A*exp(-r^2/(2 s^2)); its Radon transform is the
    1-d Gaussian A*s*sqrt(2 pi)*exp(-t^2/(2 s^2)) at every angle."""
    coords = np.arange(size) - (size - 1) / 2.0
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    grid = amplitude * np.exp(-(xx**2 + yy**2) / (2.0 * width**2))
    return CtImage(grid, MU_PER_MM)


class TestPhantom:
    def test_deterministic(self):
        a = make_phantom(3, 64)
        b = make_phantom(3, 64)
        assert np.array_equal(a.grid, b.grid)

    def test_sequence_seed(self):
        a = make_phantom([7, 1, 0], 64)
        b = make_phantom([7, 2, 0], 64)
        assert not np.array_equal(a.grid, b.grid)

    def test_value_range(self):
        for seed in range(10):
            ph = make_phantom(seed, 48)
            assert ph.grid.min() >= -1000.0
            assert ph.grid.max() <= 800.0

    def test_background_is_air(self):
        ph = make_phantom(0, 64)
        # the body disk has radius <= 0.85 of the half-width, so the
        # corners always stay at air
        assert ph.grid[0, 0] == AIR_HU
        assert ph.grid[-1, -1] == AIR_HU

    def test_no_ellipses_gives_uniform_body(self):
        ph = make_phantom(5, 64, n_ellipses=0)
        values = np.unique(ph.grid)
        assert len(values) == 2
        assert values[0] == AIR_HU
        assert -30.0 <= values[1] <= 30.0

    def test_metadata(self):
        ph = make_phantom(1, 40, pixel_spacing_mm=0.8)
        assert ph.unit == HU
        assert ph.grid.dtype == np.float32
        assert ph.pixel_spacing_mm == 0.8

    def test_size_floor(self):
        with pytest.raises(ValueError, match="size"):
            make_phantom(0, 16)

    def test_negative_ellipse_count(self):
        with pytest.raises(ValueError, match="n_ellipses"):
            make_phantom(0, 64, n_ellipses=-1)


class TestUnits:
    def test_water_and_air_anchors(self):
        img = CtImage(np.array([[0.0, -1000.0]]).repeat(2, axis=0), HU)
        mu = hu_to_mu(img)
        assert mu.unit == MU_PER_MM
        assert mu.grid[0, 0] == pytest.approx(MU_WATER_60KEV)
        assert mu.grid[0, 1] == pytest.approx(0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            hu = rng.uniform(-1000.0, 2000.0, size=(13, 13))
            back = mu_to_hu(hu_to_mu(CtImage(hu, HU)))
            assert np.abs(back.grid - hu).max() <= 1e-3 * max(1.0, np.abs(hu).max())

    def test_unit_tags_enforced(self):
        hu_img = CtImage(np.zeros((4, 4)), HU)
        mu_img = CtImage(np.zeros((4, 4)), MU_PER_MM)
        with pytest.raises(UnitError):
            hu_to_mu(mu_img)
        with pytest.raises(UnitError):
            mu_to_hu(hu_img)

    def test_image_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            CtImage(np.zeros(5), HU)
        with pytest.raises(UnitError, match="unknown unit"):
            CtImage(np.zeros((4, 4)), "kelvin")


class TestGeometry:
    def test_default_covers_diagonal(self):
        geom = default_geometry(64)
        assert geom.n_detectors % 2 == 1
        assert geom.n_detectors * geom.detector_spacing_mm >= 64 * np.sqrt(2.0)

    def test_detector_positions_centered(self):
        geom = default_geometry(32)
        pos = geom.detector_positions
        assert pos[len(pos) // 2] == 0.0
        assert np.allclose(pos, -pos[::-1])

    def test_angles_half_turn(self):
        geom = ScanGeometry(n_views=180)
        ang = geom.angles
        assert len(ang) == 180
        assert ang[0] == 0.0
        assert ang[-1] < np.pi

    @pytest.mark.parametrize("field, value", [
        ("n_views", 0), ("n_views", -3), ("n_detectors", 0), ("image_size", 0),
        ("detector_spacing_mm", 0.0), ("detector_spacing_mm", -1.0),
        ("detector_spacing_mm", np.inf), ("pixel_spacing_mm", 0.0),
        ("pixel_spacing_mm", -0.5), ("pixel_spacing_mm", np.nan),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScanGeometry(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_views", 36.0), ("n_views", True), ("n_detectors", np.float64(91.0)),
        ("image_size", "64"), ("pixel_spacing_mm", False),
    ])
    def test_rejects_wrong_type(self, field, value):
        # a float n_views used to build, and then fail in forward_project
        with pytest.raises(TypeError, match=f"^{field} must be "):
            ScanGeometry(**{field: value})

    def test_float_fields_take_ints(self):
        geom = ScanGeometry(detector_spacing_mm=1, pixel_spacing_mm=2)
        assert (geom.detector_spacing_mm, geom.pixel_spacing_mm) == (1, 2)


def direct_projection(grid, geom, ps):
    """Per-sample bilinear line integrals with explicit bounds checks: the
    projector's definition, free of padding and flat-index arithmetic."""
    H, W = grid.shape
    step = 0.5 * ps
    half_len = 0.5 * np.sqrt(2.0) * H * ps
    s = np.arange(-half_len, half_len + step, step)
    theta = geom.angles[:, None, None]
    t = geom.detector_positions[None, :, None]
    xi = (t * np.cos(theta) - s * np.sin(theta)) / ps + (H - 1) / 2.0
    yi = (t * np.sin(theta) + s * np.cos(theta)) / ps + (H - 1) / 2.0
    x0, y0 = np.floor(xi).astype(int), np.floor(yi).astype(int)
    fx, fy = xi - x0, yi - y0
    samples = np.zeros(xi.shape)
    for dy, dx, w in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                      (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        y, x = y0 + dy, x0 + dx
        inside = (0 <= y) & (y < H) & (0 <= x) & (x < W)
        samples[inside] += grid[y[inside], x[inside]] * w[inside]
    return samples.sum(axis=2) * step


def full_row_projection(grid, geom, ps):
    """The projector before per-ray windows: every sample of every ray is
    marched, in blocks of 32 rays. The windowed projector must match it
    byte for byte."""
    pad = 2
    H = grid.shape[0]
    row = H + 2 * pad
    flat = np.pad(grid.astype(np.float64), pad).ravel()
    corners = (flat, flat[1:], flat[row:], flat[row + 1:])
    step = 0.5 * ps
    half_len = 0.5 * math.sqrt(2.0) * H * ps
    s = np.arange(-half_len, half_len + step, step)
    t = geom.detector_positions
    center = (H - 1) / 2.0
    values = np.empty((geom.n_views, geom.n_detectors), dtype=np.float64)
    for vi, theta in enumerate(geom.angles):
        ct, st = math.cos(theta), math.sin(theta)
        t_ct, t_st, s_st, s_ct = t * ct, t * st, s * st, s * ct
        for b in range(0, len(t), 32):
            rays = slice(b, b + 32)
            xi = np.clip((t_ct[rays, None] - s_st) / ps + center, -pad, H)
            yi = np.clip((t_st[rays, None] + s_ct) / ps + center, -pad, H)
            x0, y0 = np.floor(xi), np.floor(yi)
            fx, fy = xi - x0, yi - y0
            gx, gy = 1 - fx, 1 - fy
            k = (y0 * row + x0 + pad * (row + 1)).astype(np.intp)
            out = np.zeros(k.shape)
            for c, w in zip(corners, (gy * gx, gy * fx, fy * gx, fy * fx)):
                out += c.take(k) * w
            values[vi, rays] = out.sum(axis=1) * step
    return values


def stress_images(size, seed):
    """Grids that expose a skipped sample: inf borders (an edge sample
    with weight 0 turns NaN), random signed zeros and negative values."""
    rng = np.random.default_rng(seed)
    signed = rng.uniform(-0.05, 0.05, size=(size, size))
    top_left = signed.copy()
    top_left[0, :], top_left[:, 0] = np.inf, -np.inf
    bottom_right = signed.copy()
    bottom_right[-1, :], bottom_right[:, -1] = -np.inf, np.inf
    zeros = np.where(rng.random((size, size)) < 0.5, -0.0, 0.0)
    return [signed, top_left, bottom_right, zeros]


def single_pixel_grids(size):
    """One pixel on exact zeros, at a corner, an edge midpoint, the centre
    and off the centre: the support disk from a point to the whole grid.
    -0.0 is no support at all; NaN and inf turn a zero weight into NaN."""
    grids = []
    for value in (1.0, np.inf, -np.inf, np.nan, -0.0):
        for r, c in ((0, 0), (0, size // 2), (size // 2, size // 2), (size // 3, 3 * size // 4)):
            grid = np.zeros((size, size))
            grid[r, c] = value
            grids.append(grid)
    return grids


def assert_projects_like_full_rows(grid, geom, spacing):
    with np.errstate(invalid="ignore"):
        got = forward_project(CtImage(grid, MU_PER_MM, spacing), geom).values
        want = full_row_projection(grid, geom, spacing)
    assert got.tobytes() == want.tobytes()


class TestForwardProject:
    @pytest.mark.parametrize("spacing", [1.0, 0.7])
    def test_matches_direct_bilinear_reference(self, spacing):
        # a grid-filling image plus hot pixels at the corners and edge
        # midpoints: a flat index wrapping from one row's end into the next
        # row, or a wrong pixel-spacing scale, shows up as a mismatch
        geom = default_geometry(32, spacing, n_views=12)
        images = [np.random.default_rng(7).uniform(0.0, 0.03, size=(32, 32))]
        for r, c in ((0, 0), (0, 31), (31, 0), (31, 31), (0, 16), (16, 0), (31, 16), (16, 31)):
            hot = np.zeros((32, 32))
            hot[r, c] = 1.0
            images.append(hot)
        for grid in images:
            got = forward_project(CtImage(grid, MU_PER_MM, spacing), geom).values
            want = direct_projection(grid, geom, spacing)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_gaussian_blob_analytic(self):
        # closed-form Radon transform of a centered isotropic Gaussian
        geom = default_geometry(64)
        blob = gaussian_blob(64, amplitude=0.02, width=6.0)
        sino = forward_project(blob, geom)
        t = geom.detector_positions
        analytic = 0.02 * 6.0 * np.sqrt(2.0 * np.pi) * np.exp(-(t**2) / (2.0 * 6.0**2))
        err = np.abs(sino.values - analytic[None, :]).max()
        assert err / analytic.max() < 0.01

    def test_rotation_invariance(self):
        # a circularly symmetric object projects identically at every angle
        geom = default_geometry(64)
        sino = forward_project(gaussian_blob(64, 0.02, 6.0), geom)
        peak = sino.values.max()
        dev = np.abs(sino.values - sino.values[0][None, :]).max()
        assert dev / peak < 0.005

    def test_disk_chord_length(self):
        # uniform disk: p(t) = 2 mu0 sqrt(R^2 - t^2); avoid the rim where
        # bilinear sampling smooths the sharp edge
        geom = default_geometry(64)
        coords = np.arange(64) - 31.5
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        disk = CtImage(np.where(xx**2 + yy**2 <= 20.0**2, 0.02, 0.0), MU_PER_MM)
        sino = forward_project(disk, geom)
        t = geom.detector_positions
        chord = 2.0 * 0.02 * np.sqrt(np.maximum(20.0**2 - t**2, 0.0))
        inner = np.abs(t) <= 0.7 * 20.0
        err = np.abs(sino.values[:, inner] - chord[None, inner]).max()
        assert err / chord.max() < 0.06

    def test_linearity(self):
        geom = default_geometry(32)
        rng = np.random.default_rng(0)
        a = CtImage(rng.uniform(0.0, 0.03, size=(32, 32)), MU_PER_MM)
        b = CtImage(rng.uniform(0.0, 0.03, size=(32, 32)), MU_PER_MM)
        both = CtImage(a.grid + b.grid, MU_PER_MM)
        lhs = forward_project(both, geom).values
        rhs = forward_project(a, geom).values + forward_project(b, geom).values
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_scaling(self):
        geom = default_geometry(32)
        img = gaussian_blob(32, 0.02, 4.0)
        one = forward_project(img, geom).values
        two = forward_project(CtImage(2.0 * img.grid, MU_PER_MM), geom).values
        assert np.allclose(two, 2.0 * one, atol=1e-12)

    def test_requires_attenuation_units(self):
        with pytest.raises(UnitError):
            forward_project(CtImage(np.zeros((32, 32)), HU), default_geometry(32))

    def test_requires_square_image(self):
        img = CtImage(np.zeros((32, 48)), MU_PER_MM)
        with pytest.raises(ValueError, match="square"):
            forward_project(img, default_geometry(32))

    def test_image_must_match_geometry(self):
        with pytest.raises(ValueError, match="image_size 32"):
            forward_project(CtImage(np.zeros((64, 64)), MU_PER_MM), default_geometry(32))
        with pytest.raises(ValueError, match="pixel_spacing_mm 0.7"):
            forward_project(CtImage(np.zeros((32, 32)), MU_PER_MM, 1.0),
                            default_geometry(32, 0.7))

    @pytest.mark.parametrize("size", [32, 33, 35, 64, 65])
    @pytest.mark.parametrize("spacing", [1.0, 0.7, 1.3])
    def test_bitwise_equal_to_full_rows(self, size, spacing):
        # 1 view is theta = 0 only, where x is constant along a ray; 2 and
        # 12 views include theta = pi/2, where y is constant up to rounding
        for n_views in (1, 2, 12):
            geom = default_geometry(size, spacing, n_views=n_views)
            for grid in stress_images(size, seed=size):
                assert_projects_like_full_rows(grid, geom, spacing)

    @pytest.mark.parametrize("size, spacing", [(33, 1.3), (65, 0.7)])
    def test_bitwise_equal_to_full_rows_at_360_views(self, size, spacing):
        geom = default_geometry(size, spacing, n_views=360)
        for grid in stress_images(size, seed=size)[1:3]:
            assert_projects_like_full_rows(grid, geom, spacing)

    @pytest.mark.parametrize("size", [32, 33, 64, 65])
    @pytest.mark.parametrize("spacing", [1.0, 0.7, 1.3])
    def test_bitwise_equal_to_full_rows_on_zero_borders(self, size, spacing):
        # air is exactly mu = 0, so a phantom's support is its body disk
        phantom = hu_to_mu(make_phantom(seed=size, size=size, pixel_spacing_mm=spacing)).grid
        for n_views in (1, 2, 12):
            geom = default_geometry(size, spacing, n_views=n_views)
            assert_projects_like_full_rows(phantom, geom, spacing)
            if size in (32, 33) or n_views == 12:
                for grid in single_pixel_grids(size):
                    assert_projects_like_full_rows(grid, geom, spacing)

    @pytest.mark.parametrize("size, spacing", [(33, 1.3), (65, 0.7)])
    def test_bitwise_equal_to_full_rows_on_one_pixel_at_360_views(self, size, spacing):
        grid = np.zeros((size, size))
        grid[1, size // 3] = np.inf
        assert_projects_like_full_rows(grid, default_geometry(size, spacing, n_views=360),
                                       spacing)


def ray_samples(size, spacing):
    """The projector's sample positions along every ray."""
    step = 0.5 * spacing
    half_len = 0.5 * math.sqrt(2.0) * size * spacing
    return np.arange(-half_len, half_len + step, step)


class TestSampleWindows:
    GEOM = default_geometry(128)

    def counts(self, grid):
        first, count, _ = ctsim._support_window(ray_samples(128, 1.0),
                                                self.GEOM.detector_positions, 1.0, grid)
        # one run per detector, shared by every view
        assert first.shape == count.shape == (self.GEOM.n_detectors,)
        return count

    def test_phantom_keeps_its_body_disk(self):
        phantom = hu_to_mu(make_phantom(0, 128)).grid
        ratio = self.counts(phantom).sum() / self.counts(np.ones((128, 128))).sum()
        assert ratio < 0.7, ratio

    def test_all_zero_image_keeps_nothing(self):
        assert self.counts(np.zeros((128, 128))).sum() == 0
        assert self.counts(np.full((128, 128), -0.0)).sum() == 0

    @pytest.mark.parametrize("size", [32, 33, 64, 128])
    @pytest.mark.parametrize("spacing", [1.0, 0.7])
    def test_phantom_samples_all_touch_the_image(self, size, spacing):
        # a phantom's body disk lies well inside its grid, so its window
        # keeps no sample that reads only the zero border
        geom = default_geometry(size, spacing, n_views=12)
        s, t = ray_samples(size, spacing), geom.detector_positions
        center = (size - 1) / 2.0
        for seed in range(5):
            grid = hu_to_mu(make_phantom(seed, size, pixel_spacing_mm=spacing)).grid
            first, count, _ = ctsim._support_window(s, t, spacing, grid)
            assert count.sum() > 0
            tk = np.repeat(t, count)
            sk = s[np.concatenate([np.arange(f, f + c) for f, c in zip(first, count)])]
            for theta in geom.angles:
                x = (tk * math.cos(theta) - sk * math.sin(theta)) / spacing + center
                y = (tk * math.sin(theta) + sk * math.cos(theta)) / spacing + center
                for v in (x, y):
                    assert -1 <= v.min() and v.max() < size, (seed, theta, v.min(), v.max())

    @pytest.mark.parametrize("pixel", [None, (64, 64)])
    def test_small_support_projects_in_little_memory(self, pixel):
        # the ray group grows as the support shrinks; capped at one view it
        # stays one view's rows
        grid = np.zeros((128, 128))
        if pixel:
            grid[pixel] = 1.0
        img = CtImage(grid, MU_PER_MM)
        tracemalloc.start()
        try:
            values = forward_project(img, self.GEOM).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        if pixel is None:
            assert values.tobytes() == np.zeros_like(values).tobytes()
        else:
            assert values.max() > 0


def kept_samples(grid, spacing):
    """The kept samples' ray coordinates (t, s), from the windows, and the
    projector's zero border."""
    size = grid.shape[0]
    s, t = ray_samples(size, spacing), default_geometry(size, spacing).detector_positions
    first, count, pad = ctsim._support_window(s, t, spacing, grid)
    return np.repeat(t, count), s[np.concatenate([np.arange(f, f + c)
                                                   for f, c in zip(first, count)])], pad


def clip_edge_grids(size, spacing):
    """The two one-pixel grids whose farthest kept sample lies closest to
    (size + 1) / 2 pixels from the grid centre, inside and outside, among
    the pixels of one octant: the most a fixed 2-pixel border holds without
    clipping the samples' coordinates."""
    limit, best = (size + 1) / 2, {}
    for r in range(size // 2, size):
        for c in range(r, size):
            grid = np.zeros((size, size))
            grid[r, c] = 1.0
            tk, sk, _ = kept_samples(grid, spacing)
            far = np.hypot(tk, sk).max() / spacing
            side = far > limit
            if side not in best or abs(far - limit) < best[side][0]:
                best[side] = (abs(far - limit), grid)
    return best[False][1], best[True][1]


def assert_corners_in_border(grid, geom, spacing):
    """Every bilinear corner of every kept sample, in every view, lies in
    the grid with the projector's zero border around it."""
    size = grid.shape[0]
    tk, sk, pad = kept_samples(grid, spacing)
    center = (size - 1) / 2.0
    for theta in geom.angles:
        for v in ((tk * math.cos(theta) - sk * math.sin(theta)) / spacing + center,
                  (tk * math.sin(theta) + sk * math.cos(theta)) / spacing + center):
            low = np.floor(v)
            assert -pad <= low.min() and low.max() + 1 <= size - 1 + pad, (theta, pad)


class TestClipRule:
    """The projector clips no coordinate: its zero border, sized from the
    support, holds every corner of every kept sample."""

    @pytest.mark.parametrize("size", [33, 64])
    @pytest.mark.parametrize("spacing", [0.7, 1.3])
    def test_one_pixel_just_inside_and_just_outside(self, size, spacing):
        geom = default_geometry(size, spacing, n_views=360)
        for grid in clip_edge_grids(size, spacing):
            assert_corners_in_border(grid, geom, spacing)
            assert_projects_like_full_rows(grid, geom, spacing)

    @pytest.mark.parametrize("size, spacing", [(33, 1.3), (64, 0.7), (65, 1.0)])
    def test_grid_filling_image(self, size, spacing):
        grid = np.random.default_rng(size).uniform(-0.05, 0.05, size=(size, size))
        assert kept_samples(grid, spacing)[2] > ctsim._PAD
        geom = default_geometry(size, spacing, n_views=360)
        assert_corners_in_border(grid, geom, spacing)
        assert_projects_like_full_rows(grid, geom, spacing)

    @pytest.mark.parametrize("size, spacing", [(32, 1.0), (64, 0.7)])
    def test_phantom_keeps_the_least_border(self, size, spacing):
        for seed in range(5):
            grid = hu_to_mu(make_phantom(seed, size, pixel_spacing_mm=spacing)).grid
            assert kept_samples(grid, spacing)[2] == ctsim._PAD

    @pytest.mark.parametrize("size, spacing", [(33, 1.3), (64, 0.7)])
    def test_no_negative_zero_in_the_sinogram(self, size, spacing):
        # a sample whose four products are all -0.0 (a -0.0 pixel, or a
        # negative one of weight 0) sums to -0.0, but every ray also holds
        # a +0.0, so no ray sums to -0.0
        geom = default_geometry(size, spacing, n_views=12)
        for value in (-1.0, np.nan):
            for r, c in ((0, 0), (size // 3, 3 * size // 4)):
                grid = np.full((size, size), -0.0)
                grid[r, c] = value
                assert_projects_like_full_rows(grid, geom, spacing)
                with np.errstate(invalid="ignore"):
                    got = forward_project(CtImage(grid, MU_PER_MM, spacing), geom).values
                zeros = got[got == 0]
                assert zeros.size and not np.signbit(zeros).any(), (value, r, c)


class TestPoissonNoise:
    def test_deterministic(self):
        geom = default_geometry(32)
        sino = Sinogram(np.full((360, 47), 1.0), geom)
        a = insert_poisson_noise(sino, DoseConfig(), 9)
        b = insert_poisson_noise(sino, DoseConfig(), 9)
        assert np.array_equal(a.values, b.values)
        c = insert_poisson_noise(sino, DoseConfig(), 10)
        assert not np.array_equal(a.values, c.values)

    def test_first_order_moments(self):
        # for N ~ Poisson(I0 e^-p), -log(N/I0) has mean ~ p and variance
        # ~ 1/(I0 e^-p) to first order
        geom = default_geometry(64)
        p0 = 1.0
        sino = Sinogram(np.full((360, 91), p0), geom)
        dose = DoseConfig(i0=4e4, dose_fraction=0.25)
        noisy = insert_poisson_noise(sino, dose, 123).values
        n_expected = dose.i0 * dose.dose_fraction * np.exp(-p0)
        sigma = 1.0 / np.sqrt(n_expected)
        assert abs(noisy.mean() - p0) < 5.0 * sigma / np.sqrt(noisy.size)
        assert 0.93 < noisy.var() / sigma**2 < 1.07

    def test_dose_fraction_raises_variance(self):
        geom = default_geometry(32)
        sino = Sinogram(np.full((360, 47), 1.5), geom)
        lo = insert_poisson_noise(sino, DoseConfig(i0=1e5, dose_fraction=0.25), 1)
        hi = insert_poisson_noise(sino, DoseConfig(i0=1e5, dose_fraction=1.0), 1)
        ratio = (lo.values - 1.5).var() / (hi.values - 1.5).var()
        assert 3.0 < ratio < 5.0

    def test_high_flux_limit(self):
        geom = default_geometry(32)
        sino = Sinogram(np.full((360, 47), 1.0), geom)
        noisy = insert_poisson_noise(sino, DoseConfig(i0=1e12, dose_fraction=1.0), 5)
        assert np.abs(noisy.values - 1.0).max() <= 1e-3

    def test_zero_counts_clamped(self):
        # attenuation strong enough to zero out most rays must still
        # produce finite line integrals
        geom = default_geometry(32)
        sino = Sinogram(np.full((360, 47), 30.0), geom)
        noisy = insert_poisson_noise(sino, DoseConfig(i0=100.0, dose_fraction=1.0), 0)
        assert np.isfinite(noisy.values).all()
        assert noisy.values.max() <= np.log(100.0) + 1e-12

    def test_input_validation(self):
        geom = default_geometry(32)
        bad = Sinogram(np.full((360, 47), -0.5), geom)
        with pytest.raises(ValueError, match="negative"):
            insert_poisson_noise(bad, DoseConfig(), 0)
        nan = Sinogram(np.full((360, 47), np.nan), geom)
        with pytest.raises(ValueError, match="non-finite"):
            insert_poisson_noise(nan, DoseConfig(), 0)

    def test_flux_checked_at_use(self):
        # DoseConfig checks its flux when built and is frozen, so the flux
        # insert_poisson_noise reads is one that was checked
        dose = DoseConfig(i0=1e5, dose_fraction=0.25)
        with pytest.raises(FrozenInstanceError):
            dose.i0 = 2.0
        with pytest.raises(ValueError, match="i0 \\* dose_fraction must be >= 1 photon, got 0.5"):
            replace(dose, i0=2.0)

    def test_dose_config_validation(self):
        with pytest.raises(ValueError, match="dose_fraction"):
            DoseConfig(dose_fraction=0.0)
        with pytest.raises(ValueError, match="dose_fraction"):
            DoseConfig(dose_fraction=1.5)
        with pytest.raises(ValueError, match="photon"):
            DoseConfig(i0=2.0, dose_fraction=0.25)
        for i0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="i0 must be finite"):
                DoseConfig(i0=i0)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(dose_fraction=True), "dose_fraction must be float, got bool True"),
        (dict(i0=True, dose_fraction=1.0), "i0 must be float, got bool True"),
        (dict(i0="1e5"), "i0 must be float, got str '1e5'"),
    ])
    def test_dose_config_field_types(self, kwargs, named):
        with pytest.raises(TypeError, match=named):
            DoseConfig(**kwargs)


def reference_fbp(sino, geom):
    """FBP as one real ``np.interp`` pass per view over coordinates from a
    full meshgrid, filtered out of place: the reconstruction before the
    packed complex pass. Every image of ``fbp`` must match it byte for
    byte."""
    values = np.asarray(sino.values, dtype=np.float64)
    d = geom.detector_spacing_mm
    n_det = geom.n_detectors
    n_pad = 1 << int(math.ceil(math.log2(max(64, 2 * n_det))))
    ramp = np.fft.fft(ctsim._ramp_kernel(n_pad, d)).real
    spectra = np.fft.fft(values, n=n_pad, axis=1)
    filtered = np.fft.ifft(spectra * ramp[None, :], axis=1).real[:, :n_det] * d

    size = geom.image_size
    coords = (np.arange(size) - (size - 1) / 2.0) * geom.pixel_spacing_mm
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    det_index = np.arange(n_det, dtype=np.float64)
    center = (n_det - 1) / 2.0
    recon = np.zeros((size, size), dtype=np.float64)
    for vi, theta in enumerate(geom.angles):
        t = xx * math.cos(theta) + yy * math.sin(theta)
        idx = t / d + center
        recon += np.interp(idx.ravel(), det_index, filtered[vi], left=0.0, right=0.0).reshape(
            size, size
        )
    recon *= np.pi / geom.n_views
    return CtImage(recon.astype(np.float32), MU_PER_MM, geom.pixel_spacing_mm)


# odd and even sizes, detector and pixel spacings off 1.0, and a detector
# row shorter than the image diagonal, so that pixels fall past both ends
# of it and np.interp's left/right = 0 path runs
FBP_GEOMETRIES = [
    default_geometry(32),
    default_geometry(33),
    default_geometry(64),
    default_geometry(64, pixel_spacing_mm=0.7),
    ScanGeometry(n_views=90, n_detectors=61, detector_spacing_mm=1.3, image_size=64),
]


def assert_same_image(got, want):
    assert got.unit == want.unit and got.pixel_spacing_mm == want.pixel_spacing_mm
    assert got.grid.dtype == want.grid.dtype
    assert got.grid.tobytes() == want.grid.tobytes()


class TestFbp:
    def test_gaussian_blob_round_trip(self):
        # absolute scaling check: reconstruct a blob whose projections and
        # values are both known in closed form
        geom = default_geometry(64)
        blob = gaussian_blob(64, amplitude=0.02, width=6.0)
        recon, = fbp(forward_project(blob, geom))
        assert recon.unit == MU_PER_MM
        diff = recon.grid.astype(np.float64) - blob.grid
        assert np.sqrt((diff**2).mean()) / 0.02 < 0.005
        assert np.abs(diff).max() / 0.02 < 0.03

    def test_shape_mismatch(self):
        geom = default_geometry(64)
        with pytest.raises(ValueError, match="does not match geometry"):
            fbp(Sinogram(np.zeros((10, 10)), geom))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sinogram_rejected(self, bad):
        geom = default_geometry(32)
        values = np.ones((geom.n_views, geom.n_detectors))
        values[7, 11] = bad
        with pytest.raises(ValueError, match="sinogram contains non-finite values"):
            fbp(Sinogram(values, geom))
        ok = Sinogram(np.ones_like(values), geom)
        with pytest.raises(ValueError, match="sinogram contains non-finite values"):
            fbp(ok, Sinogram(values, geom))

    @pytest.mark.parametrize("geom", FBP_GEOMETRIES,
                             ids=lambda g: f"{g.image_size}px{g.pixel_spacing_mm}-"
                                           f"{g.n_detectors}det{g.detector_spacing_mm}-ramlak")
    def test_bitwise_equal_to_reference(self, geom):
        rng = np.random.default_rng(geom.image_size)
        a, b = (Sinogram(rng.uniform(0.0, 3.0, (geom.n_views, geom.n_detectors)), geom)
                for _ in range(2))
        zero = Sinogram(np.zeros((geom.n_views, geom.n_detectors)), geom)
        want_a, want_b = reference_fbp(a, geom), reference_fbp(b, geom)
        want_zero = reference_fbp(zero, geom)
        assert_same_image(fbp(a)[0], want_a)
        for pair, want in (((a, b), (want_a, want_b)), ((zero, a), (want_zero, want_a)),
                           ((b, zero), (want_b, want_zero))):
            got = fbp(*pair)
            assert_same_image(got[0], want[0])
            assert_same_image(got[1], want[1])

    def test_odd_count_bitwise_equal_to_reference(self):
        # the third sinogram is backprojected alone, over a zero imaginary part
        geom = FBP_GEOMETRIES[-1]
        rng = np.random.default_rng(3)
        sinos = [Sinogram(rng.uniform(0.0, 3.0, (geom.n_views, geom.n_detectors)), geom)
                 for _ in range(3)]
        got = fbp(*sinos)
        assert len(got) == 3
        for image, sino in zip(got, sinos):
            assert_same_image(image, reference_fbp(sino, geom))

    def test_geometries_must_agree(self):
        # both are 360 x 93, so the shape check alone would pass them
        a, b = default_geometry(64), default_geometry(64, pixel_spacing_mm=0.7)
        assert (a.n_views, a.n_detectors) == (b.n_views, b.n_detectors)
        values = np.ones((a.n_views, a.n_detectors))
        with pytest.raises(ValueError, match="different geometries"):
            fbp(Sinogram(values, a), Sinogram(values, b))

    def test_needs_a_sinogram(self):
        with pytest.raises(ValueError, match="at least one sinogram"):
            fbp()


class TestSimulatePair:
    def test_reconstruction_tracks_phantom(self):
        # sharp-edged phantoms ring at this resolution, so the central
        # region is held to a generous but fixed budget
        for i in range(3):
            pair, phantom = simulate_pair(11, i, 64, DoseConfig(i0=1e5))
            c = slice(16, 48)
            err = pair.nd.grid[c, c] - phantom.grid[c, c]
            assert np.sqrt((err**2).mean()) <= 120.0

    def test_low_dose_is_noisier(self):
        pair, phantom = simulate_pair(3, 0, 64, DoseConfig(i0=3e4, dose_fraction=0.25))
        ld_err = ((pair.ld.grid - phantom.grid) ** 2).mean()
        nd_err = ((pair.nd.grid - phantom.grid) ** 2).mean()
        assert ld_err > nd_err

    def test_full_fraction_collapses_pair(self):
        # at fraction 1.0 the low and normal dose share flux and RNG
        # stream, so the pair degenerates to two identical images
        pair, _ = simulate_pair(4, 0, 64, DoseConfig(i0=1e5, dose_fraction=1.0))
        assert np.array_equal(pair.ld.grid, pair.nd.grid)

    def test_deterministic(self):
        a, _ = simulate_pair(8, 2, 64, DoseConfig())
        b, _ = simulate_pair(8, 2, 64, DoseConfig())
        assert np.array_equal(a.ld.grid, b.ld.grid)
        assert np.array_equal(a.nd.grid, b.nd.grid)

    def test_clamped_at_air(self):
        pair, _ = simulate_pair(5, 0, 64, DoseConfig(i0=2e4))
        assert pair.ld.grid.min() >= AIR_HU
        assert pair.nd.grid.min() >= AIR_HU

    def test_size_must_match_geometry(self):
        with pytest.raises(ValueError, match="geom.image_size 32"):
            simulate_pair(0, 0, 64, DoseConfig(), default_geometry(32))

    def test_pair_validation(self):
        ok = CtImage(np.zeros((8, 8), dtype=np.float32), HU)
        with pytest.raises(ValueError, match="disagree"):
            TrainingPair(ld=ok, nd=CtImage(np.zeros((4, 4), dtype=np.float32), HU))
        with pytest.raises(ValueError, match="non-finite"):
            TrainingPair(ld=ok, nd=CtImage(np.full((8, 8), np.nan), HU))


class TestDataset:
    def test_parallel_matches_serial(self):
        dose = DoseConfig(i0=5e4)
        serial = make_dataset(4, 64, dose, seed=21, workers=1)
        parallel = make_dataset(4, 64, dose, seed=21, workers=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.ld.grid, b.ld.grid)
            assert np.array_equal(a.nd.grid, b.nd.grid)

    def test_pairs_differ(self):
        pairs = make_dataset(3, 64, DoseConfig(), seed=0)
        assert not np.array_equal(pairs[0].nd.grid, pairs[1].nd.grid)
        assert not np.array_equal(pairs[1].nd.grid, pairs[2].nd.grid)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="n_pairs"):
            make_dataset(0, 64, DoseConfig(), seed=0)

    def test_size_must_match_geometry(self):
        with pytest.raises(ValueError, match="geom.image_size 32"):
            make_dataset(1, 64, DoseConfig(), seed=0, geom=default_geometry(32))

    def test_bits_match_full_row_projector(self, monkeypatch):
        dose = DoseConfig(i0=5e4)
        windowed = make_dataset(2, 64, dose, seed=3)
        monkeypatch.setattr(
            ctsim, "forward_project",
            lambda img, geom: Sinogram(full_row_projection(img.grid, geom, img.pixel_spacing_mm),
                                       geom))
        full_rows = make_dataset(2, 64, dose, seed=3)
        for a, b in zip(windowed, full_rows):
            assert a.ld.grid.tobytes() == b.ld.grid.tobytes()
            assert a.nd.grid.tobytes() == b.nd.grid.tobytes()

    def test_bits_match_reference_fbp(self, monkeypatch):
        dose = DoseConfig(i0=5e4)
        packed = make_dataset(2, 64, dose, seed=3)
        monkeypatch.setattr(
            ctsim, "fbp",
            lambda *sinos: [reference_fbp(sino, sino.geometry) for sino in sinos])
        reference = make_dataset(2, 64, dose, seed=3)
        for a, b in zip(packed, reference):
            assert a.ld.grid.tobytes() == b.ld.grid.tobytes()
            assert a.nd.grid.tobytes() == b.nd.grid.tobytes()

    def test_pair_peak_memory(self):
        # one complex buffer for both doses, filtered in place; filtering
        # out of place into two real buffers peaked at about 10 MiB
        make_dataset(1, 128, DoseConfig(), seed=0)
        tracemalloc.start()
        try:
            make_dataset(1, 128, DoseConfig(), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_save_load_round_trip(self, tmp_path):
        pairs = make_dataset(3, 64, DoseConfig(i0=5e4), seed=13)
        manifest = {"data.seed": 13, "geom.pixel_spacing_mm": 1.0}
        save_dataset(pairs, tmp_path / "ds", manifest)
        loaded, meta = load_dataset(tmp_path / "ds")
        assert len(loaded) == 3
        assert meta["data.seed"] == "13"
        for a, b in zip(pairs, loaded):
            assert np.array_equal(a.ld.grid, b.ld.grid)
            assert np.array_equal(a.nd.grid, b.nd.grid)
            assert b.ld.unit == HU

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(tmp_path)

    def test_manifest_skips_blank_and_comment_lines(self, tmp_path):
        (tmp_path / "manifest").write_text(
            "# written by hand\n\n  data.seed = 4\n   \n  # geom.pixel_spacing_mm = 9\n"
            "geom.pixel_spacing_mm = 0.5\n")
        assert ctsim.load_manifest(tmp_path / "manifest") == {
            "data.seed": "4", "geom.pixel_spacing_mm": "0.5"}

    def test_manifest_drops_inline_comments(self, tmp_path):
        # as parse_config_text does: a value ends at the first '#'
        geom = default_geometry(32, pixel_spacing_mm=0.7, n_views=20)
        save_dataset(make_dataset(1, 32, DoseConfig(), seed=0, geom=geom), tmp_path / "ds", {})
        (tmp_path / "ds" / "manifest").write_text("geom.pixel_spacing_mm = 0.7  # mm\n")
        loaded, meta = load_dataset(tmp_path / "ds")
        assert meta["geom.pixel_spacing_mm"] == "0.7"
        assert loaded[0].ld.pixel_spacing_mm == loaded[0].nd.pixel_spacing_mm == 0.7

    @pytest.mark.parametrize("stray", ["notes", ".DS_Store"])
    def test_stray_pair_entry_named(self, tmp_path, stray):
        pairs = make_dataset(1, 64, DoseConfig(), seed=0, geom=default_geometry(64, n_views=30))
        save_dataset(pairs, tmp_path / "ds", {"geom.pixel_spacing_mm": 1.0})
        (tmp_path / "ds" / "pairs" / stray).touch()
        with pytest.raises(ValueError, match=f"ds.*'{stray}'.* not a pair index"):
            load_dataset(tmp_path / "ds")

    def test_no_pairs_named(self, tmp_path):
        (tmp_path / "ds" / "pairs").mkdir(parents=True)
        (tmp_path / "ds" / "manifest").write_text("geom.pixel_spacing_mm = 1.0\n")
        with pytest.raises(ValueError, match=r"dataset .*ds: pairs/ holds no pairs"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("value", [6.0e23, -2.1e34, np.nan])
    def test_damaged_pixel_named(self, tmp_path, value):
        # one flipped exponent bit turns a pixel into such a value
        pairs = make_dataset(2, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=30))
        save_dataset(pairs, tmp_path / "ds", {"geom.pixel_spacing_mm": 1.0})
        grid = pairs[1].nd.grid.copy()
        grid[5, 7] = value
        tctio.write_tensor(tmp_path / "ds" / "pairs" / "1" / "nd.tct", grid)
        with pytest.raises(ValueError, match=r"pairs/1/nd\.tct: not a 2-d image of finite"):
            load_dataset(tmp_path / "ds")

    def test_manifest_errors_named(self, tmp_path):
        pairs = make_dataset(1, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=30))
        save_dataset(pairs, tmp_path / "ds", {})
        (tmp_path / "ds" / "manifest").write_text("geom.pixel_spacing_mm = -1.0\n")
        with pytest.raises(ValueError, match=r"manifest: geom\.pixel_spacing_mm must be finite"):
            load_dataset(tmp_path / "ds")
        (tmp_path / "ds" / "manifest").write_text("geom.pixel_spacing_mm = abc\n")
        with pytest.raises(ValueError, match=r"manifest: geom\.pixel_spacing_mm must be finite "
                                             r"and > 0, got 'abc'"):
            load_dataset(tmp_path / "ds")
        (tmp_path / "ds" / "manifest").write_bytes(b"geom.pixel_spacing_mm = 1.0\n\xff\n")
        with pytest.raises(ValueError, match="manifest: manifest is not UTF-8"):
            load_dataset(tmp_path / "ds")

    def test_save_records_the_pairs_pixel_spacing(self, tmp_path):
        # the manifest passed here has no geom.pixel_spacing_mm key
        pairs = make_dataset(1, 64, DoseConfig(), seed=0,
                             geom=default_geometry(64, pixel_spacing_mm=0.7))
        save_dataset(pairs, tmp_path / "ds", {"data.seed": 0})
        loaded, meta = load_dataset(tmp_path / "ds")
        assert meta == {"data.seed": "0", "geom.pixel_spacing_mm": "0.7"}
        assert loaded[0].ld.pixel_spacing_mm == loaded[0].nd.pixel_spacing_mm == 0.7

    def test_save_refuses_mixed_pixel_spacings(self, tmp_path):
        grid = np.zeros((8, 8), np.float32)
        pairs = [TrainingPair(ld=CtImage(grid, HU, sp), nd=CtImage(grid, HU, sp))
                 for sp in (1.0, 0.7)]
        with pytest.raises(ValueError, match=r"one pixel spacing, got \[0\.7, 1\.0\]"):
            save_dataset(pairs, tmp_path / "ds", {})
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("line", ["geom.pixel_spacing_mm 0.7", " = 0.7"])
    def test_manifest_line_that_is_not_key_value_named(self, tmp_path, line):
        (tmp_path / "manifest").write_text(f"data.seed = 4\n{line}\n")
        with pytest.raises(ValueError, match=r"manifest:2: expected 'key = value', "
                                             rf"got {re.escape(repr(line))}"):
            ctsim.load_manifest(tmp_path / "manifest")

    def test_interrupted_resave_leaves_no_dataset(self, tmp_path, monkeypatch):
        geom = default_geometry(32, n_views=20)
        save_dataset(make_dataset(3, 32, DoseConfig(), seed=0, geom=geom), tmp_path / "ds", {})
        pairs = make_dataset(3, 32, DoseConfig(), seed=1, geom=geom)
        written = []

        def write_tensor(path, arr):
            if len(written) == 2:  # both images of pair 0
                raise OSError("disk full")
            written.append(path)
            tctio.write_tensor(path, arr)

        monkeypatch.setattr(ctsim, "write_tensor", write_tensor)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(pairs, tmp_path / "ds", {})
        with pytest.raises(FileNotFoundError, match="no dataset manifest"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("given", [0.5, "1.0", "abc"])
    def test_save_refuses_a_spacing_that_contradicts_the_pairs(self, tmp_path, given):
        pairs = make_dataset(1, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=20))
        with pytest.raises(ValueError, match=rf"geom\.pixel_spacing_mm {re.escape(repr(given))} "
                                             r"contradicts the pairs' 1\.0"):
            save_dataset(pairs, tmp_path / "ds", {"geom.pixel_spacing_mm": given})
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("entry", [{"note": "x\ny = 1"}, {"a#b": 1}, {"note": ""}])
    def test_save_refuses_an_entry_that_would_not_read_back(self, tmp_path, entry):
        pairs = make_dataset(1, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=20))
        with pytest.raises(ValueError, match=re.escape(f"entry {next(iter(entry))!r}")):
            save_dataset(pairs, tmp_path / "ds", entry)
        assert not (tmp_path / "ds").exists()

    def test_missing_pair_index_named(self, tmp_path):
        pairs = make_dataset(3, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=20))
        save_dataset(pairs, tmp_path / "ds", {})
        shutil.rmtree(tmp_path / "ds" / "pairs" / "1")
        with pytest.raises(ValueError, match=r"dataset .*ds: pairs/ lacks or repeats pair "
                                             r"index 1 \(at '2'\)"):
            load_dataset(tmp_path / "ds")

    def test_repeated_pair_index_named(self, tmp_path):
        pairs = make_dataset(3, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=20))
        save_dataset(pairs, tmp_path / "ds", {})
        shutil.copytree(tmp_path / "ds" / "pairs" / "1", tmp_path / "ds" / "pairs" / "01")
        with pytest.raises(ValueError, match=r"dataset .*ds: pairs/ lacks or repeats pair "
                                             r"index 1 \(at '01'\)"):
            load_dataset(tmp_path / "ds")

    def test_pair_shapes_that_disagree_named(self, tmp_path):
        pairs = make_dataset(2, 32, DoseConfig(), seed=0, geom=default_geometry(32, n_views=30))
        save_dataset(pairs, tmp_path / "ds", {})
        tctio.write_tensor(tmp_path / "ds" / "pairs" / "1" / "nd.tct",
                           np.zeros((32, 16), np.float32))
        with pytest.raises(ValueError, match=r"pairs/1: pair shapes disagree: "
                                             r"\(32, 32\) vs \(32, 16\)"):
            load_dataset(tmp_path / "ds")


def special_grids(size):
    """All zeros, and exact zeros holding -0.0, +-inf and NaN."""
    grid = np.zeros((size, size))
    grid[size // 2, size // 3] = np.nan
    grid[1, 1] = -0.0
    grid[3, size - 2] = np.inf
    grid[size - 1, 0] = -np.inf
    return [np.zeros((size, size)), grid]


def threaded(monkeypatch, n):
    """Run ctsim's chunks on ``n`` threads, down to the smallest work."""
    monkeypatch.setattr(ctsim, "_THREADS", n)
    monkeypatch.setattr(ctsim, "_BAND_ROWS", 8)


@pytest.fixture
def fresh_pool(monkeypatch):
    """A helper pool made, and shut down, inside the test."""
    monkeypatch.setattr(ctsim, "_pool", None)
    yield
    if ctsim._pool is not None:
        ctsim._pool.shutdown()


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestThreads:
    CASES = [(32, 1.0, 360), (33, 1.0, 360), (64, 1.0, 360), (128, 0.7, 360), (64, 1.0, 7)]

    def outputs(self, monkeypatch, n, size, spacing, n_views):
        threaded(monkeypatch, n)
        geom = default_geometry(size, spacing, n_views=n_views)
        phantom = hu_to_mu(make_phantom(size, size, pixel_spacing_mm=spacing)).grid
        with np.errstate(invalid="ignore"):
            sinos = [forward_project(CtImage(g, MU_PER_MM, spacing), geom)
                     for g in [phantom] + special_grids(size)]
        noisy = insert_poisson_noise(sinos[0], DoseConfig(), 0)
        recon = [fbp(sinos[0])[0].grid, fbp(sinos[1])[0].grid]
        recon += [img.grid for img in fbp(noisy, sinos[0])]
        return [s.values for s in sinos] + recon

    @pytest.mark.parametrize("size, spacing, n_views", CASES)
    def test_bits_do_not_depend_on_thread_count(self, monkeypatch, size, spacing, n_views):
        one = self.outputs(monkeypatch, 1, size, spacing, n_views)
        two = self.outputs(monkeypatch, 2, size, spacing, n_views)
        assert all(same_bits(a, b) for a, b in zip(one, two))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("size, spacing", [(33, 1.3), (64, 0.7)])
    def test_ray_groups_match_full_rows(self, monkeypatch, n, size, spacing):
        # a budget far below one view's kept samples splits each view into
        # many ray groups, as a large image does
        threaded(monkeypatch, n)
        monkeypatch.setattr(ctsim, "_CHUNK_SAMPLES", 300)
        geom = default_geometry(size, spacing, n_views=12)
        phantom = hu_to_mu(make_phantom(size, size, pixel_spacing_mm=spacing)).grid
        for grid in [phantom] + stress_images(size, seed=size) + special_grids(size):
            assert_projects_like_full_rows(grid, geom, spacing)

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, fresh_pool):
        # a chunk or band taken twice or never would leave zeros or
        # double-counted pixels somewhere
        geom = default_geometry(64, n_views=60)
        phantom = hu_to_mu(make_phantom(0, 64))
        want = forward_project(phantom, geom).values
        want_image = fbp(Sinogram(want, geom))[0].grid
        threaded(monkeypatch, 6)
        monkeypatch.setattr(ctsim, "_CHUNK_SAMPLES", 2000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = forward_project(phantom, geom).values
                assert same_bits(got, want)
                assert same_bits(fbp(Sinogram(got, geom))[0].grid, want_image)
        finally:
            sys.setswitchinterval(interval)

    def test_errstate_holds_on_helper_threads(self, monkeypatch):
        # +inf next to -inf: samples in every view add inf and -inf; a
        # helper thread that ignored the caller's errstate would warn, and
        # the warning filter turns that into an error
        threaded(monkeypatch, 2)
        grid = np.zeros((64, 64))
        grid[31], grid[32] = np.inf, -np.inf
        img, geom = CtImage(grid, MU_PER_MM), default_geometry(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                values = forward_project(img, geom).values
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                forward_project(img, geom)
        assert np.isnan(values).any(axis=1).all()

    def test_pair_threads_match_serial_on_the_inner_pool(self, monkeypatch, fresh_pool):
        threaded(monkeypatch, 2)
        dose = DoseConfig(i0=5e4)
        parallel = make_dataset(3, 64, dose, seed=5, workers=2)
        assert ctsim._pool is not None
        serial = make_dataset(3, 64, dose, seed=5, workers=1)
        for a, b in zip(serial, parallel):
            assert same_bits(a.ld.grid, b.ld.grid) and same_bits(a.nd.grid, b.nd.grid)
        monkeypatch.setattr(ctsim, "_THREADS", 1)
        for a, b in zip(serial, make_dataset(3, 64, dose, seed=5)):
            assert same_bits(a.ld.grid, b.ld.grid) and same_bits(a.nd.grid, b.nd.grid)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_dataset_workers_validated(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_dataset(1, 64, DoseConfig(), seed=0, workers=workers)

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(ctsim.__file__))
        code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); import ctdenoise; "
                "print(threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "1"
