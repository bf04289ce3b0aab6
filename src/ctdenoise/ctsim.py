"""Synthetic paired-dose CT data factory.

Parallel-beam, monochromatic simulation: random ellipse phantoms in HU,
line integrals by bilinear ray marching (flat gathers from a zero-padded
copy of the grid, so an image is exactly zero outside its support),
Poisson photon noise inserted in the projection domain, and filtered back
projection. Dose pairs reuse one clean sinogram and one noise stream so
that equal dose fractions reproduce identical images.

The projector marches only the samples within sqrt(2) pixels of the
image's support, the smallest disk about the grid centre that holds every
nonzero pixel; a bilinear sample reads only corners within sqrt(2) pixels
of itself, so a skipped sample reads exact zeros. The disk does not turn
with the view, so one run of samples per ray serves every view. The
simulated phantoms sit well inside their grid, on air, which is exactly
mu = 0, so about 29% of a 128x128 phantom's samples are marched. An image
whose support reaches the grid corners marches 78%: its disk also holds
samples that read only the zero border. Each ray is still summed over
its full-length sample row, with exact zeros where the skipped samples
were, so the sinograms are bitwise those of marching every sample.

FBP filters each sinogram in place, a chunk of views at a time: the
zero-padded spectra are multiplied by the ramp and inverse transformed in
one buffer. A dose pair shares its geometry, so its two filtered
sinograms go into the real and imaginary parts of one complex buffer and
are backprojected together: one ``np.interp`` per view for both doses.
``np.interp`` treats the two parts apart and the detector steps are
exactly 1.0, so each image is bitwise that of its own FBP.

Projection and backprojection use up to one thread per usable core: the
projector's chunks of views and the backprojector's bands of image rows
run on a pool of helper threads, made on first use, with the calling
thread working too. Each chunk and band writes its own part of the output
with the arithmetic of one thread, so the bits do not depend on the
thread count. Work too small to pay for threads runs on the caller alone.
"""

from __future__ import annotations

import contextvars
import math
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .tctio import read_tensor, write_tensor

HU = "HU"
MU_PER_MM = "MU_PER_MM"

MU_WATER_60KEV = 0.0206  # mm^-1, monochromatic 60 keV
AIR_HU = -1000.0


class UnitError(ValueError):
    """An image carried the wrong unit tag for the requested operation."""


@dataclass
class CtImage:
    """2-d scalar field tagged with its physical unit."""

    grid: np.ndarray
    unit: str
    pixel_spacing_mm: float = 1.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid)
        if self.grid.ndim != 2:
            raise ValueError(f"CtImage grid must be 2-d, got shape {self.grid.shape}")
        if self.unit not in (HU, MU_PER_MM):
            raise UnitError(f"unknown unit tag {self.unit!r}")


@dataclass
class ScanGeometry:
    """Parallel-beam layout: uniform view angles over [0, pi)."""

    n_views: int = 360
    n_detectors: int = 91
    detector_spacing_mm: float = 1.0
    image_size: int = 64
    pixel_spacing_mm: float = 1.0

    def __post_init__(self):
        for name in ("n_views", "n_detectors", "image_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("detector_spacing_mm", "pixel_spacing_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def angles(self):
        return np.linspace(0.0, np.pi, self.n_views, endpoint=False)

    @property
    def detector_positions(self):
        offsets = np.arange(self.n_detectors) - (self.n_detectors - 1) / 2.0
        return offsets * self.detector_spacing_mm


def default_geometry(image_size, pixel_spacing_mm=1.0, n_views=360):
    """Detector row covering the image diagonal, odd count for a center ray."""
    n_det = int(math.ceil(image_size * math.sqrt(2.0))) + 1
    if n_det % 2 == 0:
        n_det += 1
    return ScanGeometry(
        n_views=n_views,
        n_detectors=n_det,
        detector_spacing_mm=pixel_spacing_mm,
        image_size=image_size,
        pixel_spacing_mm=pixel_spacing_mm,
    )


@dataclass
class Sinogram:
    """views x detectors line integrals (mu times length, dimensionless)."""

    values: np.ndarray
    geometry: ScanGeometry


@dataclass
class DoseConfig:
    """Incident photons per ray and the dose fraction applied to them."""

    i0: float = 1e5
    dose_fraction: float = 0.25
    seed: object = 0

    def __post_init__(self):
        if not math.isfinite(self.i0):
            raise ValueError(f"i0 must be finite, got {self.i0}")
        if not 0.0 < self.dose_fraction <= 1.0:
            raise ValueError(f"dose_fraction must lie in (0,1], got {self.dose_fraction}")
        if self.i0 * self.dose_fraction < 1.0:
            raise ValueError(
                f"i0 * dose_fraction must be >= 1 photon, got {self.i0 * self.dose_fraction}"
            )


# -- phantoms ------------------------------------------------------------


def _ellipse_mask(yy, xx, cy, cx, ry, rx, angle):
    ca, sa = np.cos(angle), np.sin(angle)
    u = (xx - cx) * ca + (yy - cy) * sa
    v = -(xx - cx) * sa + (yy - cy) * ca
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def make_phantom(seed, size=64, n_ellipses=6, pixel_spacing_mm=1.0):
    """Random abdomen-like phantom: a near-water body disk holding
    ``n_ellipses`` random ellipses in [-900, 800] HU on a -1000 HU
    background. Deterministic per seed."""
    if size < 32:
        raise ValueError(f"phantom size must be >= 32, got {size}")
    if n_ellipses < 0:
        raise ValueError(f"n_ellipses must be >= 0, got {n_ellipses}")
    rng = np.random.default_rng(seed)
    coords = (np.arange(size) - (size - 1) / 2.0) / (size / 2.0)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")

    grid = np.full((size, size), AIR_HU, dtype=np.float64)
    body_r = rng.uniform(0.72, 0.85)
    body_cy, body_cx = rng.uniform(-0.04, 0.04, size=2)
    body_hu = rng.uniform(-30.0, 30.0)
    body = _ellipse_mask(yy, xx, body_cy, body_cx, body_r, body_r, 0.0)
    grid[body] = body_hu

    for _ in range(n_ellipses):
        rad = rng.uniform(0.0, 0.55) * body_r
        ang = rng.uniform(0.0, 2.0 * np.pi)
        cy = body_cy + rad * np.sin(ang)
        cx = body_cx + rad * np.cos(ang)
        ry, rx = rng.uniform(0.05, 0.30, size=2) * body_r
        tilt = rng.uniform(0.0, np.pi)
        hu = rng.uniform(-900.0, 800.0)
        inner = _ellipse_mask(yy, xx, cy, cx, ry, rx, tilt) & body
        grid[inner] = hu

    return CtImage(grid.astype(np.float32), HU, pixel_spacing_mm)


# -- unit conversions ----------------------------------------------------


def hu_to_mu(img, mu_water=MU_WATER_60KEV):
    if img.unit != HU:
        raise UnitError(f"hu_to_mu expects a HU image, got unit {img.unit!r}")
    mu = mu_water * (1.0 + img.grid.astype(np.float64) / 1000.0)
    return CtImage(mu.astype(np.float32), MU_PER_MM, img.pixel_spacing_mm)


def mu_to_hu(img, mu_water=MU_WATER_60KEV):
    if img.unit != MU_PER_MM:
        raise UnitError(f"mu_to_hu expects an attenuation image, got unit {img.unit!r}")
    hu = 1000.0 * (img.grid.astype(np.float64) / mu_water - 1.0)
    return CtImage(hu.astype(np.float32), HU, img.pixel_spacing_mm)


# -- projection ----------------------------------------------------------


_PAD = 2  # zero border: every corner of a clipped sample lands in it
_CHUNK_SAMPLES = 30_000  # kept samples per chunk: enough for numpy to run mostly without the GIL
_CHUNK_ROWS = 2 * _CHUNK_SAMPLES  # full-row elements per chunk, for a support far inside the grid
_THREADED_SAMPLES = 100_000  # kept samples per projection below which threads do not pay
_BAND_ROWS = 64  # image rows per backprojection band below which threads do not pay
_FILTER_VIEWS = 32  # views per FFT chunk of the FBP filter

# usable cores; the pool of helper threads is made on first use
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _run(job, tasks, threaded):
    """Run ``job(take)`` on the calling thread and, if ``threaded``, on up to
    ``_THREADS - 1`` pool threads. ``take()`` hands out the next task, or
    None when none is left, so each job keeps its scratch across the tasks
    it takes. The caller works through the tasks itself and then cancels
    the helpers that have not started, so a caller whose helpers cannot
    start (the pool is busy, or this is a forked child whose pool threads
    are gone) finishes alone instead of waiting."""
    global _pool
    pending = iter(tasks)
    lock = threading.Lock()

    def take():
        with lock:
            return next(pending, None)

    n_helpers = min(_THREADS if threaded else 1, len(tasks)) - 1
    if n_helpers > 0:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(max(1, _THREADS - 1), "ctsim")
    # each helper runs in a copy of the caller's context, so np.errstate holds there too
    helpers = [_pool.submit(contextvars.copy_context().run, job, take)
               for _ in range(n_helpers)]
    try:
        job(take)
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()


def _support_window(s, t, ps, grid):
    """Per-ray run of sample indices that holds every sample which can read
    a nonzero pixel of ``grid`` (NaN and inf count, -0.0 does not). Returns
    ``first`` and ``count``, one pair per ray, shared by every view.

    A bilinear sample reads only corners within sqrt(2) pixels of itself,
    the corner whose weight is exactly 0 included. So a sample farther than
    ``radius + sqrt(2)`` pixels from the grid centre, where ``radius`` is the
    largest distance from the centre to a nonzero pixel, reads only exact
    zeros. In ray coordinates that disk is ``|s| <= sqrt(reach**2 - t**2)``
    whatever the view angle, and a ray with ``|t| > reach`` keeps nothing;
    an all-zero grid keeps no sample. The disk is widened by ``tol`` pixels,
    a bound on the rounding of the projector's coordinates and of this
    computation: a few float64 epsilons of the largest magnitude involved."""
    size = grid.shape[0]
    center = (size - 1) / 2.0
    yy, xx = np.nonzero(grid)
    radius = np.hypot(yy - center, xx - center).max(initial=-np.inf)
    tol = 16 * math.ulp(1.0) * (
        2 * size + 2 + (np.abs(t).max() + np.abs(s).max()) / ps)
    reach = (radius + math.sqrt(2.0) + tol) * ps
    half = np.sqrt(np.maximum(reach * reach - t * t, 0.0))
    hit = np.abs(t) <= reach
    first = np.searchsorted(s, np.where(hit, -half, np.inf), side="left")
    stop = np.searchsorted(s, np.where(hit, half, -np.inf), side="right")
    return first, np.maximum(stop - first, 0)


def forward_project(img, geom):
    """Line integrals of an attenuation image: Joseph-style ray marching
    with bilinear interpolation at half-pixel steps. Output units mu*mm.

    The image is zero outside its grid. The grid sits in a buffer with a
    ``_PAD``-pixel zero border and sample coordinates are clipped to
    ``[-_PAD, H]``, so corners off the image read an exact 0 with no bounds
    masks; the four corners are flat ``take``s at offsets 0, 1, row and
    row + 1.

    Only the samples in each ray's window (``_support_window``) are
    computed. A skipped sample reads only exact zeros, +0.0 or -0.0, and
    would add +0.0 to an accumulator that starts at +0.0. The kept
    contributions are written at their own positions into a zeroed
    full-length row per ray, and each ray's value is that whole row's
    ``.sum(axis=-1) * step``: the summation order, and so every output bit,
    is that of marching every sample. A ray with an empty window is never
    marched: its value stays the +0.0 its full row would sum to.

    The windows do not depend on the view, so the rays are split once into
    groups, and each group's repeated ``t``, kept ``s`` and row positions
    serve every view. The unit of work is a chunk of consecutive views of
    one group, about ``_CHUNK_SAMPLES`` kept samples: several views of a
    small image, or a part of one view of a large one. The chunks run on
    ``_run``'s threads, each with its own scratch, once a projection keeps
    ``_THREADED_SAMPLES`` samples; each chunk writes its own block of the
    sinogram, so the bits do not depend on the thread count. At 128x128 a
    phantom marches 29% of the samples, and an image whose support reaches
    the grid corners 78%."""
    if img.unit != MU_PER_MM:
        raise UnitError(f"forward_project expects attenuation input, got {img.unit!r}")
    H, W = img.grid.shape
    if H != W:
        raise ValueError(f"forward_project expects a square image, got {H}x{W}")
    if H != geom.image_size:
        raise ValueError(f"forward_project got a {H}x{H} image for a geometry of "
                         f"image_size {geom.image_size}")
    ps = img.pixel_spacing_mm
    if ps != geom.pixel_spacing_mm:
        raise ValueError(f"forward_project got pixel spacing {ps} mm for a geometry of "
                         f"pixel_spacing_mm {geom.pixel_spacing_mm}")
    row = H + 2 * _PAD
    flat = np.pad(img.grid.astype(np.float64), _PAD).ravel()
    corners = (flat, flat[1:], flat[row:], flat[row + 1:])  # (0,0) (0,1) (1,0) (1,1)
    origin = _PAD * (row + 1)  # flat index of pixel (0, 0)

    step = 0.5 * ps
    half_len = 0.5 * math.sqrt(2.0) * H * ps
    s = np.arange(-half_len, half_len + step, step)
    t = geom.detector_positions
    center = (H - 1) / 2.0
    values = np.zeros((geom.n_views, geom.n_detectors), dtype=np.float64)

    first, count = _support_window(s, t, ps, img.grid)
    live = np.flatnonzero(count)
    per_view = int(count.sum())
    groups, views = [], 1
    if per_view:
        lo, hi = live[0], live[-1] + 1
        width = -(-(hi - lo) // -(-per_view // _CHUNK_SAMPLES))  # rays per group
        views = max(1, min(geom.n_views, _CHUNK_SAMPLES // per_view,
                           _CHUNK_ROWS // (width * len(s))))
        for b in range(lo, hi, width):
            rays = slice(b, min(b + width, hi))
            n = count[rays]
            ends = np.cumsum(n)
            # the kept samples ray after ray: sample index j, and j's position
            # in one view's rows of the group
            j = np.arange(ends[-1]) + np.repeat(first[rays] - (ends - n), n)
            at = j + np.repeat(np.arange(len(n)) * len(s), n)
            groups.append((rays, np.repeat(t[rays], n), s[j], at))
    longest = views * max((len(at) for *_, at in groups), default=0)
    angles = geom.angles
    cos = np.array([math.cos(theta) for theta in angles])[:, None]
    sin = np.array([math.sin(theta) for theta in angles])[:, None]
    # x = t*cos + s*(-sin) and y = t*sin + s*cos, both axes in one call;
    # s*(-sin) is exactly -(s*sin), so x is bitwise t*cos - s*sin
    t_trig, s_trig = np.stack([cos, sin]), np.stack([-sin, cos])
    chunks = [(slice(v, v + views), g) for v in range(0, len(angles), views) for g in groups]

    def march(take):
        fbuf = None
        while (chunk := take()) is not None:
            vs, (rays, t_kept, s_kept, at) = chunk
            tt, st = t_trig[:, vs], s_trig[:, vs]
            nv, m = tt.shape[1], len(t_kept)
            if fbuf is None:  # this thread's scratch
                fbuf, kbuf = np.empty((7, longest)), np.empty(longest, np.intp)
                rows = np.zeros((views, width * len(s)))
            b = fbuf[:, :nv * m].reshape(7, nv, m)
            xy, xy0, g, out = b[0:2], b[2:4], b[4:6], b[6]
            k = kbuf[:nv * m].reshape(nv, m)
            # ray through t*u marching along v = (-sin, cos)
            np.multiply(t_kept, tt, out=xy)
            xy += np.multiply(s_kept, st, out=xy0)
            xy /= ps
            xy += center
            np.maximum(xy, -_PAD, out=xy)
            np.minimum(xy, H, out=xy)
            np.floor(xy, out=xy0)
            xy -= xy0  # the fractions
            np.subtract(1, xy, out=g)
            (x, y), (x0, y0), (gx, gy) = xy, xy0, g
            y0 *= row
            y0 += x0
            y0 += origin
            k[...] = y0
            w, tmp = x0, y0  # free once k is made
            out.fill(0.0)
            # every index is in range, so the takes use the unbuffered mode="clip"
            for c, wy, wx in zip(corners, (gy, gy, y, y), (gx, x, gx, x)):
                np.multiply(wy, wx, out=w)
                c.take(k, out=tmp, mode="clip")
                tmp *= w
                out += tmp
            full = rows[:nv, :(rays.stop - rays.start) * len(s)]
            full[:, at] = out
            values[vs, rays] = full.reshape(nv, -1, len(s)).sum(axis=-1) * step
            full.fill(0.0)

    _run(march, chunks, per_view * len(angles) >= _THREADED_SAMPLES)
    return Sinogram(values=values, geometry=geom)


# -- dose noise ----------------------------------------------------------


def insert_poisson_noise(sino, dose):
    """Photon-count noise: N ~ Poisson(I0*fraction*exp(-p)), then back to
    line integrals with zero counts clamped to one photon."""
    p = np.asarray(sino.values, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("sinogram contains non-finite values")
    if p.min() < -1e-9:
        raise ValueError(f"sinogram has negative line integrals (min {p.min():g})")
    flux = dose.i0 * dose.dose_fraction
    if flux < 1.0:
        raise ValueError(f"i0 * dose_fraction must be >= 1, got {flux}")
    rng = np.random.default_rng(dose.seed)
    counts = rng.poisson(flux * np.exp(-p)).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    noisy = -np.log(counts / flux)
    return Sinogram(values=noisy, geometry=sino.geometry)


# -- reconstruction ------------------------------------------------------


def _ramp_kernel(n_pad, spacing):
    """Band-limited discrete ramp filter (spatial form, FFT layout)."""
    m = np.fft.fftfreq(n_pad, d=1.0 / n_pad)  # 0, 1, ..., -1 integer lags
    h = np.zeros(n_pad, dtype=np.float64)
    h[0] = 1.0 / (4.0 * spacing**2)
    odd = (np.abs(m) % 2) == 1
    h[odd] = -1.0 / (np.pi * m[odd] * spacing) ** 2
    return h


def _filter(values, geom, window, out):
    """Ramp-filter each view of ``values`` (views x detectors) and write
    the result, in mu per mm, into the float64 array ``out`` of the same
    shape; ``out`` may be a strided view such as the ``.real`` of a complex
    buffer. The zero-padded spectra of ``_FILTER_VIEWS`` views at a time are
    filtered in place: ``spectra *= ramp`` is the same complex multiply as
    ``spectra * ramp[None, :]``, the inverse FFT writes back into
    ``spectra``, and the FFT transforms each view on its own, so the chunks
    give the bits of one whole-sinogram transform."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (geom.n_views, geom.n_detectors):
        raise ValueError(
            f"sinogram shape {values.shape} does not match geometry "
            f"({geom.n_views} views x {geom.n_detectors} detectors)"
        )
    if window not in ("ramlak", "hann"):
        raise ValueError(f"unknown filter window {window!r}")
    if not np.isfinite(values).all():
        raise ValueError("sinogram contains non-finite values")

    d = geom.detector_spacing_mm
    n_det = geom.n_detectors
    n_pad = 1 << int(math.ceil(math.log2(max(64, 2 * n_det))))
    ramp = np.fft.fft(_ramp_kernel(n_pad, d)).real
    if window == "hann":
        frac = np.abs(np.fft.fftfreq(n_pad)) * 2.0  # 0 at DC, 1 at Nyquist
        ramp = ramp * (0.5 * (1.0 + np.cos(np.pi * frac)))

    buf = np.empty((min(_FILTER_VIEWS, geom.n_views), n_pad), dtype=np.complex128)
    for v in range(0, geom.n_views, _FILTER_VIEWS):
        views = slice(v, v + _FILTER_VIEWS)
        spectra = buf[:len(values[views])]
        np.fft.fft(values[views], n=n_pad, axis=1, out=spectra)
        spectra *= ramp
        np.fft.ifft(spectra, axis=1, out=spectra)
        np.multiply(spectra.real[:, :n_det], d, out=out[views])


def _backproject(filtered, geom):
    """Linear-interpolation backprojection, summed view after view and
    unscaled, of float64 filtered views or of two packed into the real and
    imaginary parts of complex128 ones (each part of the result is then
    bitwise that part's own backprojection). Each pixel depends only on its
    own coordinates, so bands of image rows run on ``_run``'s threads, each
    band summing all views in order; the bits do not depend on the band
    count."""
    size = geom.image_size
    n_det = geom.n_detectors
    d = geom.detector_spacing_mm
    coords = (np.arange(size) - (size - 1) / 2.0) * geom.pixel_spacing_mm
    det_index = np.arange(n_det, dtype=np.float64)
    center = (n_det - 1) / 2.0
    trig = [(math.sin(theta), math.cos(theta)) for theta in geom.angles]
    recon = np.zeros((size, size), dtype=filtered.dtype)

    def sweep(take):
        while (rows := take()) is not None:
            band = recon[rows]
            idx = np.empty(band.shape)
            for vi, (sin, cos) in enumerate(trig):
                np.add(coords[rows, None] * sin, coords * cos, out=idx)
                idx /= d
                idx += center
                band += np.interp(idx.ravel(), det_index, filtered[vi], left=0.0,
                                  right=0.0).reshape(band.shape)

    n_bands = max(1, min(_THREADS, size // _BAND_ROWS))
    width = -(-size // n_bands)
    _run(sweep, [slice(r, r + width) for r in range(0, size, width)], True)
    return recon


def _image(recon, geom):
    """Scale a backprojection sum by pi/n_views (in place) into an image."""
    recon *= np.pi / geom.n_views
    return CtImage(recon.astype(np.float32), MU_PER_MM, geom.pixel_spacing_mm)


def fbp(sino, geom, window="ramlak"):
    """Filtered back projection: per-view ramp filtering in the frequency
    domain, done in place on the zero-padded spectra, then
    linear-interpolation backprojection scaled by pi/n_views. A sinogram
    holding NaN or inf is rejected. ``simulate_pair`` backprojects its two
    doses together (``_fbp_pair``), bitwise as two calls of this."""
    filtered = np.empty((geom.n_views, geom.n_detectors))
    _filter(sino.values, geom, window, filtered)
    return _image(_backproject(filtered, geom), geom)


def _fbp_pair(sino_a, sino_b, geom, window):
    """``fbp`` of two sinograms on one geometry, each image bitwise that of
    ``fbp``, with one backprojection pass. The filtered views are written
    into the real and imaginary parts of one complex buffer, never summed
    as ``a + 1j * b``: ``0 * inf`` would make a NaN in the other part."""
    packed = np.empty((geom.n_views, geom.n_detectors), dtype=np.complex128)
    _filter(sino_a.values, geom, window, packed.real)
    _filter(sino_b.values, geom, window, packed.imag)
    recon = _backproject(packed, geom)
    return _image(recon.real, geom), _image(recon.imag, geom)


# -- paired-dose dataset -------------------------------------------------


@dataclass
class TrainingPair:
    """Aligned low-dose / normal-dose HU patch pair."""

    ld: CtImage
    nd: CtImage

    def __post_init__(self):
        if self.ld.grid.shape != self.nd.grid.shape:
            raise ValueError(
                f"pair shapes disagree: {self.ld.grid.shape} vs {self.nd.grid.shape}"
            )
        if not (np.isfinite(self.ld.grid).all() and np.isfinite(self.nd.grid).all()):
            raise ValueError("training pair contains non-finite values")


def _clamp_hu(img):
    return CtImage(np.maximum(img.grid, AIR_HU).astype(np.float32), HU, img.pixel_spacing_mm)


def simulate_pair(seed, pair_index, size, dose, geom=None, n_ellipses=6):
    """One (LDCT, NDCT) pair. The per-pair RNG streams depend only on
    (seed, pair_index), so serial and parallel generation agree."""
    geom = geom or default_geometry(size)
    if size != geom.image_size:
        raise ValueError(f"size {size} does not match geom.image_size {geom.image_size}")
    phantom = make_phantom([seed, pair_index, 0], size, n_ellipses,
                           geom.pixel_spacing_mm)
    sino = forward_project(hu_to_mu(phantom), geom)
    noise_seed = [seed, pair_index, 1]
    nd_sino = insert_poisson_noise(sino, replace(dose, dose_fraction=1.0, seed=noise_seed))
    ld_sino = insert_poisson_noise(sino, replace(dose, seed=noise_seed))
    nd, ld = (_clamp_hu(mu_to_hu(img))
              for img in _fbp_pair(nd_sino, ld_sino, geom, "ramlak"))
    return TrainingPair(ld=ld, nd=nd), phantom


def make_dataset(n_pairs, size, dose, seed, geom=None, n_ellipses=6, workers=1):
    """Generate aligned LDCT/NDCT pairs, ``workers`` pairs at a time. Each
    pair still projects and backprojects on ``_run``'s threads; the bits
    are the same for any ``workers``."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    geom = geom or default_geometry(size)

    def build(i):
        pair, _ = simulate_pair(seed, i, size, dose, geom, n_ellipses)
        return pair

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(build, range(n_pairs)))
    return [build(i) for i in range(n_pairs)]


# -- dataset directory layout ---------------------------------------------


def save_dataset(pairs, out_dir, manifest):
    """Write pairs/<idx>/{ld,nd}.tct plus a flat-text manifest, removing
    higher-numbered pairs an earlier, larger dataset left in ``out_dir``."""
    out = Path(out_dir)
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    for stale in (out / "pairs").iterdir():
        if stale.name.isdecimal() and int(stale.name) >= len(pairs):
            shutil.rmtree(stale)
    for i, pair in enumerate(pairs):
        pdir = out / "pairs" / str(i)
        pdir.mkdir(exist_ok=True)
        write_tensor(pdir / "ld.tct", pair.ld.grid.astype(np.float32))
        write_tensor(pdir / "nd.tct", pair.nd.grid.astype(np.float32))
    lines = [f"{k} = {v}" for k, v in manifest.items()]
    (out / "manifest").write_text("\n".join(lines) + "\n")


def load_manifest(path):
    entries = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def load_dataset(data_dir):
    """Read back a dataset directory; returns (pairs, manifest dict)."""
    root = Path(data_dir)
    if not (root / "manifest").exists():
        raise FileNotFoundError(f"no dataset manifest under {root}")
    manifest = load_manifest(root / "manifest")
    spacing = float(manifest.get("geom.pixel_spacing_mm", 1.0))
    pair_dirs = list((root / "pairs").iterdir())
    for pdir in pair_dirs:
        if not pdir.name.isdecimal():
            raise ValueError(f"dataset {root}: {pdir.name!r} under pairs/ is not a pair index")
    pairs = []
    for pdir in sorted(pair_dirs, key=lambda p: int(p.name)):
        ld = CtImage(read_tensor(pdir / "ld.tct"), HU, spacing)
        nd = CtImage(read_tensor(pdir / "nd.tct"), HU, spacing)
        pairs.append(TrainingPair(ld=ld, nd=nd))
    return pairs, manifest
