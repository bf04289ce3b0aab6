"""Synthetic paired-dose CT data factory.

Parallel-beam, monochromatic simulation: random ellipse phantoms in HU,
line integrals by bilinear ray marching (flat gathers from a zero-padded
copy of the grid, so an image is exactly zero outside its support),
Poisson photon noise inserted in the projection domain, and filtered back
projection. Noise is drawn from an explicit seed; a dose pair reuses one
clean sinogram and one noise seed, so that equal dose fractions reproduce
identical images.

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
were, so the sinograms are bitwise those of marching every sample. Each
thread keeps its full-length rows zero between chunks: every chunk of a
group of rays writes the same positions, so only a thread that moves to
another group zeroes them again. The zero border around the grid is sized
from the support disk, so every bilinear corner of a marched sample lies in
it and no coordinate is ever clipped; a phantom, whose disk lies well inside
its grid, keeps the 2-pixel minimum.

``fbp`` takes any number of sinograms of one geometry. It filters each in
place, a chunk of views at a time, and puts two filtered sinograms into the
real and imaginary parts of one complex buffer, which is backprojected with
one ``np.interp`` per view; an odd last one goes in over zeros.
``np.interp`` treats the two parts apart and the detector steps are exactly
1.0, so each image is bitwise that of its own real backprojection. The
interpolation positions of ``_SWEEP_VIEWS`` views are built in one
broadcast, each element by the products and sums of a view of its own.

Projection and backprojection use up to one thread per usable core: the
projector's chunks of views and the backprojector's bands of image rows
run on a pool of helper threads, made on first use, with the calling
thread working too. Each chunk and band writes its own part of the output
with the arithmetic of one thread, so the bits do not depend on the
thread count. A projection of a single chunk, or a backprojection of
fewer than ``2 * _BAND_ROWS`` image rows, runs on the caller alone.
"""

from __future__ import annotations

import contextvars
import math
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checks import check_field_types
from .tctio import format_key_values, parse_key_values, read_tensor, write_tensor

HU = "HU"
MU_PER_MM = "MU_PER_MM"

MU_WATER_60KEV = 0.0206  # mm^-1, monochromatic 60 keV
AIR_HU = -1000.0


class UnitError(ValueError):
    """An image carried the wrong unit tag for the requested operation."""


@dataclass(frozen=True)
class CtImage:
    """2-d scalar field tagged with its physical unit."""

    grid: np.ndarray
    unit: str
    pixel_spacing_mm: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid))
        if self.grid.ndim != 2:
            raise ValueError(f"CtImage grid must be 2-d, got shape {self.grid.shape}")
        if self.unit not in (HU, MU_PER_MM):
            raise UnitError(f"unknown unit tag {self.unit!r}")


@dataclass(frozen=True)
class ScanGeometry:
    """Parallel-beam layout: uniform view angles over [0, pi)."""

    n_views: int = 360
    n_detectors: int = 91
    detector_spacing_mm: float = 1.0
    image_size: int = 64
    pixel_spacing_mm: float = 1.0

    def __post_init__(self):
        check_field_types(self)
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


def default_geometry(image_size, pixel_spacing_mm=1.0, n_views=ScanGeometry.n_views):
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


@dataclass(frozen=True)
class Sinogram:
    """views x detectors line integrals (mu times length, dimensionless)."""

    values: np.ndarray
    geometry: ScanGeometry


@dataclass(frozen=True)
class DoseConfig:
    """Incident photons per ray and the dose fraction applied to them."""

    i0: float = 1e5
    dose_fraction: float = 0.25

    def __post_init__(self):
        check_field_types(self)
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


def hu_to_mu(img):
    if img.unit != HU:
        raise UnitError(f"hu_to_mu expects a HU image, got unit {img.unit!r}")
    mu = MU_WATER_60KEV * (1.0 + img.grid.astype(np.float64) / 1000.0)
    return CtImage(mu.astype(np.float32), MU_PER_MM, img.pixel_spacing_mm)


def mu_to_hu(img):
    if img.unit != MU_PER_MM:
        raise UnitError(f"mu_to_hu expects an attenuation image, got unit {img.unit!r}")
    hu = 1000.0 * (img.grid.astype(np.float64) / MU_WATER_60KEV - 1.0)
    return CtImage(hu.astype(np.float32), HU, img.pixel_spacing_mm)


# -- projection ----------------------------------------------------------


_PAD = 2  # the projector's least zero border, in pixels: at least 1 for a sample's
# floor + 1 corner, and 2 so that phantom buffers stay as they were
_CHUNK_SAMPLES = 30_000  # kept samples per chunk: enough for numpy to run mostly without the GIL
_CHUNK_ROWS = 2 * _CHUNK_SAMPLES  # full-row elements per chunk, for a support far inside the grid
_BAND_ROWS = 32  # image rows per backprojection band below which threads do not pay
_SWEEP_VIEWS = 8  # views whose backprojection indices are built in one broadcast
_FILTER_VIEWS = 32  # views per FFT chunk of the FBP filter

# usable cores; the pool of helper threads is made on first use
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _run(job, tasks):
    """Run ``job(take)`` on the calling thread and on
    ``min(_THREADS, len(tasks)) - 1`` pool threads. ``take()`` hands out the
    next task, or None when none is left, so each job keeps its scratch
    across the tasks it takes. The caller works through the tasks itself
    and then cancels the helpers that have not started, so a caller whose
    helpers cannot start (the pool is busy, or this is a forked child whose
    pool threads are gone) finishes alone instead of waiting."""
    global _pool
    pending = iter(tasks)
    lock = threading.Lock()

    def take():
        with lock:
            return next(pending, None)

    n_helpers = min(_THREADS, len(tasks)) - 1
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


def _slack(s, t, ps, size):
    """A bound, in pixels, on the rounding of the projector's coordinates
    and of the distances computed from them: a few float64 epsilons of the
    largest magnitude involved."""
    return 16 * math.ulp(1.0) * (2 * size + 2 + (np.abs(t).max() + np.abs(s).max()) / ps)


def _support_window(s, t, ps, grid):
    """Per-ray run of sample indices that holds every sample which can read
    a nonzero pixel of ``grid`` (NaN and inf count, -0.0 does not). Returns
    ``first`` and ``count``, one pair per ray, shared by every view, and
    ``pad``, a zero border in pixels that holds every bilinear corner of
    every sample in the runs.

    A bilinear sample reads only corners within sqrt(2) pixels of itself,
    the corner whose weight is exactly 0 included. So a sample farther than
    ``radius + sqrt(2)`` pixels from the grid centre, where ``radius`` is the
    largest distance from the centre to a nonzero pixel, reads only exact
    zeros. In ray coordinates that disk is ``|s| <= sqrt(reach**2 - t**2)``
    whatever the view angle, and a ray with ``|t| > reach`` keeps nothing;
    an all-zero grid keeps no sample and has a ``reach`` of -inf. The disk
    is widened by ``_slack``. A kept sample's coordinates lie within
    ``reach`` pixels, and their rounding, of the grid centre, so its
    coordinates lie at most ``reach + slack - center`` pixels outside the
    grid and its ``floor + 1`` corners one pixel further: ``pad`` is that
    first bound, rounded up, on top of ``_PAD``, whose at least 1 pixel
    covers the second."""
    size = grid.shape[0]
    center = (size - 1) / 2.0
    slack = _slack(s, t, ps, size)
    yy, xx = np.nonzero(grid)
    radius = np.hypot(yy - center, xx - center).max(initial=-np.inf)
    reach = radius + math.sqrt(2.0) + slack  # pixels
    pad = _PAD + math.ceil(max(0.0, reach + slack - center))
    reach *= ps  # mm, as s and t
    half = np.sqrt(np.maximum(reach * reach - t * t, 0.0))
    hit = np.abs(t) <= reach
    first = np.searchsorted(s, np.where(hit, -half, np.inf), side="left")
    stop = np.searchsorted(s, np.where(hit, half, -np.inf), side="right")
    return first, np.maximum(stop - first, 0), pad


def forward_project(img, geom):
    """Line integrals of an attenuation image: Joseph-style ray marching
    with bilinear interpolation at half-pixel steps. Output units mu*mm.

    The image is zero outside its grid. The grid sits in a buffer with a
    zero border wide enough to hold every corner of every kept sample
    (``_support_window``'s ``pad``: ``_PAD`` pixels for a phantom, whose
    body disk lies well inside its grid, and more for an image whose
    support reaches the grid corners), so corners off the image read an
    exact +0.0 with no bounds masks and no clip; the four corners are flat
    ``take``s at offsets 0, 1, row and row + 1. The first corner's product
    starts the sample's sum, so a sample whose four products are all -0.0
    (a -0.0 pixel, or a negative one of weight 0) sums to -0.0, where a sum
    started at +0.0 would give +0.0. That changes no ray: a ray's last
    sample lies at least H / sqrt(2) pixels from the grid centre, beyond
    the square of pixel centres, so one of its corners reads the border's
    +0.0 and its sum cannot be -0.0; or it is not kept, and its row
    position holds +0.0. A row that holds a +0.0 does not sum to -0.0.

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
    ``_run``'s threads, each with its own scratch; each chunk writes its own
    block of the sinogram, so the bits do not depend on the thread count.
    Every chunk of a group writes the same row positions, so a thread's
    rows stay zero elsewhere and are zeroed again only when it moves to
    another group: never for a single-group projection such as a 64x64 or
    128x128 phantom's, once per chunk when, as at 512x512, each view holds
    several groups. At 128x128 a phantom marches 29% of the samples, and an
    image whose support reaches the grid corners 78%."""
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
    step = 0.5 * ps
    half_len = 0.5 * math.sqrt(2.0) * H * ps
    s = np.arange(-half_len, half_len + step, step)
    t = geom.detector_positions
    center = (H - 1) / 2.0
    values = np.zeros((geom.n_views, geom.n_detectors), dtype=np.float64)

    first, count, pad = _support_window(s, t, ps, img.grid)
    row = H + 2 * pad
    flat = np.pad(img.grid.astype(np.float64), pad).ravel()
    corners = (flat, flat[1:], flat[row:], flat[row + 1:])  # (0,0) (0,1) (1,0) (1,1)
    origin = pad * (row + 1)  # flat index of pixel (0, 0)
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
        fbuf = last = None
        while (chunk := take()) is not None:
            vs, group = chunk
            rays, t_kept, s_kept, at = group
            tt, st = t_trig[:, vs], s_trig[:, vs]
            nv, m = tt.shape[1], len(t_kept)
            if fbuf is None:  # this thread's scratch
                fbuf, kbuf = np.empty((7, longest)), np.empty(longest, np.intp)
                rows = np.zeros((views, width * len(s)))
            elif group is not last:  # the rows hold another group's kept positions
                rows.fill(0.0)
            last = group
            b = fbuf[:, :nv * m].reshape(7, nv, m)
            xy, xy0, g, out = b[0:2], b[2:4], b[4:6], b[6]
            k = kbuf[:nv * m].reshape(nv, m)
            # ray through t*u marching along v = (-sin, cos)
            np.multiply(t_kept, tt, out=xy)
            xy += np.multiply(s_kept, st, out=xy0)
            if ps != 1.0:
                xy /= ps
            xy += center
            np.floor(xy, out=xy0)
            xy -= xy0  # the fractions
            np.subtract(1, xy, out=g)
            (x, y), (x0, y0), (gx, gy) = xy, xy0, g
            y0 *= row
            y0 += x0
            y0 += origin
            k[...] = y0
            w, tmp = x0, y0  # free once k is made
            # the border holds every corner, so the takes use the unbuffered
            # mode="clip"; the first corner starts out (a -0.0 there changes no
            # ray's sum, see above)
            np.multiply(gy, gx, out=w)
            corners[0].take(k, out=out, mode="clip")
            out *= w
            for c, wy, wx in zip(corners[1:], (gy, y, y), (x, gx, x)):
                np.multiply(wy, wx, out=w)
                c.take(k, out=tmp, mode="clip")
                tmp *= w
                out += tmp
            full = rows[:nv, :(rays.stop - rays.start) * len(s)]
            for v in range(nv):
                full[v][at] = out[v]
            values[vs, rays] = full.reshape(nv, -1, len(s)).sum(axis=-1) * step

    _run(march, chunks)
    return Sinogram(values=values, geometry=geom)


# -- dose noise ----------------------------------------------------------


def insert_poisson_noise(sino, dose, seed):
    """Photon-count noise: N ~ Poisson(I0*fraction*exp(-p)), drawn from
    ``np.random.default_rng(seed)``, then back to line integrals with zero
    counts clamped to one photon. The frozen ``DoseConfig`` checked when it
    was built that its flux is at least one photon."""
    p = np.asarray(sino.values, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("sinogram contains non-finite values")
    if p.min() < -1e-9:
        raise ValueError(f"sinogram has negative line integrals (min {p.min():g})")
    flux = dose.i0 * dose.dose_fraction
    rng = np.random.default_rng(seed)
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


def _filter(values, geom, out):
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
    if not np.isfinite(values).all():
        raise ValueError("sinogram contains non-finite values")

    d = geom.detector_spacing_mm
    n_det = geom.n_detectors
    n_pad = 1 << int(math.ceil(math.log2(max(64, 2 * n_det))))
    ramp = np.fft.fft(_ramp_kernel(n_pad, d)).real

    buf = np.empty((min(_FILTER_VIEWS, geom.n_views), n_pad), dtype=np.complex128)
    for v in range(0, geom.n_views, _FILTER_VIEWS):
        views = slice(v, v + _FILTER_VIEWS)
        spectra = buf[:len(values[views])]
        np.fft.fft(values[views], n=n_pad, axis=1, out=spectra)
        spectra *= ramp
        np.fft.ifft(spectra, axis=1, out=spectra)
        np.multiply(spectra.real[:, :n_det], d, out=out[views])


def _backproject(packed, geom):
    """Linear-interpolation backprojection, summed view after view and
    unscaled, of two sinograms' filtered views packed into the real and
    imaginary parts of complex128 ones; each part of the result is bitwise
    that part's own real backprojection. Each pixel depends only on its
    own coordinates, so bands of image rows run on ``_run``'s threads, each
    band summing all views in order; the bits do not depend on the band
    count. A band builds the detector positions of ``_SWEEP_VIEWS`` views at
    a time; a division by a detector spacing of 1.0 is exact and skipped."""
    size = geom.image_size
    n_det = geom.n_detectors
    d = geom.detector_spacing_mm
    coords = (np.arange(size) - (size - 1) / 2.0) * geom.pixel_spacing_mm
    det_index = np.arange(n_det, dtype=np.float64)
    center = (n_det - 1) / 2.0
    sin = np.array([math.sin(theta) for theta in geom.angles])[:, None, None]
    cos = np.array([math.cos(theta) for theta in geom.angles])[:, None, None]
    recon = np.zeros((size, size), dtype=np.complex128)

    def sweep(take):
        while (rows := take()) is not None:
            band = recon[rows]
            idx = np.empty((min(_SWEEP_VIEWS, len(sin)),) + band.shape)
            for v in range(0, len(sin), _SWEEP_VIEWS):
                views = slice(v, v + _SWEEP_VIEWS)
                # a view's positions are coords[row] * sin + coords * cos, as
                # each view's own np.add would make them
                block = idx[:len(sin[views])]
                np.add(coords[rows, None] * sin[views], coords * cos[views], out=block)
                if d != 1.0:
                    block /= d
                block += center
                for vi, view in enumerate(block, v):
                    band += np.interp(view.ravel(), det_index, packed[vi], left=0.0,
                                      right=0.0).reshape(band.shape)

    n_bands = max(1, min(_THREADS, size // _BAND_ROWS))
    width = -(-size // n_bands)
    _run(sweep, [slice(r, r + width) for r in range(0, size, width)])
    return recon


def fbp(*sinograms):
    """Filtered back projection of sinograms of one geometry, read from the
    sinograms: per-view Ram-Lak (band-limited ramp) filtering in the
    frequency domain, then linear-interpolation backprojection scaled by
    pi/n_views. Returns one image per sinogram, in order. The two parts of
    the complex buffer are written apart, never summed as ``a + 1j * b``:
    ``0 * inf`` would make a NaN in the other part. A sinogram holding NaN
    or inf is rejected."""
    if not sinograms:
        raise ValueError("fbp needs at least one sinogram")
    geom = sinograms[0].geometry
    if other := [sino.geometry for sino in sinograms if sino.geometry != geom]:
        raise ValueError(f"fbp got sinograms of different geometries: {geom} and {other[0]}")
    packed = np.empty((geom.n_views, geom.n_detectors), dtype=np.complex128)
    images = []
    for k in range(0, len(sinograms), 2):
        two = sinograms[k:k + 2]
        _filter(two[0].values, geom, packed.real)
        if len(two) == 2:
            _filter(two[1].values, geom, packed.imag)
        else:
            packed.imag = 0.0
        recon = _backproject(packed, geom)
        for part in (recon.real, recon.imag)[:len(two)]:
            part *= np.pi / geom.n_views
            images.append(CtImage(part.astype(np.float32), MU_PER_MM, geom.pixel_spacing_mm))
    return images


# -- paired-dose dataset -------------------------------------------------


@dataclass(frozen=True)
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
    nd_sino = insert_poisson_noise(sino, replace(dose, dose_fraction=1.0), noise_seed)
    ld_sino = insert_poisson_noise(sino, dose, noise_seed)
    nd, ld = (_clamp_hu(mu_to_hu(img)) for img in fbp(nd_sino, ld_sino))
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
    higher-numbered pairs an earlier, larger dataset left in ``out_dir``.

    The manifest records the pairs' one pixel spacing as
    ``geom.pixel_spacing_mm``, which a caller's value must equal; a refused
    manifest writes nothing. An earlier manifest is deleted before any pair
    is written and the new one last, so a save cut short leaves nothing
    ``load_dataset`` reads.
    """
    spacings = {img.pixel_spacing_mm for pair in pairs for img in (pair.ld, pair.nd)}
    if len(spacings) != 1:
        raise ValueError(f"save_dataset needs pairs of one pixel spacing, "
                         f"got {sorted(spacings)}")
    spacing = spacings.pop()
    given = manifest.get("geom.pixel_spacing_mm", spacing)
    if given != spacing:
        raise ValueError(f"geom.pixel_spacing_mm {given!r} contradicts the pairs' {spacing}")
    text = format_key_values({**manifest, "geom.pixel_spacing_mm": spacing})
    out = Path(out_dir)
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    (out / "manifest").unlink(missing_ok=True)
    for stale in (out / "pairs").iterdir():
        if stale.name.isdecimal() and int(stale.name) >= len(pairs):
            shutil.rmtree(stale)
    for i, pair in enumerate(pairs):
        pdir = out / "pairs" / str(i)
        pdir.mkdir(exist_ok=True)
        write_tensor(pdir / "ld.tct", pair.ld.grid.astype(np.float32))
        write_tensor(pdir / "nd.tct", pair.nd.grid.astype(np.float32))
    (out / "manifest").write_text(text, encoding="utf-8")


def load_manifest(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: manifest is not UTF-8 text: {exc}") from None
    return {key: value for _, key, value in parse_key_values(text, path)}


# |HU| beyond this is no CT number (extended scanner scales end near 3e4
# HU): in a dataset file it is damage, such as a flipped exponent bit, and
# near 1e23 HU it overflows float32 training
MAX_ABS_HU = 1e6


def _read_pair_image(path, spacing):
    """One HU image of a dataset pair; its errors name the file."""
    grid = read_tensor(path)
    if grid.ndim != 2 or not (np.abs(grid) <= MAX_ABS_HU).all():
        raise ValueError(f"{path}: not a 2-d image of finite values within "
                         f"±{MAX_ABS_HU:g} HU (shape {grid.shape})")
    return CtImage(grid, HU, spacing)


def load_dataset(data_dir):
    """Read back a dataset directory; returns (pairs, manifest dict).

    A damaged dataset raises ``ValueError`` (``TensorFormatError`` for a
    pair file that is not a tensor) or ``OSError``, naming the file."""
    root = Path(data_dir)
    if not (root / "manifest").exists():
        raise FileNotFoundError(f"no dataset manifest under {root}")
    manifest = load_manifest(root / "manifest")
    text = manifest.get("geom.pixel_spacing_mm", "1.0")
    try:
        spacing = float(text)
    except ValueError:
        spacing = math.nan
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"{root / 'manifest'}: geom.pixel_spacing_mm must be finite "
                         f"and > 0, got {text!r}")
    pair_dirs = list((root / "pairs").iterdir())
    if not pair_dirs:
        raise ValueError(f"dataset {root}: pairs/ holds no pairs")
    for pdir in pair_dirs:
        if not pdir.name.isdecimal():
            raise ValueError(f"dataset {root}: {pdir.name!r} under pairs/ is not a pair index")
    pairs = []
    for i, pdir in enumerate(sorted(pair_dirs, key=lambda p: (int(p.name), p.name))):
        if pdir.name != str(i):  # index i is missing, or a second entry holds an index
            raise ValueError(f"dataset {root}: pairs/ lacks or repeats pair index "
                             f"{min(i, int(pdir.name))} (at {pdir.name!r})")
        ld, nd = (_read_pair_image(pdir / name, spacing) for name in ("ld.tct", "nd.tct"))
        try:
            pairs.append(TrainingPair(ld=ld, nd=nd))
        except ValueError as exc:
            raise ValueError(f"{pdir}: {exc}") from None
    return pairs, manifest
