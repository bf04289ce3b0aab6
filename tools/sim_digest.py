"""Digests of the simulator's and the model's output on fixed cases, for
bitwise comparisons.

    python3 tools/sim_digest.py [SRC] [--max-size N]

prints one ``case sha256`` line per case, computed with the ``ctdenoise``
package under ``SRC/src`` (default: the checkout holding this script). A
claim that a change leaves the simulator's or the model's bits alone is then
a ``diff`` of two checkouts' output:

    diff <(python3 tools/sim_digest.py ../parent) <(python3 tools/sim_digest.py .)

The cases:

- ``dataset{size}_sp{sp}_s{seed}``: ``make_dataset(2, size, DoseConfig(),
  seed, geom=default_geometry(size, pixel_spacing_mm=sp))``, hashed over
  each pair's ``ld`` then ``nd`` bytes; 64x64 with seeds 0 and 1, 128x128
  with seeds 0 and 1, and 64x64 at 0.7 mm with seed 0.
- ``pair512_s{seed}``: ``simulate_pair(seed, 0, 512, DoseConfig(),
  default_geometry(512))`` with seed 3, hashed the same way.
- ``sino{n}_sp{sp}_s{seed}``: the 360-view sinogram of a grid-filling image,
  ``default_rng(seed).random((n, n)).astype(float32)`` with seed 3, on
  ``default_geometry(n, pixel_spacing_mm=sp)``; the grids 64/1.0, 65/0.7
  and 33/1.3 are drawn from one generator in that order.
- ``denoise{n}_s{seed}``: ``denoise_image`` through
  ``build_model(ModelConfig(width=0.25, seed=seed))`` of
  ``make_phantom([seed, n], n)`` plus N(0, 20 HU) noise,
  ``default_rng(seed + n).normal(0, 20, (n, n)).astype(float32)``, with
  seed 0 at 64x64, 96x96 and 512x512; hashed over the output's bytes.
- ``denoise64_{variant}_s{seed}``: the same 64x64 case through
  ``build_model(ModelConfig(width=0.25, variant=variant, seed=seed))`` for
  the ``no_transformer`` and ``no_dual_path`` variants, with seed 0, so a
  bitwise claim about model code covers every variant.
- ``train64_s{seed}``: ``checkpoint.tck`` after ``train`` of
  ``build_model(ModelConfig(width=0.25, seed=seed))`` on the first 8 pairs
  of ``make_dataset(9, 64, DoseConfig(i0=2e4, dose_fraction=0.25), seed)``,
  validated on the ninth, for 20 epochs at batch 8 and lr 1e-3 with
  ``TrainConfig.seed = seed``, with seed 1: the benchmark's ``train64``
  configuration, one step per epoch.
- ``train32x16_s{seed}``: the same on the first 16 of 17 pairs at 32x32
  for 5 epochs, so two steps per epoch, with seed 1.

``--max-size N`` skips the cases larger than N x N.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

DATASETS = ((64, 1.0, 0), (64, 1.0, 1), (128, 1.0, 0), (128, 1.0, 1), (64, 0.7, 0))
GRIDS = ((64, 1.0), (65, 0.7), (33, 1.3))
DENOISED = (64, 96, 512)
ABLATIONS = ("no_transformer", "no_dual_path")


def _pairs_digest(pairs):
    h = hashlib.sha256()
    for pair in pairs:
        h.update(pair.ld.grid.tobytes())
        h.update(pair.nd.grid.tobytes())
    return h.hexdigest()


def _denoise_digest(cd, model, n, seed):
    ctsim = cd.ctsim
    phantom = ctsim.make_phantom([seed, n], n)
    noise = np.random.default_rng(seed + n).normal(0, 20, (n, n)).astype(np.float32)
    out = cd.denoise_image(model, ctsim.CtImage(phantom.grid + noise, ctsim.HU))
    return hashlib.sha256(out.grid.tobytes()).hexdigest()


def _train_digest(cd, n_train, size, epochs, seed):
    dose = cd.DoseConfig(i0=2e4, dose_fraction=0.25)
    pairs = cd.make_dataset(n_train + 1, size, dose, seed=seed)
    model = cd.build_model(cd.ModelConfig(width=0.25, seed=seed))
    cfg = cd.TrainConfig(epochs=epochs, batch_size=8, lr_schedule=((0, 1e-3),), seed=seed)
    with tempfile.TemporaryDirectory() as out:
        cd.train(model, pairs[:n_train], pairs[n_train:], cfg, out)
        return hashlib.sha256((Path(out) / "checkpoint.tck").read_bytes()).hexdigest()


def digests(cd, seed=0, max_size=None):
    """``case sha256`` lines from the package ``cd``, with every case's
    seed offset by ``seed``."""
    def fits(size):
        return max_size is None or size <= max_size

    ctsim = cd.ctsim
    dose = ctsim.DoseConfig()
    lines = []
    for size, sp, s in DATASETS:
        if fits(size):
            geom = ctsim.default_geometry(size, pixel_spacing_mm=sp)
            pairs = ctsim.make_dataset(2, size, dose, seed=seed + s, geom=geom)
            lines.append(f"dataset{size}_sp{sp}_s{seed + s} {_pairs_digest(pairs)}")
    if fits(512):
        pair, _ = ctsim.simulate_pair(seed + 3, 0, 512, dose, ctsim.default_geometry(512))
        lines.append(f"pair512_s{seed + 3} {_pairs_digest([pair])}")
    rng = np.random.default_rng(seed + 3)
    for n, sp in GRIDS:
        grid = rng.random((n, n)).astype(np.float32)  # drawn whether or not it is projected
        if fits(n):
            img = ctsim.CtImage(grid, ctsim.MU_PER_MM, sp)
            sino = ctsim.forward_project(img, ctsim.default_geometry(n, pixel_spacing_mm=sp))
            lines.append(f"sino{n}_sp{sp}_s{seed + 3} "
                         f"{hashlib.sha256(sino.values.tobytes()).hexdigest()}")
    model = cd.build_model(cd.ModelConfig(width=0.25, seed=seed))
    for n in filter(fits, DENOISED):
        lines.append(f"denoise{n}_s{seed} {_denoise_digest(cd, model, n, seed)}")
    if fits(64):
        for variant in ABLATIONS:
            ablated = cd.build_model(cd.ModelConfig(width=0.25, variant=variant, seed=seed))
            lines.append(f"denoise64_{variant}_s{seed} {_denoise_digest(cd, ablated, 64, seed)}")
        lines.append(f"train64_s{seed + 1} {_train_digest(cd, 8, 64, 20, seed + 1)}")
    if fits(32):
        lines.append(f"train32x16_s{seed + 1} {_train_digest(cd, 16, 32, 5, seed + 1)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout whose src/ctdenoise is run")
    parser.add_argument("--max-size", type=int, help="skip cases larger than this")
    args = parser.parse_args(argv)
    package = (args.src / "src").resolve()
    sys.path.insert(0, str(package))
    import ctdenoise
    if not Path(ctdenoise.__file__).resolve().is_relative_to(package):
        parser.error(f"imported ctdenoise from {ctdenoise.__file__}, not from {package}")
    print("\n".join(digests(ctdenoise, 0, args.max_size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
