"""Command-line front end.

Subcommands cover the whole pipeline: simulate a paired-dose dataset,
inspect the band split, train (including ablation variants), denoise a
single image, and score results. Exit codes: 0 success, 1 runtime failure
or a config value a dataclass rejects, 2 bad usage or config text that does
not parse, 3 training divergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .config import SCHEMA, ConfigError, RunConfig, load_run_config
from .ctsim import HU, MAX_ABS_HU, CtImage, load_dataset, make_dataset, save_dataset
from .freq import decompose
from .metrics import evaluate_pairs
from .model import VARIANTS, build_model, count_parameters
from .tctio import read_tensor, write_tensor
from .tensor import ShapeError
from .training import (
    TrainingDiverged,
    check_training_pairs,
    denoise_image,
    load_checkpoint,
    train,
)

log = logging.getLogger(__name__)

def _resolve_config(args, fallback=None):
    """Defaults, then ``--config`` (or else ``fallback``), then command-line overrides."""
    seeds = {} if args.seed is None else {k: args.seed for k in SCHEMA if k.endswith(".seed")}
    return load_run_config(args.config or fallback, seeds)


def _read_image(path):
    """A 2-d HU image whose finite pixels lie within ±``MAX_ABS_HU``; NaN
    and inf are left to ``decompose``."""
    arr = read_tensor(path)
    if arr.ndim != 2:
        raise ShapeError(f"{path}: expected a 2-d image tensor, got shape {arr.shape}")
    if (np.abs(arr[np.isfinite(arr)]) > MAX_ABS_HU).any():
        raise ValueError(f"{path}: image holds a pixel beyond ±{MAX_ABS_HU:g} HU")
    return arr


# -- commands ---------------------------------------------------------------


def cmd_simulate(args):
    cfg = _resolve_config(args)
    out = Path(args.out)
    if (out / "manifest").exists() and not args.force:
        raise FileExistsError(f"{out} already holds a dataset; pass --force to overwrite")
    geom = cfg.geometry()
    pairs = make_dataset(
        n_pairs=cfg["data.n_pairs"],
        size=cfg["data.size"],
        dose=cfg.dose_config(),
        seed=cfg["data.seed"],
        geom=geom,
        n_ellipses=cfg["data.n_ellipses"],
    )
    manifest = dict(cfg.values)
    manifest.update(
        {
            "geom.n_detectors": geom.n_detectors,
            "geom.detector_spacing_mm": geom.detector_spacing_mm,
            "geom.pixel_spacing_mm": geom.pixel_spacing_mm,
        }
    )
    save_dataset(pairs, out, manifest)
    print(f"wrote {len(pairs)} pairs of {cfg['data.size']}x{cfg['data.size']} images to {out}")
    return 0


def cmd_decompose(args):
    cfg = _resolve_config(args)
    arr = _read_image(args.input)
    low, high = decompose(arr, cfg["model.sigma"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "low.tct", low)
    write_tensor(out / "high.tct", high)
    err = float(np.abs(low + high - arr).max())
    print(f"wrote {out}/low.tct and {out}/high.tct; max recomposition error {err:.3e}")
    return 0


def _split_pairs(pairs, val_n):
    if val_n < 0:
        raise ConfigError(f"train.val_pairs must be >= 0, got {val_n}")
    if val_n >= len(pairs):
        raise ConfigError(
            f"train.val_pairs = {val_n} leaves no training data out of {len(pairs)} pairs"
        )
    if val_n == 0:
        return pairs, []
    return pairs[:-val_n], pairs[-val_n:]


def _fit(model, cfg, out, force, train_pairs, val_pairs):
    """Train ``model``, built from ``cfg``, into ``out`` (checks before
    anything is written, ``run.cfg``, train). Returns the TrainResult."""
    train_cfg = cfg.train_config()
    check_training_pairs(train_pairs, val_pairs)
    if (out / "checkpoint.tck").exists() and not force:
        raise FileExistsError(f"{out} already holds a checkpoint; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(cfg.dump())
    log.info("-- %s (%d parameters)", out, count_parameters(model))
    return train(model, train_pairs, val_pairs, train_cfg, out)


def _score(images, pairs, cfg):
    """Score images against the pairs' normal-dose grids."""
    return evaluate_pairs(images, [p.nd.grid for p in pairs], cfg["eval.data_range"] or None)


def cmd_train(args):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    cfg = _resolve_config(args)
    pairs, _ = load_dataset(args.data)
    train_pairs, val_pairs = _split_pairs(pairs, cfg["train.val_pairs"])
    model = build_model(cfg.model_config())
    result = _fit(model, cfg, Path(args.out), args.force, train_pairs, val_pairs)
    print(
        f"trained {cfg['model.variant']} for {result.epochs_run} epochs: "
        f"train mse {result.final_train_mse:.3e}, val rmse {result.final_val_rmse:.2f} HU"
    )
    return 0


def cmd_denoise(args):
    model, epoch = load_checkpoint(args.checkpoint)
    arr = _read_image(args.input)
    out = Path(args.out)
    if out.exists() and not args.force:
        raise FileExistsError(f"{out} exists; pass --force to overwrite")
    result = denoise_image(model, CtImage(arr.astype(np.float32), HU))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tensor(out, result.grid.astype(np.float32))
    print(f"denoised {arr.shape[0]}x{arr.shape[1]} image with epoch-{epoch} weights -> {out}")
    return 0


def cmd_eval(args):
    # without --config, split and score as the run that wrote the checkpoint did
    written = Path(args.checkpoint).with_name("run.cfg")
    cfg = _resolve_config(args, written if written.exists() else None)
    model, _ = load_checkpoint(args.checkpoint)
    pairs, _ = load_dataset(args.data)
    base = _score([p.ld.grid for p in pairs], pairs, cfg)
    ours = _score([denoise_image(model, p.ld).grid for p in pairs], pairs, cfg)
    # the rows cover every pair; say which of them train fitted
    try:
        fit, held = _split_pairs(pairs, cfg["train.val_pairs"])
        split = (f"the last {len(held)} held out by train.val_pairs, "
                 f"the first {len(fit)} trained on")
    except ConfigError as exc:
        split = f"no train split: {exc}"
    print(f"{len(pairs)} pairs (reference: normal dose; {split})")
    print(base.row("low-dose"))
    print(ours.row("denoised"))
    return 0


def cmd_ablate(args):
    """Train every architecture variant plus an FFN-width sweep on the full
    network, then score each run on the held-out pairs."""
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    cfg = _resolve_config(args)
    pairs, _ = load_dataset(args.data)
    train_pairs, val_pairs = _split_pairs(pairs, cfg["train.val_pairs"])

    runs = [(variant, {"model.variant": variant}) for variant in VARIANTS]
    runs += [
        (f"full-ffn{mult}", {"model.variant": "full", "model.ffn_mult": mult})
        for mult in (1, 2, 4, 8)
        if mult != cfg["model.ffn_mult"]
    ]

    rows = []
    for label, overrides in runs:
        rcfg = RunConfig({**cfg.values, **overrides})
        model = build_model(rcfg.model_config())
        try:
            _fit(model, rcfg, Path(args.out) / label, args.force, train_pairs, val_pairs)
        except TrainingDiverged:
            rows.append((label, count_parameters(model), None))
            continue
        preds = [denoise_image(model, p.ld).grid for p in val_pairs]
        report = _score(preds, val_pairs, rcfg) if val_pairs else None
        rows.append((label, count_parameters(model), report))

    print(f"{'config':<16} {'params':>10} {'rmse_hu':>9} {'ssim':>7} {'vif':>7}")
    for label, n_params, report in rows:
        if report is None:
            print(f"{label:<16} {n_params:>10} {'diverged or no val pairs':>25}")
        else:
            print(
                f"{label:<16} {n_params:>10} {report.rmse_mean:>9.3f} "
                f"{report.ssim_mean:>7.4f} {report.vif_mean:>7.4f}"
            )
    return 0


# -- parser -----------------------------------------------------------------


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key = value config file")
    shared.add_argument("--seed", type=int, help="override data/model/train seeds")

    parser = argparse.ArgumentParser(
        prog="ctdenoise",
        description="Dual-path transformer denoising for low-dose CT, end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[shared], help="generate a paired-dose dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", parents=[shared], help="split an image into bands")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train", parents=[shared], help="train a denoiser")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", parents=[shared], help="denoise one image tensor")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", parents=[shared], help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[shared], help="train and compare all variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
