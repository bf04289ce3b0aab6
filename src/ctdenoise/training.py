"""Supervised training on paired-dose images.

Pairs arrive in HU; both doses are converted to water-relative attenuation
(mu / mu_water = 1 + HU/1000, so air is 0 and water 1) and the low-dose
side is band-split before entering the network. The loss is mean squared
error against the normal-dose attenuation image. Validation runs the full
denoising path and reports RMSE back in HU.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .checks import check_field_types
from .ctsim import AIR_HU, HU, MAX_ABS_HU, CtImage, TrainingPair
from .freq import decompose
from .metrics import rmse
from .model import INPUT_MULTIPLE, ModelConfig, TransCT
from .optim import AdamState, adam_step, clip_grad_norm
from .tensor import NonFiniteError, ShapeError, Tensor, mul, no_grad, sub, tmean
from .tctio import TensorFormatError, frame_header, tensor_from_bytes

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"TCK1"


class TrainingDiverged(RuntimeError):
    """Raised when training goes non-finite; the last epoch checkpoint on
    disk, if the run wrote one, predates the divergence."""


class CheckpointError(ValueError):
    """A checkpoint file failed to parse or does not fit the model its
    config describes."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 8
    lr_schedule: tuple = ((0, 1e-4), (180, 1e-5))
    seed: int = 0
    # Cap on the global gradient norm; without any normalization layers
    # the residual attention stacks occasionally take one catastrophic
    # step at high lr, and a finite-but-huge spike wrecks the run. 0 = off.
    clip_norm: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ValueError(f"clip_norm must be finite and >= 0, got {self.clip_norm}")
        if not isinstance(self.lr_schedule, (tuple, list)):
            raise TypeError(f"lr_schedule must be a tuple of pairs, got {self.lr_schedule!r}")
        for pair in self.lr_schedule:
            # bool subclasses int; an int or a float rate is taken, as a float field takes it
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and isinstance(pair[0], int) and isinstance(pair[1], (int, float))
                    and not any(isinstance(v, bool) for v in pair)):
                raise TypeError(f"lr_schedule must be (int epoch, float rate) pairs, got {pair!r}")
        sched = tuple((e, float(lr)) for e, lr in self.lr_schedule)
        if not sched or sched[0][0] != 0:
            raise ValueError("lr_schedule must start at epoch 0")
        epochs = [e for e, _ in sched]
        if epochs != sorted(set(epochs)):
            raise ValueError(f"lr_schedule epochs must strictly increase, got {epochs}")
        if not all(math.isfinite(lr) and lr >= 0 for _, lr in sched):
            raise ValueError(f"lr_schedule learning rates must be finite and non-negative, "
                             f"got {[lr for _, lr in sched]}")
        object.__setattr__(self, "lr_schedule", sched)


def lr_at(schedule, epoch):
    lr = schedule[0][1]
    for start, value in schedule:
        if epoch >= start:
            lr = value
    return lr


def mse_loss(pred, target):
    """Mean over all elements of the squared difference."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes disagree: {pred.shape} vs {target.shape}")
    diff = sub(pred, target)
    return tmean(mul(diff, diff))


# -- inference helpers ----------------------------------------------------


def _hu_to_rel(grid):
    """HU -> water-relative attenuation (air 0, water 1); the mu_water
    magnitude cancels out of this ratio."""
    return (1.0 + grid.astype(np.float32) / 1000.0).astype(np.float32)


def _rel_to_hu(grid):
    return (grid.astype(np.float64) - 1.0) * 1000.0


def _pad_to_multiple(grid, multiple):
    H, W = grid.shape
    ph = (-H) % multiple
    pw = (-W) % multiple
    if ph or pw:
        grid = np.pad(grid, ((0, ph), (0, pw)), mode="reflect")
    return grid, (H, W)


def denoise_image(model, img):
    """Run the full path on one HU image: convert to relative attenuation,
    pad to a multiple of ``INPUT_MULTIPLE`` (reflected), band-split,
    denoise, crop, and convert back to HU (floored at air). An output
    holding NaN or inf raises NonFiniteError.

    The model runs under ``no_grad()``: no autograd graph is built, so
    conv2d builds its im2col columns one band of output rows at a time and
    applies a conv layer's leaky ReLU to each band in place, attention
    holds the scores of one block of query rows at a time, and every
    intermediate is freed once its op is done. A 512x512 image peaks at
    8.4 MiB of traced allocations through the width-0.25 model (150 MiB
    with a recorded graph) and at 24.5 MiB through the width-1.0 model."""
    if img.unit != HU:
        raise ValueError(f"denoise_image expects a HU image, got {img.unit!r}")
    padded, (H, W) = _pad_to_multiple(_hu_to_rel(img.grid), INPUT_MULTIPLE)
    low, high = decompose(padded, model.config.sigma)
    del padded  # the forward pass needs only the bands: 1 MiB at 512x512
    with no_grad():
        out = model(Tensor(low[None, None]), Tensor(high[None, None])).data[0, 0, :H, :W]
    if not np.isfinite(out).all():
        raise NonFiniteError("denoise_image: the model's output holds NaN or infinite values")
    hu = np.maximum(_rel_to_hu(out), AIR_HU).astype(np.float32)
    return CtImage(hu, HU, img.pixel_spacing_mm)


def validate(model, pairs):
    """Mean RMSE (HU) of denoised low-dose images against normal dose; a
    non-finite image raises NonFiniteError."""
    if not pairs:
        raise ValueError("validate needs at least one pair")
    return float(np.mean([rmse(denoise_image(model, p.ld).grid, p.nd.grid) for p in pairs]))


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(model, path, epoch):
    """Single-file checkpoint: JSON header (config, epoch, parameter names)
    followed by one framed tensor per parameter, written straight from the
    parameter's float32 array. Written via a temp file so an interrupted
    save never clobbers the previous checkpoint."""
    named = list(model.named_parameters())
    header = {
        "config": asdict(model.config),
        "epoch": int(epoch),
        "names": [name for name, _ in named],
    }
    blob = json.dumps(header).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for _, p in named:
            # no copy for a C-contiguous float32 parameter on a little-endian host
            arr = np.asarray(p.data, dtype=np.float32, order="C")
            fh.write(frame_header(arr))
            fh.write(memoryview(arr.astype("<f4", copy=False)))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes from the config it stores
    and assign its parameters, once every check has passed. The model is
    built with no generator, so it draws no initial weights, and each
    parameter is the file's data after one copy. Bytes after the last
    named tensor are an error, reported after a missing or misshapen
    parameter so that a header which lost a name says so.
    Returns (model, epoch)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    hlen = int.from_bytes(raw[4:8], "little")
    try:
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint header: {exc}") from None
    names = header.get("names") if isinstance(header, dict) else None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and isinstance(header.get("config"), dict) and type(header.get("epoch")) is int):
        raise CheckpointError(
            f"{path}: malformed checkpoint header, expected an object with "
            f"'names' (list of strings), 'config' (object) and 'epoch' (integer)"
        )
    offset = 8 + hlen
    arrays = {}
    try:
        for name in names:
            arrays[name], offset = tensor_from_bytes(raw, offset)
    except TensorFormatError as exc:
        raise CheckpointError(f"{path}: bad tensor payload: {exc}") from None
    try:
        model = TransCT(ModelConfig(**header["config"]), None)
    except (TypeError, ValueError, ArithmeticError, MemoryError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from None
    named = list(model.named_parameters())
    for name, p in named:
        if name not in arrays:
            raise CheckpointError(f"{path}: checkpoint is missing parameter {name}")
        if arrays[name].shape != tuple(p.shape):
            raise CheckpointError(f"{path}: parameter {name} has shape "
                                  f"{arrays[name].shape}, expected {tuple(p.shape)}")
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing {len(raw) - offset} bytes after the last tensor")
    for name, p in named:
        p.data = arrays[name].astype(np.float32, copy=False)
    return model, header["epoch"]


# -- the loop --------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    epochs_run: int
    final_train_mse: float
    final_val_rmse: float
    history: list = field(default_factory=list)


def _prepare(pairs, sigma):
    """HU pairs -> stacked relative-attenuation arrays (low band, high
    band, normal-dose target)."""
    lows, highs, targets = [], [], []
    for pair in pairs:
        low, high = decompose(_hu_to_rel(pair.ld.grid), sigma)
        lows.append(low)
        highs.append(high)
        targets.append(_hu_to_rel(pair.nd.grid))
    stack = lambda xs: np.stack(xs)[:, None].astype(np.float32)
    return stack(lows), stack(highs), stack(targets)


def _diverged(what, epoch, ckpt_path):
    """TrainingDiverged for non-finite ``what`` in ``epoch``; each earlier
    epoch of this run wrote ``ckpt_path``."""
    kept = (f"the epoch-{epoch - 1} checkpoint is kept at {ckpt_path}" if epoch
            else "this run wrote no checkpoint")
    return TrainingDiverged(f"non-finite {what} epoch {epoch}; {kept}")


def check_training_pairs(pairs, val_pairs):
    """Raise unless there is at least one training pair, every training
    pair has the first one's shape, whose sides are multiples of
    ``INPUT_MULTIPLE``, and every pixel of every pair, validation pairs
    included, lies within ±``MAX_ABS_HU``, the bound ``load_dataset`` holds
    files to. A validation pair may have any shape: ``denoise_image`` pads
    it."""
    if not pairs:
        raise ValueError("train needs at least one pair")
    H, W = pairs[0].ld.grid.shape
    if H % INPUT_MULTIPLE or W % INPUT_MULTIPLE:
        raise ShapeError(
            f"training patches must be multiples of {INPUT_MULTIPLE}, got {H}x{W}")
    for i, pair in enumerate(pairs):
        if pair.ld.grid.shape != (H, W):
            h, w = pair.ld.grid.shape
            raise ShapeError(f"training pair {i} is {h}x{w}, but pair 0 is {H}x{W}; "
                             "training pairs must share one shape")
    for kind, group in (("training", pairs), ("validation", val_pairs)):
        for i, pair in enumerate(group):
            for side in ("ld", "nd"):
                if not (np.abs(getattr(pair, side).grid) <= MAX_ABS_HU).all():
                    raise ValueError(f"{kind} pair {i}: the {side} image holds a pixel "
                                     f"beyond ±{MAX_ABS_HU:g} HU")


def train(model, pairs, val_pairs, cfg, out_dir):
    """Run the optimization loop.

    Writes ``checkpoint.tck`` and ``history.csv`` under ``out_dir`` after
    every epoch; a ``checkpoint.tck`` already there is removed before
    epoch 0. A non-finite loss, parameter or validation image raises
    TrainingDiverged and leaves the previous epoch's checkpoint in place;
    at epoch 0 no checkpoint is written.
    """
    check_training_pairs(pairs, val_pairs)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.tck")
    hist_path = os.path.join(out_dir, "history.csv")

    lows, highs, targets = _prepare(pairs, model.config.sigma)
    params = model.parameters()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    n = len(pairs)

    history = []
    if os.path.exists(ckpt_path):
        os.remove(ckpt_path)
    with open(hist_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["epoch", "lr", "train_mse", "val_rmse_hu", "seconds"])

    final_mse = float("nan")
    final_val = float("nan")
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = lr_at(cfg.lr_schedule, epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x_low = Tensor(lows[idx])
            x_high = Tensor(highs[idx])
            target = Tensor(targets[idx])
            pred = model(x_low, x_high)
            loss = mse_loss(pred, target)
            value = loss.item()
            if not np.isfinite(value):
                raise _diverged("loss at", epoch, ckpt_path)
            model.zero_grad()
            loss.backward()
            # backward() freed the graph; drop the output image and the loss
            # too, not when the next forward pass rebinds these names
            del pred, loss
            grads = [p.grad for p in params]
            if cfg.clip_norm > 0:
                clip_grad_norm(grads, cfg.clip_norm)
            adam_step(params, grads, state, lr)
            losses.append(value)

        final_mse = float(np.mean(losses))
        try:
            final_val = validate(model, val_pairs) if val_pairs else float("nan")
        except NonFiniteError:
            raise _diverged("activations during validation at", epoch, ckpt_path) from None
        seconds = time.perf_counter() - t0
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_mse": final_mse,
            "val_rmse_hu": final_val,
            "seconds": seconds,
        }
        history.append(row)
        with open(hist_path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                [epoch, f"{lr:g}", f"{final_mse:.8e}", f"{final_val:.4f}", f"{seconds:.2f}"]
            )
        if any(not np.isfinite(p.data).all() for p in params):
            raise _diverged("parameters after", epoch, ckpt_path)
        save_checkpoint(model, ckpt_path, epoch)
        log.info(
            "epoch %d lr %g train_mse %.3e val_rmse %.2f HU (%.1fs)",
            epoch, lr, final_mse, final_val, seconds,
        )

    return TrainResult(
        epochs_run=cfg.epochs,
        final_train_mse=final_mse,
        final_val_rmse=final_val,
        history=history,
    )
