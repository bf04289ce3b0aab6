"""Seeded fuzz of the files the package reads from outside: a checkpoint,
a tensor file and a config file, each damaged by byte flips and
truncations. Every outcome must be a success or the reader's typed error."""

import numpy as np
import pytest

from ctdenoise.config import ConfigError, load_run_config
from ctdenoise.model import ModelConfig, build_model
from ctdenoise.tctio import TensorFormatError, read_tensor, write_tensor
from ctdenoise.training import CheckpointError, load_checkpoint, save_checkpoint

CONFIG = """\
# smoke run
data.n_pairs = 3
data.size = 64
data.n_views = 60
data.i0 = 2e4
data.dose_fraction = 0.25
model.width = 0.0625
model.n_heads = 2
model.ffn_mult = 2
model.variant = full
model.use_positional = true
train.epochs = 3
train.lr = 1e-3
train.val_pairs = 1
"""


def damaged(raw, trials, seed, head):
    """``trials`` copies of ``raw``, each with one byte replaced by another
    or cut short, from a fixed seed. Half the flips land in the first
    ``head`` bytes, where the file's structure is."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if rng.random() < 0.3:
            yield raw[:rng.integers(len(raw))]
            continue
        pos = rng.integers(min(head, len(raw)) if rng.random() < 0.5 else len(raw))
        buf = bytearray(raw)
        buf[pos] ^= int(rng.integers(1, 256))
        yield bytes(buf)


def fuzz(path, raw, trials, seed, head, read, typed):
    """Write each damaged copy of ``raw`` to ``path`` and ``read`` it;
    returns how many reads succeeded. Any error but ``typed`` fails the test
    with the damaged bytes' trial number."""
    ok = 0
    for i, buf in enumerate(damaged(raw, trials, seed, head)):
        path.write_bytes(buf)
        try:
            read(path)
            ok += 1
        except typed:
            pass
        except Exception as exc:
            pytest.fail(f"trial {i}: {type(exc).__name__}: {exc}")
    return ok


def test_checkpoint(tmp_path):
    model = build_model(ModelConfig(width=0.0625, n_heads=1, ffn_mult=1))
    path = tmp_path / "model.tck"
    save_checkpoint(model, path, epoch=4)
    raw = path.read_bytes()
    head = 8 + int.from_bytes(raw[4:8], "little") + 64
    ok = fuzz(path, raw, 300, seed=0, head=head, read=load_checkpoint, typed=CheckpointError)
    assert 0 < ok < 300


def test_tensor_file(tmp_path):
    path = tmp_path / "image.tct"
    write_tensor(path, np.random.default_rng(1).normal(size=(16, 16)).astype(np.float32))
    raw = path.read_bytes()
    ok = fuzz(path, raw, 400, seed=1, head=16, read=read_tensor, typed=TensorFormatError)
    assert 0 < ok < 400


def test_config_file(tmp_path):
    def read(path):
        cfg = load_run_config(path)
        try:  # a value that parses may still be one a config dataclass refuses
            cfg.model_config(), cfg.train_config(), cfg.dose_config(), cfg.geometry()
        except (ValueError, TypeError):
            pass

    ok = fuzz(tmp_path / "run.cfg", CONFIG.encode(), 400, seed=2, head=len(CONFIG),
              read=read, typed=ConfigError)
    assert 0 < ok < 400
