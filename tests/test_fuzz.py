"""Seeded fuzz of the files the package reads from outside: a checkpoint,
a tensor file, a config file and a dataset directory, each damaged by byte
flips and truncations, or by stray entries. Every outcome must be a
success or the reader's typed error."""

import logging
import shutil

import numpy as np
import pytest

from ctdenoise.cli import main
from ctdenoise.config import ConfigError, load_run_config
from ctdenoise.ctsim import load_dataset
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


DATASET_CFG = """\
data.n_pairs = 3
data.size = 32
data.n_views = 30
model.width = 0.0625
model.n_heads = 1
model.ffn_mult = 1
train.epochs = 1
train.val_pairs = 1
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A simulated 3-pair dataset at 32x32 and the config that trains on it."""
    root = tmp_path_factory.mktemp("fuzz_dataset")
    (root / "run.cfg").write_text(DATASET_CFG)
    assert main(["simulate", "--config", str(root / "run.cfg"), "--out", str(root / "data")]) == 0
    return root


def load_or_refuse(data):
    """``load_dataset(data)``; any error must be a ValueError (a
    TensorFormatError among them) or an OSError that names a path under
    ``data``. The ``train`` command must then exit 0 or 1: load_dataset's
    errors are exit 1, and a damaged image must not pass as a divergence
    (exit 3)."""
    root = data.parent
    logging.disable(logging.CRITICAL)
    try:
        code = main(["train", "--config", str(root / "run.cfg"), "--data", str(data),
                     "--out", str(root / "model"), "--force"])
    finally:
        logging.disable(logging.NOTSET)
    try:
        load_dataset(data)
    except (ValueError, OSError) as exc:
        if str(data) not in str(exc):
            pytest.fail(f"{type(exc).__name__} names no file of the dataset: {exc}")
        assert code == 1, f"train exited {code} on a dataset load_dataset refuses"
        raise
    assert code == 0, f"train exited {code} on a dataset load_dataset reads"


@pytest.mark.parametrize("name,seed", [("manifest", 3), ("pairs/0/ld.tct", 4),
                                       ("pairs/2/nd.tct", 5)])
def test_dataset_file(dataset, tmp_path, capsys, name, seed):
    data = tmp_path / "data"
    shutil.copytree(dataset / "data", data)
    shutil.copy(dataset / "run.cfg", tmp_path)
    raw = (data / name).read_bytes()
    head = len(raw) if name == "manifest" else 16
    ok = fuzz(data / name, raw, 100, seed=seed, head=head, read=lambda _: load_or_refuse(data),
              typed=(ValueError, OSError))
    assert 0 < ok < 100


STRAY_NAMES = ("3", "7", "01", "\u0663", "-1", "1.5", "notes", ".DS_Store")
STRAY_KINDS = ("file", "empty directory", "copy of pair 0", "pair without nd.tct")


def test_stray_pair_entries(dataset, tmp_path, capsys):
    # a decimal name ("01" and the Arabic-Indic digit three included) is
    # read as a pair, so a stray copy of a pair loads; anything else is an
    # error that names the entry or the file it lacks
    rng = np.random.default_rng(6)
    shutil.copy(dataset / "run.cfg", tmp_path)
    ok = 0
    for trial in range(16):
        data = tmp_path / "data"
        shutil.rmtree(data, ignore_errors=True)
        shutil.copytree(dataset / "data", data)
        name = STRAY_NAMES[rng.integers(len(STRAY_NAMES))]
        kind = STRAY_KINDS[rng.integers(len(STRAY_KINDS))]
        entry = data / "pairs" / name
        if kind == "file":
            entry.write_bytes(rng.bytes(int(rng.integers(0, 64))))
        elif kind == "empty directory":
            entry.mkdir()
        else:
            shutil.copytree(data / "pairs" / "0", entry)
            if kind == "pair without nd.tct":
                (entry / "nd.tct").unlink()
        try:
            load_or_refuse(data)
            ok += 1
        except (ValueError, OSError):
            pass
        except Exception as exc:
            pytest.fail(f"trial {trial} ({name!r}, {kind}): {type(exc).__name__}: {exc}")
    assert 0 < ok < 16
