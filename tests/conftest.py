"""Shared fixtures and the finite-difference gradient harness."""

import json
from contextlib import contextmanager

import numpy as np
import pytest

import ctdenoise as cd
from ctdenoise import model as model_module
from ctdenoise.model import MultiHeadAttention, TransCT
from ctdenoise.tensor import Tensor, mul, tsum
from ctdenoise.training import CHECKPOINT_MAGIC

# .tck headers that are valid JSON but not what save_checkpoint writes
MALFORMED_HEADERS = {
    "empty": {},
    "array": [],
    "names_int": {"names": 5},
    "names_not_str": {"names": [1], "config": {}, "epoch": 0},
    "config_int": {"names": [], "config": 5, "epoch": 0},
    "width_fraction": {"names": [], "config": {"width": 0.3}, "epoch": 0},
    "variant_unknown": {"names": [], "config": {"variant": "nope"}, "epoch": 0},
    "heads_zero": {"names": [], "config": {"n_heads": 0}, "epoch": 0},
    "width_overflow": {"names": [], "config": {"width": 1e308}, "epoch": 0},
    "config_unknown_key": {"names": [], "config": {"depth": 3}, "epoch": 0},
    "sigma_inf": {"names": [], "config": {"sigma": float("inf")}, "epoch": 0},
    "sigma_nan": {"names": [], "config": {"sigma": float("nan")}, "epoch": 0},
    # models whose first weight allocation fails at once: TiB, PiB
    "width_too_large": {"names": [], "config": {"width": 1e9}, "epoch": 0},
    "pos_too_large": {"names": [], "config": {"use_positional": True,
                                              "pos_image_size": 320000000}, "epoch": 0},
}


def write_header_only_checkpoint(path, header):
    """A .tck file holding ``header`` and no tensors."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob)


@contextmanager
def stage_shapes():
    """Record the shapes of the TransCT forward passes run inside the block.

    Watches from outside, as ``perfbench/tracer.py`` does: the model's
    stage methods, the ``tokenize`` and ``pixel_shuffle`` that ``model.py``
    looks up by name, and ``MultiHeadAttention.__call__`` are wrapped, and
    every wrap is undone on exit. Yields a dict that fills with
    ``trunk``, ``x_lc1``, ``x_lc2`` (content column), ``x_lt`` (texture
    column, full variant), ``x_hf`` (high-band path), ``s_l`` and ``s_h``
    (low- and high-band tokens), ``y`` (input to reconstruction),
    ``stage1``, ``stage2`` (its two blocks), ``out``, and ``memory_reads``,
    the count of attention calls given a separate key/value stream."""
    shapes, seen = {}, {}
    patch = pytest.MonkeyPatch()

    def wrap(owner, name, record):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            record(out, *args, **kwargs)
            return out
        patch.setattr(owner, name, wrapper)

    def content_column(out, model, x):
        seen["content"] = out[2]
        shapes.update(trunk=out[0].shape, x_lc1=out[1].shape, x_lc2=out[2].shape)

    def hf_features(out, model, x):
        seen["high"] = out
        shapes["x_hf"] = out.shape

    def tokenize(out, x):
        if x is seen.get("high"):
            shapes["s_h"] = out.shape
            return
        if x is not seen.get("content"):  # the texture column's output
            shapes["x_lt"] = x.shape
        shapes["s_l"] = out.shape

    def pixel_shuffle(out, x, r):
        if r == 2:
            shapes["stage1"] = out.shape
        else:
            shapes["stage2"] = x.shape

    def reconstruct(out, model, y, c1, c2):
        shapes.update(y=y.shape, out=out.shape)

    def attention(out, module, q, kv=None):
        if kv is not None:
            shapes["memory_reads"] = shapes.get("memory_reads", 0) + 1

    wrap(TransCT, "_content_column", content_column)
    wrap(TransCT, "_hf_features", hf_features)
    wrap(TransCT, "_reconstruct", reconstruct)
    wrap(model_module, "tokenize", tokenize)
    wrap(model_module, "pixel_shuffle", pixel_shuffle)
    wrap(MultiHeadAttention, "__call__", attention)
    try:
        yield shapes
    finally:
        patch.undo()


def rel_err(a, b):
    """max |a-b| over max(|a|, |b|, 1e-6) — the audit metric used by every
    gradient comparison in this suite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-6)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def gradcheck(op, arrays, tol=1e-4, h=1e-5, seed=0):
    """Compare reverse-mode gradients of ``op(*tensors)`` against central
    finite differences in float64.

    The op output is reduced to a scalar through a fixed random projection
    so that every output element carries a distinct gradient signal.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    probe_holder = {}

    def run(arrs):
        tensors = [Tensor(a, requires_grad=True) for a in arrs]
        out = op(*tensors)
        if "probe" not in probe_holder:
            probe_holder["probe"] = np.random.default_rng(seed).normal(size=out.shape)
        loss = tsum(mul(out, Tensor(probe_holder["probe"])))
        return loss, tensors

    loss, tensors = run(arrays)
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else None for t in tensors]

    for i, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = [a.copy() for a in arrays]
            bumped[i][idx] += h
            up, _ = run(bumped)
            bumped[i][idx] -= 2 * h
            down, _ = run(bumped)
            numeric[idx] = (up.item() - down.item()) / (2 * h)
        err = rel_err(analytic[i], numeric)
        assert err < tol, f"operand {i}: gradient rel err {err:.3e} >= {tol:g}"
    return analytic


@pytest.fixture(scope="session")
def dataset10():
    """Ten paired-dose 64x64 images at quarter dose; shared across modules
    because generation costs a few seconds."""
    return cd.make_dataset(10, 64, cd.DoseConfig(i0=3e4, dose_fraction=0.25), seed=42)


@pytest.fixture(scope="session")
def tiny_model():
    """Smallest legal full model: width 1/16 gives 4/8/16 channels."""
    return cd.build_model(cd.ModelConfig(width=0.0625, n_heads=2, ffn_mult=2, seed=3))
