"""Shared fixtures and the finite-difference gradient harness."""

import json

import numpy as np
import pytest

import ctdenoise as cd
from ctdenoise.tensor import Tensor
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
}


def write_header_only_checkpoint(path, header):
    """A .tck file holding ``header`` and no tensors."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob)


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
        loss = (out * Tensor(probe_holder["probe"])).sum()
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
