"""Traced memory of one training step, phase by phase.

    python3 tools/step_memory.py [SRC] [--width W] [--size N] [--batch B] [--seed S]

runs the first step of ``train`` on a fresh ``build_model(ModelConfig(
width=W, seed=S))``, on the bands of ``make_dataset(B, N, DoseConfig(i0=2e4,
dose_fraction=0.25), seed=S)`` at ``TrainConfig``'s default clip norm and
lr 1e-3, with the ``ctdenoise`` package under ``SRC/src`` (default: the
checkout holding this script). The model, the data and the Adam moments
exist before tracing starts. It prints one ``phase held peak`` line per
phase, in MiB of traced memory above the step's start: ``held`` is what is
live when the phase ends, ``peak`` the most live during it.

- ``forward``: ``pred = model(low, high)`` and ``loss = mse_loss(pred,
  target)``; it holds the graph.
- ``backward``: ``zero_grad`` then ``loss.backward()``; it holds the leaf
  gradients. Then, as in ``train``, ``pred`` and ``loss`` are dropped.
- ``clip``: ``clip_grad_norm`` of those gradients.
- ``adam``: ``adam_step``.

A last ``step - peak`` line is the step's peak, which at the defaults is the
``train64`` benchmark workload's ``peak_mib``.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path


def step_memory(cd, width, size, batch, seed):
    """``(phase, held, peak)`` in bytes for each phase of one step."""
    model = cd.build_model(cd.ModelConfig(width=width, seed=seed))
    pairs = cd.make_dataset(batch, size, cd.DoseConfig(i0=2e4, dose_fraction=0.25), seed=seed)
    bands = cd.training._prepare(pairs, model.config.sigma)
    params = model.parameters()
    state = cd.optim.AdamState.for_params(params)
    clip_norm = cd.TrainConfig().clip_norm
    phases = []

    def run(name, fn):
        tracemalloc.reset_peak()
        out = fn()
        phases.append((name, *tracemalloc.get_traced_memory()))
        return out

    def forward():
        pred = model(low, high)
        return pred, cd.training.mse_loss(pred, target)

    def backward():
        model.zero_grad()
        loss.backward()

    low, high, target = (cd.tensor.Tensor(a) for a in bands)
    tracemalloc.start()
    try:
        pred, loss = run("forward", forward)
        run("backward", backward)
        del pred, loss
        grads = [p.grad for p in params]
        run("clip", lambda: cd.optim.clip_grad_norm(grads, clip_norm))
        run("adam", lambda: cd.optim.adam_step(params, grads, state, 1e-3))
    finally:
        tracemalloc.stop()
    return phases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout whose src/ctdenoise is run")
    parser.add_argument("--width", type=float, default=0.25)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    package = (args.src / "src").resolve()
    sys.path.insert(0, str(package))
    import ctdenoise
    if not Path(ctdenoise.__file__).resolve().is_relative_to(package):
        parser.error(f"imported ctdenoise from {ctdenoise.__file__}, not from {package}")
    phases = step_memory(ctdenoise, args.width, args.size, args.batch, args.seed)
    mib = 2.0**20
    for name, held, peak in phases:
        print(f"{name} {held / mib:.2f} {peak / mib:.2f}")
    print(f"step - {max(peak for _, _, peak in phases) / mib:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
