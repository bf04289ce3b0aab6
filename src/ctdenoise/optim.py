"""Parameter initialization, gradient clipping and the Adam optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor


def xavier_init(shape, rng):
    """Uniform Xavier/Glorot sample on +-sqrt(6 / (fan_in + fan_out)).

    Fans come from the first two extents times the receptive-field size
    (product of any trailing extents), so conv kernels (Cout, Cin, k, k)
    and linear weights (c_in, c_out) are both covered. ``rng`` is the
    ``numpy.random.Generator`` to draw from, as in ``TransCT(config, rng)``;
    for ``rng=None`` nothing is drawn and the values are undefined, for a
    loader that overwrites every parameter. Returns a trainable float32
    leaf ``Tensor``; like every ``Tensor`` it defines no arithmetic
    operators, and the ops are the functions in ``ctdenoise.tensor``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ShapeError(f"xavier_init needs rank >= 2, got shape {shape}")
    if rng is None:
        return Tensor(np.empty(shape, dtype=np.float32), requires_grad=True)
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_sum = (shape[0] + shape[1]) * receptive
    bound = float(np.sqrt(6.0 / fan_sum))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32), requires_grad=True)


def clip_grad_norm(grads, max_norm):
    """Scale ``grads`` in place so that their global L2 norm is at most
    ``max_norm``; returns the norm before clipping.

    The norm is the ordered sum of each array's own sum of squares. Where
    a finite gradient's square overflows its dtype, the sums are taken
    again in float64, so a huge gradient is scaled down rather than to
    zero. A NaN or infinite gradient keeps its non-finite norm.
    """
    with np.errstate(over="ignore"):
        gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if math.isinf(gnorm) and all(np.isfinite(g).all() for g in grads):
        gnorm = math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads))
    if gnorm > max_norm:
        scale = max_norm / gnorm
        for g in grads:
            g *= scale
    return gnorm


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step count."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        m = [np.zeros_like(p.data) for p in params]
        v = [np.zeros_like(p.data) for p in params]
        return cls(m=m, v=v, t=0)


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place on the parameter data."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} moment buffers"
        )
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if g is None:
            raise ValueError(f"adam_step: missing gradient for parameter {i}")
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: grad shape {g.shape} does not match parameter "
                f"{i} shape {p.data.shape}"
            )
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + eps)
