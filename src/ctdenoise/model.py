"""Dual-path denoising network.

The low-frequency band runs through a strided conv trunk that forks into a
content branch (skip features for reconstruction) and a texture branch
(transformer encoder input). The high-frequency band is folded space-to-depth
and refined by convs, then three decoder layers query it against the encoded
low-frequency tokens. Reconstruction re-injects the content skips around two
pixel-shuffle upsampling stages.

Channel widths scale with ``ModelConfig.width``; 1.0 is the full-size
network (64/128/256 channel tiers), 0.25 is a desk-size variant that keeps
every shape relation intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_field_types
from .freq import DEFAULT_SIGMA
from .optim import xavier_init
from .tensor import (
    ShapeError,
    Tensor,
    add,
    attention,
    concat,
    conv2d,
    linear,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    transpose,
)

VARIANTS = ("full", "no_transformer", "no_dual_path")

HF_FOLD = 16  # space-to-depth factor on the high band
N_STAGES = 3  # encoder and decoder depth
INPUT_MULTIPLE = 32  # of input H and W, for the 16-fold high band and 32x texture path


@dataclass(frozen=True)
class ModelConfig:
    width: float = 1.0
    n_heads: int = 4
    ffn_mult: int = 8
    lrelu_slope: float = 0.2
    sigma: float = DEFAULT_SIGMA
    variant: str = "full"
    use_positional: bool = False
    pos_image_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for base in (64, 128, 256):
            scaled = base * self.width
            if abs(scaled - round(scaled)) > 1e-9 or round(scaled) < 1:
                raise ValueError(
                    f"width {self.width} does not scale the {base}-channel tier "
                    f"to a whole number"
                )
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.channels(256) % self.n_heads != 0:
            raise ValueError(
                f"{self.channels(256)} token channels do not split into "
                f"{self.n_heads} heads"
            )
        if self.ffn_mult < 1:
            raise ValueError(f"ffn_mult must be >= 1, got {self.ffn_mult}")
        if not 0.0 < self.lrelu_slope < 1.0:
            raise ValueError(f"lrelu_slope must lie in (0,1), got {self.lrelu_slope}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.use_positional and (self.pos_image_size < 1
                                    or self.pos_image_size % INPUT_MULTIPLE):
            raise ValueError(f"pos_image_size must be a positive multiple of {INPUT_MULTIPLE}, "
                             f"got {self.pos_image_size}")

    def channels(self, base):
        return int(round(base * self.width))


class Module:
    """Composite of parameters and sub-modules, walkable by name.

    Every ``Tensor`` attribute is a trainable parameter; its attribute
    path names it in checkpoints."""

    def named_parameters(self, prefix=""):
        for name, val in vars(self).items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(val, Tensor):
                yield path, val
            elif isinstance(val, Module):
                yield from val.named_parameters(path)
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def count_parameters(module):
    return sum(int(np.prod(p.shape)) for p in module.parameters())


# -- layers ---------------------------------------------------------------


class Conv2d(Module):
    def __init__(self, cin, cout, rng, k=3, stride=1):
        self.stride = stride
        self.weight = xavier_init((cout, cin, k, k), rng)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)

    def __call__(self, x, slope=None):
        """The conv, then a leaky ReLU with ``slope`` unless it is None."""
        return conv2d(x, self.weight, self.bias, stride=self.stride, slope=slope)


class ConvAct(Module):
    """3x3 conv followed by leaky ReLU, applied in place by the conv."""

    def __init__(self, cin, cout, rng, stride=1, slope=0.2):
        self.conv = Conv2d(cin, cout, rng, stride=stride)
        self.slope = slope

    def __call__(self, x):
        return self.conv(x, slope=self.slope)


class Linear(Module):
    def __init__(self, cin, cout, rng):
        self.weight = xavier_init((cin, cout), rng)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)

    def __call__(self, x, slope=None):
        """The affine map, then a leaky ReLU with ``slope`` unless it is None."""
        return linear(x, self.weight, self.bias, slope)


class ResBlock(Module):
    """conv-lrelu-conv plus skip; the skip is a 1x1 projection when the
    channel count changes, identity otherwise."""

    def __init__(self, cin, cout, rng, slope=0.2):
        self.conv1 = Conv2d(cin, cout, rng)
        self.conv2 = Conv2d(cout, cout, rng)
        self.proj = Conv2d(cin, cout, rng, k=1) if cin != cout else None
        self.slope = slope

    def __call__(self, x):
        y = self.conv2(self.conv1(x, slope=self.slope))
        skip = x if self.proj is None else self.proj(x)
        return add(y, skip)


class MultiHeadAttention(Module):
    """softmax(Q K^T / sqrt(d_head)) V per head, heads concatenated and
    mixed by an output projection. Cross attention when ``kv`` differs
    from the query stream."""

    def __init__(self, dim, n_heads, rng):
        if dim % n_heads != 0:
            raise ShapeError(f"{dim} channels do not split into {n_heads} heads")
        self.n_heads = n_heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, q, kv=None):
        kv = q if kv is None else kv
        return self.wo(attention(self.wq(q), self.wk(kv), self.wv(kv), self.n_heads))


class FeedForward(Module):
    """Token-wise two-layer MLP, hidden width ``mult`` times the channels."""

    def __init__(self, dim, mult, rng, slope=0.2):
        self.fc1 = Linear(dim, mult * dim, rng)
        self.fc2 = Linear(mult * dim, dim, rng)
        self.slope = slope

    def __call__(self, x):
        return self.fc2(self.fc1(x, self.slope))


class EncoderLayer(Module):
    """Self-attention and FFN, each wrapped in a residual sum."""

    def __init__(self, dim, n_heads, ffn_mult, rng, slope=0.2):
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ffn = FeedForward(dim, ffn_mult, rng, slope)

    def __call__(self, s):
        s = add(self.attn(s), s)
        return add(self.ffn(s), s)


class DecoderLayer(Module):
    """Self-attention, cross-attention against the encoder memory, FFN;
    every stage wrapped in a residual sum."""

    def __init__(self, dim, n_heads, ffn_mult, rng, slope=0.2):
        self.self_attn = MultiHeadAttention(dim, n_heads, rng)
        self.cross_attn = MultiHeadAttention(dim, n_heads, rng)
        self.ffn = FeedForward(dim, ffn_mult, rng, slope)

    def __call__(self, s, memory):
        s = add(self.self_attn(s), s)
        s = add(self.cross_attn(s, memory), s)
        return add(self.ffn(s), s)


# -- token plumbing -------------------------------------------------------


def tokenize(x):
    """(B, C, H, W) feature map -> (B, H*W, C) tokens in row-major order."""
    B, C, H, W = x.shape
    return reshape(transpose(x, (0, 2, 3, 1)), (B, H * W, C))


def detokenize(tokens, h, w):
    """(B, h*w, C) tokens -> (B, C, h, w) feature map."""
    B, N, C = tokens.shape
    if N != h * w:
        raise ShapeError(f"{N} tokens do not tile a {h}x{w} map")
    return transpose(reshape(tokens, (B, h, w, C)), (0, 3, 1, 2))


# -- the network ----------------------------------------------------------


class TransCT(Module):
    """See the module docstring; ``variant`` selects the full network or
    one of the reduced forms used for ablation. Every weight is a Xavier
    draw from the generator ``rng``; with ``rng=None`` nothing is drawn and
    the weights are undefined until the caller sets them."""

    def __init__(self, config, rng):
        self.config = config
        c64 = config.channels(64)
        c128 = config.channels(128)
        c256 = config.channels(256)
        slope = config.lrelu_slope
        variant = config.variant

        # low-band trunk and content skips (every variant)
        self.trunk1 = ConvAct(1, c64, rng, stride=2, slope=slope)
        self.trunk2 = ConvAct(c64, c64, rng, stride=2, slope=slope)
        self.content1 = ConvAct(c64, c64, rng, stride=2, slope=slope)
        self.content2 = ConvAct(c64, c256, rng, stride=2, slope=slope)

        if variant != "no_dual_path":
            # texture branch off the trunk
            self.tex1 = ConvAct(c64, c128, rng, stride=2, slope=slope)
            self.tex2 = ConvAct(c128, c128, rng, stride=2, slope=slope)
            if variant == "full":
                self.tex3 = ConvAct(c128, c256, rng, stride=2, slope=slope)
            # high-band path on folded pixels
            self.hf1 = ConvAct(HF_FOLD * HF_FOLD, c256, rng, slope=slope)
            self.hf2 = ConvAct(c256, c256, rng, slope=slope)
            self.hf3 = ConvAct(c256, c256, rng, slope=slope)

        if variant == "no_transformer":
            self.fuse = ConvAct(c256 + c128, c256, rng, slope=slope)
            self.fuse_blocks = [ResBlock(c256, c256, rng, slope) for _ in range(N_STAGES)]
        else:  # no_dual_path has encoders only, fed by the content column
            self.encoders = [
                EncoderLayer(c256, config.n_heads, config.ffn_mult, rng, slope)
                for _ in range(N_STAGES)
            ]
            if variant == "full":
                self.decoders = [
                    DecoderLayer(c256, config.n_heads, config.ffn_mult, rng, slope)
                    for _ in range(N_STAGES)
                ]

        # reconstruction: two pixel-shuffle stages with content skips; the
        # second block always emits 64 channels so that the final r=8
        # shuffle lands on a single image plane.
        self.res1 = ResBlock(c256, c256, rng, slope)
        self.res2 = ResBlock(c64, 64, rng, slope)

        # positional embeddings exist only where there are token stages
        if config.use_positional and variant != "no_transformer":
            s = config.pos_image_size
            fold = 16 if variant == "no_dual_path" else 32
            self.pos_enc = xavier_init(((s // fold) ** 2, c256), rng)
            if variant == "full":
                self.pos_dec = xavier_init(((s // 16) ** 2, c256), rng)

    # -- forward ----------------------------------------------------------

    def __call__(self, x_low, x_high):
        """Both inputs are (B, 1, H, W) tensors with H, W multiples of
        ``INPUT_MULTIPLE``, and ``pos_image_size`` square for a model with
        positional embeddings; returns the denoised (B, 1, H, W) image."""
        self._check_inputs(x_low, x_high)
        variant = self.config.variant
        # no_dual_path sums the bands back together into one column
        t, c1, c2 = self._content_column(
            add(x_low, x_high) if variant == "no_dual_path" else x_low)
        if variant == "full":
            tx = self.tex3(self.tex2(self.tex1(t)))
            hf = self._hf_features(x_high)
            lt, ht = tokenize(tx), tokenize(hf)
            if self.config.use_positional:
                ht = add(ht, self.pos_dec)
            memory = self._encode(lt)
            for dec in self.decoders:
                ht = dec(ht, memory)
            y = detokenize(ht, hf.shape[2], hf.shape[3])
        elif variant == "no_transformer":
            tx = self.tex2(self.tex1(t))
            hf = self._hf_features(x_high)
            y = self.fuse(concat([hf, tx], axis=1))
            for block in self.fuse_blocks:
                y = block(y)
        else:
            y = detokenize(self._encode(tokenize(c2)), c2.shape[2], c2.shape[3])
        return self._reconstruct(y, c1, c2)

    def _check_inputs(self, x_low, x_high):
        for name, t in (("x_low", x_low), ("x_high", x_high)):
            if t.ndim != 4 or t.shape[1] != 1:
                raise ShapeError(f"{name} must be (B, 1, H, W), got {t.shape}")
        if x_low.shape != x_high.shape:
            raise ShapeError(
                f"band shapes disagree: {x_low.shape} vs {x_high.shape}"
            )
        H, W = x_low.shape[2], x_low.shape[3]
        if H % INPUT_MULTIPLE or W % INPUT_MULTIPLE:
            raise ShapeError(
                f"spatial extents must be multiples of {INPUT_MULTIPLE} for the "
                f"16-fold high band and the 32x texture downsampling, got {H}x{W}"
            )
        s = self.config.pos_image_size
        if hasattr(self, "pos_enc") and (H, W) != (s, s):
            raise ShapeError(
                f"the positional embeddings fit model.pos_image_size = {s}, "
                f"i.e. {s}x{s} inputs, got {H}x{W}"
            )

    def _content_column(self, x_low):
        t = self.trunk2(self.trunk1(x_low))
        c1 = self.content1(t)
        return t, c1, self.content2(c1)

    def _hf_features(self, x_high):
        return self.hf3(self.hf2(self.hf1(pixel_unshuffle(x_high, HF_FOLD))))

    def _encode(self, tokens):
        if self.config.use_positional:
            tokens = add(tokens, self.pos_enc)
        for enc in self.encoders:
            tokens = enc(tokens)
        return tokens

    def _reconstruct(self, y, c1, c2):
        u1 = pixel_shuffle(self.res1(add(y, c2)), 2)
        return pixel_shuffle(self.res2(add(u1, c1)), 8)


def build_model(config):
    """Construct the network for a ModelConfig, its weights drawn from
    ``config.seed``."""
    return TransCT(config, np.random.default_rng(config.seed))
