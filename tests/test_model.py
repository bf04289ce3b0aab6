"""Dual-path denoising network: layers, token plumbing, and the three
network variants.

Attention is checked against a dense numpy reference so the reshaping
and head-splitting inside the module cannot silently permute tokens.
"""

import numpy as np
import pytest

from ctdenoise.model import (
    HF_FOLD,
    N_STAGES,
    DecoderLayer,
    EncoderLayer,
    FeedForward,
    ModelConfig,
    MultiHeadAttention,
    ResBlock,
    TransCT,
    build_model,
    count_parameters,
    detokenize,
    tokenize,
)
from ctdenoise.tensor import ShapeError, Tensor


def attention_reference(x_q, x_kv, layer):
    """Single-batch dense attention using the module's own weights."""
    def lin(x, mod):
        return x @ mod.weight.data + mod.bias.data

    h = layer.n_heads
    d = x_q.shape[-1] // h
    q = lin(x_q, layer.wq)
    k = lin(x_kv, layer.wk)
    v = lin(x_kv, layer.wv)
    heads = []
    for i in range(h):
        sl = slice(i * d, (i + 1) * d)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        heads.append(attn @ v[:, sl])
    return lin(np.concatenate(heads, axis=-1), layer.wo)


def zero_params(*params):
    for p in params:
        p.data[...] = 0.0


def bands(rng, shape):
    low = Tensor(rng.normal(size=shape).astype(np.float32))
    high = Tensor(rng.normal(size=shape).astype(np.float32))
    return low, high


TINY = dict(width=0.0625, n_heads=2, ffn_mult=2, seed=3)


class TestModelConfig:
    def test_channel_tiers_scale(self):
        cfg = ModelConfig(width=0.25)
        assert (cfg.channels(64), cfg.channels(128), cfg.channels(256)) == (16, 32, 64)

    def test_fractional_channels_rejected(self):
        with pytest.raises(ValueError, match="whole"):
            ModelConfig(width=0.3)

    def test_head_split(self):
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(width=0.25, n_heads=7)

    def test_variant_names(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(variant="resnet")

    def test_scalar_domains(self):
        with pytest.raises(ValueError, match="n_heads"):
            ModelConfig(n_heads=0)
        with pytest.raises(ValueError, match="ffn_mult"):
            ModelConfig(ffn_mult=0)
        with pytest.raises(ValueError, match="lrelu_slope"):
            ModelConfig(lrelu_slope=1.5)
        with pytest.raises(ValueError, match="sigma"):
            ModelConfig(sigma=0.0)
        with pytest.raises(ValueError, match="multiple of 32"):
            ModelConfig(use_positional=True, pos_image_size=40)

    @pytest.mark.parametrize("size", [0, -64])
    def test_pos_image_size_must_be_positive(self, size):
        with pytest.raises(ValueError, match=f"positive multiple of 32, got {size}"):
            ModelConfig(use_positional=True, pos_image_size=size)


class TestAttention:
    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_matches_dense_reference(self, n_heads):
        rng = np.random.default_rng(n_heads)
        layer = MultiHeadAttention(16, n_heads, rng)
        x = rng.normal(size=(2, 9, 16)).astype(np.float64)
        out = layer(Tensor(x)).numpy()
        for b in range(2):
            ref = attention_reference(x[b], x[b], layer)
            assert np.abs(out[b] - ref).max() <= 1e-6

    def test_cross_attention_reads_memory(self):
        rng = np.random.default_rng(0)
        layer = MultiHeadAttention(8, 2, rng)
        q = rng.normal(size=(1, 5, 8))
        kv = rng.normal(size=(1, 12, 8))
        out = layer(Tensor(q), Tensor(kv)).numpy()
        ref = attention_reference(q[0], kv[0], layer)
        assert out.shape == (1, 5, 8)
        assert np.abs(out[0] - ref).max() <= 1e-6

    def test_head_divisibility(self):
        with pytest.raises(ShapeError, match="heads"):
            MultiHeadAttention(10, 3, np.random.default_rng(0))


class TestLayers:
    def test_resblock_identity_skip(self):
        rng = np.random.default_rng(1)
        block = ResBlock(8, 8, rng)
        assert block.proj is None
        zero_params(block.conv2.weight, block.conv2.bias)
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        assert np.array_equal(block(Tensor(x)).numpy(), x)

    def test_resblock_projection_skip(self):
        rng = np.random.default_rng(2)
        block = ResBlock(4, 8, rng)
        assert block.proj is not None
        out = block(Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32)))
        assert out.shape == (1, 8, 6, 6)

    def test_feedforward_hidden_width(self):
        ffn = FeedForward(8, 4, np.random.default_rng(0))
        assert ffn.fc1.weight.shape == (8, 32)
        assert ffn.fc2.weight.shape == (32, 8)

    def test_encoder_layer_residual_identity(self):
        # zeroing both output projections collapses the layer to identity
        rng = np.random.default_rng(3)
        layer = EncoderLayer(16, 4, 2, rng)
        zero_params(layer.attn.wo.weight, layer.attn.wo.bias,
                    layer.ffn.fc2.weight, layer.ffn.fc2.bias)
        x = rng.normal(size=(2, 6, 16))
        out = layer(Tensor(x)).numpy()
        assert np.abs(out - x).max() <= 1e-7

    def test_decoder_layer_residual_identity(self):
        rng = np.random.default_rng(4)
        layer = DecoderLayer(16, 4, 2, rng)
        zero_params(layer.self_attn.wo.weight, layer.self_attn.wo.bias,
                    layer.cross_attn.wo.weight, layer.cross_attn.wo.bias,
                    layer.ffn.fc2.weight, layer.ffn.fc2.bias)
        x = rng.normal(size=(1, 6, 16))
        memory = rng.normal(size=(1, 10, 16))
        out = layer(Tensor(x), Tensor(memory)).numpy()
        assert np.abs(out - x).max() <= 1e-7

    def test_decoder_counts_memory_reads(self):
        rng = np.random.default_rng(5)
        layer = DecoderLayer(8, 2, 2, rng)
        trace = {}
        layer(Tensor(rng.normal(size=(1, 4, 8))), Tensor(rng.normal(size=(1, 4, 8))), trace)
        assert trace["memory_reads"] == 1


class TestTokenize:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 3, 4)).astype(np.float32)
        tokens = tokenize(Tensor(x))
        assert tokens.shape == (2, 12, 5)
        assert np.array_equal(detokenize(tokens, 3, 4).numpy(), x)

    def test_row_major_token_order(self):
        # token n holds the channel vector at (n // W, n % W)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 2, 4)).astype(np.float32)
        toks = tokenize(Tensor(x)).numpy()
        for n in range(8):
            assert np.array_equal(toks[0, n], x[0, :, n // 4, n % 4])

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError, match="tile"):
            detokenize(Tensor(np.zeros((1, 12, 3))), 5, 5)


class TestForwardShapes:
    def test_trace_ledger(self):
        # 64x64 input at quarter width: channel tiers 16/64, grids 16..4
        model = build_model(ModelConfig(width=0.25, seed=0))
        rng = np.random.default_rng(0)
        low, high = bands(rng, (2, 1, 64, 64))
        trace = {}
        out = model(low, high, trace)
        assert trace["trunk"] == (2, 16, 16, 16)
        assert trace["x_lc1"] == (2, 16, 8, 8)
        assert trace["x_lc2"] == (2, 64, 4, 4)
        assert trace["x_lt"] == (2, 64, 2, 2)
        assert trace["x_hf"] == (2, 64, 4, 4)
        assert trace["s_l"] == (2, 4, 64)
        assert trace["s_h"] == (2, 16, 64)
        assert trace["y"] == (2, 64, 4, 4)
        assert trace["stage1"] == (2, 16, 8, 8)
        assert trace["stage2"] == (2, 64, 8, 8)
        assert out.shape == (2, 1, 64, 64)

    @pytest.mark.parametrize("variant, own", [
        ("no_transformer", {"x_hf": (2, 64, 4, 4)}),
        ("no_dual_path", {"s_l": (2, 16, 64)}),
    ])
    def test_trace_ledger_reduced_variants(self, variant, own):
        model = build_model(ModelConfig(width=0.25, variant=variant, seed=0))
        rng = np.random.default_rng(0)
        low, high = bands(rng, (2, 1, 64, 64))
        trace = {}
        model(low, high, trace)
        assert trace == {
            "trunk": (2, 16, 16, 16),
            "x_lc1": (2, 16, 8, 8),
            "x_lc2": (2, 64, 4, 4),
            **own,
            "y": (2, 64, 4, 4),
            "stage1": (2, 16, 8, 8),
            "stage2": (2, 64, 8, 8),
            "out": (2, 1, 64, 64),
        }

    @pytest.mark.parametrize("variant", ["full", "no_transformer", "no_dual_path"])
    def test_trace_only_observes(self, variant):
        from ctdenoise.tensor import tsum

        model = build_model(ModelConfig(
            variant=variant, use_positional=True, pos_image_size=32, **TINY))
        rng = np.random.default_rng(11)
        low, high = bands(rng, (1, 1, 32, 32))
        runs = []
        for args in ((low, high), (low, high, {})):
            model.zero_grad()
            out = model(*args)
            tsum(out).backward()
            runs.append([out.numpy()] + [p.grad for p in model.parameters()])
        assert len(runs[0]) == len(runs[1])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_memory_read_per_decoder(self):
        model = build_model(ModelConfig(**TINY))
        rng = np.random.default_rng(1)
        low, high = bands(rng, (1, 1, 32, 32))
        trace = {}
        model(low, high, trace)
        assert trace["memory_reads"] == N_STAGES

    @pytest.mark.parametrize("variant", ["full", "no_transformer", "no_dual_path"])
    def test_variants_preserve_shape(self, variant):
        model = build_model(ModelConfig(variant=variant, **TINY))
        rng = np.random.default_rng(2)
        low, high = bands(rng, (1, 1, 32, 32))
        assert model(low, high).shape == (1, 1, 32, 32)

    def test_rectangular_input(self):
        model = build_model(ModelConfig(**TINY))
        rng = np.random.default_rng(3)
        low, high = bands(rng, (1, 1, 32, 64))
        assert model(low, high).shape == (1, 1, 32, 64)

    def test_input_validation(self):
        model = build_model(ModelConfig(**TINY))
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError, match=r"\(B, 1, H, W\)"):
            model(Tensor(rng.normal(size=(1, 2, 32, 32))), Tensor(rng.normal(size=(1, 2, 32, 32))))
        low, high = bands(rng, (1, 1, 32, 32))
        with pytest.raises(ShapeError, match="disagree"):
            model(low, Tensor(rng.normal(size=(1, 1, 64, 64))))
        low48, high48 = bands(rng, (1, 1, 48, 48))
        with pytest.raises(ShapeError, match="multiples of 32"):
            model(low48, high48)


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = build_model(ModelConfig(**TINY))
        b = build_model(ModelConfig(**TINY))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_network(self):
        a = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2, seed=0))
        b = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2, seed=1))
        diffs = [
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
            if pa.data.ndim >= 2  # biases start at zero everywhere
        ]
        assert all(diffs)

    def test_forward_is_pure(self):
        model = build_model(ModelConfig(**TINY))
        rng = np.random.default_rng(5)
        low, high = bands(rng, (1, 1, 32, 32))
        first = model(low, high).numpy()
        second = model(low, high).numpy()
        assert np.array_equal(first, second)


class TestParameterBook:
    def test_counts_per_variant(self):
        # frozen totals at width 0.25, 4 heads, ffn x8
        expected = {"full": 935424, "no_transformer": 647424, "no_dual_path": 383488}
        for variant, count in expected.items():
            model = build_model(ModelConfig(width=0.25, variant=variant))
            assert count_parameters(model) == count

    def test_names_unique_and_tracked(self):
        model = build_model(ModelConfig(**TINY))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert all(p.requires_grad for _, p in model.named_parameters())

    def test_positional_embeddings_registered(self):
        model = build_model(ModelConfig(use_positional=True, pos_image_size=32, **TINY))
        names = {n for n, _ in model.named_parameters()}
        assert "pos_enc" in names
        assert "pos_dec" in names


class TestPositional:
    def test_positional_changes_output(self):
        rng = np.random.default_rng(6)
        low, high = bands(rng, (1, 1, 32, 32))
        plain = build_model(ModelConfig(**TINY))(low, high).numpy()
        model = build_model(ModelConfig(use_positional=True, pos_image_size=32, **TINY))
        assert not np.array_equal(model(low, high).numpy(), plain)

    def test_size_must_match_embeddings(self):
        model = build_model(ModelConfig(use_positional=True, pos_image_size=32, **TINY))
        rng = np.random.default_rng(7)
        low, high = bands(rng, (1, 1, 64, 64))
        with pytest.raises(ShapeError):
            model(low, high)

    @pytest.mark.parametrize("variant", ["full", "no_dual_path"])
    # 128x32 has as many tokens as 64x64, so without the check it ran
    # with every embedding on the wrong position
    @pytest.mark.parametrize("shape", [(96, 96), (64, 96), (128, 32)])
    def test_size_error_names_the_setting(self, variant, shape):
        model = build_model(ModelConfig(
            variant=variant, use_positional=True, pos_image_size=64, **TINY))
        rng = np.random.default_rng(12)
        low, high = bands(rng, (1, 1) + shape)
        expected = rf"model\.pos_image_size = 64.*got {shape[0]}x{shape[1]}"
        with pytest.raises(ShapeError, match=expected):
            model(low, high)

    def test_no_transformer_takes_any_size(self):
        # no token stage, so no embeddings to fit
        model = build_model(ModelConfig(
            variant="no_transformer", use_positional=True, pos_image_size=64, **TINY))
        rng = np.random.default_rng(13)
        low, high = bands(rng, (1, 1, 96, 96))
        assert model(low, high).shape == (1, 1, 96, 96)


class TestVariantSemantics:
    def test_no_dual_path_sums_bands(self):
        # the single-path variant consumes x_low + x_high, so swapping
        # the bands cannot change its output
        model = build_model(ModelConfig(variant="no_dual_path", **TINY))
        rng = np.random.default_rng(8)
        low, high = bands(rng, (1, 1, 32, 32))
        a = model(low, high).numpy()
        b = model(high, low).numpy()
        assert np.array_equal(a, b)

    def test_full_model_distinguishes_bands(self):
        model = build_model(ModelConfig(**TINY))
        rng = np.random.default_rng(9)
        low, high = bands(rng, (1, 1, 32, 32))
        a = model(low, high).numpy()
        b = model(high, low).numpy()
        assert not np.array_equal(a, b)


class TestGradientFlow:
    @pytest.mark.parametrize("variant", ["full", "no_transformer", "no_dual_path"])
    def test_backward_reaches_every_parameter(self, variant):
        from ctdenoise.tensor import tsum

        model = build_model(ModelConfig(variant=variant, **TINY))
        rng = np.random.default_rng(10)
        low, high = bands(rng, (1, 1, 32, 32))
        out = model(low, high)
        tsum(out).backward()
        total = 0.0
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name
            total += float(np.abs(p.grad).sum())
        assert total > 0.0
