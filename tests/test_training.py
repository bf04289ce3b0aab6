"""Optimization loop, checkpointing, and the HU <-> relative-attenuation
bridge used at the network boundary."""

import hashlib
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import ctdenoise as cd
from ctdenoise import training
from ctdenoise.ctsim import HU, MU_PER_MM, CtImage, DoseConfig, TrainingPair, make_dataset
from ctdenoise.freq import decompose
from ctdenoise.model import VARIANTS, ModelConfig, build_model
from ctdenoise.optim import AdamState, adam_step
from ctdenoise.tctio import tensor_to_bytes
from ctdenoise.tensor import NonFiniteError, ShapeError, Tensor, add
from conftest import MALFORMED_HEADERS, write_header_only_checkpoint
from ctdenoise.training import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    _hu_to_rel,
    _pad_to_multiple,
    _prepare,
    _rel_to_hu,
    denoise_image,
    load_checkpoint,
    lr_at,
    mse_loss,
    save_checkpoint,
    train,
    validate,
)

TINY = dict(width=0.0625, n_heads=2, ffn_mult=2, seed=3)


def tiny_pairs(n=2, size=64, i0=5e4, seed=17):
    return make_dataset(n, size, DoseConfig(i0=i0, dose_fraction=0.25), seed=seed)


class IdentityStub:
    """Recomposes the two bands unchanged; perfect whenever LD == ND."""

    config = ModelConfig(**TINY)

    def __call__(self, x_low, x_high):
        return add(x_low, x_high)


class TestMseLoss:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 1, 8, 8))
        b = rng.normal(size=(2, 1, 8, 8))
        got = mse_loss(Tensor(a), Tensor(b)).item()
        assert got == pytest.approx(((a - b) ** 2).mean(), rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)))
        mse_loss(a, b).backward()
        expected = 2.0 * (a.data - b.data) / a.size
        assert np.abs(a.grad - expected).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="disagree"):
            mse_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestLrSchedule:
    def test_transition_at_boundary(self):
        sched = ((0, 1e-4), (180, 1e-5))
        assert lr_at(sched, 0) == 1e-4
        assert lr_at(sched, 179) == 1e-4
        assert lr_at(sched, 180) == 1e-5
        assert lr_at(sched, 500) == 1e-5

    def test_multi_segment(self):
        sched = ((0, 1.0), (2, 0.5), (5, 0.25))
        got = [lr_at(sched, e) for e in range(7)]
        assert got == [1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.25]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epoch 0"):
            TrainConfig(lr_schedule=((5, 1e-4),))
        with pytest.raises(ValueError, match="increase"):
            TrainConfig(lr_schedule=((0, 1e-4), (10, 1e-5), (10, 1e-6)))
        with pytest.raises(ValueError, match="non-negative"):
            TrainConfig(lr_schedule=((0, -1e-4),))
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(clip_norm=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("batch_size", True), ("seed", 1.0), ("clip_norm", "1"),
        # int() would floor epoch 2.7 to 2 and drop the rate an epoch early
        ("lr_schedule", ((0, 1e-3), (2.7, 1e-4))),
        ("lr_schedule", ((0, 1e-3), ("5", 1e-4))),
        ("lr_schedule", ((False, 1e-3),)),
        ("lr_schedule", ((0, True),)),
        ("lr_schedule", ((0, "1e-3"),)),
        # a misshapen schedule, which unpacking would refuse without naming it
        ("lr_schedule", ((0, 1e-3, 5),)),
        ("lr_schedule", ((0,),)),
        ("lr_schedule", (0, 1e-3)),
        ("lr_schedule", None),
    ])
    def test_field_types_checked(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be "):
            TrainConfig(**{field: value})

    def test_float_fields_take_ints(self):
        assert TrainConfig(clip_norm=1).clip_norm == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, value):
        # nan < 0 is false, so a plain range check lets nan through and a
        # nan clip_norm would silently switch clipping off
        with pytest.raises(ValueError, match="clip_norm must be finite"):
            TrainConfig(clip_norm=value)
        with pytest.raises(ValueError, match="lr_schedule learning rates must be finite"):
            TrainConfig(lr_schedule=((0, value),))
        with pytest.raises(ValueError, match="lr_schedule learning rates must be finite"):
            TrainConfig(lr_schedule=((0, 1e-4), (10, value)))


class TestAttenuationBridge:
    def test_anchors(self):
        hu = np.array([[0.0, -1000.0, 1000.0]], dtype=np.float32)
        rel = _hu_to_rel(hu)
        assert np.array_equal(rel, [[1.0, 0.0, 2.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        hu = rng.uniform(-1000, 2000, size=(16, 16)).astype(np.float32)
        back = _rel_to_hu(_hu_to_rel(hu))
        assert np.abs(back - hu).max() < 1e-3


class TestDenoiseImage:
    def test_shape_preserved_with_padding(self):
        model = build_model(ModelConfig(**TINY))
        for size in ((64, 64), (70, 70), (32, 50)):
            rng = np.random.default_rng(0)
            img = CtImage(rng.uniform(-500, 500, size=size).astype(np.float32), HU, 0.8)
            out = denoise_image(model, img)
            assert out.grid.shape == size
            assert out.unit == HU
            assert out.pixel_spacing_mm == 0.8
            assert out.grid.dtype == np.float32
            assert np.isfinite(out.grid).all()
            assert out.grid.min() >= -1000.0

    def test_requires_hu(self):
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.zeros((64, 64)), MU_PER_MM)
        with pytest.raises(ValueError, match="HU"):
            denoise_image(model, img)

    def test_deterministic(self):
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.random.default_rng(1).uniform(-200, 200, (64, 64)), HU)
        a = denoise_image(model, img).grid
        b = denoise_image(model, img).grid
        assert np.array_equal(a, b)

    @staticmethod
    def _graph_forward(model, img):
        """The model on the same bands denoise_image builds, with the
        autograd graph recorded."""
        padded, _ = _pad_to_multiple(_hu_to_rel(img.grid), 32)
        low, high = decompose(padded, model.config.sigma)
        return model(Tensor(low[None, None]), Tensor(high[None, None]))

    def test_graph_free_output_bitwise_equal(self):
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.random.default_rng(4).uniform(-500, 500, (70, 64)).astype(np.float32), HU)
        recorded = self._graph_forward(model, img)
        assert recorded.requires_grad and recorded._backward is not None
        expected = np.maximum(_rel_to_hu(recorded.data[0, 0, :70, :64]), -1000.0).astype(np.float32)
        assert np.array_equal(denoise_image(model, img).grid, expected)
        assert all(p.requires_grad for p in model.parameters())

    def test_graph_free_output_at_uneven_attention_blocks(self):
        # 384 x 384 gives 576 high-band tokens; without a graph the decoder
        # attention runs them in blocks of 115 x 4 and 116 query rows
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.random.default_rng(6).uniform(-500, 500, (384, 384)).astype(np.float32), HU)
        recorded = self._graph_forward(model, img)
        expected = np.maximum(_rel_to_hu(recorded.data[0, 0]), -1000.0).astype(np.float32)
        np.testing.assert_allclose(denoise_image(model, img).grid, expected, rtol=0, atol=1e-2)

    def test_graph_free_peak_memory(self):
        model = build_model(ModelConfig(width=0.25, seed=3))
        img = CtImage(np.random.default_rng(5).uniform(-500, 500, (256, 256)).astype(np.float32), HU)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recorded = peak(lambda: self._graph_forward(model, img))
        graph_free = peak(lambda: denoise_image(model, img))
        assert graph_free < recorded / 2, (graph_free, recorded)

    def test_peak_memory_at_512(self):
        # conv layers activate in place and the padded input is dropped
        # before the forward pass; a separate leaky_relu peaked at 11.0 MiB
        model = build_model(ModelConfig(width=0.25, seed=0))
        img = CtImage(np.random.default_rng(7).uniform(-500, 500, (512, 512)).astype(np.float32), HU)
        tracemalloc.start()
        try:
            denoise_image(model, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.0 * 2**20, peak


class TestValidate:
    def test_perfect_stub_scores_zero(self):
        # identical LD/ND plus a band-recomposing stub: the only residue
        # is float32 rounding through the unit bridge
        img = CtImage(np.random.default_rng(3).uniform(-300, 300, (64, 64)).astype(np.float32), HU)
        pairs = [TrainingPair(ld=img, nd=img)]
        assert validate(IdentityStub(), pairs) < 0.01

    def test_untrained_model_positive(self):
        model = build_model(ModelConfig(**TINY))
        assert validate(model, tiny_pairs(1)) > 0.0

    def test_needs_pairs(self):
        with pytest.raises(ValueError, match="at least one"):
            validate(IdentityStub(), [])


class TestCheckpoint:
    def test_round_trip_into_fresh_model(self, tmp_path):
        path = tmp_path / "model.tck"
        a = build_model(ModelConfig(**TINY))
        save_checkpoint(a, path, epoch=7)
        b, epoch = load_checkpoint(path)
        assert epoch == 7
        assert [n for n, _ in a.named_parameters()] == [n for n, _ in b.named_parameters()]
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data.astype(np.float32), pb.data)

    def test_rebuild_from_file_alone(self, tmp_path):
        path = tmp_path / "model.tck"
        a = build_model(ModelConfig(**TINY))
        save_checkpoint(a, path, epoch=3)
        b, epoch = load_checkpoint(path)
        assert epoch == 3
        assert b.config == a.config
        rng = np.random.default_rng(4)
        low = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
        high = Tensor(rng.normal(size=(1, 1, 32, 32)).astype(np.float32))
        assert np.array_equal(a(low, high).numpy(), b(low, high).numpy())

    def test_save_is_reproducible(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        save_checkpoint(model, tmp_path / "a.tck", epoch=1)
        model, _ = load_checkpoint(tmp_path / "a.tck")
        save_checkpoint(model, tmp_path / "b.tck", epoch=1)
        assert (tmp_path / "a.tck").read_bytes() == (tmp_path / "b.tck").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=7)
        path.write_bytes(path.read_bytes() + b"junk" * 7 + b"!")
        with pytest.raises(CheckpointError, match="trailing 29 bytes"):
            load_checkpoint(path)

    def test_unreadable_header(self, tmp_path):
        path = tmp_path / "model.tck"
        blob = b"{not json"
        path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "model.tck"
        write_header_only_checkpoint(path, header)
        with pytest.raises(CheckpointError, match="malformed checkpoint header|bad config block"):
            load_checkpoint(path)

    @pytest.mark.parametrize("epoch", ["x", "3", 1.5, None, True])
    def test_non_integer_epoch(self, tmp_path, epoch):
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["epoch"] = epoch
        blob = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, want", [
        ("n_heads", 2.0, "n_heads must be int, got float 2.0"),
        ("seed", True, "seed must be int, got bool True"),
        ("variant", 1, "variant must be str, got int 1"),
    ])
    def test_config_of_the_wrong_type(self, tmp_path, field, value, want):
        # a header edited by hand: the values are legal, their types are not
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["config"][field] = value
        blob = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match=f"bad config block: {want}$"):
            load_checkpoint(path)

    def test_layout_frozen(self, tmp_path):
        # names, order and framing of the on-disk format, byte for byte
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(width=0.25, seed=0)), path, epoch=0)
        raw = path.read_bytes()
        assert len(raw) == 3_747_074
        assert hashlib.sha256(raw).hexdigest() == (
            "a6a72ac9c35a7ef4db6ec07d37de6a05c5d0d0333f0a1694b73bcbaf05c97849"
        )

    def test_missing_parameter(self, tmp_path):
        # surgically drop the last name from the header: the payload for it
        # is still there but never claimed
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        dropped = header["names"].pop()
        blob = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match=f"missing parameter {dropped}"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.tck"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x10\x00")
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            load_checkpoint(path)

    def test_misshapen_parameter(self, tmp_path):
        path = tmp_path / "model.tck"
        model = build_model(ModelConfig(**TINY))
        model.trunk1.conv.bias.data = np.zeros(3, dtype=np.float32)
        save_checkpoint(model, path, epoch=0)
        with pytest.raises(CheckpointError, match=r"trunk1\.conv\.bias has shape \(3,\), "
                                                  r"expected \(4,\)"):
            load_checkpoint(path)


class _NoDraw(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("a weight was drawn")


class TestLoadWithoutDrawing:
    """``load_checkpoint`` builds its model without drawing weights, and
    hands back one private float32 copy per stored tensor."""

    def test_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.tck"
        a = build_model(ModelConfig(**TINY))
        save_checkpoint(a, path, epoch=2)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraw(np.random.PCG64(seed)))
        with pytest.raises(AssertionError, match="drawn"):
            build_model(ModelConfig(**TINY))
        b, epoch = load_checkpoint(path)
        assert epoch == 2
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_builds_draw_again_after_loads(self, tmp_path):
        def params(model):
            return [p.data.copy() for p in model.parameters()]

        ref = params(build_model(ModelConfig(**TINY)))
        good = tmp_path / "good.tck"
        save_checkpoint(build_model(ModelConfig(**TINY, use_positional=True, pos_image_size=32)),
                        good, epoch=0)
        bad_config = tmp_path / "bad_config.tck"
        write_header_only_checkpoint(bad_config, MALFORMED_HEADERS["heads_zero"])
        missing = tmp_path / "missing.tck"
        raw = good.read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["names"].pop()
        blob = json.dumps(header).encode()
        missing.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob
                            + raw[8 + hlen :])

        load_checkpoint(good)
        after = params(build_model(ModelConfig(**TINY)))
        assert all(np.array_equal(x, y) for x, y in zip(ref, after))
        for path, text in ((bad_config, "bad config block"), (missing, "missing parameter")):
            with pytest.raises(CheckpointError, match=text):
                load_checkpoint(path)
            after = params(build_model(ModelConfig(**TINY)))
            assert all(np.array_equal(x, y) for x, y in zip(ref, after))

    def test_parameters_are_private_writable_float32(self, tmp_path):
        path = tmp_path / "model.tck"
        save_checkpoint(build_model(ModelConfig(**TINY)), path, epoch=0)
        first = [p.data for p in load_checkpoint(path)[0].parameters()]
        second = [p.data for p in load_checkpoint(path)[0].parameters()]
        for arr in first:
            assert arr.dtype == np.float32
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        for i, arr in enumerate(first):
            others = first[i + 1 :] + second
            assert not any(np.may_share_memory(arr, other) for other in others)

    @pytest.mark.parametrize("use_positional", [False, True])
    @pytest.mark.parametrize("variant", ["full", "no_transformer", "no_dual_path"])
    def test_round_trip_is_bitwise(self, tmp_path, variant, use_positional):
        config = ModelConfig(**TINY, variant=variant, use_positional=use_positional,
                             pos_image_size=64)
        a = build_model(config)
        save_checkpoint(a, tmp_path / "a.tck", epoch=5)
        b, epoch = load_checkpoint(tmp_path / "a.tck")
        assert epoch == 5 and b.config == config
        assert [n for n, _ in a.named_parameters()] == [n for n, _ in b.named_parameters()]
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pb.data.dtype == np.float32
            assert pa.data.tobytes() == pb.data.tobytes()
        save_checkpoint(b, tmp_path / "b.tck", epoch=5)
        assert (tmp_path / "a.tck").read_bytes() == (tmp_path / "b.tck").read_bytes()

    def test_file_is_header_then_framed_parameters(self, tmp_path):
        path = tmp_path / "model.tck"
        model = build_model(ModelConfig(**TINY))
        # one weight held in Fortran order and one bias in float64: the file
        # still holds their float32 row-major bytes
        model.trunk1.conv.weight.data = np.asfortranarray(model.trunk1.conv.weight.data)
        model.trunk1.conv.bias.data = np.linspace(-1, 1, 4)
        save_checkpoint(model, path, epoch=4)
        named = list(model.named_parameters())
        blob = json.dumps({"config": asdict(model.config), "epoch": 4,
                           "names": [n for n, _ in named]}).encode("utf-8")
        expect = CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + b"".join(
            tensor_to_bytes(np.asarray(p.data, dtype=np.float32)) for _, p in named)
        assert path.read_bytes() == expect


class TestTrainLoop:
    def test_zero_lr_is_null_update(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=3, batch_size=2, lr_schedule=((0, 0.0),), seed=0)
        train(model, tiny_pairs(2), [], cfg, tmp_path)
        for b, p in zip(before, model.parameters()):
            assert np.array_equal(b, p.data)

    def test_loss_decreases(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        pairs = tiny_pairs(2)
        before = validate(model, pairs)
        cfg = TrainConfig(epochs=30, batch_size=2, lr_schedule=((0, 1e-3),), seed=0)
        res = train(model, pairs, [], cfg, tmp_path)
        assert res.history[-1]["train_mse"] < res.history[0]["train_mse"]
        assert validate(model, pairs) < before

    def test_clipped_step_matches_scaled_copies(self, tmp_path):
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_schedule=((0, 1e-3),), clip_norm=1e-3)
        model = build_model(ModelConfig(**TINY))
        train(model, pairs, [], cfg, tmp_path)

        ref = build_model(ModelConfig(**TINY))
        params = ref.parameters()
        lows, highs, targets = _prepare(pairs, ref.config.sigma)
        mse_loss(ref(Tensor(lows), Tensor(highs)), Tensor(targets)).backward()
        grads = [p.grad for p in params]
        gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert gnorm > cfg.clip_norm  # the step clips
        scale = cfg.clip_norm / gnorm
        adam_step(params, [g * scale for g in grads], AdamState.for_params(params), 1e-3)
        for got, want in zip(model.parameters(), params):
            assert np.array_equal(got.data, want.data)

    def test_step_graph_is_freed_before_the_update(self, tmp_path, monkeypatch):
        # Tensor has no weak-reference slot, so watch the arrays only the
        # step's prediction and loss hold: both die with the graph
        refs, alive = [], []

        def watched_loss(pred, target):
            loss = mse_loss(pred, target)
            refs[:] = [weakref.ref(pred.data), weakref.ref(loss.data)]
            return loss

        def watched_step(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(training, "mse_loss", watched_loss)
        monkeypatch.setattr(training, "adam_step", watched_step)
        cfg = TrainConfig(epochs=2, batch_size=1, lr_schedule=((0, 1e-3),), seed=0)
        train(build_model(ModelConfig(**TINY)), tiny_pairs(2, size=32), [], cfg, tmp_path)
        assert alive == [[False, False]] * 4

    def test_no_transformer_ignores_positional(self, tmp_path):
        # no token stage, so no embedding that would never receive a gradient
        model = build_model(ModelConfig(variant="no_transformer", use_positional=True, **TINY))
        assert "pos_enc" not in {name for name, _ in model.named_parameters()}
        cfg = TrainConfig(epochs=1, batch_size=2, lr_schedule=((0, 1e-3),))
        assert train(model, tiny_pairs(2), [], cfg, tmp_path).epochs_run == 1

    def test_deterministic_runs(self, tmp_path):
        histories = []
        for tag in ("a", "b"):
            model = build_model(ModelConfig(**TINY))
            cfg = TrainConfig(epochs=5, batch_size=1, lr_schedule=((0, 1e-3),), seed=7)
            res = train(model, tiny_pairs(2), [], cfg, tmp_path / tag)
            histories.append([row["train_mse"] for row in res.history])
        assert histories[0] == histories[1]

    def test_history_file_layout(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=4, batch_size=2,
                          lr_schedule=((0, 1e-3), (2, 1e-4)), seed=0)
        res = train(model, pairs, pairs[:1], cfg, tmp_path)
        lines = (tmp_path / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_mse,val_rmse_hu,seconds"
        assert len(lines) == 5
        lrs = [line.split(",")[1] for line in lines[1:]]
        assert lrs == ["0.001", "0.001", "0.0001", "0.0001"]
        assert res.epochs_run == 4
        assert np.isfinite(res.final_val_rmse)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_keeps_last_checkpoint(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        cfg = TrainConfig(epochs=5, batch_size=2, clip_norm=0.0,
                          lr_schedule=((0, 1e-4), (1, 1e12)), seed=0)
        with pytest.raises(TrainingDiverged, match="checkpoint"):
            train(model, tiny_pairs(2), [], cfg, tmp_path)
        # the checkpoint on disk predates the detected divergence
        restored, epoch = load_checkpoint(tmp_path / "checkpoint.tck")
        assert epoch < 4
        assert all(np.isfinite(p.data).all() for p in restored.parameters())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_attention_overflow_is_divergence(self, tmp_path):
        # query and key biases of 1e20 overflow the float32 attention scores
        model = build_model(ModelConfig(**TINY))
        attn = model.encoders[0].attn
        attn.wq.bias.data[:] = 1e20
        attn.wk.bias.data[:] = 1e20
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0"):
            train(model, tiny_pairs(2), [], cfg, tmp_path)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_blown_up_forward_pass_is_caught_at_the_edges(self, tmp_path, variant):
        # no op checks for NaN or inf: an overflow inside the forward pass
        # reaches the output, which denoise_image and train refuse
        model = build_model(ModelConfig(**TINY, variant=variant))
        if variant == "no_transformer":
            model.fuse.conv.weight.data[:] = 3e38
        else:
            model.encoders[0].attn.wq.bias.data[:] = 1e20
            model.encoders[0].attn.wk.bias.data[:] = 1e20
        pairs = tiny_pairs(2)
        with pytest.raises(NonFiniteError, match="^denoise_image: the model's output holds NaN"):
            denoise_image(model, pairs[0].ld)
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0"):
            train(model, pairs, [], TrainConfig(epochs=1, batch_size=2), tmp_path)

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["train_step", "validation"])
    def test_unrelated_value_error_is_not_divergence(self, tmp_path, failing_call):
        # only a typed NonFiniteError means divergence; a ValueError that
        # merely mentions the same words must surface unchanged
        model = build_model(ModelConfig(**TINY))
        calls = []

        class Raising:
            config = model.config
            parameters = model.parameters
            zero_grad = model.zero_grad

            def __call__(self, x_low, x_high):
                calls.append(None)
                if len(calls) == failing_call:
                    raise ValueError("user hook saw NaN or infinite values")
                return model(x_low, x_high)

        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(ValueError, match="user hook"):
            train(Raising(), pairs[:2], pairs[2:], cfg, tmp_path)
        assert len(calls) == failing_call

    def test_non_finite_validation_image_is_divergence(self, tmp_path):
        # the forward pass can hand validation NaNs without raising; the
        # RMSE of that image stops the run instead of logging a nan
        model = build_model(ModelConfig(**TINY))
        calls = []

        class NanOnValidation:
            config = model.config
            parameters = model.parameters
            zero_grad = model.zero_grad

            def __call__(self, x_low, x_high):
                calls.append(None)
                out = model(x_low, x_high)
                return out if len(calls) == 1 else Tensor(np.full(out.shape, np.nan, np.float32))

        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=2, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged, match="during validation at epoch 0"):
            train(NanOnValidation(), pairs[:2], pairs[2:], cfg, tmp_path)
        assert not (tmp_path / "checkpoint.tck").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_parameters_after_epoch(self, tmp_path):
        # a finite loss, then an update that overflows every weight
        model = build_model(ModelConfig(**TINY))
        cfg = TrainConfig(epochs=2, batch_size=2, clip_norm=0.0, lr_schedule=((0, 1e39),))
        with pytest.raises(TrainingDiverged,
                           match="non-finite parameters after epoch 0; this run wrote no "
                                 "checkpoint"):
            train(model, tiny_pairs(2), [], cfg, tmp_path)
        assert not (tmp_path / "checkpoint.tck").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_at_epoch_0_names_no_checkpoint(self, tmp_path):
        # a checkpoint left by an earlier run in out_dir is not this run's
        save_checkpoint(build_model(ModelConfig(**TINY)), tmp_path / "checkpoint.tck", 9)
        model = build_model(ModelConfig(**TINY))
        model.encoders[0].attn.wq.bias.data[:] = 1e20
        model.encoders[0].attn.wk.bias.data[:] = 1e20
        with pytest.raises(TrainingDiverged) as err:
            train(model, tiny_pairs(2), [], TrainConfig(epochs=1, batch_size=2), tmp_path)
        assert str(err.value) == "non-finite loss at epoch 0; this run wrote no checkpoint"

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_names_the_checkpoint_it_kept(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        cfg = TrainConfig(epochs=5, batch_size=2, clip_norm=0.0,
                          lr_schedule=((0, 1e-4), (1, 1e12)), seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train(model, tiny_pairs(2), [], cfg, tmp_path)
        ckpt = tmp_path / "checkpoint.tck"
        _, epoch = load_checkpoint(ckpt)
        assert str(err.value).endswith(f"; the epoch-{epoch} checkpoint is kept at {ckpt}")

    def test_patch_size_validation(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.zeros((48, 48), dtype=np.float32), HU)
        pairs = [TrainingPair(ld=img, nd=img)]
        with pytest.raises(ShapeError, match="multiples of 32"):
            train(model, pairs, [], TrainConfig(epochs=1), tmp_path)

    def test_needs_pairs(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        with pytest.raises(ValueError, match="at least one"):
            train(model, [], [], TrainConfig(epochs=1), tmp_path)

    @pytest.mark.parametrize("side, value", [("ld", 1e22), ("nd", -6e23)])
    def test_impossible_hu_named(self, tmp_path, side, value):
        # load_dataset refuses such a pixel in a file; train refuses it from
        # a caller, before it writes anything
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.zeros((32, 32), dtype=np.float32), HU)
        grid = img.grid.copy()
        grid[5, 7] = value
        pairs = [TrainingPair(ld=img, nd=img),
                 TrainingPair(**{"ld": img, "nd": img, side: CtImage(grid, HU)})]
        with pytest.raises(ValueError, match=f"training pair 1: the {side} image holds a "
                                             "pixel beyond ±1e\\+06 HU"):
            train(model, pairs, [], TrainConfig(epochs=1), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("side, value", [("ld", -1e22), ("nd", 1e22)])
    def test_impossible_hu_in_a_validation_pair_named(self, tmp_path, side, value):
        # validation pairs are held to the training pairs' bound, so a
        # damaged one does not read as a huge validation error
        model = build_model(ModelConfig(**TINY))
        img = CtImage(np.zeros((32, 32), dtype=np.float32), HU)
        grid = img.grid.copy()
        grid[3, 4] = value
        val = [TrainingPair(ld=img, nd=img),
               TrainingPair(**{"ld": img, "nd": img, side: CtImage(grid, HU)})]
        with pytest.raises(ValueError, match=f"validation pair 1: the {side} image holds a "
                                             "pixel beyond ±1e\\+06 HU"):
            train(model, [TrainingPair(ld=img, nd=img)], val, TrainConfig(epochs=1),
                  tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_training_pairs_of_another_shape_named(self, tmp_path):
        model = build_model(ModelConfig(**TINY))
        small = CtImage(np.zeros((32, 32), dtype=np.float32), HU)
        large = CtImage(np.zeros((64, 64), dtype=np.float32), HU)
        pairs = [TrainingPair(ld=small, nd=small), TrainingPair(ld=small, nd=small),
                 TrainingPair(ld=large, nd=large)]
        with pytest.raises(ShapeError, match="training pair 2 is 64x64, but pair 0 is 32x32"):
            train(model, pairs, [], TrainConfig(epochs=1), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_validation_pairs_may_differ_in_shape(self, tmp_path):
        # denoise_image pads a validation image to the model's multiple
        model = build_model(ModelConfig(**TINY))
        val = [TrainingPair(ld=CtImage(np.zeros((40, 72), dtype=np.float32), HU),
                            nd=CtImage(np.zeros((40, 72), dtype=np.float32), HU))]
        res = train(model, tiny_pairs(2, size=32), val, TrainConfig(epochs=1, batch_size=2),
                    tmp_path)
        assert math.isfinite(res.final_val_rmse)
