"""Acceptance gate: ten numbered end-to-end checks, one per core claim of
the package, run in order. Each prints a single pass/fail line with the
measured values so a log shows exactly what was achieved.

The overfit gate (criterion 4) trains the quarter-width network for 2000
full-batch steps on eight simulated pairs and is the long pole (~2 min);
the whole module finishes within a few minutes on one CPU.
"""

import time

import numpy as np
import pytest

import ctdenoise as cd
from ctdenoise.cli import main
from ctdenoise.ctsim import DoseConfig, Sinogram, default_geometry, make_phantom
from ctdenoise.freq import decompose
from ctdenoise.metrics import evaluate_pairs, rmse, ssim, vif
from ctdenoise.model import ModelConfig, MultiHeadAttention, build_model
from ctdenoise.tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    leaky_relu,
    linear,
    matmul,
    mul,
    neg,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    sub,
    tmean,
    transpose,
    tsum,
)
from ctdenoise.training import TrainConfig, denoise_image, lr_at, mse_loss, train

from conftest import gradcheck, rel_err, stage_shapes


def report(num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_decomposition_exactness():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        dtype = np.float32 if i % 2 == 0 else np.float64
        img = rng.normal(size=(64, 64)).astype(dtype)
        low, high = decompose(img)
        err = float(np.abs(low + high - img).max())
        worst = max(worst, err)
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-6 and seconds < 5.0
    report(1, "band split recomposes exactly", ok,
           f"max |low+high-x| {worst:.2e} over 100 images, {seconds:.2f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_shape_ledger():
    # 512x512 at quarter width: channel tiers scale to 16/32/64, every
    # spatial extent matches the full-width layout
    t0 = time.perf_counter()
    model = build_model(ModelConfig(width=0.25, seed=0))
    rng = np.random.default_rng(1)
    low = Tensor(rng.normal(size=(1, 1, 512, 512)).astype(np.float32))
    high = Tensor(rng.normal(size=(1, 1, 512, 512)).astype(np.float32))
    with stage_shapes() as trace:
        out = model(low, high)
    seconds = time.perf_counter() - t0
    expected = {
        "x_lc1": (1, 16, 64, 64),
        "x_lc2": (1, 64, 32, 32),
        "x_lt": (1, 64, 16, 16),
        "x_hf": (1, 64, 32, 32),
        "s_l": (1, 256, 64),
        "s_h": (1, 1024, 64),
        "stage1": (1, 16, 64, 64),
    }
    mismatches = {k: (trace.get(k), v) for k, v in expected.items() if trace.get(k) != v}
    if out.shape != (1, 1, 512, 512):
        mismatches["out"] = (out.shape, (1, 1, 512, 512))
    ok = not mismatches and seconds < 60.0
    report(2, "feature shapes at 512x512", ok,
           f"eight stages asserted, mismatches {mismatches or 'none'}, {seconds:.1f}s")


# -- 3 ----------------------------------------------------------------------


def _op_audit():
    rng = np.random.default_rng(2)
    n = lambda *s: rng.normal(size=s)
    cases = [
        ("add", lambda a, b: add(a, b), [n(3, 4), n(3, 4)]),
        ("add-broadcast", lambda a, b: add(a, b), [n(2, 3, 4), n(4)]),
        ("sub", lambda a, b: sub(a, b), [n(3, 4), n(3, 4)]),
        ("neg", neg, [n(3, 4)]),
        ("mul", lambda a, b: mul(a, b), [n(3, 4), n(3, 4)]),
        ("matmul", lambda a, b: matmul(a, b), [n(2, 3, 4), n(2, 4, 5)]),
        ("linear", lambda x, w, b: linear(x, w, b), [n(5, 3), n(3, 4), n(4)]),
        ("reshape", lambda a: reshape(a, (2, 6)), [n(3, 4)]),
        ("transpose", lambda a: transpose(a, (1, 0, 2)), [n(2, 3, 4)]),
        ("concat", lambda a, b: concat([a, b], axis=1), [n(2, 3), n(2, 2)]),
        ("sum", tsum, [n(3, 4)]),
        ("sum-axis", lambda a: tsum(a, axis=1), [n(3, 4)]),
        ("mean", tmean, [n(3, 4)]),
        ("leaky_relu", lambda a: leaky_relu(a, 0.2), [n(4, 4) + 0.3]),
        ("softmax", lambda a: softmax(a, axis=-1), [n(3, 5)]),
        ("conv2d-s1", lambda x, w, b: conv2d(x, w, b), [n(1, 2, 5, 5), n(3, 2, 3, 3), n(3)]),
        ("conv2d-s2", lambda x, w, b: conv2d(x, w, b, stride=2), [n(1, 2, 6, 6), n(3, 2, 3, 3), n(3)]),
        ("pixel_shuffle", lambda a: pixel_shuffle(a, 2), [n(1, 8, 3, 3)]),
        ("pixel_unshuffle", lambda a: pixel_unshuffle(a, 2), [n(1, 2, 6, 6)]),
    ]
    for name, op, arrays in cases:
        gradcheck(op, arrays, tol=1e-4)
    return len(cases)


def _end_to_end_audit():
    """Central finite differences through the whole network in float64,
    sampling two coordinates of every parameter tensor."""
    model = build_model(ModelConfig(width=0.125, n_heads=2, seed=4))
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    rng = np.random.default_rng(5)
    low = Tensor(rng.normal(scale=0.5, size=(1, 1, 64, 64)))
    high = Tensor(rng.normal(scale=0.5, size=(1, 1, 64, 64)))
    target = Tensor(rng.normal(scale=0.5, size=(1, 1, 64, 64)))

    def loss_value():
        return mse_loss(model(low, high), target)

    loss = loss_value()
    model.zero_grad()
    loss.backward()

    h = 1e-5
    worst = 0.0
    for name, p in model.named_parameters():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        coords = rng.choice(flat.size, size=min(2, flat.size), replace=False)
        ana = grad[coords]
        num = np.empty_like(ana)
        for j, c in enumerate(coords):
            orig = flat[c]
            flat[c] = orig + h
            up = loss_value().item()
            flat[c] = orig - h
            down = loss_value().item()
            flat[c] = orig
            num[j] = (up - down) / (2 * h)
        err = rel_err(ana, num)
        worst = max(worst, err)
        assert err < 1e-3, f"{name}: end-to-end gradient rel err {err:.2e}"
    return worst


def test_criterion_03_gradient_audit():
    t0 = time.perf_counter()
    n_ops = _op_audit()
    worst = _end_to_end_audit()
    seconds = time.perf_counter() - t0
    ok = seconds < 600.0
    report(3, "finite-difference gradient audit", ok,
           f"{n_ops} ops < 1e-4; end-to-end worst rel err {worst:.2e} < 1e-3; {seconds:.0f}s")


# -- 4 ----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_04_overfit_gate(tmp_path):
    # eight quarter-dose pairs, 2000 full-batch steps at lr 1e-3; the gate
    # scores the run's own first patch: denoised-vs-normal-dose must beat
    # the raw low-dose image
    t0 = time.perf_counter()
    pairs = cd.make_dataset(8, 64, DoseConfig(i0=2e4, dose_fraction=0.25), seed=42)
    model = build_model(ModelConfig(width=0.25, seed=0))
    cfg = TrainConfig(epochs=2000, batch_size=8, lr_schedule=((0, 1e-3),), seed=0)
    res = train(model, pairs, [], cfg, tmp_path)
    ratio = res.history[0]["train_mse"] / res.history[-1]["train_mse"]
    denoised = denoise_image(model, pairs[0].ld)
    val = rmse(denoised.grid.astype(np.float64), pairs[0].nd.grid.astype(np.float64))
    raw = rmse(pairs[0].ld.grid.astype(np.float64), pairs[0].nd.grid.astype(np.float64))
    seconds = time.perf_counter() - t0
    ok = ratio >= 100.0 and val < raw and seconds < 1800.0
    report(4, "overfit gate", ok,
           f"train mse down {ratio:.0f}x (>=100), denoised {val:.2f} HU < raw "
           f"{raw:.2f} HU, {seconds:.0f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_residual_identity():
    model = build_model(ModelConfig(width=0.25, seed=6))
    for enc in model.encoders:
        for p in (enc.attn.wo.weight, enc.attn.wo.bias, enc.ffn.fc2.weight, enc.ffn.fc2.bias):
            p.data[...] = 0.0
    for dec in model.decoders:
        for p in (dec.self_attn.wo.weight, dec.self_attn.wo.bias,
                  dec.cross_attn.wo.weight, dec.cross_attn.wo.bias,
                  dec.ffn.fc2.weight, dec.ffn.fc2.bias):
            p.data[...] = 0.0
    rng = np.random.default_rng(7)
    tokens = rng.normal(size=(2, 16, 64))
    memory = Tensor(rng.normal(size=(2, 9, 64)))
    worst = 0.0
    for enc in model.encoders:
        worst = max(worst, float(np.abs(enc(Tensor(tokens)).numpy() - tokens).max()))
    for dec in model.decoders:
        worst = max(worst, float(np.abs(dec(Tensor(tokens), memory).numpy() - tokens).max()))
    ok = worst <= 1e-7
    report(5, "zeroed projections give identity layers", ok,
           f"max deviation {worst:.2e} over 3 encoder + 3 decoder layers")


# -- 6 ----------------------------------------------------------------------


def _dense_attention(x_q, x_kv, layer):
    lin = lambda x, m: x @ m.weight.data + m.bias.data
    h = layer.n_heads
    d = x_q.shape[-1] // h
    q, k, v = lin(x_q, layer.wq), lin(x_kv, layer.wk), lin(x_kv, layer.wv)
    outs = []
    for i in range(h):
        sl = slice(i * d, (i + 1) * d)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, sl])
    return lin(np.concatenate(outs, axis=-1), layer.wo)


def test_criterion_06_attention_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n_heads in (1, 4):
        layer = MultiHeadAttention(16, n_heads, rng)
        x = rng.normal(size=(3, 7, 16))
        got = layer(Tensor(x)).numpy()
        for b in range(3):
            worst = max(worst, float(np.abs(got[b] - _dense_attention(x[b], x[b], layer)).max()))
    ok = worst <= 1e-6
    report(6, "multi-head attention equals dense reference", ok,
           f"max |mha - softmax(QK^T/sqrt(d))V| {worst:.2e}, 1-head and 4-head")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_dose_statistics():
    # 10^4 rays at a fixed line integral; quarter dose must show 3-5x the
    # projection-domain noise variance of full dose
    geom = default_geometry(64)
    p0 = 1.2
    sino = Sinogram(np.full((100, 100), p0), geom)
    quarter = cd.insert_poisson_noise(sino, DoseConfig(i0=1e5, dose_fraction=0.25), 9)
    full = cd.insert_poisson_noise(sino, DoseConfig(i0=1e5, dose_fraction=1.0), 10)
    ratio = float((quarter.values - p0).var() / (full.values - p0).var())
    ok = 3.0 <= ratio <= 5.0
    report(7, "quarter-dose projection noise variance", ok,
           f"variance ratio {ratio:.3f} in [3, 5] over 10^4 draws")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_metric_identities(dataset10):
    x = make_phantom(0, 64).grid.astype(np.float64)
    id_rmse = rmse(x, x)
    id_ssim = ssim(x, x)
    id_vif = vif(x, x)
    nds = [p.nd.grid.astype(np.float64) for p in dataset10]
    lds = [p.ld.grid.astype(np.float64) for p in dataset10]
    perfect = evaluate_pairs(nds, nds)
    noisy = evaluate_pairs(lds, nds)
    ok = (
        id_rmse == 0.0
        and abs(id_ssim - 1.0) <= 1e-6
        and abs(id_vif - 1.0) <= 1e-6
        and perfect.rmse_mean < noisy.rmse_mean
        and perfect.ssim_mean > noisy.ssim_mean
        and perfect.vif_mean > noisy.vif_mean
    )
    report(8, "metric identities and ranking", ok,
           f"self rmse {id_rmse:g} ssim {id_ssim:.7f} vif {id_vif:.7f}; over 10 pairs "
           f"rmse {perfect.rmse_mean:.2f}<{noisy.rmse_mean:.2f}, "
           f"ssim {perfect.ssim_mean:.4f}>{noisy.ssim_mean:.4f}, "
           f"vif {perfect.vif_mean:.4f}>{noisy.vif_mean:.4f}")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_ablation_harness(tmp_path, capsys):
    # all three variants plus the feed-forward width sweep, 50 steps each
    # (three pairs, batch 2, one validation pair held out)
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(
        "data.n_pairs = 3\ndata.size = 64\ndata.n_views = 60\ndata.i0 = 2e4\n"
        "model.width = 0.0625\nmodel.n_heads = 2\nmodel.ffn_mult = 2\n"
        "train.epochs = 50\ntrain.batch_size = 2\ntrain.lr = 1e-3\n"
        "train.val_pairs = 1\n"
    )
    t0 = time.perf_counter()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    code = main(["ablate", "--config", str(cfg),
                 "--data", str(tmp_path / "data"), "--out", str(tmp_path / "runs")])
    seconds = time.perf_counter() - t0
    out = capsys.readouterr().out
    labels = ("full", "no_transformer", "no_dual_path", "full-ffn1", "full-ffn4", "full-ffn8")
    completed = []
    for label in labels:
        history = tmp_path / "runs" / label / "history.csv"
        completed.append(
            history.exists() and len(history.read_text().strip().splitlines()) == 51
        )
    table_ok = all(label in out for label in labels) and "rmse_hu" in out and "params" in out
    ok = code == 0 and all(completed) and table_ok
    report(9, "ablation harness", ok,
           f"6 runs x 50 steps completed, summary table emitted, {seconds:.0f}s")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_schedule_boundary():
    schedule = TrainConfig().lr_schedule
    before, at = lr_at(schedule, 179), lr_at(schedule, 180)
    ok = (
        schedule == ((0, 1e-4), (180, 1e-5))
        and before == 1e-4
        and at == 1e-5
        and lr_at(schedule, 0) == 1e-4
        and lr_at(schedule, 1000) == 1e-5
    )
    report(10, "learning-rate drop at the boundary epoch", ok,
           f"epoch 179 -> {before:g}, epoch 180 -> {at:g}")
