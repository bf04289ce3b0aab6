"""End-to-end command-line pipeline at smoke scale, plus exit-code policy.

A module-scoped workspace runs simulate + train once; individual tests
reuse those artifacts to keep the suite fast.
"""

import json
import shutil

import numpy as np
import pytest

from conftest import MALFORMED_HEADERS, write_header_only_checkpoint
from ctdenoise.cli import main
from ctdenoise.config import parse_config_text
from ctdenoise.ctsim import load_dataset
from ctdenoise.model import ModelConfig, build_model, count_parameters
from ctdenoise.tctio import read_tensor, write_tensor
from ctdenoise.training import CHECKPOINT_MAGIC, save_checkpoint

def nan_image(path):
    """A 64x64 HU image with one NaN pixel."""
    grid = np.zeros((64, 64), np.float32)
    grid[10, 20] = np.nan
    write_tensor(path, grid)
    return path


def far_image(path, value):
    """A 64x64 HU image with one pixel at ``value``, a flipped exponent bit
    away from a CT number."""
    grid = np.zeros((64, 64), np.float32)
    grid[10, 20] = value
    write_tensor(path, grid)
    return path


SMOKE_CFG = """
data.n_pairs = 3
data.size = 64
data.n_views = 60
data.i0 = 2e4
data.seed = 5
model.width = 0.0625
model.n_heads = 2
model.ffn_mult = 2
train.epochs = 3
train.batch_size = 2
train.lr = 1e-3
train.lr_drop_epoch = 2
train.lr_dropped = 1e-4
train.val_pairs = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(SMOKE_CFG)
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert main([
        "train", "--config", str(cfg),
        "--data", str(root / "data"), "--out", str(root / "model"),
    ]) == 0
    return root


class TestSimulate:
    def test_dataset_layout(self, workspace):
        data = workspace / "data"
        assert (data / "manifest").exists()
        for i in range(3):
            assert (data / "pairs" / str(i) / "ld.tct").exists()
            assert (data / "pairs" / str(i) / "nd.tct").exists()
        ld = read_tensor(data / "pairs" / "0" / "ld.tct")
        assert ld.shape == (64, 64)

    def test_manifest_records_geometry(self, workspace):
        text = (workspace / "data" / "manifest").read_text()
        assert "data.seed = 5" in text
        assert "geom.n_detectors = 93" in text

    def test_refuses_overwrite(self, workspace, capsys):
        cfg = workspace / "run.cfg"
        assert main(["simulate", "--config", str(cfg), "--out", str(workspace / "data")]) == 1
        assert "--force" in capsys.readouterr().err

    def test_force_smaller_dataset_drops_stale_pairs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "d"
        for n in (3, 2):
            cfg.write_text(f"data.n_pairs = {n}\ndata.size = 32\ndata.n_views = 20\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(out), "--force"]) == 0
        pairs, manifest = load_dataset(out)
        assert len(pairs) == 2
        assert manifest["data.n_pairs"] == "2"
        assert sorted(p.name for p in (out / "pairs").iterdir()) == ["0", "1"]

    def test_seed_override_reaches_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.n_pairs = 1\ndata.size = 64\ndata.n_views = 30\n")
        assert main(["simulate", "--config", str(cfg), "--seed", "11",
                     "--out", str(tmp_path / "d")]) == 0
        assert "data.seed = 11" in (tmp_path / "d" / "manifest").read_text()

    def test_zero_views_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.n_pairs = 1\ndata.size = 32\ndata.n_views = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "n_views" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_non_finite_i0(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.n_pairs = 1\ndata.size = 32\ndata.i0 = nan\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert f"{cfg}:3: bad value for data.i0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"data.n_pairs = 2\n\xff\xfe = 3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert f"{cfg}: config file is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_directory_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfgdir"
        cfg.mkdir()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert f"config file not found: {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestDecompose:
    def test_band_split_outputs(self, workspace, capsys):
        src = workspace / "data" / "pairs" / "0" / "ld.tct"
        out = workspace / "bands"
        assert main(["decompose", "--input", str(src), "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "max recomposition error" in msg
        low = read_tensor(out / "low.tct")
        high = read_tensor(out / "high.tct")
        original = read_tensor(src)
        # single-precision HU values: exact to one ulp of the data scale
        tol = 1e-6 * max(1.0, float(np.abs(original).max()))
        assert np.abs(low + high - original).max() <= tol

    def test_rejects_non_image(self, tmp_path, capsys):
        bad = tmp_path / "vec.tct"
        write_tensor(bad, np.zeros(7, dtype=np.float32))
        assert main(["decompose", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "2-d" in capsys.readouterr().err

    def test_rejects_non_finite_image(self, tmp_path, capsys):
        src = nan_image(tmp_path / "nan.tct")
        assert main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")]) == 1
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "low.tct").exists()

    @pytest.mark.parametrize("value", [6e23, 1e30])
    def test_rejects_impossible_hu(self, tmp_path, capsys, value):
        src = far_image(tmp_path / "far.tct", value)
        assert main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")]) == 1
        assert f"{src}: image holds a pixel beyond ±1e+06 HU" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("sigma", ["1e12", "1e308"])
    def test_sigma_larger_than_the_image(self, workspace, tmp_path, capsys, sigma):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"model.sigma = {sigma}\n")
        src = workspace / "data" / "pairs" / "0" / "ld.tct"
        code = main(["decompose", "--config", str(cfg), "--input", str(src),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "is smaller than the" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_artifacts(self, workspace):
        model = workspace / "model"
        assert (model / "checkpoint.tck").exists()
        history = (model / "history.csv").read_text().strip().splitlines()
        assert len(history) == 4  # header + 3 epochs
        assert history[0].startswith("epoch,")
        # the dumped config parses back and pins the run
        resolved = parse_config_text((model / "run.cfg").read_text())
        assert resolved["train.epochs"] == 3

    def test_lr_drop_in_history(self, workspace):
        lines = (workspace / "model" / "history.csv").read_text().strip().splitlines()
        lrs = [line.split(",")[1] for line in lines[1:]]
        assert lrs == ["0.001", "0.001", "0.0001"]

    def test_refuses_overwrite(self, workspace, capsys):
        cfg = workspace / "run.cfg"
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(workspace / "model")])
        assert code == 1
        assert "--force" in capsys.readouterr().err

    def test_missing_dataset(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace / "run.cfg"),
                     "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m")])
        assert code == 1

    def test_stray_dataset_entry(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        (data / "pairs" / "notes").write_text("not a pair\n")
        code = main(["train", "--config", str(workspace / "run.cfg"),
                     "--data", str(data), "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(data) in err and "'notes'" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_dataset_named(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data"
        (data / "pairs").mkdir(parents=True)
        shutil.copy(workspace / "data" / "manifest", data / "manifest")
        where = (["--config", str(workspace / "run.cfg"), "--out", str(tmp_path / "m")]
                 if command == "train" else
                 ["--checkpoint", str(workspace / "model" / "checkpoint.tck")])
        assert main([command, "--data", str(data), *where]) == 1
        assert f"dataset {data}: pairs/ holds no pairs" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_too_many_val_pairs(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG + "train.val_pairs = 5\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "val_pairs" in capsys.readouterr().err

    def test_negative_val_pairs(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG + "train.val_pairs = -1\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "train.val_pairs must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("line, named", [("train.epochs = 0", "epochs must be >= 1"),
                                             ("model.width = 0.3", "width 0.3")])
    def test_refused_config_leaves_no_run_dir(self, workspace, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMOKE_CFG + line + "\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_model_too_large_to_allocate(self, workspace, tmp_path, capsys, command):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMOKE_CFG + "model.width = 1e9\n")
        code = main([command, "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_patch_size_refused_before_the_run_dir(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMOKE_CFG.replace("data.n_pairs = 3", "data.n_pairs = 2")
                       .replace("data.size = 64", "data.size = 48"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        code = main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "m")])
        assert code == 1
        assert ("training patches must be multiples of 32, got 48x48"
                in capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    def test_mixed_pair_shapes_refused_before_the_run_dir(self, tmp_path, capsys):
        # pairs 0 and 1 are 32x32, pair 2 is 64x64; all three are trained
        data = tmp_path / "data"
        for i, size in enumerate((32, 32, 64)):
            (data / "pairs" / str(i)).mkdir(parents=True)
            for name in ("ld.tct", "nd.tct"):
                write_tensor(data / "pairs" / str(i) / name, np.zeros((size, size), np.float32))
        (data / "manifest").write_text("data.n_pairs = 3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMOKE_CFG.replace("train.val_pairs = 1", "train.val_pairs = 0"))
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "m")])
        assert code == 1
        assert "training pair 2 is 64x64, but pair 0 is 32x32" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exit_code(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMOKE_CFG + "train.lr = 1e12\ntrain.clip_norm = 0\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_in_epoch_0_drops_an_earlier_checkpoint(self, workspace, tmp_path,
                                                               capsys):
        out = tmp_path / "m"
        out.mkdir()
        save_checkpoint(build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2)),
                        out / "checkpoint.tck", 9)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMOKE_CFG + "train.lr = 1e12\ntrain.clip_norm = 0\n")
        code = main(["train", "--config", str(cfg), "--force",
                     "--data", str(workspace / "data"), "--out", str(out)])
        assert code == 3
        assert "this run wrote no checkpoint" in capsys.readouterr().err
        assert not (out / "checkpoint.tck").exists()

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("train.epoch = 3\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_non_finite_clip_norm(self, workspace, tmp_path, capsys):
        # a nan clip_norm used to switch gradient clipping off silently
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(SMOKE_CFG + "train.clip_norm = nan\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{len(SMOKE_CFG.splitlines()) + 1}: bad value for train.clip_norm" in err
        assert not (tmp_path / "m").exists()


class TestDenoise:
    def test_padding_path_round_trip(self, workspace, capsys):
        # a 50x50 crop exercises the reflect-pad/crop path end to end
        src = read_tensor(workspace / "data" / "pairs" / "0" / "ld.tct")[:50, :50]
        inp = workspace / "crop.tct"
        write_tensor(inp, src.astype(np.float32))
        out = workspace / "crop_out.tct"
        code = main(["denoise", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--input", str(inp), "--out", str(out)])
        assert code == 0
        assert "50x50" in capsys.readouterr().out
        result = read_tensor(out)
        assert result.shape == (50, 50)
        assert np.isfinite(result).all()
        assert result.min() >= -1000.0

    def test_refuses_overwrite(self, workspace, capsys):
        inp = workspace / "crop.tct"
        out = workspace / "crop_out.tct"
        code = main(["denoise", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--input", str(inp), "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        code = main(["denoise", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--input", str(inp), "--out", str(out), "--force"])
        assert code == 0

    def test_input_off_the_positional_size(self, tmp_path, capsys):
        model = build_model(ModelConfig(width=0.0625, n_heads=2, use_positional=True,
                                        pos_image_size=64))
        save_checkpoint(model, tmp_path / "pos.tck", 0)
        write_tensor(tmp_path / "big.tct", np.zeros((96, 96), np.float32))
        code = main(["denoise", "--checkpoint", str(tmp_path / "pos.tck"),
                     "--input", str(tmp_path / "big.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        err = capsys.readouterr().err
        assert "pos_image_size" in err and "96x96" in err
        assert not (tmp_path / "o.tct").exists()

    def test_bad_checkpoint(self, workspace, tmp_path, capsys):
        bad = tmp_path / "junk.tck"
        bad.write_bytes(b"not a checkpoint")
        code = main(["denoise", "--checkpoint", str(bad),
                     "--input", str(workspace / "crop.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_checkpoint_with_trailing_bytes(self, workspace, tmp_path, capsys):
        bad = tmp_path / "long.tck"
        bad.write_bytes((workspace / "model" / "checkpoint.tck").read_bytes() + b"\0" * 29)
        code = main(["denoise", "--checkpoint", str(bad),
                     "--input", str(workspace / "crop.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert "trailing 29 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["full", "no_transformer"])
    def test_non_finite_image(self, tmp_path, capsys, variant):
        model = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2, variant=variant))
        save_checkpoint(model, tmp_path / "m.tck", 0)
        src = nan_image(tmp_path / "nan.tct")
        code = main(["denoise", "--checkpoint", str(tmp_path / "m.tck"),
                     "--input", str(src), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert "decompose: image contains NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "o.tct").exists()

    def test_non_finite_output_refused(self, tmp_path, capsys):
        # one NaN weight in the last block reaches some output pixels but
        # no attention score, so nothing upstream of the output stops it
        model = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2,
                                        variant="no_transformer"))
        model.res2.conv2.weight.data[0, 0, 1, 1] = np.nan
        save_checkpoint(model, tmp_path / "m.tck", 0)
        write_tensor(tmp_path / "in.tct", np.zeros((64, 64), np.float32))
        code = main(["denoise", "--checkpoint", str(tmp_path / "m.tck"),
                     "--input", str(tmp_path / "in.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert "denoise_image: the model's output holds NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.tct").exists()

    def test_checkpoint_with_an_infinite_sigma(self, workspace, tmp_path, capsys):
        raw = (workspace / "model" / "checkpoint.tck").read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["config"]["sigma"] = float("inf")
        blob = json.dumps(header).encode()
        bad = tmp_path / "inf_sigma.tck"
        bad.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen:])
        code = main(["denoise", "--checkpoint", str(bad),
                     "--input", str(workspace / "crop.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert "sigma must be finite and positive, got inf" in capsys.readouterr().err
        assert not (tmp_path / "o.tct").exists()

    @pytest.mark.parametrize("value", [6e23, 1e30])
    def test_impossible_hu_named(self, tmp_path, capsys, value):
        model = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=2))
        save_checkpoint(model, tmp_path / "m.tck", 0)
        src = far_image(tmp_path / "far.tct", value)
        code = main(["denoise", "--checkpoint", str(tmp_path / "m.tck"),
                     "--input", str(src), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert f"{src}: image holds a pixel beyond ±1e+06 HU" in capsys.readouterr().err
        assert not (tmp_path / "o.tct").exists()

    def test_checkpoint_config_of_the_wrong_type(self, workspace, tmp_path, capsys):
        raw = (workspace / "model" / "checkpoint.tck").read_bytes()
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        header["config"]["n_heads"] = float(header["config"]["n_heads"])
        blob = json.dumps(header).encode()
        bad = tmp_path / "float_heads.tck"
        bad.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen:])
        code = main(["denoise", "--checkpoint", str(bad),
                     "--input", str(workspace / "crop.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.tct").exists()

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_checkpoint_header(self, workspace, tmp_path, capsys, header):
        bad = tmp_path / "bad.tck"
        write_header_only_checkpoint(bad, header)
        code = main(["denoise", "--checkpoint", str(bad),
                     "--input", str(workspace / "crop.tct"), "--out", str(tmp_path / "o.tct")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEval:
    def test_reports_both_rows(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 pairs" in out
        assert "low-dose" in out and "denoised" in out
        assert out.count("rmse") == 2

    def test_header_names_the_train_split(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "3 pairs (reference: normal dose; the last 1 held out by "
            "train.val_pairs, the first 2 trained on)")

    def test_header_without_held_out_pairs(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("train.val_pairs = 0\n")
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 0
        assert "the last 0 held out by train.val_pairs, the first 3 trained on" in (
            capsys.readouterr().out)

    def test_split_from_the_checkpoints_run(self, workspace, tmp_path, capsys):
        # without --config, eval reads the run.cfg train wrote next to the checkpoint
        cfg = tmp_path / "two.cfg"
        cfg.write_text(SMOKE_CFG + "train.val_pairs = 2\ntrain.epochs = 1\n")
        assert main(["train", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(tmp_path / "m" / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "3 pairs (reference: normal dose; the last 2 held out by "
            "train.val_pairs, the first 1 trained on)")

    def test_run_cfg_not_utf8(self, workspace, tmp_path, capsys):
        # the run.cfg read next to the checkpoint is named like a --config file
        shutil.copy(workspace / "model" / "checkpoint.tck", tmp_path)
        (tmp_path / "run.cfg").write_bytes(b"train.val_pairs = \xff\n")
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 2
        assert f"{tmp_path / 'run.cfg'}: config file is not UTF-8" in capsys.readouterr().err

    def test_run_cfg_directory(self, workspace, tmp_path, capsys):
        shutil.copy(workspace / "model" / "checkpoint.tck", tmp_path)
        (tmp_path / "run.cfg").mkdir()
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.tck"),
                     "--data", str(workspace / "data")])
        assert code == 2
        assert f"config file not found: {tmp_path / 'run.cfg'}" in capsys.readouterr().err

    def test_dataset_train_would_refuse(self, workspace, tmp_path, capsys):
        # one pair at the default val_pairs = 1 leaves train nothing to fit
        cfg = tmp_path / "one.cfg"
        cfg.write_text("data.n_pairs = 1\ndata.size = 64\ndata.n_views = 30\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--data", str(tmp_path / "d")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("1 pairs (reference: normal dose; no train split: ")
        assert out.count("rmse") == 2

    def test_images_too_small_for_vif(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("data.n_pairs = 1\ndata.size = 32\ndata.n_views = 20\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(workspace / "model" / "checkpoint.tck"),
                     "--data", str(tmp_path / "d")])
        assert code == 1
        assert ("vif needs images of at least 41x41 pixels for its four scales, "
                "got (32, 32)") in capsys.readouterr().err


class TestAblate:
    def test_all_variants_and_ffn_sweep(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(SMOKE_CFG.replace("train.epochs = 3", "train.epochs = 2"))
        code = main(["ablate", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "config" in out and "params" in out and "rmse_hu" in out
        for label in ("full", "no_transformer", "no_dual_path",
                      "full-ffn1", "full-ffn4", "full-ffn8"):
            assert label in out
            assert (tmp_path / "runs" / label / "checkpoint.tck").exists()

    def test_images_too_small_for_vif_refused_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMOKE_CFG.replace("data.n_pairs = 3", "data.n_pairs = 2")
                       .replace("data.size = 64", "data.size = 32"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        code = main(["ablate", "--config", str(cfg),
                     "--data", str(tmp_path / "d"), "--out", str(tmp_path / "runs")])
        assert code == 1
        assert ("vif needs images of at least 41x41 pixels for its four scales, "
                "got (32, 32)") in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_runs_keep_their_params(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMOKE_CFG + "train.epochs = 2\ntrain.lr = 1e12\ntrain.clip_norm = 0\n")
        code = main(["ablate", "--config", str(cfg),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / "runs")])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        runs = {"full": ("full", 2), "no_transformer": ("no_transformer", 2),
                "no_dual_path": ("no_dual_path", 2), "full-ffn1": ("full", 1),
                "full-ffn4": ("full", 4), "full-ffn8": ("full", 8)}
        assert [row.split()[0] for row in rows] == list(runs)
        for row, (variant, mult) in zip(rows, runs.values()):
            model = build_model(ModelConfig(width=0.0625, n_heads=2, ffn_mult=mult,
                                            variant=variant))
            assert row.split()[1:] == [str(count_parameters(model)), "diverged", "or", "no",
                                       "val", "pairs"]


class TestParser:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_train_takes_the_variant_from_the_config_only(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", "d", "--out", "o", "--variant", "no_transformer"])
        assert err.value.code == 2
        assert "--variant" in capsys.readouterr().err

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "somewhere"])
        assert err.value.code == 2
